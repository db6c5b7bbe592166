(** ROBDD back-end for the GAIA-style interpreter.  Functions carry
    their universe size; [project]/[extend] rename positions by
    Shannon-expansion rebuild, which keeps the result reduced under the
    global hash-consing. *)

type t = { n : int; f : Prax_bdd.Bdd.t }

let name = "bdd"

open Prax_bdd

let top n = { n; f = Bdd.one }
let bottom n = { n; f = Bdd.zero }

let iff_c n pos set = { n; f = Bdd.iff pos (List.sort_uniq compare set) }

let lit n pos b = { n; f = (if b then Bdd.var pos else Bdd.nvar pos) }

let conj a b = { n = max a.n b.n; f = Bdd.conj a.f b.f }
let disj a b = { n = max a.n b.n; f = Bdd.disj a.f b.f }

let ite c t e = Bdd.disj (Bdd.conj c t) (Bdd.conj (Bdd.neg c) e)

(* rebuild with variable substitution; correct for arbitrary mappings *)
let rename (m : int -> int) : Bdd.t -> Bdd.t =
  Bdd.memo_rec (fun go f ->
      match f with
      | Bdd.Leaf _ -> f
      | Bdd.Node { var = v; lo; hi; _ } -> ite (Bdd.var (m v)) (go hi) (go lo))

(* Keep positions [kept] (slot j holds position [kept_j]): quantify out
   every other position, rename each kept position to the first slot it
   fills, and tie any further slot of the same position to that one.
   Quantifying before renaming keeps the intermediate BDDs over the
   kept positions only. *)
let project a kept =
  let slot = Hashtbl.create 8 in
  List.iteri
    (fun j p -> if not (Hashtbl.mem slot p) then Hashtbl.add slot p j)
    kept;
  let quantified = Bdd.exists_when (fun v -> not (Hashtbl.mem slot v)) a.f in
  let f = rename (Hashtbl.find slot) quantified in
  let f, k =
    List.fold_left
      (fun (f, j) p ->
        let first = Hashtbl.find slot p in
        if first = j then (f, j + 1)
        else (Bdd.conj f (Bdd.iff2 (Bdd.var j) (Bdd.var first)), j + 1))
      (f, 0) kept
  in
  { n = k; f }

let extend a mapping n =
  let arr = Array.of_list mapping in
  { n; f = rename (fun v -> arr.(v)) a.f }

let equal a b = Bdd.equal a.f b.f
let hash a = Bdd.id a.f
let is_empty a = Bdd.is_false a.f

let definite a = Array.init a.n (fun v -> Bdd.definite_at a.f v)

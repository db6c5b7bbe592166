(** Reduced ordered binary decision diagrams (Bryant), hash-consed with a
    memoized [apply].

    This is the boolean-function representation the paper *argues
    against* for Prop-based analysis ([10, 40] use BDDs / Toupie): the
    repository uses it for the representation ablation bench and as an
    alternative back-end of the GAIA-style analyzer, so the enumerative
    vs symbolic comparison the paper makes in Section 4 can be
    re-measured.

    Variables are non-negative integers ordered by value.  Nodes are
    hash-consed, so structural equality is physical equality — within
    one run: {!reset} drops the hash-cons table and the apply memo when
    a run ends, so a BDD must not outlive the run that built it (a stale
    node is never equal to a node built after the reset). *)

type t = Leaf of bool | Node of { id : int; var : int; lo : t; hi : t }

let id = function Leaf false -> 0 | Leaf true -> 1 | Node { id; _ } -> id

let zero = Leaf false
let one = Leaf true

(* hash-cons table: (var, lo-id, hi-id) -> node; process-global, like
   the apply memo below, and emptied by [reset] at the end of a run.
   [next_id] never goes back, so no node built after a reset shares an
   id with a stale one and no memo key can alias across runs. *)
module Key = struct
  type t = int * int * int

  let equal ((a, b, c) : t) ((a', b', c') : t) = a = a' && b = b' && c = c'
  let hash ((a, b, c) : t) = (((a * 65599) + b) * 65599) + c
end

module Tbl = Hashtbl.Make (Key)

let table : t Tbl.t = Tbl.create 1024
let next_id = ref 2

let node var lo hi =
  if id lo = id hi then lo
  else
    let key = (var, id lo, id hi) in
    match Tbl.find_opt table key with
    | Some n -> n
    | None ->
        let n = Node { id = !next_id; var; lo; hi } in
        incr next_id;
        Tbl.add table key n;
        n

let var v = node v zero one
let nvar v = node v one zero

let equal a b = id a = id b

(* --- apply ----------------------------------------------------------------- *)

let apply_cache : t Tbl.t = Tbl.create 4096

type op = And | Or | Xor | Imp | Iff

let op_code = function And -> 0 | Or -> 1 | Xor -> 2 | Imp -> 3 | Iff -> 4

let eval_op op a b =
  match op with
  | And -> a && b
  | Or -> a || b
  | Xor -> a <> b
  | Imp -> (not a) || b
  | Iff -> a = b

let rec apply op a b =
  match (a, b) with
  | Leaf x, Leaf y -> if eval_op op x y then one else zero
  | _ ->
      (* short circuits *)
      let shortcut =
        match (op, a, b) with
        | And, Leaf false, _ | And, _, Leaf false -> Some zero
        | And, Leaf true, x | And, x, Leaf true -> Some x
        | Or, Leaf true, _ | Or, _, Leaf true -> Some one
        | Or, Leaf false, x | Or, x, Leaf false -> Some x
        | _ -> None
      in
      (match shortcut with
      | Some r -> r
      | None ->
          let key = (op_code op, id a, id b) in
          (match Tbl.find_opt apply_cache key with
          | Some r -> r
          | None ->
              let split =
                match (a, b) with
                | Node na, Node nb ->
                    if na.var = nb.var then (na.var, na.lo, na.hi, nb.lo, nb.hi)
                    else if na.var < nb.var then (na.var, na.lo, na.hi, b, b)
                    else (nb.var, a, a, nb.lo, nb.hi)
                | Node na, Leaf _ -> (na.var, na.lo, na.hi, b, b)
                | Leaf _, Node nb -> (nb.var, a, a, nb.lo, nb.hi)
                | Leaf _, Leaf _ -> assert false
              in
              let v, alo, ahi, blo, bhi = split in
              let r = node v (apply op alo blo) (apply op ahi bhi) in
              Tbl.add apply_cache key r;
              r))

(** End of a run: drop every hash-consed node and memoized [apply]
    result, so a long-lived process (a daemon worker, the bench loop)
    does not carry one run's nodes into the next.  BDDs built before the
    call must not be used after it. *)
let reset () =
  Tbl.reset table;
  Tbl.reset apply_cache

let conj a b = apply And a b
let disj a b = apply Or a b
let xor a b = apply Xor a b
let imp a b = apply Imp a b
let iff2 a b = apply Iff a b

let rec neg = function
  | Leaf b -> if b then zero else one
  | Node { var = v; lo; hi; _ } -> node v (neg lo) (neg hi)

(** [x_v ↔ (x_1 ∧ … ∧ x_k)] for the positions in [set] — the Prop
    abstraction of one binding. *)
let iff v set =
  let conj_set = List.fold_left (fun acc p -> conj acc (var p)) one set in
  iff2 (var v) conj_set

(* --- quantification and restriction ----------------------------------------- *)

(* Per-call memo on node ids: each shared subgraph is rebuilt once. *)
let memo_rec (step : (t -> t) -> t -> t) : t -> t =
  let memo = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Leaf _ -> step go f
    | Node { id; _ } -> (
        match Hashtbl.find_opt memo id with
        | Some r -> r
        | None ->
            let r = step go f in
            Hashtbl.add memo id r;
            r)
  in
  go

let rec restrict f v value =
  match f with
  | Leaf _ -> f
  | Node { var = w; lo; hi; _ } ->
      if w = v then if value then hi else lo
      else if w > v then f
      else node w (restrict lo v value) (restrict hi v value)

let exists f v = disj (restrict f v false) (restrict f v true)

(** [exists_when drop f]: quantify out every variable satisfying [drop],
    in one memoized pass. *)
let exists_when drop f =
  memo_rec
    (fun go f ->
      match f with
      | Leaf _ -> f
      | Node { var = v; lo; hi; _ } ->
          if drop v then disj (go lo) (go hi) else node v (go lo) (go hi))
    f

let rec forall_list f = function [] -> f | v :: vs -> forall_list (exists f v) vs

(* --- satisfying assignments -------------------------------------------------- *)

let is_false f = equal f zero
let is_true f = equal f one

(** Is position [v] true in every satisfying assignment?  (The definite
    groundness question.)  f ∧ ¬v unsatisfiable. *)
let definite_at f v = is_false (conj f (nvar v))

let rec count_range f from nvars =
  if from >= nvars then if is_true f then 1 else 0
  else
    match f with
    | Leaf false -> 0
    | Leaf true -> 1 lsl (nvars - from)
    | Node { var = v; lo; hi; _ } ->
        if v = from then count_range lo (from + 1) nvars + count_range hi (from + 1) nvars
        else 2 * count_range f (from + 1) nvars

let sat_count ~nvars f = count_range f 0 nvars

(** All satisfying rows over positions [0..nvars-1], as bit-rows matching
    {!Prax_prop.Bf} indexing.  For tests and cross-checking. *)
let sat_rows ~nvars f : int list =
  let out = ref [] in
  for r = (1 lsl nvars) - 1 downto 0 do
    let rec eval g =
      match g with
      | Leaf b -> b
      | Node { var = v; lo; hi; _ } ->
          if r land (1 lsl v) <> 0 then eval hi else eval lo
    in
    if eval f then out := r :: !out
  done;
  !out

(** Build from explicit rows. *)
let of_rows ~nvars rows =
  List.fold_left
    (fun acc r ->
      let cube = ref one in
      for v = 0 to nvars - 1 do
        let lit = if r land (1 lsl v) <> 0 then var v else nvar v in
        cube := conj !cube lit
      done;
      disj acc !cube)
    zero rows

(** Number of live hash-consed nodes (global). *)
let node_count () = Tbl.length table

let rec size f =
  match f with Leaf _ -> 1 | Node { lo; hi; _ } -> 1 + size lo + size hi

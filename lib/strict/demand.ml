(** The three demand extents of the Sekar–Ramakrishnan strictness
    analysis: [E] (normal-form demand), [D] (head-normal-form demand),
    [N] (null demand), ordered N < D < E. *)

open Prax_logic

type t = E | D | N

let to_atom = function E -> Term.atom "e" | D -> Term.atom "d" | N -> Term.atom "n"

let of_term = function
  | Term.Atom "e" -> Some E
  | Term.Atom "d" -> Some D
  | Term.Atom "n" -> Some N
  | Term.Var _ -> Some N  (* unconstrained = no demand guaranteed *)
  | _ -> None

let to_char = function E -> 'e' | D -> 'd' | N -> 'n'

let rank = function N -> 0 | D -> 1 | E -> 2

let glb a b = if rank a <= rank b then a else b
let lub a b = if rank a >= rank b then a else b

let all = [ E; D; N ]

(** Strict in the standard sense: some evaluation is guaranteed. *)
let is_strict = function E | D -> true | N -> false

(* --- answer subsumption (docs/ANALYSES.md) ------------------------------ *)

(* One answer position under the demand order; a position that is not a
   demand extent must match exactly. *)
let position_leq a b =
  match (of_term a, of_term b) with
  | Some x, Some y -> rank x <= rank y
  | _ -> Term.equal a b

let answer_leq a b =
  let xs = Term.args_of a and ys = Term.args_of b in
  let n = Array.length xs in
  n = Array.length ys
  &&
  let rec go i = i >= n || (position_leq xs.(i) ys.(i) && go (i + 1)) in
  go 0

let n_atom = to_atom N

let least_instance t =
  if Term.is_ground t then t else Term.map_vars (fun _ -> n_atom) t

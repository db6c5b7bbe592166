(** The non-enumerative abstract domain of Section 5: terms of depth ≤ k
    over the program's function symbols, a distinguished 0-ary symbol γ
    denoting the set of all ground terms, and variables.

    Concretization: γ ↦ all ground terms; a variable ↦ all terms; a
    constructed abstract term ↦ the concrete terms with the same root
    whose subterms concretize the abstract subterms.

    Abstract unification differs from the engine's syntactic unification
    (γ unifies with any term it can ground) and performs the occur-check,
    so — as in the paper — it is implemented "at a higher level" and
    plugged into the tabled engine through its hooks. *)

open Prax_logic

let gamma = Term.atom "$gamma"

let is_gamma = function Term.Atom "$gamma" -> true | _ -> false

(** Ground in the abstract sense: no variables (γ counts as ground).
    γ is a 0-ary symbol, hence ground in the syntactic sense too, so this
    coincides with {!Term.is_ground} — an O(1) flag read. *)
let a_ground = Term.is_ground

(* Constrain [t] to denote only ground terms: variables are bound to γ;
   structures recurse.  Fails never (grounding is always satisfiable). *)
let rec ground_term (s : Subst.t) (t : Term.t) : Subst.t =
  match Subst.walk s t with
  | Term.Var v -> Subst.bind s v gamma
  | Term.Int _ | Term.Atom _ -> s
  | Term.Struct (_, args, _) -> Array.fold_left ground_term s args

(** Abstract unification with occur-check. *)
let rec unify (s : Subst.t) (t1 : Term.t) (t2 : Term.t) : Subst.t option =
  let t1 = Subst.walk s t1 and t2 = Subst.walk s t2 in
  match (t1, t2) with
  | Term.Var i, Term.Var j when i = j -> Some s
  | Term.Var i, t | t, Term.Var i ->
      if Subst.occurs_check s i t then None else Some (Subst.bind s i t)
  | Term.Atom "$gamma", Term.Atom "$gamma" -> Some s
  | Term.Atom "$gamma", t | t, Term.Atom "$gamma" ->
      (* γ meets t: t is constrained to its ground instances *)
      Some (ground_term s t)
  | Term.Int a, Term.Int b -> if a = b then Some s else None
  | Term.Atom a, Term.Atom b -> if String.equal a b then Some s else None
  | Term.Struct (f, a1, _), Term.Struct (g, a2, _)
    when String.equal f g && Array.length a1 = Array.length a2 ->
      let n = Array.length a1 in
      let rec go s i =
        if i >= n then Some s
        else
          match unify s a1.(i) a2.(i) with
          | Some s' -> go s' (i + 1)
          | None -> None
      in
      go s 0
  | _ -> None

(** Depth-k truncation: subterms that would sit deeper than [k] are
    widened to γ if abstractly ground, otherwise to a fresh variable.
    Applied to canonical calls and answers, it keeps the table domain
    finite, which is what guarantees termination. *)
let truncate ~k (t : Term.t) : Term.t =
  let rec go depth t =
    match t with
    | Term.Var _ | Term.Int _ | Term.Atom _ -> t
    | Term.Struct (_, args, _) ->
        if depth >= k then if a_ground t then gamma else Term.fresh_var ()
        else Term.rebuild t (Array.map (go (depth + 1)) args)
  in
  go 0 t

(** Engine hooks for depth-k evaluation: abstract unification plus
    call/answer truncation (re-canonicalized, as the table requires
    canonical keys). *)
let hooks ~k : Prax_tabling.Engine.hooks =
  {
    Prax_tabling.Engine.unify;
    abstract_call = (fun t -> Canon.of_term (truncate ~k t));
    abstract_answer = (fun t -> Canon.of_term (truncate ~k t));
    widen = None;
    answer_leq = None;
  }

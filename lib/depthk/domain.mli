(** The depth-k abstract domain of Section 5: terms of bounded depth
    over the program's symbols, a symbol γ denoting all ground terms,
    and variables. *)

open Prax_logic

val gamma : Term.t

val a_ground : Term.t -> bool
(** Abstractly ground: no variables (γ counts as ground). *)

val ground_term : Subst.t -> Term.t -> Subst.t
(** Constrain a term to denote only ground terms (variables ↦ γ). *)

val unify : Subst.t -> Term.t -> Term.t -> Subst.t option
(** Abstract unification with occur-check: γ meets a term by grounding
    it. *)

val truncate : k:int -> Term.t -> Term.t
(** Depth-k widening: subterms deeper than [k] become γ (if ground) or a
    fresh variable. *)

val hooks : k:int -> Prax_tabling.Engine.hooks
(** Engine hooks: abstract unification plus call/answer truncation. *)

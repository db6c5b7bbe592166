(** Syntactic unification over persistent substitutions. *)

val unify : Subst.t -> Term.t -> Term.t -> Subst.t option
(** Standard unification without occur-check (as in Prolog/XSB). *)

val unify_oc : Subst.t -> Term.t -> Term.t -> Subst.t option
(** Unification with occur-check, as required by the depth-k abstract
    unification and the Hindley–Milner type equations (Sections 5 and
    6.1 of the paper). *)

val unify_answer : Subst.t -> Term.t -> Term.t -> Subst.t option
(** [unify_answer s goal ans] unifies [goal] under [s] with a
    renamed-apart copy of the table answer [ans], as
    [unify s goal (Term.rename ans)] does, but copies only the parts of
    [ans] that a goal variable is bound to.  The substitution it returns
    equals that one up to the names of fresh variables. *)

val unifiable : Term.t -> Term.t -> bool
(** Do the terms unify under the empty substitution? *)

(** The three demand extents of the strictness analysis: [E] (normal
    form), [D] (head normal form), [N] (null), ordered N < D < E. *)

open Prax_logic

type t = E | D | N

val to_atom : t -> Term.t

val of_term : Term.t -> t option
(** Unbound variables read as [N] (no guaranteed demand). *)

val to_char : t -> char
val rank : t -> int
val glb : t -> t -> t
val lub : t -> t -> t
val all : t list
val is_strict : t -> bool

val answer_leq : Term.t -> Term.t -> bool
(** The answer-subsumption order of the strictness tables: [answer_leq a
    b] when every argument of [a] is at most the same argument of [b]
    under N < D < E, an unbound position read as [N].  Two answers of
    one call variant share their functor. *)

val least_instance : Term.t -> Term.t
(** The least instance of an answer: every unbound position bound to
    [n].  It is [answer_leq]-equivalent to the answer, and storing it
    makes equivalent answers one table key. *)

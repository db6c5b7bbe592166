(** Clause database with two storage modes, modelling the paper's
    preprocessing trade-off: [Dynamic] (assert + interpret; cheap to
    load) vs [Compiled] (closure-compiled head matchers + first-argument
    index; cheap to resolve). *)

type mode = Dynamic | Compiled

type pred = string * int

type cclause
(** A stored clause, canonicalized so its variables are [0..nvars-1]. *)

type t

val create : ?mode:mode -> unit -> t

val assertz : t -> Parser.clause -> unit
val load_clauses : t -> Parser.clause list -> unit

val load_string : t -> string -> Term.t list
(** Parse and load a program; [:- op] directives take effect; all
    directives are returned in order. *)

val defined : t -> pred -> bool
val predicates : t -> pred list
val clauses_of : t -> pred -> cclause list

val matching : t -> Subst.t -> Term.t -> cclause list
(** Clauses possibly matching the goal, in source order (first-argument
    indexed in compiled mode). *)

val activate :
  cclause -> Subst.t -> Term.t -> (Subst.t * Term.t list) option
(** Resolve the clause head against the goal: the extended substitution
    and the freshly renamed body, or [None]. *)

val activate_with :
  unify:(Subst.t -> Term.t -> Term.t -> Subst.t option) ->
  cclause ->
  Subst.t ->
  Term.t ->
  (Subst.t * Term.t list) option
(** Like {!activate} with a caller-supplied unification (e.g. depth-k
    abstract unification). *)

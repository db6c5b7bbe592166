(** Boolean functions over a fixed number of positions, represented
    enumeratively as truth tables (bitsets over assignment rows) — the
    Prop-domain representation the paper adopts and defends.

    Row indexing: row [r] assigns position [i] the value of bit [i]. *)

type t

val create : int -> bool -> t
(** [create arity fill]: constant function over [arity] positions.
    @raise Invalid_argument beyond arity 20. *)

val bottom : int -> t
val top : int -> t
val arity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
(** Mutates; used only while building. *)

val of_rows : int -> int list -> t
val rows : t -> int list
val count : t -> int
val is_empty : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val copy : t -> t

val conj : t -> t -> t
val disj : t -> t -> t
val neg : t -> t
val implies : t -> t -> bool

val iff : int -> int -> int list -> t
(** [iff arity pos set]: the function [pos ↔ ∧ set]; with an empty set,
    just [pos]. *)

val var : int -> int -> t

val restrict : t -> int -> bool -> t
(** Conjoin [pos = value]. *)

val exists : t -> int -> t
(** Existential quantification; keeps the arity. *)

val project : t -> int list -> t
(** Project onto the listed positions (in order, duplicates allowed);
    the result's arity is the list length. *)

val extend : t -> int list -> int -> t
(** Embed into a wider universe: position [i] of the argument maps to
    [mapping_i]; unlisted positions are unconstrained. *)

val definite : t -> bool array
(** Positions true in every satisfying row (vacuously all-true on the
    empty function — check {!is_empty} separately). *)

val of_tuples : int -> bool option list list -> t
(** Rows from answer tuples; [None] positions take both values
    (positions expand independently — for variable-sharing answers use
    the analyzers' own expansion). *)

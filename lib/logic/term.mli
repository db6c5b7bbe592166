(** First-order terms, the common currency of every engine and analysis
    in this repository.

    The representation is interned and hash-consed:

    - functor and atom names are interned through {!Symbol}, so every
      [Atom]/[Struct] carries one canonical [string] instance per name
      and name equality on stored terms degenerates to pointer equality
      inside [String.equal];
    - every [Struct] node carries a packed meta word holding its
      precomputed structural hash, node count, and ground flag, so
      {!hash}, {!size}, and {!is_ground} are O(1);
    - {e ground} [Struct] nodes are hash-consed through a weak table
      and [Atom] nodes are unique per name, so structurally equal
      ground callable terms are physically equal and {!equal} is
      physical-equality-first with a cheap structural fallback.
      Non-ground nodes (rebuilt with fresh variables on every clause
      activation, so never shareable) are allocated plainly — they
      still carry the meta word.

    The type is [private]: pattern matching works as before (the meta
    word shows up as a third [Struct] field, match it with [_]), but
    construction must go through {!var}, {!int}, {!atom}, {!mk},
    {!mkl}, and friends, which maintain the interning invariants.
    Never mutate an argument array reached through a pattern match.

    Variables are identified by integers drawn from a global supply; the
    supply can be reset for deterministic tests. *)

type t = private
  | Var of int
  | Int of int
  | Atom of string
  | Struct of string * t array * int
      (** [Struct (f, args, meta)]: [f] is the interned functor name and
          [meta] the packed hash/size/ground word (an implementation
          detail — always match it with [_]). *)

(** {2 Variable supply} *)

val fresh_var : unit -> t
(** A variable with a globally fresh id. *)

val fresh_id : unit -> int

(** {2 Construction} *)

val var : int -> t
(** The variable with id [i].  Nodes for small ids are preallocated. *)

val int : int -> t
(** An integer constant.  Nodes for small values are preallocated. *)

val atom : string -> t
(** The unique [Atom] node for this name (interns the name). *)

val mk : string -> t array -> t
(** [mk name args] is [atom name] when [args] is empty, otherwise the
    [Struct] node (hash-consed when ground).  The array is owned by the
    term afterwards and must not be mutated. *)

val mkl : string -> t list -> t

val rebuild : t -> t array -> t
(** [rebuild t args] is the term with [t]'s functor and the given
    arguments (hash-consed when ground); [t] must be a [Struct].
    Skips the symbol-table lookup — use when rewriting the arguments
    of an existing node. *)

val true_ : t
val fail_ : t
val nil : t
val cons : t -> t -> t
val of_list : t list -> t

(** {2 Inspection} *)

val functor_of : t -> (string * int) option
(** Name and arity of a callable term; [None] for variables and
    integers. *)

val args_of : t -> t array
(** Arguments of a [Struct]; [[||]] otherwise.  The live array — do not
    mutate. *)

val is_ground : t -> bool
(** O(1): leaves answer directly, [Struct] reads its meta word. *)

val vars : t -> int list
(** Variable ids in first-occurrence order, without duplicates.  Ground
    subterms are skipped without traversal. *)

val fold_vars : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Fold over all variable occurrences; ground subterms are skipped. *)

val occurs : int -> t -> bool
(** Does variable [id] occur in the term?  Short-circuits on the first
    occurrence and skips ground subterms in O(1). *)

val size : t -> int
(** Node count; used for table-space accounting.  O(1): [Struct] nodes
    store their count in the meta word (saturating at 2{^30}-1). *)

val depth : t -> int

(** {2 Comparison} *)

val equal : t -> t -> bool
(** Structural equality.  Physically equal terms short-circuit; the
    fallback rejects on the meta word before touching children, and the
    hash-consing invariant keeps the recursion shallow. *)

val compare : t -> t -> int
(** Total order: [Var < Int < Atom < Struct], then by id / value / name
    / arity / arguments — the same order as the pre-interning
    representation. *)

val hash : t -> int
(** O(1) for [Struct] (precomputed); cheap for leaves.  Consistent with
    {!equal}. *)

(** {2 Transformation} *)

val map_vars : (int -> t) -> t -> t
(** Apply a function to every variable, rebuilding the term.  Ground
    subterms and unchanged nodes are returned as-is (shared). *)

val rename : t -> t
(** Rename all variables to fresh ones, consistently. *)

(** {2 Conjunctions and lists} *)

val conjuncts : t -> t list
(** Flatten a [','/2] tree into its conjuncts; [true] flattens to [].
    Linear in the tree size regardless of association. *)

val conj : t list -> t

val list_elements : t -> t list option
(** Elements of a proper list term, or [None]. *)

(** Term tries (discrimination trees) keyed by canonical terms.

    The index structure behind the tabled engine's call and answer
    tables: insert and variant lookup are a single preorder walk over
    the key term, and keys sharing a label-sequence prefix (answers of
    one call variant typically share the functor and leading arguments)
    share the trie nodes for it — the prefix sharing that cuts
    table-space relative to one hash-table slot per whole term.

    Keys are expected in canonical form ({!Canon.canonical}: variables
    renumbered in first-occurrence order), so lookup by structural walk
    {e is} variant lookup, exactly like the hash-table path it replaces.
    Two process-wide counters feed the observability registry
    (docs/METRICS.md): [trie.nodes], trie nodes allocated by inserts,
    and [trie.prefix_hits], insert steps that reused an existing edge.

    Not thread-safe; confine a trie to one domain. *)

type 'a t

val create : unit -> 'a t

val cardinal : 'a t -> int
(** Number of keys holding a value. *)

val live_nodes : 'a t -> int
(** Trie nodes currently reachable (root excluded) — the basis of the
    engine's table-space accounting. *)

val find_opt : 'a t -> Term.t -> 'a option
val mem : 'a t -> Term.t -> bool

val find_under : 'a t -> Subst.t -> Term.t -> 'a option
(** [find_under t s x] is [find_opt t (Canon.canonical s x)], computed
    in one walk over the live term without building the canonical key:
    variables are dereferenced through [s] and renumbered in
    first-occurrence order as they are met.  A hit allocates nothing
    (the option returned is the one the trie stores), so table hits and
    duplicate answers cost no garbage.  Not re-entrant: the renumbering
    buffer is module-level. *)

type 'a outcome =
  | Existing of 'a  (** the key was already present; its value *)
  | Added of 'a * int
      (** the key was inserted; the created value and the number of trie
          nodes this insert allocated (0 when the whole label sequence
          was shared and only the terminal marking was new) *)

val find_or_add : 'a t -> Term.t -> (unit -> 'a) -> 'a outcome
(** [find_or_add t key mk]: single-walk lookup-or-insert.  [mk] is
    called only when the key is absent. *)

val remove : 'a t -> Term.t -> int option
(** [remove t key]: drop [key]'s value and prune the trie nodes no
    other key uses, so the node count is again that of the remaining
    key set.  [Some freed] gives the number of nodes pruned; [None]
    when [key] holds no value. *)

val iter : (Term.t -> 'a -> unit) -> 'a t -> unit
(** Preorder over the trie; visiting order is insertion-history
    dependent, so callers needing a canonical order must sort (the
    engine's [dump_tables] does). *)

val fold : (Term.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val fold_functor :
  string * int -> (Term.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [fold_functor (name, arity) f t acc] folds over the keys whose root
    functor is [name/arity] (an atom when [arity = 0]), in {!iter}
    order.  It descends only the root edge of that functor, so its cost
    is that predicate's share of the trie, not the whole trie. *)

val clear : 'a t -> unit

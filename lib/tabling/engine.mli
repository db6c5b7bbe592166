(** The tabled evaluation engine — the XSB substitute.

    A continuation-passing formulation of OLDT/SLG for definite
    programs: variant-based call tables, answer tables with duplicate
    elimination, eager answer propagation to registered consumers, and
    SCC completion: once a producer finishes having called no open
    entry older than itself, every entry created since it started is
    closed, and later calls to a closed entry replay its answers
    without suspending a consumer.  For
    definite programs it computes the minimal model restricted to the
    call forest and terminates whenever calls and answers range over a
    finite domain — the completeness guarantee the paper's analyses rely
    on.

    The engine is parametric in {!hooks} so the depth-k analysis
    (Section 5) and the widening extension (Section 6.1) are this same
    engine with abstract unification, call/answer abstraction, or answer
    widening plugged in.

    Evaluation can be governed by a {!Prax_guard.Guard.t}: budgets are
    checked on every resolution step, and on exhaustion {!run_status}
    degrades to a sound partial result instead of raising out of a
    half-mutated state — see [docs/ROBUSTNESS.md]. *)

open Prax_logic
module Guard = Prax_guard.Guard

type hooks = {
  unify : Subst.t -> Term.t -> Term.t -> Subst.t option;
  abstract_call : Term.t -> Term.t;
      (** applied to the canonical call before table lookup *)
  abstract_answer : Term.t -> Term.t;
      (** applied to the canonical answer before dedup/recording *)
  widen : (previous:Term.t list -> Term.t -> Term.t) option;
      (** on-the-fly widening: sees the answers already in the entry and
          may extrapolate the incoming one *)
  answer_leq : (Term.t -> Term.t -> bool) option;
      (** answer subsumption: [leq a b] when answer [a] makes answer [b]
          of the same call variant redundant.  A new answer above a
          stored one is dropped (counted as a duplicate); stored answers
          above a new one are removed ([engine.answers_retracted]), so a
          complete table holds the antichain of its minimal answers.
          Sound only for a program whose relations are all monotone in
          the order.  [None] (every analysis but strictness) is variant
          tabling. *)
}

val concrete_hooks : hooks
(** Syntactic unification, no abstraction, no widening.  The engine
    recognises these hooks by pointer: with its identity abstractions
    (kept by [{ concrete_hooks with ... }]) call lookups and duplicate
    answers walk the live term and build no canonical key on a hit,
    while an equivalent [Fun.id] gives the same tables by the slower
    path. *)

(** Per-engine operation counts, reset by {!reset_tables}.

    The engine also feeds the process-wide observability registry
    ({!Prax_metrics.Metrics}) on the same events, under these names
    (catalogued in [docs/METRICS.md]):

    - [engine.call_lookups] — every tabled call occurrence (equals
      {!field-stats.calls} summed over engines);
    - [engine.call_hits] / [engine.call_misses] — lookup resolved by an
      existing variant entry vs. creating one; hits + misses = lookups,
      and misses equals {!field-stats.table_entries} summed over engines;
    - [engine.answers_offered] — candidate answers derived by producers,
      before duplicate suppression;
    - [engine.answers_inserted] / [engine.answers_deduped] — genuinely
      new answers recorded vs. variants suppressed; inserted + deduped =
      offered;
    - [engine.answers_retracted] — stored answers removed by answer
      subsumption ({!hooks.answer_leq}); inserted − retracted is the
      number of answers held, summed over engines;
    - [engine.consumer_suspensions] — consumer registrations on an
      open table entry (a call to a closed entry registers none);
    - [engine.consumer_resumptions] — answer deliveries to consumers,
      replay and eager broadcast alike (equals
      {!field-stats.resumptions} summed over engines);
    - [engine.producer_completions] — producers that exhausted clause
      resolution (their entry completes only with its SCC);
    - [engine.scc_completions] — leader producers whose SCC completed,
      closing every entry created since they started;
    - [engine.widenings] — applications of the {!hooks.widen} hook;
    - [engine.aborts] — governed runs torn down by budget exhaustion or
      an exception unwinding through the engine;
    - [engine.forced_completions] — table entries force-completed
      (widened to their most general answer) after budget exhaustion
      (equals {!field-stats.forced} summed over engines). *)
type stats = {
  mutable calls : int;  (** tabled call occurrences *)
  mutable table_entries : int;  (** distinct call variants *)
  mutable answers : int;  (** distinct answers held in the tables *)
  mutable duplicates : int;  (** answers filtered by variant check *)
  mutable resumptions : int;  (** consumer deliveries *)
  mutable forced : int;  (** entries force-completed after an abort *)
}

type t

type builtin = t -> Subst.t -> Term.t array -> (Subst.t -> unit) -> unit
(** A builtin receives the engine, the current substitution, the goal's
    arguments, and a success continuation it may invoke any number of
    times. *)

exception Not_definite of Term.t
(** Raised when a goal is not a definite-program construct (e.g. an
    unbound variable under call position). *)

val create :
  ?hooks:hooks ->
  ?tabled:(string * int -> bool) ->
  ?open_calls:bool ->
  ?guard:Guard.t ->
  Database.t ->
  t
(** [create db] makes an engine over the clause store.  [tabled]
    selects which predicates are tabled (default: all).  [open_calls]
    enables the Section 6.2 forward-subsumption strategy: only the most
    general call per predicate is tabled and specific calls filter its
    answers.  [guard] governs resource budgets (default
    {!Guard.unlimited}). *)

val set_guard : t -> Guard.t -> unit
(** Swap the engine's guard — e.g. a fresh deadline per top-level query,
    or {!Guard.unlimited} to lift budgets after a partial run. *)

val guard : t -> Guard.t

val register_builtin : t -> string -> int -> builtin -> unit

val is_builtin : t -> string * int -> bool
(** Is the predicate answered by a registered builtin (and therefore
    never tabled)?  The incremental dependency graph uses this to keep
    builtins out of the clause-level call graph. *)

(** {2 Incremental table splice and extraction (docs/INCREMENTAL.md)}

    Tables need not live and die with one [solve] call: a completed
    run's tables can be {!export_tables}-extracted per entry (with the
    demand edges between call variants), persisted, and spliced back
    into a fresh engine through a {!set_resolver} resolver.  A spliced
    entry is installed through the same dedup trie and space accounting
    as a produced one, so dumps, digests, space estimates, and the
    consistency invariants are byte-identical to a fresh computation —
    the property the incremental-vs-scratch oracle relies on. *)

val set_resolver : t -> (Term.t -> Term.t list option) option -> unit
(** Install (or clear, with [None]) the splice resolver.  It is
    consulted whenever a call-table lookup creates a {e new} entry,
    with the canonical (post-abstraction) call key; returning
    [Some answers] installs the canonical answers as the entry's
    complete answer set and skips its producer.  The caller must
    guarantee the answers are exactly what a fresh producer would
    derive (the closure-digest check of [Prax_incr] does). *)

val spliced_entries : t -> int
(** Table entries installed by the resolver since creation or the last
    {!reset_tables}. *)

(** One exported call-table entry: the canonical call, its answers
    (sorted), and the canonical call keys its producer consumed from —
    the demand edges a splice must replay so a restored call table
    equals a freshly computed one. *)
type exported = {
  ex_call : Term.t;
  ex_answers : Term.t list;
  ex_subcalls : Term.t list;
}

val export_tables : t -> exported list
(** Every call-table entry, sorted by call.  Meaningful on a [Complete]
    run (abort recovery scrubs the demand edges). *)

val solve : t -> Subst.t -> Term.t -> (Subst.t -> unit) -> unit
(** Low-level entry: enumerate solutions of a goal under a
    substitution.  No abort recovery — {!Guard.Exhausted} propagates to
    the caller; prefer {!run_status}. *)

val run : t -> Term.t -> (Subst.t -> unit) -> unit
(** [run e goal k]: solve [goal] from the empty substitution.  Degrades
    gracefully under a guard; the status is dropped (use {!run_status}
    to observe it). *)

val run_status : t -> Term.t -> (Subst.t -> unit) -> Guard.status
(** Like {!run}, but reports the evaluation outcome.  On budget
    exhaustion every table entry that could still have received answers
    is force-completed by widening it to its most general answer (the
    entry's own call pattern) and the result is [Partial]: the tables
    then hold a sound over-approximation and remain consistent and
    reusable.  On any other exception the affected entries are discarded
    (so a reused engine re-derives them), invariants are restored, and
    the exception is re-raised. *)

val demand_status : t -> Term.t -> Guard.status
(** [demand_status e key] forces the call-table entry for the
    already-canonical call [key] into existence — spliced from the
    resolver or produced to completion — without registering a consumer
    or enumerating its answers.  The table state afterwards is
    indistinguishable from a [run_status] of the same call whose
    continuation ignored every answer; the incremental replay
    (docs/INCREMENTAL.md) uses this to reconstruct the demanded variant
    set without paying per-answer instantiation. *)

val settle : t -> unit
(** Canonical call table under answer subsumption ({!hooks.answer_leq}).
    A consumer may resume on an answer that a smaller one later removes,
    so the call variants a run created depend on discovery order.
    [settle] walks the tables from the top-level goals of {!run_status},
    following only the answers the tables hold, and keeps exactly the
    variants it reaches, with the demand edges it found.  Dumps, exports
    and space estimates are then a function of the answer antichains.
    Call it after the last goal of a complete run; it does nothing
    without an answer order. *)

val query : t -> Term.t -> Term.t list
(** Distinct canonical solutions, in discovery order. *)

val query_status : t -> Term.t -> Term.t list * Guard.status
(** Distinct canonical solutions plus the evaluation status. *)

val calls : t -> Term.t list
(** The call table: every canonical call variant encountered.  Reading
    input modes off this table is the paper's "input groundness for
    free" observation. *)

val calls_for : t -> string * int -> Term.t list
(** The call variants of one predicate, sorted.  Reads only that
    predicate's subtrie of the call table ({!Prax_logic.Trie.fold_functor}). *)

val answers_for : t -> string * int -> Term.t list
(** The answers of every call variant of one predicate, sorted; same
    per-predicate read as {!calls_for}. *)

val table_space_bytes : t -> int
(** Table-space estimate, the Table 1/3/4 metric: one word per trie
    node the call/answer indexes actually allocated, plus per-entry
    and per-answer overhead.  Prefix sharing across keys means this is
    substantially below one stored term per entry — a key never costs
    more nodes than its term size (docs/PERFORMANCE.md).  Maintained
    incrementally, so O(1). *)

val table_space_gauge : Prax_metrics.Metrics.gauge
(** [engine.table_space_bytes]: the CLIs set it to the run's table
    space just before they snapshot the metrics. *)

val dump_tables : t -> string
(** Canonical textual dump of the call/answer tables: one
    [call => a1 | a2.] line per call variant ("-" when no answers),
    answers and lines sorted.  Deterministic across runs and engines
    that derived the same tables (canonical variable numbering), so it
    serves as the serialized outcome for the persistent store's
    round-trip verification — parsing a line back re-interns the same
    canonical terms. *)

val tables_consistent : ?after_abort:bool -> t -> bool
(** Table invariants, for tests and debugging: every entry's answer
    vector and dedup set agree; between runs (a [Complete] one included)
    every entry is closed and holds no consumer, and no SCC is open;
    with [~after_abort:true] additionally every entry is completed with
    no dependency edges left behind. *)

val stats : t -> stats
val reset_tables : t -> unit

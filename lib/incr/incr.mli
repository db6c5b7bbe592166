(** Incremental re-analysis: per-SCC fragment cache, the engine splice
    resolver, and the edit-aware evaluation loop (docs/INCREMENTAL.md).

    The paper's analyses are deterministic fixpoints of the program
    text, so re-analysis after an edit only has to recompute the
    {e dependent cone}: the condensation SCCs from which an edited
    predicate is reachable.  Everything below the cone is textually
    identical — witnessed by an unchanged {!Depgraph.closure_digest} —
    and its results can be spliced back from a cache instead of
    recomputed.  This module owns the machinery shared by the tabled
    drivers (groundness [mode=dynamic]/[mode=compiled], strictness):

    - the {b fragment codec}: a cached fragment is one SCC's call-table
      slice — per call variant, the sorted answers and the demand edges
      (subcall keys) its producer consumed from — one term per line in a
      preorder, length-prefixed encoding that preserves canonical
      variable ids, so decoding needs no parser and no
      re-canonicalization (decode speed bounds the warm-run splice);
    - {b the evaluation phase} ({!run_tabled}): without a cache, the
      plain goal fold of a from-scratch run; with one, the splice loop —
      load fragments for every closure-digest cache hit, install the
      engine resolver so a cache hit answers new call-table entries
      without running their producers, replay the recorded demand
      edges so the call table ends up {e identical} to a from-scratch
      run (reports read input modes off the call table), then persist
      fresh fragments for the recomputed cone;
    - the {b store binding} ({!cache_of_store}, {!store_cache}) and the [incr.*]
      metrics (docs/METRICS.md, schema v6).

    The bottom-up def domain ([mode=def]) reuses {!Depgraph}, {!cache}
    and the cache-key convention but serializes its own implication-set
    values (see [Prax_ground.Def]). *)

open Prax_logic
module Engine = Prax_tabling.Engine
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis
module Store = Prax_store.Store

(** {1 Cache keys} *)

val fragment_key : table_class:string -> string -> string
(** [fragment_key ~table_class digest] — the cache key of one SCC
    fragment: the table-compatibility class prefixed onto the SCC's
    closure digest, so classes can never collide even in a cache shared
    across analyses (groundness [prop] and [def] fragments of the same
    source have {e equal} closure digests and different payloads). *)

(** {1 Outcome accounting} *)

type outcome = {
  sccs : int;  (** SCCs in the condensation *)
  invalidated : int;  (** SCCs recomputed (closure digest missed) *)
  spliced : int;  (** SCCs restored from cached fragments *)
  spliced_entries : int;  (** call-table entries installed by splice *)
}

val record : outcome -> unit
(** Feed the [incr.sccs] / [incr.invalidated] / [incr.spliced] counters
    and set the [incr.cone_frac] gauge (invalidated/sccs in permille;
    0 on an empty condensation). *)

(** {1 The evaluation phase} *)

type cache = {
  fragments : Analysis.cache;  (** where fragments are loaded and saved *)
  table_class : string;
      (** the run's table-compatibility class, decided once by the
          analysis adapter ({!Analysis.t.table_class}); it prefixes
          every {!fragment_key} *)
}
(** The fragment cache of one edit-aware run. *)

val run_tabled :
  ?cache:cache ->
  engine:Engine.t ->
  clauses:Parser.clause list ->
  goals:Term.t list ->
  unit ->
  Guard.status * outcome option
(** [run_tabled ?cache ~engine ~clauses ~goals ()] is the evaluation
    phase of every tabled driver: it runs the [goals] in order under the
    engine's guard, folding their statuses with {!Guard.combine}.

    Without a [cache] that is all it does — the from-scratch run: no
    dependency graph, no resolver, nothing persisted, no [incr.*]
    metric moves, and the outcome is [None].

    With a [cache] the run is edit-aware: it builds the dependency
    graph over the (abstract) [clauses] the engine will evaluate, loads
    the fragment of every SCC whose closure digest hits the cache,
    installs the splice resolver, runs the goals, replays the spliced
    entries' recorded demand edges to fixpoint, and — on a [Complete]
    run — persists fragments: invalidated SCCs are saved fresh from
    {!Engine.export_tables}; hit SCCs are re-saved only when the run
    demanded call variants the cached fragment did not hold (merged,
    keeping the cached records — a spliced entry carries no demand
    edges to re-record).  Partial runs persist nothing (widened tables
    are an over-approximation, not the fixpoint).  The resolver is
    always removed before returning.  The outcome is {!record}ed and
    returned. *)

(** {1 Fragment codec}

    Exposed for tests and the corruption drill: a syntactically invalid
    fragment must degrade to a miss, never to wrong answers. *)

val fragment_to_string : Engine.exported list -> string
val fragment_of_string : string -> Engine.exported list option

(** {1 Store binding} *)

val cache_of_store :
  Store.t -> analysis:string -> table_class:string -> Analysis.cache
(** Bind the fragment cache to the subdirectory [incr/<analysis>/] of a
    snapshot store: loads and saves go through the store's atomic-write
    / CRC / version-skew protocol, so torn or stale fragments degrade
    to recomputation.  The store key uses the fragment key as source
    digest and [table_class] as the config discriminator. *)

val store_cache :
  Store.t -> Analysis.t -> config:Analysis.config -> Analysis.cache option
(** [store_cache store a ~config] — the fragment cache of an
    [--incremental] run of [a]: {!cache_of_store} under [a]'s name and
    the table class of [config], or [None] when [a] has no incremental
    support (the run then needs no cache). *)

(** The unified analysis pipeline: a first-class analysis interface and
    registry.

    The paper's central observation is that its analyses — Prop
    groundness (Figure 1), strictness (Figure 3), depth-k constraint
    groundness (Section 5) — share one evaluation skeleton: preprocess
    the program, evaluate it on the tabled engine, collect the tables
    into results, and report the same Table 1–4 columns (phase times,
    table space, engine counts, status).  This module is that skeleton
    made first-class:

    - the shared {!phases} record and monotonic {!now} stopwatch every
      driver times itself with (one definition instead of five copies);
    - a {!report} carrying the Table-style columns plus a per-analysis
      payload rendered to text and JSON by the driver, serialized under
      the versioned [prax.report] schema (docs/ANALYSES.md);
    - an analysis {!t} — name, accepted source kind and file
      extensions, a defaulted key=value {!config} with CLI/JSON
      (de)serialization, and [run : config -> guard -> source -> report];
    - a process-wide registry ({!register}/{!find}/{!all}) that the
      front-ends ([xanalyze] single-run and batch, [praxtop], the bench
      harness) dispatch through, so adding an analysis is a single
      registration and no front-end matches on driver modules.

    The five shipped analyses register themselves via
    {!Prax_analyses.Analyses}. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

val report_schema_name : string
(** The schema identifier of serialized reports: ["prax.report"]. *)

val report_schema_version : int
(** Version of the serialized report schema.  Bump (and document in
    docs/ANALYSES.md) on any rename, removal, or change of meaning. *)

val size_nursery : unit -> unit
(** Give the calling process the workload-sized minor heap: 8M words
    (64 MiB on 64-bit).  Tabled evaluation is allocation-heavy, and the
    default 256k-word nursery costs 20-30% of the analysis phase in
    collections (docs/PERFORMANCE.md).  Call it in a process that
    evaluates in-process — a CLI entry point, the bench harness — never
    in a supervisor that forks workers: a child copies, on write, every
    nursery page its parent has touched.  A {!Prax_serve.Serve} worker
    sets its own nursery, the default 256k words, which a reused worker
    measured faster at the tail. *)

(** {1 Monotonic phase clock}

    Phase stopwatches must use the same clock as {!Metrics.timer}
    (monotonic), not [Unix.gettimeofday]: under NTP slew the wall clock
    can run at a different rate — or jump — and [--stats] phase totals
    would disagree with the report's. *)

val now : unit -> float
(** Monotonic seconds (arbitrary epoch); differences are meaningful. *)

(** {1 The shared phase skeleton} *)

type phases = { preproc : float; analysis : float; collection : float }
(** The Table 1–4 phase breakdown, in seconds.  Re-exported by each
    driver for backward compatibility. *)

val total : phases -> float
(** Sum of the three phases — the paper's "total analysis time". *)

val add_preproc : phases -> float -> phases
(** [add_preproc p dt] bills [dt] more seconds to preprocessing (the
    drivers time parsing separately from the rest of the pipeline). *)

val phased :
  timers:Metrics.timer * Metrics.timer * Metrics.timer ->
  pre:(unit -> 'a) ->
  eval:('a -> 'b) ->
  collect:('a -> 'b -> 'c) ->
  unit ->
  phases * 'a * 'b * 'c
(** [phased ~timers:(pre_t, eval_t, collect_t) ~pre ~eval ~collect ()]
    runs the three phases in order, billing each to its [Metrics] timer
    {e and} to the returned per-run {!phases} (same monotonic clock, so
    the two accountings agree), and adds the words each phase allocated
    on the minor heap ([Gc.minor_words]) to the counters
    [alloc.preprocess_words] / [alloc.evaluate_words] /
    [alloc.collect_words]. *)

val parsed : Metrics.timer -> (unit -> 'a) -> 'a * float
(** [parsed pre_t f] runs a driver's parse step — the part of its
    preprocessing that happens before {!phased} — under [pre_t],
    returning the result and the elapsed seconds for {!add_preproc};
    its words count as preprocessing ([alloc.preprocess_words]). *)

val phase_timers : ?doc:string -> string -> Metrics.timer * Metrics.timer * Metrics.timer
(** [phase_timers prefix] registers (or retrieves) the conventional
    timer trio [<prefix>.preprocess] / [<prefix>.evaluate] /
    [<prefix>.collect]. *)

(** {1 Engine counts}

    The tabled engine's statistics record, re-exported so generic
    reports can name its fields (analyses that bypass the tabled
    engine, e.g. GAIA, carry none). *)

type engine_counts = Prax_tabling.Engine.stats = {
  mutable calls : int;
  mutable table_entries : int;
  mutable answers : int;
  mutable duplicates : int;
  mutable resumptions : int;
  mutable forced : int;
}

(** {1 Configurations}

    An analysis configuration is an ordered association list of
    [key=value] strings: uniform enough for CLI flags ([--set k=v]),
    JSON, and the snapshot store's config discriminator, while each
    driver parses its own values ({!config_int} etc.). *)

type config = (string * string) list

exception Config_error of string
(** Raised by the value accessors and {!run} on an unknown key or a
    malformed value.  Front-ends report it as an input error. *)

val config_get : config -> string -> string
val config_int : config -> string -> int
val config_bool : config -> string -> bool

val config_enum : config -> string -> string list -> string
(** [config_enum cfg key choices] reads [key] and checks membership. *)

val merge_config : defaults:config -> config -> (config, string) result
(** Overlay user assignments on the defaults: the result has exactly
    the defaults' keys in the defaults' order; an assignment to a key
    not in the defaults is an [Error].  Later assignments win. *)

val assignments_of_string : string -> (config, string) result
(** Parse a comma-separated assignment list: ["k=2,mode=compiled"]. *)

val config_to_string : config -> string
(** Canonical rendering [k=v,k2=v2] — newline-free and stable, used as
    the snapshot store's config discriminator. *)

val config_to_json : config -> Metrics.json

(** {1 Generic reports} *)

type report = {
  analysis : string;  (** registered analysis name *)
  config : config;  (** effective configuration of the run *)
  phases : phases;
  status : Guard.status;
      (** [Partial] when a resource budget degraded the run to a sound
          approximation *)
  table_bytes : int;  (** engine table-space estimate; 0 when n/a *)
  clause_count : int;
      (** size of the evaluated (abstract) program — clauses, rules, or
          CFG nodes; 0 when n/a *)
  source_lines : int option;  (** source size when the driver counts it *)
  engine : engine_counts option;
  payload_text : string;  (** the per-analysis human report *)
  payload_json : Metrics.json;  (** the per-analysis [result] payload *)
}

val timings_line : report -> string
(** The shared [--timings] epilogue: phase breakdown, total, table
    space, clause count. *)

val report_to_json : ?input:string -> report -> Metrics.json
(** The versioned [prax.report] document (docs/ANALYSES.md): schema
    header, analysis name and config, status and budget fields, phase
    breakdown, table/clause/engine columns, the rendered [text], and
    the per-analysis [result] payload. *)

(** A parsed [prax.report] document, as consumers see it (the status is
    kept as its wire string). *)
type parsed_report = {
  p_analysis : string;
  p_input : string option;
  p_config : config;
  p_status : string;  (** ["complete"] or ["partial"] *)
  p_phases : phases;
  p_table_bytes : int;
  p_clause_count : int;
  p_source_lines : int option;
  p_engine : engine_counts option;
  p_text : string;
  p_result : Metrics.json;
}

val report_of_json : Metrics.json -> (parsed_report, string) result
(** Validate and destructure a [prax.report] document: wrong schema
    name, unsupported version, or missing fields are [Error]s. *)

(** {1 The analysis interface and registry} *)

(** What an analysis consumes ([extensions] refine this for directory
    scans; the corpus registry tags benchmarks with the same kinds). *)
type source_kind =
  | Logic_program  (** Prolog clauses, [.pl] *)
  | Fp_program  (** the lazy functional language, [.eq] *)
  | Cfg_program  (** textual control-flow graphs, [.cfg] *)

val kind_to_string : source_kind -> string

(** {2 Incremental re-analysis (docs/INCREMENTAL.md)}

    An analysis that supports edit-aware re-analysis declares a
    {!field-table_class} and accepts an optional {!cache} of per-SCC
    result fragments keyed by closure digest in its one [run]: with a
    cache, cached fragments are spliced back instead of recomputed;
    without one, the run is the plain from-scratch evaluation.  The
    cache is two plain string closures so the registry depends on no
    store — the CLI and daemon bind it to a {!Prax_store.Store.t}
    subdirectory, tests to a hashtable. *)

type cache = {
  cache_load : string -> string option;
      (** [cache_load key] — the fragment stored under [key] (an SCC
          closure digest), or [None] for a miss.  A miss is always safe:
          the SCC is recomputed. *)
  cache_save : string -> string -> unit;
      (** [cache_save key payload] — persist a fragment.  Must never
          raise; a failed save degrades to a future recomputation. *)
}

type t = {
  name : string;  (** registry key, e.g. ["groundness"] *)
  doc : string;  (** one-line description *)
  kind : source_kind;
  extensions : string list;  (** claimed file extensions, e.g. [[".pl"]] *)
  defaults : config;  (** every accepted key, with its default *)
  run : ?cache:cache -> config:config -> guard:Guard.t -> string -> report;
      (** [run ?cache ~config ~guard source] analyzes the source text.
          The [config] is complete (defaults merged); raises
          {!Config_error} on malformed values.  With a [cache], an
          analysis that declares a {!field-table_class} consults and
          refills it; the report must be identical either way — the
          incremental-vs-scratch oracle in the test suite enforces
          byte-equality of the payload.  Analyses without incremental
          support ignore the cache. *)
  table_class : (config -> string) option;
      (** The table-compatibility class of a configuration, [None] for
          analyses that always recompute.  Two configs with the same
          class produce interchangeable cached fragments (e.g.
          groundness [mode=dynamic] and [mode=compiled] share class
          ["prop"] — same fixpoint, different clause store).  The class
          is part of the cache key, so declaring it wrong leaks stale
          results; declaring classes too finely merely loses sharing.
          Receives a complete (defaults-merged) config. *)
}

val register : t -> unit
(** Add an analysis to the process-wide registry.
    @raise Invalid_argument when the name is already registered. *)

val find : string -> t option

val all : unit -> t list
(** Every registered analysis, in registration order. *)

val names : unit -> string list

val claiming_extension : string -> t option
(** The first registered analysis claiming the extension (e.g.
    [".pl"]) — the default for directory scans. *)

val run :
  t -> ?config:config -> ?guard:Guard.t -> ?cache:cache -> string -> report
(** [run a ~config src] merges [config] over [a.defaults] and runs,
    consulting the fragment [cache] when one is given.
    @raise Config_error on an unknown key or malformed value. *)

val run_incr :
  t -> ?config:config -> ?guard:Guard.t -> cache:cache -> string -> report
(** [run_incr a ~cache src] is [run a ~cache src]: an analysis without
    incremental support ignores the cache, so front-ends can pass one
    unconditionally. *)

val table_class : t -> ?config:config -> unit -> string option
(** The table-compatibility class of the (defaults-merged) config, or
    [None] when the analysis has no incremental support.
    @raise Config_error on an unknown key or malformed value. *)

val memory_cache : unit -> cache
(** A process-local hashtable-backed {!cache} — for tests and the bench
    harness, where one process runs the same analysis repeatedly. *)

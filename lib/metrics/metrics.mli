(** Engine observability: process-wide counters, gauges, and hierarchical
    phase timers, with machine-readable snapshots.

    Every hot path of the system (the tabled engine, SLD resolution,
    unification, the bottom-up Datalog baseline, the four analysis
    drivers) registers named metrics here at module initialization and
    bumps them as it runs.  A CLI or harness then calls {!snapshot} and
    serializes it with {!stats_doc} / {!snapshot_to_csv} /
    {!snapshot_to_human}.

    The metric catalogue, naming conventions, and the serialized schema
    are documented in [docs/METRICS.md]; the schema is versioned by
    {!schema_version} and validated by [test/test_metrics.ml].

    {2 Cost model}

    A counter bump is one unboxed integer store into the cell — safe to leave in the innermost engine
    loops.  Every value is process-global: parallelism in this system is
    forked worker processes, each with its own copy of the registry, so
    nothing here is shared between threads of execution.  Timers
    read the monotonic clock (via [bechamel.monotonic_clock]'s
    [clock_gettime] stub) only at the outermost entry and exit of a
    phase; nested re-entries of the same timer are depth-counted and do
    not touch the clock. *)

val schema_name : string
(** The schema identifier emitted in every {!stats_doc}: ["prax.stats"]. *)

val schema_version : int
(** Version of the serialized stats schema.  Bump it (and document the
    change in [docs/METRICS.md]) whenever a field is renamed, removed,
    or changes meaning; adding new counters does not require a bump.
    History: 1 = initial; 2 = adds evaluation status/budget fields;
    3 = adds term-representation counters; 4 = adds the supervised-batch
    [serve.] and persistent-store [store.] counter families; 5 = adds
    the analysis-daemon [daemon.] family and [store.tmp_swept]; 6 = adds
    the incremental re-analysis [incr.] family (all additive — older
    documents remain valid). *)

val min_supported_schema_version : int
(** Oldest schema version consumers of prax.stats documents are expected
    to accept.  Every bump so far is additive, so this stays 1. *)

val schema_version_supported : int -> bool
(** [schema_version_supported v]: does a document claiming version [v]
    parse under this library's schema expectations? *)

(** {1 Counters}

    A counter is a monotonically increasing event count, identified by a
    process-wide dotted name ([component.event]).  Creating a counter
    with a name that already exists returns the existing cell (the
    metadata of the first registration wins). *)

type counter

val counter : ?units:string -> ?doc:string -> string -> counter
(** [counter ~units ~doc name] registers (or retrieves) the counter
    [name].  [units] is a human label for what is being counted
    (default ["events"]); [doc] is a one-line description shown by the
    human renderer. *)

val incr : counter -> unit
(** Add one.  No-op while disabled. *)

val add : counter -> int -> unit
(** Add [n].  No-op while disabled. *)

val value : counter -> int
(** Current value (reads are never gated). *)

val counter_value : string -> int
(** Value of the counter registered under [name], or [0] if no such
    counter exists.  Convenience for tests and display code. *)

(** {1 Gauges}

    A gauge is a point-in-time measurement (e.g. table space in bytes),
    set rather than accumulated. *)

type gauge

val gauge : ?units:string -> ?doc:string -> string -> gauge
val set : gauge -> int -> unit

(** {1 Phase timers}

    A timer accumulates wall-clock nanoseconds (monotonic clock) over
    the dynamic extent of {!time} calls.  Timers are hierarchical in two
    ways: by dotted-name convention ([ground.preprocess]), and
    dynamically — the first time a timer starts while another is
    running, the running one is recorded as its [parent] and reported in
    snapshots.  Re-entrant activations (the same timer started inside
    itself) are depth-counted: only the outermost activation reads the
    clock and counts, so recursive phases are not double-billed. *)

type timer

val timer : ?doc:string -> string -> timer
(** Register (or retrieve) the timer [name]. *)

val time : timer -> (unit -> 'a) -> 'a
(** [time t f] runs [f ()] inside an activation of [t].  Exception-safe:
    the elapsed time is recorded even if [f] raises.  While disabled it
    is exactly [f ()]. *)

val seconds : timer -> float
(** Accumulated seconds so far. *)

val timer_seconds : string -> float
(** Accumulated seconds of the timer registered under [name], or [0.]
    if no such timer exists. *)

(** {1 Snapshots} *)

val reset : unit -> unit
(** Zero every registered counter, gauge, and timer (registrations and
    metadata are kept).  Call before a measured region; pair with
    {!snapshot} after it. *)

type sample = { name : string; value : int; units : string; doc : string }

type timing = {
  timer_name : string;
  timer_seconds : float;
  activations : int;
  parent : string option;
  timer_doc : string;
}

type snapshot = {
  counters : sample list;
  gauges : sample list;
  timers : timing list;
}

val snapshot : unit -> snapshot
(** Capture every registered metric, each list sorted by name.  Returns
    the empty snapshot while disabled. *)

(** {1 JSON}

    A minimal self-contained JSON representation — the container image
    carries no JSON library, and the stats schema needs only this. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact (single-line) rendering.  Floats are printed so that they
    round-trip exactly through {!json_of_string}. *)

exception Json_error of string

val json_of_string : string -> json
(** Strict parser for the subset of JSON this module emits (full value
    grammar, UTF-8 [\u] escapes).  Raises {!Json_error} on malformed
    input, a [\u] escape that names a UTF-16 surrogate included.  Used
    by the wire protocol, the round-trip tests and harnesses. *)

val json_of_substring :
  ?defer:string * (int -> Bytes.t) ->
  string ->
  pos:int ->
  len:int ->
  json * int
(** {!json_of_string} of [String.sub s pos len], read where it lies.
    With [defer = (name, room)], the first member of the top-level
    object named [name], when its value is a string, is not built: it
    is decoded into [room k] from index 0, where [room k] returns bytes
    of length at least [k], and it reads as [Null] in the result.  The
    int is its decoded length, or [-1] when no member was decoded.  A
    caller that reads a large string field this way, into bytes it
    reuses, allocates nothing of its size.  Error offsets count from
    [pos]. *)

val json_valid : string -> bool
(** [json_valid s] holds exactly when [json_of_string s] returns: [s] is
    one JSON value, with surrounding whitespace only.  Builds nothing;
    the daemon checks a worker's report with it before splicing the
    bytes into a response. *)

val member : string -> json -> json option
(** [member key (Obj fields)] looks up [key]; [None] on other
    constructors. *)

(** {1 Serialization of snapshots} *)

val snapshot_to_json : snapshot -> json
(** The [{counters; gauges; timers}] object described in
    [docs/METRICS.md] (names map to values; timers map to
    [{seconds; count; parent}]). *)

val stats_doc :
  tool:string ->
  analysis:string ->
  input:string ->
  ?phases:(string * float) list ->
  ?extra:(string * json) list ->
  snapshot ->
  json
(** The versioned top-level stats document: schema header
    ([schema], [schema_version], [tool], [analysis], [input]), the
    phase breakdown with its [total_seconds] sum (when [phases] is
    non-empty), any [extra] fields, then the snapshot body. *)

val snapshot_to_csv : snapshot -> string
(** [kind,name,value,unit] rows: one [counter]/[gauge] row per metric,
    and a [timer] (seconds) plus [timer_count] (activations) row pair
    per timer.  Metric names never contain commas or quotes, so no
    quoting is applied. *)

val snapshot_to_human : snapshot -> string
(** Aligned plain-text listing for terminals ([praxtop]'s [:- stats.],
    [xanalyze --stats=human]). *)

(** The bench-run store: persistent, comparable benchmark runs.

    A single [BENCH_engine.json] snapshot cannot defend a performance
    claim: there is no run history to diff against and no way to tell a
    regression from scheduler noise.  This library gives the bench
    harness the production shape (docs/BENCHMARKING.md):

    - {b run store}: [bench run] executes the (analysis x corpus)
      matrix [repeats] times and writes [bench_data/runs/<id>/] — a
      manifest (git rev, host, schema versions, harness config), the
      prax.bench v2 rows extended with per-repeat samples, and
      per-benchmark logs.  All files are written atomically
      (temp + fsync + rename, the [prax.store] conventions), so a
      killed run never leaves a torn directory that parses.  A bare
      prax.bench file (the committed [BENCH_engine.json]) loads as a
      run too, so it is the committed baseline the gate reads.
    - {b A/B comparison}: {!compare_runs} loads two runs and emits one
      {!delta} per (analysis x benchmark x metric) — phase times, total,
      table bytes, counters — with {b noise-aware} verdicts: a change is
      a regression only when it exceeds a relative tolerance {e and} an
      absolute floor {e and} the pooled IQR of the two runs' samples.
    - {b gates}: {!ab.regressions} counts the gated regressions
      (time and table-byte metrics, plus status downgrades and rows
      that disappeared); [bench gate] maps it to a nonzero exit so CI
      can enforce "no perf regressions beyond tolerance".

    The store degrades, never lies: a missing or corrupt manifest
    loads as {!run.manifest}[ = None] (the rows still compare); a
    missing or corrupt rows file is a load {e error}, because there is
    nothing sound to compare. *)

module Metrics = Prax_metrics.Metrics

val schema_name : string
(** Manifest schema identifier: ["prax.benchrun"]. *)

val schema_version : int
(** Version of the run-directory layout (manifest + rows extensions).
    Bump (and document in docs/BENCHMARKING.md) on any rename, removal,
    or change of meaning. *)

(** {1 Repeat-sample statistics}

    All comparisons run on order statistics — medians and interquartile
    ranges — never means: a single descheduled repeat inflates a mean
    arbitrarily but moves a median of 5 samples by at most one rank. *)

type stats = {
  n : int;  (** sample count *)
  median : float;
  q1 : float;  (** first quartile (linear interpolation) *)
  q3 : float;  (** third quartile *)
  values : float list;  (** the raw samples, in run order *)
}

val stats_of : float list -> stats
(** Order statistics of a non-empty sample list.
    @raise Invalid_argument on an empty list. *)

val iqr : stats -> float
(** [q3 -. q1], the sample spread the noise gate uses. *)

(** {1 Rows}

    One row per (analysis x benchmark), carrying the prax.bench v2
    columns as repeat-sample {!stats} (times, table bytes) or
    representative values (status from the median-total repeat;
    engine counts and counters from the last). *)

type row = {
  r_analysis : string;  (** registered analysis name *)
  r_name : string;  (** corpus benchmark name *)
  r_config : (string * string) list;  (** effective configuration *)
  r_status : string;  (** ["complete"] or ["partial:<reason>"] *)
  r_source_lines : int option;
  r_clause_count : int;
  r_phases : (string * stats) list;
      (** [preprocess] / [evaluate] / [collect], seconds *)
  r_total : stats;  (** sum of phases, seconds *)
  r_table_bytes : stats;
  r_engine : (string * int) list;
      (** the report's [table_entries] / [answers] / [resumptions];
          empty for analyses that report no engine counts (gaia) *)
  r_counters : (string * float) list;
      (** tracked process-wide counters of the last repeat *)
}

val row_key : row -> string * string
(** [(analysis, benchmark)] — the identity rows are matched on. *)

val row_to_json : row -> Metrics.json
(** The one prax.bench row encoder: the v2 columns (time medians,
    table bytes, engine counts, status, counters) plus the raw repeat
    [samples].  [rows.json] and [BENCH_engine.json] rows both use it. *)

val row_of_json : Metrics.json -> row option
(** Decode a row written by {!row_to_json}, or a plain prax.bench v2
    row without [samples] (each scalar becomes a one-sample statistic);
    [None] when the identity or the time/byte columns are missing. *)

val pool_rows : row list list -> row list
(** Merge shard sweeps (one [row list] per process) into one row set:
    rows matching on {!row_key} get their raw time/byte samples
    concatenated (so per-process layout variance lands inside the
    pooled IQR), scalar fields come from the last shard, and a
    non-[complete] status in any shard survives pooling.  Rows
    appearing in only some shards are kept as-is. *)

(** {1 Manifests} *)

type manifest = {
  m_run_id : string;
  m_created_unix : float;  (** wall-clock, seconds since the epoch *)
  m_git_rev : string;  (** ["unknown"] outside a git checkout *)
  m_host : string;  (** [uname -sm], or ["unknown"] *)
  m_ocaml_version : string;
  m_word_size : int;
  m_repeats : int;  (** samples per row *)
  m_argv : string list;  (** the harness invocation, verbatim *)
  m_bench_schema_version : int;
  m_stats_schema_version : int;
  m_report_schema_version : int;
}

val make_manifest : run_id:string -> repeats:int -> argv:string list -> manifest
(** Capture the environment: git revision (via [git rev-parse HEAD],
    degrading to ["unknown"]), host, OCaml version, word size, the
    current schema versions, and the wall clock. *)

val fresh_id : unit -> string
(** A new run id, [run-YYYYMMDD-HHMMSS-<pid>[-<n>]] (UTC); unique
    within a process even at one-second resolution. *)

(** {1 The run store} *)

type run = {
  path : string;  (** the run directory, or the prax.bench file *)
  id : string;
  manifest : manifest option;
      (** [None] when manifest.json is missing or corrupt, or the run
          is a prax.bench file — the run still loads and compares
          (degraded, docs/BENCHMARKING.md) *)
  rows : row list;
}

val write_run :
  dir:string ->
  manifest:manifest ->
  rows:row list ->
  logs:(string * string) list ->
  unit
(** Create [dir] and write [manifest.json], [rows.json], and
    [logs/<file>.log] for each [(file, text)] in [logs].  Every file
    is written atomically.
    @raise Sys_error when [dir] exists and is not a directory. *)

val load_run : string -> (run, string) result
(** Load a run directory or a prax.bench file.  A directory's rows come
    from its [rows.json]; a file is the rows document itself (its
    [benchmarks] array; other keys, such as [BENCH_engine.json]'s
    [incremental] array, are ignored).  [Error] when the rows document
    is missing, unparseable, or holds no decodable row.  A bad
    manifest degrades to [manifest = None]; a file run has none. *)

val find_run : runs_dir:string -> string -> (run, string) result
(** Resolve a run id, a directory path, or a file path: a [spec] that
    exists is loaded as-is, otherwise [runs_dir/spec] is tried. *)

(** {1 Comparison: deltas, thresholds, verdicts} *)

type thresholds = {
  rel_time : float;  (** relative tolerance on time medians (0.30) *)
  abs_time : float;  (** absolute floor on time deltas, seconds (0.005) *)
  rel_bytes : float;  (** relative tolerance on table bytes (0.05) *)
  abs_bytes : float;  (** absolute floor on table-byte deltas (256) *)
  gate_time : bool;  (** gate on time metrics (default true) *)
  gate_bytes : bool;  (** gate on table bytes (default true) *)
}

val default_thresholds : thresholds

type verdict = Regression | Improvement | Unchanged

type delta = {
  d_analysis : string;
  d_name : string;
  d_metric : string;
      (** ["total_seconds"], a phase name, ["table_bytes"], ["status"],
          or a counter name *)
  d_base : float;  (** baseline median (or value) *)
  d_cand : float;  (** candidate median (or value) *)
  d_pct : float;  (** relative median change, [(cand-base)/base] *)
  d_pooled_iqr : float;  (** max of the two runs' IQRs for this metric *)
  d_verdict : verdict;
  d_gated : bool;  (** counts toward {!ab.regressions} when flagged *)
}

type ab = {
  base_id : string;
  cand_id : string;
  deltas : delta list;  (** regressions first, then improvements *)
  missing : (string * string) list;
      (** rows present in base, absent in candidate — gated *)
  added : (string * string) list;  (** rows new in the candidate *)
  regressions : int;  (** gated regressions incl. missing rows *)
  improvements : int;
}

val compare_runs : ?thresholds:thresholds -> run -> run -> ab
(** Match rows by {!row_key} and apply the noise gate per metric.  A
    change is flagged only when it exceeds the relative tolerance
    {e and} the absolute floor {e and} the pooled IQR; counter deltas
    are always informational ([d_gated = false]); a status downgrade
    (complete -> partial) is a gated regression. *)

val render_ab : ab -> string
(** Human report: the flagged deltas (with medians, change, and the
    noise bound), row coverage changes, and a verdict line. *)

val ab_to_json : ab -> Metrics.json
(** The machine-readable A/B document (docs/BENCHMARKING.md). *)

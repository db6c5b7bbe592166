(** Bench records: comparable benchmark runs.

    A single [BENCH_engine.json] snapshot cannot defend a performance
    claim: there is no run history to diff against and no way to tell a
    regression from scheduler noise.  This library gives the bench
    harness the production shape (docs/BENCHMARKING.md):

    - {b one record}: [bench run] executes the (analysis x corpus)
      matrix [repeats] times and writes a prax.bench file — the same
      document [bench benchjson] commits as [BENCH_engine.json], each
      row carrying its per-repeat samples.  Both go through
      {!write_bench} (temp + fsync + rename, the [prax.store]
      conventions), so a killed writer never leaves a torn file.
    - {b A/B comparison}: {!compare_runs} takes two runs and emits one
      {!delta} per (analysis x benchmark x metric) — phase times, total,
      table bytes, counters — with {b noise-aware} verdicts: a change is
      a regression only when it exceeds a relative tolerance {e and} an
      absolute floor {e and} the pooled IQR of the two runs' samples.
    - {b gates}: {!ab.regressions} counts the gated regressions
      (time and table-byte metrics, plus status downgrades and rows
      that disappeared); [bench gate] maps it to a nonzero exit so CI
      can enforce "no perf regressions beyond tolerance".

    A missing, corrupt or row-less file is a load {e error}: there is
    nothing sound to compare. *)

module Metrics = Prax_metrics.Metrics

val schema_name : string
(** ["prax.bench"], the [schema] of every bench file. *)

val schema_version : int
(** Version of the prax.bench document, [bench run]'s and
    [BENCH_engine.json]'s alike.  Bump (and document in
    docs/PERFORMANCE.md) on any rename, removal, or change of
    meaning. *)

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

    One row per (analysis x benchmark), carrying the prax.bench
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
(** The one prax.bench row encoder: time medians, table bytes, engine
    counts, status and counters, plus the raw repeat [samples]. *)

val row_of_json : Metrics.json -> row option
(** Decode a row written by {!row_to_json}, or an older prax.bench
    row without [samples] (each scalar becomes a one-sample statistic);
    [None] when the identity or the time/byte columns are missing. *)

val pool_rows : row list list -> row list
(** Merge shard sweeps (one [row list] per process) into one row set:
    rows matching on {!row_key} get their raw time/byte samples
    concatenated (so per-process layout variance lands inside the
    pooled IQR), scalar fields come from the last shard, and a
    non-[complete] status in any shard survives pooling.  Rows
    appearing in only some shards are kept as-is. *)

(** {1 Bench files} *)

type run = {
  id : string;  (** the file name, or a label for an in-memory sweep *)
  rows : row list;
}

val write_bench : ?incremental:Metrics.json list -> string -> row list -> unit
(** [write_bench path rows] writes the prax.bench document — header
    ({!schema_name}, {!schema_version}, the stats and report schema
    versions), the [benchmarks] rows and, when given, the
    [incremental] array — to [path] atomically: temp file in the same
    directory, fsync, rename.  A failed write removes its temp file
    and re-raises. *)

val load_run : string -> (run, string) result
(** Load a prax.bench file: its [benchmarks] array is the run's rows
    (other keys, such as [BENCH_engine.json]'s [incremental] array,
    are ignored) and its file name is the run's id.  [Error] when the
    file is missing, unparseable, or holds no decodable row. *)

(** {1 Comparison: deltas, thresholds, verdicts} *)

type thresholds = {
  rel_time : float;  (** relative tolerance on time medians (0.30) *)
  abs_time : float;  (** absolute floor on time deltas, seconds (0.005) *)
  rel_bytes : float;  (** relative tolerance on table bytes (0.05) *)
  abs_bytes : float;  (** absolute floor on table-byte deltas (256) *)
  gate_time : bool;  (** gate on time metrics (default true) *)
  gate_bytes : bool;  (** gate on table bytes (default true) *)
  gate_counts : bool;
      (** gate on exact equality of the deterministic counts (default
          false): the engine columns ([table_entries], [answers],
          [resumptions]), [trie.nodes] and every [engine.*] counter *)
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
    are informational ([d_gated = false]) unless [gate_counts] holds,
    when a changed count is a gated regression; a status downgrade
    (complete -> partial) is a gated regression. *)

val render_ab : ab -> string
(** Human report: the flagged deltas (with medians, change, and the
    noise bound), row coverage changes, and a verdict line. *)

val ab_to_json : ab -> Metrics.json
(** The machine-readable A/B document (docs/BENCHMARKING.md). *)

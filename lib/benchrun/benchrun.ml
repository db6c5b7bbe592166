(* Bench records, A/B comparator, and regression-gate logic.  See
   benchrun.mli and docs/BENCHMARKING.md. *)

module Metrics = Prax_metrics.Metrics

(* ------------------------------------------------------------------ *)
(* Repeat-sample statistics                                            *)
(* ------------------------------------------------------------------ *)

type stats = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  values : float list;
}

(* linear-interpolation quantile over a sorted array *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let stats_of values =
  if values = [] then invalid_arg "Benchrun.stats_of: empty sample list";
  let sorted = Array.of_list values in
  Array.sort compare sorted;
  {
    n = Array.length sorted;
    median = quantile sorted 0.5;
    q1 = quantile sorted 0.25;
    q3 = quantile sorted 0.75;
    values;
  }

let iqr s = s.q3 -. s.q1

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  r_analysis : string;
  r_name : string;
  r_config : (string * string) list;
  r_status : string;
  r_source_lines : int option;
  r_clause_count : int;
  r_phases : (string * stats) list;
  r_total : stats;
  r_table_bytes : stats;
  r_engine : (string * int) list;
  r_counters : (string * float) list;
}

let engine_fields = [ "table_entries"; "answers"; "resumptions" ]

let row_key r = (r.r_analysis, r.r_name)

(* Pool the samples of matching rows across shard sweeps (separate
   processes).  Code/heap layout differs per process and can shift a
   cell's times by tens of percent for the process's whole lifetime —
   pooling puts that variance inside the row's own distribution, where
   the IQR-based noise bound can see it. *)
let pool_row a b =
  {
    b with
    (* any degraded shard degrades the pooled row *)
    r_status = (if a.r_status <> "complete" then a.r_status else b.r_status);
    r_phases =
      List.map
        (fun (ph, sb) ->
          match List.assoc_opt ph a.r_phases with
          | Some sa -> (ph, stats_of (sa.values @ sb.values))
          | None -> (ph, sb))
        b.r_phases;
    r_total = stats_of (a.r_total.values @ b.r_total.values);
    r_table_bytes = stats_of (a.r_table_bytes.values @ b.r_table_bytes.values);
  }

let pool_rows shards =
  match shards with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun acc shard ->
          let merged =
            List.map
              (fun r ->
                match
                  List.find_opt (fun r' -> row_key r' = row_key r) shard
                with
                | Some r' -> pool_row r r'
                | None -> r)
              acc
          in
          let extra =
            List.filter
              (fun r' ->
                not (List.exists (fun r -> row_key r = row_key r') acc))
              shard
          in
          merged @ extra)
        first rest

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization                                              *)
(* ------------------------------------------------------------------ *)

open Metrics

(* [open Metrics] (for the JSON constructors) also brings Metrics'
   [schema_name]/[schema_version] into scope, so bind ours after the
   open.  Version 3 added BENCH_engine.json's [incremental] array; the
   per-repeat [samples] extension is additive. *)
let schema_name = "prax.bench"
let schema_version = 3

let num = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let get_num j key = Option.bind (member key j) num
let get_str j key =
  match member key j with Some (Str s) -> Some s | _ -> None
let get_int j key = Option.map int_of_float (get_num j key)

let stats_to_samples s = Arr (List.map (fun v -> Float v) s.values)

let samples_to_stats = function
  | Arr vs ->
      let values = List.filter_map num vs in
      if values = [] then None else Some (stats_of values)
  | _ -> None

let config_to_json config = Obj (List.map (fun (k, v) -> (k, Str v)) config)

let config_of_json = function
  | Some (Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with Str s -> Some (k, s) | _ -> None)
        fields
  | _ -> []

let row_to_json r =
  Obj
    ([
       ("name", Str r.r_name);
       ("analysis", Str r.r_analysis);
       ("config", config_to_json r.r_config);
     ]
    @ (match r.r_source_lines with
      | Some l -> [ ("source_lines", Int l) ]
      | None -> [])
    @ [
        ( "phases",
          Obj
            (List.map
               (fun (ph, s) -> (ph, Float s.median))
               r.r_phases) );
        ("total_seconds", Float r.r_total.median);
        ("table_bytes", Int (int_of_float r.r_table_bytes.median));
        ("clause_count", Int r.r_clause_count);
      ]
    @ List.map (fun (k, v) -> (k, Int v)) r.r_engine
    @ [
        ("status", Str r.r_status);
        ( "counters",
          Obj (List.map (fun (c, v) -> (c, Float v)) r.r_counters) );
        (* the raw repeat samples, so a loader reconstructs the order
           statistics exactly *)
        ( "samples",
          Obj
            (List.map (fun (ph, s) -> (ph, stats_to_samples s)) r.r_phases
            @ [
                ("total_seconds", stats_to_samples r.r_total);
                ("table_bytes", stats_to_samples r.r_table_bytes);
              ]) );
      ])

(* Accepts rows with [samples] and older rows without: a scalar metric
   degrades to a single-sample statistic with zero IQR. *)
let row_of_json j =
  match (get_str j "analysis", get_str j "name") with
  | Some analysis, Some name ->
      let samples = member "samples" j in
      let sampled key scalar =
        match Option.bind samples (member key) with
        | Some arr -> (
            match samples_to_stats arr with
            | Some s -> Some s
            | None -> Option.map (fun v -> stats_of [ v ]) scalar)
        | None -> Option.map (fun v -> stats_of [ v ]) scalar
      in
      let phase ph =
        let scalar = Option.bind (member "phases" j) (fun p -> get_num p ph) in
        (ph, sampled ph scalar)
      in
      let phases = List.map phase [ "preprocess"; "evaluate"; "collect" ] in
      let total = sampled "total_seconds" (get_num j "total_seconds") in
      let bytes = sampled "table_bytes" (get_num j "table_bytes") in
      let counters =
        match member "counters" j with
        | Some (Obj fields) ->
            List.filter_map
              (fun (c, v) -> Option.map (fun f -> (c, f)) (num v))
              fields
        | _ -> []
      in
      (match (total, bytes) with
      | Some r_total, Some r_table_bytes ->
          Some
            {
              r_analysis = analysis;
              r_name = name;
              r_config = config_of_json (member "config" j);
              r_status = Option.value ~default:"complete" (get_str j "status");
              r_source_lines = get_int j "source_lines";
              r_clause_count =
                Option.value ~default:0 (get_int j "clause_count");
              r_phases =
                List.filter_map
                  (fun (ph, s) -> Option.map (fun s -> (ph, s)) s)
                  phases;
              r_total;
              r_table_bytes;
              r_engine =
                List.filter_map
                  (fun k -> Option.map (fun v -> (k, v)) (get_int j k))
                  engine_fields;
              r_counters = counters;
            }
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Bench files                                                         *)
(* ------------------------------------------------------------------ *)

type run = { id : string; rows : row list }

(* prax.store's write discipline: unique temp in the same directory,
   fsync, rename — a crashed writer leaves only a temp file, never a
   torn file that parses, and a failed write removes its temp. *)
let write_atomic path content =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) (Filename.basename path))
  in
  try
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let oc = Unix.out_channel_of_descr fd in
        output_string oc content;
        flush oc;
        Unix.fsync fd);
    Sys.rename tmp path
  with exn ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise exn

let write_bench ?incremental path rows =
  let doc =
    Obj
      ([
         ("schema", Str schema_name);
         ("schema_version", Int schema_version);
         ("stats_schema_version", Int Metrics.schema_version);
         ( "report_schema_version",
           Int Prax_analysis.Analysis.report_schema_version );
         ("benchmarks", Arr (List.map row_to_json rows));
       ]
      @ match incremental with Some l -> [ ("incremental", Arr l) ] | None -> [])
  in
  write_atomic path (json_to_string doc ^ "\n")

let read_json path =
  if not (Sys.file_exists path) then Error (path ^ ": no such file")
  else
    match In_channel.with_open_text path In_channel.input_all with
    | text -> (
        try Ok (json_of_string text)
        with Json_error msg -> Error (path ^ ": " ^ msg))
    | exception Sys_error msg -> Error msg

(* Keys other than [benchmarks] (BENCH_engine.json's [incremental]
   array) are not rows and are ignored. *)
let load_run path =
  match read_json path with
  | Error msg -> Error msg
  | Ok doc -> (
      match member "benchmarks" doc with
      | Some (Arr entries) -> (
          match List.filter_map row_of_json entries with
          | [] -> Error (path ^ ": no parseable benchmark rows")
          | rows -> Ok { id = Filename.basename path; rows })
      | _ -> Error (path ^ ": missing \"benchmarks\" array"))

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type thresholds = {
  rel_time : float;
  abs_time : float;
  rel_bytes : float;
  abs_bytes : float;
  gate_time : bool;
  gate_bytes : bool;
  gate_counts : bool;
}

let default_thresholds =
  {
    rel_time = 0.30;
    abs_time = 0.005;
    rel_bytes = 0.05;
    abs_bytes = 256.;
    gate_time = true;
    gate_bytes = true;
    gate_counts = false;
  }

type verdict = Regression | Improvement | Unchanged

(* The row counters the counts class gates: the engine's event counts
   and the trie's node count, fixed for a given rev and input. *)
let is_count name =
  name = "trie.nodes" || String.starts_with ~prefix:"engine." name

type delta = {
  d_analysis : string;
  d_name : string;
  d_metric : string;
  d_base : float;
  d_cand : float;
  d_pct : float;
  d_pooled_iqr : float;
  d_verdict : verdict;
  d_gated : bool;
}

type ab = {
  base_id : string;
  cand_id : string;
  deltas : delta list;
  missing : (string * string) list;
  added : (string * string) list;
  regressions : int;
  improvements : int;
}

(* The noise gate: a delta is flagged only when it clears the relative
   tolerance AND the absolute floor AND the pooled IQR of the two
   sample sets (the noisier run dominates).  Deterministic metrics
   (IQR 0) fall back to the tolerance and floor alone. *)
let judge ~rel ~abs_floor ~pooled base cand =
  let diff = cand -. base in
  let bound = Float.max (Float.max (rel *. Float.abs base) abs_floor) pooled in
  if diff > bound then Regression
  else if -.diff > bound then Improvement
  else Unchanged

let pct_change base cand =
  if Float.abs base > 0. then (cand -. base) /. Float.abs base
  else if cand = base then 0.
  else Float.infinity

let metric_delta ~analysis ~name ~metric ~rel ~abs_floor ~gated base cand =
  let pooled = Float.max (iqr base) (iqr cand) in
  {
    d_analysis = analysis;
    d_name = name;
    d_metric = metric;
    d_base = base.median;
    d_cand = cand.median;
    d_pct = pct_change base.median cand.median;
    d_pooled_iqr = pooled;
    d_verdict = judge ~rel ~abs_floor ~pooled base.median cand.median;
    d_gated = gated;
  }

let row_deltas th (b : row) (c : row) =
  let analysis = b.r_analysis and name = b.r_name in
  let time metric sb sc =
    metric_delta ~analysis ~name ~metric ~rel:th.rel_time
      ~abs_floor:th.abs_time ~gated:th.gate_time sb sc
  in
  let phases =
    List.filter_map
      (fun (ph, sb) ->
        Option.map (fun sc -> time ph sb sc) (List.assoc_opt ph c.r_phases))
      b.r_phases
  in
  let bytes =
    metric_delta ~analysis ~name ~metric:"table_bytes" ~rel:th.rel_bytes
      ~abs_floor:th.abs_bytes ~gated:th.gate_bytes b.r_table_bytes
      c.r_table_bytes
  in
  (* a status downgrade is a correctness-coverage regression whatever
     the times say: the candidate no longer completes this benchmark *)
  let status =
    let flag s = if s = "complete" then 0. else 1. in
    let vb = flag b.r_status and vc = flag c.r_status in
    if vb = vc then []
    else
      [
        {
          d_analysis = analysis;
          d_name = name;
          d_metric = "status";
          d_base = vb;
          d_cand = vc;
          d_pct = 0.;
          d_pooled_iqr = 0.;
          d_verdict = (if vc > vb then Regression else Improvement);
          d_gated = true;
        };
      ]
  in
  (* A deterministic count under the counts class: any change, either
     way, is a gated regression, since the tables a rev derives do not
     depend on the machine. *)
  let exact metric vb vc =
    {
      d_analysis = analysis;
      d_name = name;
      d_metric = metric;
      d_base = vb;
      d_cand = vc;
      d_pct = pct_change vb vc;
      d_pooled_iqr = 0.;
      d_verdict = (if vb = vc then Unchanged else Regression);
      d_gated = true;
    }
  in
  let engine =
    if not th.gate_counts then []
    else
      List.filter_map
        (fun (k, vb) ->
          Option.map
            (fun vc -> exact k (float_of_int vb) (float_of_int vc))
            (List.assoc_opt k c.r_engine))
        b.r_engine
  in
  (* other counters are informational: work measures, useful to explain
     a time delta, never gated on their own *)
  let counters =
    List.filter_map
      (fun (cn, vb) ->
        Option.map
          (fun vc ->
            if th.gate_counts && is_count cn then exact cn vb vc
            else
              let pooled = 0. in
              {
                d_analysis = analysis;
                d_name = name;
                d_metric = cn;
                d_base = vb;
                d_cand = vc;
                d_pct = pct_change vb vc;
                d_pooled_iqr = pooled;
                d_verdict = judge ~rel:0.10 ~abs_floor:16. ~pooled vb vc;
                d_gated = false;
              })
          (List.assoc_opt cn c.r_counters))
      b.r_counters
  in
  (time "total_seconds" b.r_total c.r_total :: phases)
  @ [ bytes ] @ status @ engine @ counters

let compare_runs ?(thresholds = default_thresholds) base cand =
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace cand_tbl (row_key r) r) cand.rows;
  let base_keys = List.map row_key base.rows in
  let deltas =
    List.concat_map
      (fun b ->
        match Hashtbl.find_opt cand_tbl (row_key b) with
        | Some c -> row_deltas thresholds b c
        | None -> [])
      base.rows
  in
  let missing =
    List.filter (fun k -> not (Hashtbl.mem cand_tbl k)) base_keys
  in
  let added =
    List.filter_map
      (fun r ->
        let k = row_key r in
        if List.mem k base_keys then None else Some k)
      cand.rows
  in
  let rank d =
    match (d.d_verdict, d.d_gated) with
    | Regression, true -> 0
    | Regression, false -> 1
    | Improvement, true -> 2
    | Improvement, false -> 3
    | Unchanged, _ -> 4
  in
  let deltas =
    List.stable_sort (fun a b -> compare (rank a) (rank b)) deltas
  in
  let count v =
    List.length
      (List.filter (fun d -> d.d_gated && d.d_verdict = v) deltas)
  in
  {
    base_id = base.id;
    cand_id = cand.id;
    deltas;
    missing;
    added;
    (* a vanished row is a gated regression: the candidate lost
       coverage the baseline had *)
    regressions = count Regression + List.length missing;
    improvements = count Improvement;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_to_string = function
  | Regression -> "regression"
  | Improvement -> "improvement"
  | Unchanged -> "unchanged"

let pct_string p =
  if Float.is_integer p && Float.abs p = Float.infinity then "(new)"
  else Printf.sprintf "%+.1f%%" (100. *. p)

(* An ungated delta (counters, or a metric class the gate leaves out)
   explains the gated ones but never moves the verdict: marked so. *)
let render_delta d =
  Printf.sprintf "  %-11s %-10s/%-10s %-14s %12.6g -> %-12.6g %9s  (noise bound %g)%s"
    (verdict_to_string d.d_verdict)
    d.d_analysis d.d_name d.d_metric d.d_base d.d_cand (pct_string d.d_pct)
    d.d_pooled_iqr
    (if d.d_gated then "" else " (ungated)")

let render_ab ab =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "A/B: baseline %s vs candidate %s\n" ab.base_id ab.cand_id);
  (* gated deltas first, then the ungated ones *)
  let flagged =
    List.filter (fun d -> d.d_verdict <> Unchanged) ab.deltas
    |> List.stable_sort (fun a b -> Bool.compare b.d_gated a.d_gated)
  in
  if flagged = [] then
    Buffer.add_string buf "  no deltas beyond noise tolerance\n"
  else
    List.iter
      (fun d -> Buffer.add_string buf (render_delta d ^ "\n"))
      flagged;
  List.iter
    (fun (a, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  MISSING    %s/%s (in baseline, not in candidate)\n"
           a n))
    ab.missing;
  List.iter
    (fun (a, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  added      %s/%s (new in candidate)\n" a n))
    ab.added;
  let unchanged =
    List.length ab.deltas - List.length flagged
  in
  Buffer.add_string buf
    (Printf.sprintf
       "verdict: %d gated regression%s, %d gated improvement%s, %d metric%s \
        within tolerance\n"
       ab.regressions
       (if ab.regressions = 1 then "" else "s")
       ab.improvements
       (if ab.improvements = 1 then "" else "s")
       unchanged
       (if unchanged = 1 then "" else "s"));
  Buffer.contents buf

let delta_to_json d =
  Obj
    [
      ("analysis", Str d.d_analysis);
      ("benchmark", Str d.d_name);
      ("metric", Str d.d_metric);
      ("base", Float d.d_base);
      ("candidate", Float d.d_cand);
      ( "pct_change",
        if Float.abs d.d_pct = Float.infinity then Null
        else Float (d.d_pct *. 100.) );
      ("pooled_iqr", Float d.d_pooled_iqr);
      ("verdict", Str (verdict_to_string d.d_verdict));
      ("gated", Bool d.d_gated);
    ]

let ab_to_json ab =
  let pair (a, n) = Obj [ ("analysis", Str a); ("benchmark", Str n) ] in
  Obj
    [
      ("schema", Str (schema_name ^ ".ab"));
      ("schema_version", Int 1);
      ("baseline", Str ab.base_id);
      ("candidate", Str ab.cand_id);
      ("regressions", Int ab.regressions);
      ("improvements", Int ab.improvements);
      ("missing", Arr (List.map pair ab.missing));
      ("added", Arr (List.map pair ab.added));
      ("deltas", Arr (List.map delta_to_json ab.deltas));
    ]

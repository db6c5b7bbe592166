(* Tests for bench records and the A/B comparator
   (docs/BENCHMARKING.md): order statistics, the noise-gate threshold
   logic (relative tolerance AND absolute floor AND pooled IQR),
   prax.bench file round trips and load errors, the `bench gate` exit
   codes through the built harness, and the representation counters a
   measured groundness run must feed. *)

module Benchrun = Prax_benchrun.Benchrun

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-benchrun-test-%d-%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

(* --- synthetic rows and runs --------------------------------------------- *)

let mkstats = Benchrun.stats_of

let row ?(analysis = "groundness") ?(name = "qsort") ?(status = "complete")
    ?(counters = [ ("engine.answers_inserted", 24.) ]) ~total ~bytes () =
  {
    Benchrun.r_analysis = analysis;
    r_name = name;
    r_config = [ ("mode", "dynamic") ];
    r_status = status;
    r_source_lines = Some 45;
    r_clause_count = 40;
    r_phases =
      [
        ("preprocess", mkstats (List.map (fun t -> t *. 0.1) total));
        ("evaluate", mkstats (List.map (fun t -> t *. 0.8) total));
        ("collect", mkstats (List.map (fun t -> t *. 0.1) total));
      ];
    r_total = mkstats total;
    r_table_bytes = mkstats bytes;
    r_engine = [ ("table_entries", 35); ("answers", 24); ("resumptions", 53) ];
    r_counters = counters;
  }

let mkrun ?(id = "r") rows = { Benchrun.id; rows }

(* write [rows] as the bench file [dir/id.json]; its path *)
let write ~dir ~id rows =
  let path = Filename.concat dir (id ^ ".json") in
  Benchrun.write_bench path rows;
  path

let delta_of ab ~metric =
  match
    List.find_opt
      (fun d -> d.Benchrun.d_metric = metric)
      ab.Benchrun.deltas
  with
  | Some d -> d
  | None -> Alcotest.failf "no delta for metric %s" metric

let verdict = Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Benchrun.Regression -> "regression"
        | Benchrun.Improvement -> "improvement"
        | Benchrun.Unchanged -> "unchanged"))
    ( = )

(* --- order statistics ----------------------------------------------------- *)

let test_stats () =
  let s = mkstats [ 3.; 1.; 2. ] in
  Alcotest.(check (float 1e-9)) "odd median" 2. s.Benchrun.median;
  Alcotest.(check (float 1e-9)) "odd q1" 1.5 s.Benchrun.q1;
  Alcotest.(check (float 1e-9)) "odd q3" 2.5 s.Benchrun.q3;
  Alcotest.(check (float 1e-9)) "odd iqr" 1. (Benchrun.iqr s);
  let s = mkstats [ 4.; 1.; 3.; 2. ] in
  Alcotest.(check (float 1e-9)) "even median" 2.5 s.Benchrun.median;
  let s = mkstats [ 7. ] in
  Alcotest.(check (float 1e-9)) "singleton median" 7. s.Benchrun.median;
  Alcotest.(check (float 1e-9)) "singleton iqr" 0. (Benchrun.iqr s);
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Benchrun.stats_of: empty sample list") (fun () ->
      ignore (mkstats []))

(* --- threshold logic ------------------------------------------------------ *)

(* a 50% time regression with tight samples clears tolerance, floor,
   and IQR: flagged and gated *)
let test_regression_flagged () =
  let base = mkrun [ row ~total:[ 1.0; 1.01; 0.99 ] ~bytes:[ 4664. ] () ] in
  let cand = mkrun [ row ~total:[ 1.5; 1.51; 1.49 ] ~bytes:[ 4664. ] () ] in
  let ab = Benchrun.compare_runs base cand in
  let d = delta_of ab ~metric:"total_seconds" in
  Alcotest.check verdict "total regressed" Benchrun.Regression
    d.Benchrun.d_verdict;
  Alcotest.(check bool) "total gated" true d.Benchrun.d_gated;
  Alcotest.(check bool) "gate trips" true (ab.Benchrun.regressions > 0)

(* the same median shift inside the pooled IQR is noise: not flagged *)
let test_noise_not_flagged () =
  let base = mkrun [ row ~total:[ 0.7; 1.0; 1.3 ] ~bytes:[ 4664. ] () ] in
  let cand = mkrun [ row ~total:[ 0.9; 1.4; 1.9 ] ~bytes:[ 4664. ] () ] in
  let ab = Benchrun.compare_runs base cand in
  let d = delta_of ab ~metric:"total_seconds" in
  (* diff 0.4 clears rel 0.30 and abs 0.005 but not the 0.5 pooled IQR *)
  Alcotest.check verdict "inside IQR is unchanged" Benchrun.Unchanged
    d.Benchrun.d_verdict;
  Alcotest.(check int) "no regressions" 0 ab.Benchrun.regressions

(* micro-benchmark jitter below the absolute floor never flags, however
   large the relative change *)
let test_abs_floor () =
  let base = mkrun [ row ~total:[ 0.001 ] ~bytes:[ 4664. ] () ] in
  let cand = mkrun [ row ~total:[ 0.004 ] ~bytes:[ 4664. ] () ] in
  let ab = Benchrun.compare_runs base cand in
  Alcotest.check verdict "sub-floor delta unchanged" Benchrun.Unchanged
    (delta_of ab ~metric:"total_seconds").Benchrun.d_verdict;
  Alcotest.(check int) "no regressions" 0 ab.Benchrun.regressions

let test_bytes_thresholds () =
  let base = mkrun [ row ~total:[ 1. ] ~bytes:[ 4664. ] () ] in
  let grown = mkrun [ row ~total:[ 1. ] ~bytes:[ 5600. ] () ] in
  let ab = Benchrun.compare_runs base grown in
  Alcotest.check verdict "20% table growth regresses" Benchrun.Regression
    (delta_of ab ~metric:"table_bytes").Benchrun.d_verdict;
  Alcotest.(check bool) "gate trips" true (ab.Benchrun.regressions > 0);
  (* +100 bytes on a tiny table is under the absolute floor *)
  let small = mkrun [ row ~total:[ 1. ] ~bytes:[ 100. ] () ] in
  let small' = mkrun [ row ~total:[ 1. ] ~bytes:[ 200. ] () ] in
  let ab = Benchrun.compare_runs small small' in
  Alcotest.(check int) "sub-floor byte delta passes" 0 ab.Benchrun.regressions

let test_improvement () =
  let base = mkrun [ row ~total:[ 1.0; 1.0; 1.0 ] ~bytes:[ 4664. ] () ] in
  let cand = mkrun [ row ~total:[ 0.5; 0.5; 0.5 ] ~bytes:[ 4664. ] () ] in
  let ab = Benchrun.compare_runs base cand in
  Alcotest.check verdict "halved total improves" Benchrun.Improvement
    (delta_of ab ~metric:"total_seconds").Benchrun.d_verdict;
  Alcotest.(check bool) "improvements counted" true
    (ab.Benchrun.improvements > 0);
  Alcotest.(check int) "no regressions" 0 ab.Benchrun.regressions

(* a status downgrade gates regardless of times *)
let test_status_downgrade () =
  let base = mkrun [ row ~total:[ 1. ] ~bytes:[ 4664. ] () ] in
  let cand =
    mkrun [ row ~status:"partial:deadline" ~total:[ 1. ] ~bytes:[ 4664. ] () ]
  in
  let ab = Benchrun.compare_runs base cand in
  let d = delta_of ab ~metric:"status" in
  Alcotest.check verdict "complete->partial regresses" Benchrun.Regression
    d.Benchrun.d_verdict;
  Alcotest.(check bool) "gated" true d.Benchrun.d_gated;
  Alcotest.(check bool) "gate trips" true (ab.Benchrun.regressions > 0);
  (* and the reverse is an improvement, not a regression *)
  let ab = Benchrun.compare_runs cand base in
  Alcotest.(check int) "partial->complete passes" 0 ab.Benchrun.regressions

(* a row that disappears from the candidate is lost coverage: gated *)
let test_missing_row () =
  let extra = row ~analysis:"strictness" ~name:"mergesort" ~total:[ 1. ]
      ~bytes:[ 1000. ] () in
  let base = mkrun [ row ~total:[ 1. ] ~bytes:[ 4664. ] (); extra ] in
  let cand = mkrun [ row ~total:[ 1. ] ~bytes:[ 4664. ] () ] in
  let ab = Benchrun.compare_runs base cand in
  Alcotest.(check (list (pair string string))) "missing row listed"
    [ ("strictness", "mergesort") ] ab.Benchrun.missing;
  Alcotest.(check int) "missing row gates" 1 ab.Benchrun.regressions;
  (* new rows in the candidate are informational *)
  let ab = Benchrun.compare_runs cand base in
  Alcotest.(check (list (pair string string))) "added row listed"
    [ ("strictness", "mergesort") ] ab.Benchrun.added;
  Alcotest.(check int) "added row does not gate" 0 ab.Benchrun.regressions

(* counters explain deltas but never gate *)
let test_counters_informational () =
  let base =
    mkrun [ row ~counters:[ ("unify.attempts", 1000.) ] ~total:[ 1. ]
        ~bytes:[ 4664. ] () ]
  in
  let cand =
    mkrun [ row ~counters:[ ("unify.attempts", 2000.) ] ~total:[ 1. ]
        ~bytes:[ 4664. ] () ]
  in
  let ab = Benchrun.compare_runs base cand in
  let d = delta_of ab ~metric:"unify.attempts" in
  Alcotest.check verdict "doubled counter flagged" Benchrun.Regression
    d.Benchrun.d_verdict;
  Alcotest.(check bool) "but not gated" false d.Benchrun.d_gated;
  Alcotest.(check int) "gate stays green" 0 ab.Benchrun.regressions

(* the counts class gates exact equality of the deterministic counts,
   either way, and leaves the other counters informational *)
let test_counts_exact () =
  let counts = { Benchrun.default_thresholds with Benchrun.gate_counts = true } in
  let counters ~answers ~attempts =
    [ ("engine.answers_inserted", answers); ("unify.attempts", attempts) ]
  in
  let base =
    mkrun [ row ~counters:(counters ~answers:24. ~attempts:1000.) ~total:[ 1. ]
        ~bytes:[ 4664. ] () ]
  in
  let fewer =
    mkrun [ row ~counters:(counters ~answers:23. ~attempts:2000.) ~total:[ 1. ]
        ~bytes:[ 4664. ] () ]
  in
  let ab = Benchrun.compare_runs ~thresholds:counts base fewer in
  let d = delta_of ab ~metric:"engine.answers_inserted" in
  Alcotest.check verdict "one answer fewer is a change" Benchrun.Regression
    d.Benchrun.d_verdict;
  Alcotest.(check bool) "gated" true d.Benchrun.d_gated;
  Alcotest.(check bool) "unify.attempts stays ungated" false
    (delta_of ab ~metric:"unify.attempts").Benchrun.d_gated;
  Alcotest.(check int) "one gated regression" 1 ab.Benchrun.regressions;
  let fewer_resumptions =
    mkrun
      [
        {
          (row ~counters:(counters ~answers:24. ~attempts:1000.) ~total:[ 1. ]
             ~bytes:[ 4664. ] ())
          with
          Benchrun.r_engine =
            [ ("table_entries", 35); ("answers", 24); ("resumptions", 52) ];
        };
      ]
  in
  let ab = Benchrun.compare_runs ~thresholds:counts base fewer_resumptions in
  Alcotest.check verdict "engine column compared" Benchrun.Regression
    (delta_of ab ~metric:"resumptions").Benchrun.d_verdict;
  Alcotest.(check int) "same counts pass" 0
    (Benchrun.compare_runs ~thresholds:counts base base).Benchrun.regressions

(* the rendered A/B lists gated deltas first and marks the ungated ones,
   so a passing gate does not read as a list of regressions *)
let test_render_marks_ungated () =
  let base =
    mkrun [ row ~counters:[ ("unify.attempts", 1000.) ] ~total:[ 1. ]
        ~bytes:[ 4664. ] () ]
  in
  let cand =
    mkrun [ row ~counters:[ ("unify.attempts", 2000.) ] ~total:[ 1. ]
        ~bytes:[ 5600. ] () ]
  in
  let ab = Benchrun.compare_runs base cand in
  let lines =
    String.split_on_char '\n' (Benchrun.render_ab ab)
    |> List.filter (fun l -> String.starts_with ~prefix:"  regression" l)
  in
  let ends_ungated l = String.ends_with ~suffix:" (ungated)" l in
  Alcotest.(check (list bool)) "gated line, then the marked counter line"
    [ false; true ] (List.map ends_ungated lines);
  let mentions l needle =
    let n = String.length needle in
    Seq.exists
      (fun i -> String.sub l i n = needle)
      (Seq.init (String.length l - n + 1) Fun.id)
  in
  Alcotest.(check (list bool)) "table_bytes gated, unify.attempts not"
    [ true; true ]
    [ mentions (List.nth lines 0) "table_bytes";
      mentions (List.nth lines 1) "unify.attempts" ]

(* shard pooling: samples concatenate, degraded status survives,
   scalars come from the last shard *)
let test_pool_rows () =
  let s1 =
    [
      row ~status:"partial:deadline" ~counters:[ ("unify.attempts", 1.) ]
        ~total:[ 1.0; 1.1 ] ~bytes:[ 100. ] ();
      row ~analysis:"strictness" ~name:"mergesort" ~total:[ 5. ]
        ~bytes:[ 50. ] ();
    ]
  in
  let s2 =
    [ row ~counters:[ ("unify.attempts", 2.) ] ~total:[ 2.0; 2.1 ]
        ~bytes:[ 100. ] () ]
  in
  let pooled = Benchrun.pool_rows [ s1; s2 ] in
  Alcotest.(check int) "disjoint rows kept" 2 (List.length pooled);
  let p =
    List.find (fun r -> r.Benchrun.r_analysis = "groundness") pooled
  in
  Alcotest.(check int) "samples concatenated" 4 p.Benchrun.r_total.Benchrun.n;
  Alcotest.(check (float 1e-9)) "pooled median spans both shards" 1.55
    p.Benchrun.r_total.Benchrun.median;
  Alcotest.(check string) "degraded shard status survives" "partial:deadline"
    p.Benchrun.r_status;
  Alcotest.(check (float 1e-9)) "counters from the last shard" 2.
    (List.assoc "unify.attempts" p.Benchrun.r_counters)

(* --- bench-file round trip ---------------------------------------------------- *)

let test_roundtrip () =
  with_tmpdir (fun dir ->
      let rows =
        [
          row ~total:[ 0.0011; 0.0010; 0.0012 ] ~bytes:[ 4664. ] ();
          row ~analysis:"strictness" ~name:"mergesort" ~status:"complete"
            ~total:[ 0.01; 0.011; 0.009 ] ~bytes:[ 136672. ] ();
        ]
      in
      match Benchrun.load_run (write ~dir ~id:"rt" rows) with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok run ->
          Alcotest.(check string) "id is the file name" "rt.json"
            run.Benchrun.id;
          Alcotest.(check int) "rows" 2 (List.length run.Benchrun.rows);
          let loaded = List.hd run.Benchrun.rows in
          let orig = List.hd rows in
          Alcotest.(check (float 1e-12)) "total median survives"
            orig.Benchrun.r_total.Benchrun.median
            loaded.Benchrun.r_total.Benchrun.median;
          Alcotest.(check (list (float 1e-12))) "raw samples survive"
            orig.Benchrun.r_total.Benchrun.values
            loaded.Benchrun.r_total.Benchrun.values;
          Alcotest.(check string) "config survives" "dynamic"
            (List.assoc "mode" loaded.Benchrun.r_config);
          Alcotest.(check (list (pair string int))) "engine counts survive"
            orig.Benchrun.r_engine loaded.Benchrun.r_engine;
          (* identity comparison: zero deltas flagged, zero regressions *)
          let ab = Benchrun.compare_runs run run in
          Alcotest.(check int) "self-ab regressions" 0 ab.Benchrun.regressions;
          Alcotest.(check int) "self-ab improvements" 0
            ab.Benchrun.improvements;
          Alcotest.(check bool) "every delta unchanged" true
            (List.for_all
               (fun d -> d.Benchrun.d_verdict = Benchrun.Unchanged)
               ab.Benchrun.deltas))

(* --- a prax.bench file is a run --------------------------------------------- *)

let overwrite path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

let bench_engine_json =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "BENCH_engine.json"

let header_keys path =
  match Benchrun.Metrics.json_of_string (read_file path) with
  | Benchrun.Metrics.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          match v with Benchrun.Metrics.Arr _ -> None | _ -> Some (k, v))
        fields
  | _ -> Alcotest.failf "%s is not an object" path

(* A file written with BENCH_engine.json's [incremental] array loads
   with the same rows as one without, a failed write strands no temp
   file, and there is nothing sound to compare in a corrupt, missing or
   row-less file: each is a load error. *)
let test_file_run () =
  with_tmpdir (fun dir ->
      let rows =
        [
          row ~total:[ 0.0011; 0.0010; 0.0012 ] ~bytes:[ 4664. ] ();
          row ~analysis:"strictness" ~name:"mergesort"
            ~total:[ 0.01; 0.011; 0.009 ] ~bytes:[ 136672. ] ();
        ]
      in
      let plain = write ~dir ~id:"plain" rows in
      let with_incr = Filename.concat dir "v3.json" in
      Benchrun.write_bench
        ~incremental:
          [ Benchrun.Metrics.Obj [ ("name", Benchrun.Metrics.Str "qsort") ] ]
        with_incr rows;
      let load path =
        match Benchrun.load_run path with
        | Ok run -> run
        | Error msg -> Alcotest.failf "%s: %s" path msg
      in
      let a = load plain and b = load with_incr in
      Alcotest.(check bool) "incremental array ignored: same rows" true
        (a.Benchrun.rows = b.Benchrun.rows);
      Alcotest.(check int) "self-ab regressions" 0
        (Benchrun.compare_runs a b).Benchrun.regressions;
      (* a bench run record has the committed snapshot's header *)
      Alcotest.(check (list string)) "header keys as BENCH_engine.json"
        (List.map fst (header_keys bench_engine_json))
        (List.map fst (header_keys plain));
      Alcotest.(check bool) "schema_version as BENCH_engine.json" true
        (List.assoc "schema_version" (header_keys plain)
        = List.assoc "schema_version" (header_keys bench_engine_json));
      (* a rename that fails (the target is a directory) removes its temp *)
      let target = Filename.concat dir "a-directory" in
      Unix.mkdir target 0o755;
      let before = List.sort compare (Array.to_list (Sys.readdir dir)) in
      (match Benchrun.write_bench target rows with
      | () -> Alcotest.fail "writing over a directory must fail"
      | exception (Sys_error _ | Unix.Unix_error _) -> ());
      Alcotest.(check (list string)) "no temp file left" before
        (List.sort compare (Array.to_list (Sys.readdir dir)));
      let must_fail what path =
        match Benchrun.load_run path with
        | Ok _ -> Alcotest.failf "%s must not load" what
        | Error _ -> ()
      in
      must_fail "a directory" target;
      let file = Filename.concat dir "bad.json" in
      overwrite file "xx";
      must_fail "a corrupt prax.bench file" file;
      overwrite file {|{"schema":"prax.bench","incremental":[]}|};
      must_fail "a prax.bench file without rows" file;
      overwrite file {|{"schema":"prax.bench","benchmarks":[{}]}|};
      must_fail "a prax.bench file with no decodable row" file;
      Sys.remove file;
      must_fail "a missing prax.bench file" file);
  (* the committed snapshot is a run: every row, the file name as its id *)
  match Benchrun.load_run bench_engine_json with
  | Error msg -> Alcotest.failf "BENCH_engine.json: %s" msg
  | Ok run ->
      let entries =
        match
          Benchrun.Metrics.member "benchmarks"
            (Benchrun.Metrics.json_of_string (read_file bench_engine_json))
        with
        | Some (Benchrun.Metrics.Arr l) -> List.length l
        | _ -> Alcotest.fail "BENCH_engine.json: no benchmarks array"
      in
      Alcotest.(check int) "BENCH_engine.json rows" entries
        (List.length run.Benchrun.rows);
      Alcotest.(check string) "BENCH_engine.json id" "BENCH_engine.json"
        run.Benchrun.id

(* --- bench gate exit codes through the built harness ----------------------- *)

let bench_exe =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bench")
    "main.exe"

(* run argv with stdout/stderr captured to a file; return the exit code *)
let run_code argv =
  with_tmpdir (fun dir ->
      let out = Filename.concat dir "out" in
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      let pid =
        Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin fd fd
      in
      Unix.close fd;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code -> code
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          Alcotest.failf "bench killed by signal %d" n)

let test_gate_exit_codes () =
  with_tmpdir (fun dir ->
      let base_rows = [ row ~total:[ 1.0; 1.0; 1.0 ] ~bytes:[ 4664. ] () ] in
      let slow_rows = [ row ~total:[ 3.0; 3.0; 3.0 ] ~bytes:[ 4664. ] () ] in
      let base = write ~dir ~id:"base" base_rows in
      let same = write ~dir ~id:"same" base_rows in
      let slow = write ~dir ~id:"slow" slow_rows in
      (* one more answer: same time and bytes, a different count *)
      let recount =
        write ~dir ~id:"recount"
          [
            row ~counters:[ ("engine.answers_inserted", 25.) ]
              ~total:[ 1.0; 1.0; 1.0 ] ~bytes:[ 4664. ] ();
          ]
      in
      (* a committed prax.bench file whose table bytes are 10% lower *)
      let lean_rows = [ row ~total:[ 1.0; 1.0; 1.0 ] ~bytes:[ 4198. ] () ] in
      let lean = write ~dir ~id:"lean" lean_rows in
      let committed = write ~dir ~id:"committed" lean_rows in
      let gate ?(baseline = base) extra =
        run_code ([ bench_exe; "gate"; "--baseline"; baseline ] @ extra)
      in
      Alcotest.(check int) "identical runs pass (exit 0)" 0
        (gate [ "--candidate"; same ]);
      Alcotest.(check int) "slowed run trips the gate (exit 2)" 2
        (gate [ "--candidate"; slow ]);
      Alcotest.(check int) "time gate off ignores the slowdown" 0
        (gate [ "--candidate"; slow; "--metrics"; "bytes" ]);
      Alcotest.(check int) "a changed engine count trips counts (exit 2)" 2
        (gate [ "--candidate"; recount; "--metrics"; "bytes,counts" ]);
      Alcotest.(check int) "counts off leaves counters informational" 0
        (gate [ "--candidate"; recount; "--metrics"; "bytes" ]);
      Alcotest.(check int) "equal counts pass the counts class" 0
        (gate [ "--candidate"; same; "--metrics"; "counts" ]);
      Alcotest.(check int) "an unknown metric class is a usage error" 1
        (gate [ "--candidate"; same; "--metrics"; "bytes,words" ]);
      Alcotest.(check int) "missing baseline is a usage error (exit 1)" 1
        (gate ~baseline:(Filename.concat dir "nope.json")
           [ "--candidate"; same ]);
      Alcotest.(check int) "ab reports without gating (exit 0)" 0
        (run_code [ bench_exe; "ab"; base; slow ]);
      Alcotest.(check int) "a prax.bench file baseline passes (exit 0)" 0
        (gate ~baseline:committed [ "--candidate"; lean; "--metrics"; "bytes" ]);
      Alcotest.(check int) "bytes above the committed file trip (exit 2)" 2
        (gate ~baseline:committed [ "--candidate"; same; "--metrics"; "bytes" ]))

(* --- representation counters of a measured run ------------------------------ *)

(* A groundness run feeds the hash-consing and symbol-intern counters
   that bench rows report, and accounts its table space.  This is the
   process's first analysis, so qsort's symbols intern fresh. *)
let test_groundness_counters () =
  let module M = Benchrun.Metrics in
  M.reset ();
  let src =
    (Option.get (Prax_benchdata.Registry.find_logic "qsort"))
      .Prax_benchdata.Registry.source
  in
  let rep = Prax_ground.Analyze.analyze src in
  Alcotest.(check bool) "groundness(qsort) completes" true
    (rep.Prax_ground.Analyze.status = Prax_guard.Guard.Complete);
  Alcotest.(check bool) "table space accounted" true
    (rep.Prax_ground.Analyze.table_bytes > 0);
  Alcotest.(check bool) "hash-cons counters live" true
    (M.counter_value "hashcons.hits" + M.counter_value "hashcons.misses" > 0);
  Alcotest.(check bool) "symbol-intern counter live" true
    (M.counter_value "intern.symbols" > 0)

(* --- the committed BENCH_engine.json ---------------------------------------- *)

(* The snapshot is written by the same row encoder as a bench run's file,
   so every row must decode through the one row decoder, and it holds
   one row per cell of the registry matrix (51 today): groundness over
   the logic and stress corpora, strictness over the functional corpus,
   depth-k over the Table-4 subset, gaia over the logic corpus, dataflow
   over the CFG corpus. *)
let test_bench_engine_rows () =
  let module R = Prax_benchdata.Registry in
  let doc =
    Benchrun.Metrics.json_of_string
      (read_file bench_engine_json)
  in
  let entries =
    match Benchrun.Metrics.member "benchmarks" doc with
    | Some (Benchrun.Metrics.Arr l) -> l
    | _ -> Alcotest.fail "BENCH_engine.json: no benchmarks array"
  in
  let logic = List.length R.logic_benchmarks in
  let matrix =
    logic
    + List.length R.stress_benchmarks
    + List.length R.fp_benchmarks
    + List.length R.table4_benchmarks
    + logic
    + List.length R.cfg_benchmarks
  in
  Alcotest.(check int) "rows in the snapshot" matrix (List.length entries);
  List.iter
    (fun j ->
      match Benchrun.row_of_json j with
      | None -> Alcotest.fail "a row does not decode"
      | Some r ->
          let id = r.Benchrun.r_analysis ^ "/" ^ r.Benchrun.r_name in
          Alcotest.(check bool)
            (id ^ " has a status") true
            (Benchrun.Metrics.member "status" j <> None);
          (* gaia is the one analysis off the tabled engine *)
          Alcotest.(check (list string))
            (id ^ " engine counts")
            (if r.Benchrun.r_analysis = "gaia" then []
             else [ "table_entries"; "answers"; "resumptions" ])
            (List.map fst r.Benchrun.r_engine))
    entries

let () =
  Alcotest.run "benchrun"
    [
      ("stats", [ Alcotest.test_case "order statistics" `Quick test_stats ]);
      ( "thresholds",
        [
          Alcotest.test_case "regression flagged" `Quick test_regression_flagged;
          Alcotest.test_case "IQR noise not flagged" `Quick
            test_noise_not_flagged;
          Alcotest.test_case "absolute floor" `Quick test_abs_floor;
          Alcotest.test_case "table-byte thresholds" `Quick
            test_bytes_thresholds;
          Alcotest.test_case "improvement" `Quick test_improvement;
          Alcotest.test_case "status downgrade gates" `Quick
            test_status_downgrade;
          Alcotest.test_case "missing row gates" `Quick test_missing_row;
          Alcotest.test_case "counts class gates exact counts" `Quick
            test_counts_exact;
          Alcotest.test_case "counters informational" `Quick
            test_counters_informational;
          Alcotest.test_case "render marks ungated deltas" `Quick
            test_render_marks_ungated;
          Alcotest.test_case "shard pooling" `Quick test_pool_rows;
        ] );
      ( "store",
        [
          Alcotest.test_case "round trip + self-ab identity" `Quick
            test_roundtrip;
          Alcotest.test_case "a prax.bench file is a run" `Quick test_file_run;
        ] );
      ( "gate",
        [ Alcotest.test_case "exit codes" `Quick test_gate_exit_codes ] );
      ( "counters",
        [
          Alcotest.test_case "groundness run feeds them" `Quick
            test_groundness_counters;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "BENCH_engine.json rows decode" `Quick
            test_bench_engine_rows;
        ] );
    ]

(* Tests for the unified analysis pipeline (docs/ANALYSES.md): the
   registry holds all five shipped analyses; every entry round-trips
   source -> run -> prax.report JSON -> parse; configurations merge
   with unknown keys rejected and malformed values raising
   Config_error; the textual CFG format round-trips; and the
   supervised batch + snapshot store accept every registry entry with
   per-analysis snapshot keys and warm-start hits. *)

module Analysis = Prax_analysis.Analysis
module Analyses = Prax_analyses.Analyses
module Guard = Prax_guard.Guard
module Metrics = Prax_metrics.Metrics
module Registry = Prax_benchdata.Registry
module Serve = Prax_serve.Serve
module Store = Prax_store.Store
module Cfg = Prax_dataflow.Cfg

let () = Analyses.ensure ()
let guard () = Guard.create ~timeout:30. ()

let sample_source (a : Analysis.t) =
  match a.Analysis.kind with
  | Analysis.Logic_program ->
      (Option.get (Registry.find_logic "qsort")).Registry.source
  | Analysis.Fp_program ->
      (Option.get (Registry.find_fp "mergesort")).Registry.source
  | Analysis.Cfg_program ->
      (Option.get (Registry.find_cfg "interp")).Registry.source

(* --- the registry ------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string))
    "registration order"
    [ "groundness"; "strictness"; "depthk"; "gaia"; "dataflow" ]
    (Analysis.names ());
  List.iter
    (fun (ext, expected) ->
      match Analysis.claiming_extension ext with
      | Some a ->
          Alcotest.(check string) (ext ^ " claimant") expected a.Analysis.name
      | None -> Alcotest.failf "no analysis claims %s" ext)
    [ (".pl", "groundness"); (".eq", "strictness"); (".cfg", "dataflow") ];
  Alcotest.(check bool) "unknown name absent" true (Analysis.find "nosuch" = None);
  List.iter
    (fun (a : Analysis.t) ->
      Alcotest.(check bool)
        (a.Analysis.name ^ " findable") true
        (Analysis.find a.Analysis.name == Some a || Analysis.find a.Analysis.name <> None))
    (Analysis.all ())

let test_duplicate_registration_rejected () =
  let a = Option.get (Analysis.find "groundness") in
  match Analysis.register a with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ()

(* --- configurations ----------------------------------------------------- *)

let test_merge_config () =
  let defaults = [ ("k", "2"); ("mode", "fast") ] in
  (match Analysis.merge_config ~defaults [ ("mode", "slow"); ("mode", "x") ] with
  | Ok c ->
      Alcotest.(check (list (pair string string)))
        "defaults order kept, later assignment wins"
        [ ("k", "2"); ("mode", "x") ]
        c
  | Error e -> Alcotest.failf "merge failed: %s" e);
  (match Analysis.merge_config ~defaults [] with
  | Ok c ->
      Alcotest.(check (list (pair string string))) "empty overlay" defaults c
  | Error e -> Alcotest.failf "merge failed: %s" e);
  match Analysis.merge_config ~defaults [ ("bogus", "1") ] with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error e ->
      Alcotest.(check bool) "error names the key" true
        (String.length e > 0
        && String.index_opt e 'b' <> None)

let test_assignments_of_string () =
  (match Analysis.assignments_of_string "k=2, mode=compiled" with
  | Ok c ->
      Alcotest.(check (list (pair string string)))
        "parsed with whitespace"
        [ ("k", "2"); ("mode", "compiled") ]
        c
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Analysis.assignments_of_string "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty string parsed non-empty"
  | Error e -> Alcotest.failf "empty string rejected: %s" e);
  match Analysis.assignments_of_string "novalue" with
  | Ok _ -> Alcotest.fail "missing = accepted"
  | Error _ -> ()

(* each driver validates its own values: malformed ones surface as
   Config_error, the condition front-ends map to an input error *)
let test_config_errors () =
  let expect_config_error name cfg =
    let a = Option.get (Analysis.find name) in
    match Analysis.run a ~config:cfg ~guard:(guard ()) (sample_source a) with
    | _ -> Alcotest.failf "%s accepted %s" name (Analysis.config_to_string cfg)
    | exception Analysis.Config_error _ -> ()
  in
  expect_config_error "groundness" [ ("mode", "weird") ];
  expect_config_error "strictness" [ ("supplementary", "perhaps") ];
  expect_config_error "depthk" [ ("k", "many") ];
  expect_config_error "depthk" [ ("k", "-1") ];
  expect_config_error "gaia" [ ("backend", "quantum") ];
  (* unknown keys are rejected at merge time by Analysis.run *)
  let a = Option.get (Analysis.find "dataflow") in
  match Analysis.run a ~config:[ ("k", "1") ] ~guard:(guard ()) (sample_source a) with
  | _ -> Alcotest.fail "dataflow accepted a config key it does not declare"
  | exception Analysis.Config_error _ -> ()

(* --- report round-trip for every registered analysis -------------------- *)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_report_roundtrip () =
  List.iter
    (fun (a : Analysis.t) ->
      let name = a.Analysis.name in
      let rep = Analysis.run a ~guard:(guard ()) (sample_source a) in
      Alcotest.(check string) (name ^ ": report names itself") name
        rep.Analysis.analysis;
      Alcotest.(check bool)
        (name ^ ": effective config is the defaults")
        true
        (rep.Analysis.config = a.Analysis.defaults);
      Alcotest.(check bool)
        (name ^ ": human payload present")
        true
        (String.length rep.Analysis.payload_text > 0);
      Alcotest.(check bool)
        (name ^ ": clause count positive")
        true (rep.Analysis.clause_count > 0);
      Alcotest.(check bool)
        (name ^ ": completes on the sample")
        true
        (rep.Analysis.status = Guard.Complete);
      let input = "sample" ^ List.hd a.Analysis.extensions in
      let str =
        Metrics.json_to_string (Analysis.report_to_json ~input rep)
      in
      match Analysis.report_of_json (Metrics.json_of_string str) with
      | Error e -> Alcotest.failf "%s: report_of_json: %s" name e
      | Ok p ->
          Alcotest.(check string) (name ^ ": analysis survives") name
            p.Analysis.p_analysis;
          Alcotest.(check (option string))
            (name ^ ": input survives")
            (Some input) p.Analysis.p_input;
          Alcotest.(check string) (name ^ ": status wire string") "complete"
            p.Analysis.p_status;
          Alcotest.(check (list (pair string string)))
            (name ^ ": config survives")
            rep.Analysis.config p.Analysis.p_config;
          Alcotest.(check int)
            (name ^ ": table bytes survive")
            rep.Analysis.table_bytes p.Analysis.p_table_bytes;
          Alcotest.(check int)
            (name ^ ": clause count survives")
            rep.Analysis.clause_count p.Analysis.p_clause_count;
          Alcotest.(check (option int))
            (name ^ ": source lines survive")
            rep.Analysis.source_lines p.Analysis.p_source_lines;
          Alcotest.(check string)
            (name ^ ": rendered text survives")
            rep.Analysis.payload_text p.Analysis.p_text;
          feq (name ^ ": preproc survives") rep.Analysis.phases.Analysis.preproc
            p.Analysis.p_phases.Analysis.preproc;
          feq (name ^ ": analysis phase survives")
            rep.Analysis.phases.Analysis.analysis
            p.Analysis.p_phases.Analysis.analysis;
          feq (name ^ ": collection survives")
            rep.Analysis.phases.Analysis.collection
            p.Analysis.p_phases.Analysis.collection;
          (match (rep.Analysis.engine, p.Analysis.p_engine) with
          | None, None -> ()
          | Some e, Some pe ->
              Alcotest.(check int)
                (name ^ ": engine answers survive")
                e.Analysis.answers pe.Analysis.answers;
              Alcotest.(check int)
                (name ^ ": engine entries survive")
                e.Analysis.table_entries pe.Analysis.table_entries
          | Some _, None | None, Some _ ->
              Alcotest.failf "%s: engine counts dropped or invented" name);
          Alcotest.(check bool)
            (name ^ ": result payload survives")
            true
            (p.Analysis.p_result = rep.Analysis.payload_json))
    (Analysis.all ())

let test_report_of_json_rejects () =
  let reject what doc =
    match Analysis.report_of_json doc with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  reject "a non-object" (Metrics.Str "hi");
  reject "a foreign schema"
    (Metrics.Obj
       [ ("schema", Metrics.Str "prax.stats"); ("schema_version", Metrics.Int 1) ]);
  let a = Option.get (Analysis.find "gaia") in
  let rep = Analysis.run a ~guard:(guard ()) (sample_source a) in
  match Analysis.report_to_json rep with
  | Metrics.Obj fields ->
      reject "a future schema version"
        (Metrics.Obj
           (List.map
              (fun (k, v) ->
                if String.equal k "schema_version" then (k, Metrics.Int 999)
                else (k, v))
              fields))
  | _ -> Alcotest.fail "report_to_json is not an object"

(* --- the textual CFG format -------------------------------------------- *)

let test_cfg_roundtrip () =
  let p = Cfg.parse Prax_benchdata.Cfg_programs.interp in
  Alcotest.(check int) "two procedures" 2 (List.length p);
  let printed = Cfg.to_source p in
  let p2 = Cfg.parse printed in
  Alcotest.(check string) "parse . to_source is a fixpoint" printed
    (Cfg.to_source p2)

let test_cfg_parse_errors () =
  let rejects what src =
    match Cfg.parse src with
    | _ -> Alcotest.failf "parsed %s" what
    | exception Cfg.Parse_error _ -> ()
  in
  rejects "an empty program" "";
  rejects "a node outside a proc" "node 0 entry\n";
  rejects "a proc without exit" "proc p\nnode 0 entry\nnode 1 skip\nedge 0 1\n";
  rejects "two entries" "proc p\nnode 0 entry\nnode 1 entry\nnode 2 exit\n";
  rejects "an unknown statement" "proc p\nnode 0 entry\nnode 1 frobnicate\n";
  rejects "a malformed edge" "proc p\nnode 0 entry\nnode 1 exit\nedge 0\n"

(* --- batch + store accept every registry entry -------------------------- *)

let with_store f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-analysis-test-%d-%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  let t = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f t)

let quick_config =
  {
    Serve.default_config with
    Serve.jobs = 2;
    retries = 1;
    backoff_base = 0.01;
    budget = Guard.spec ~timeout:30. ();
  }

(* jobs are analysis names; each runs its analysis on the kind's sample
   source, exactly the xanalyze batch shape *)
let test_batch_store_every_analysis () =
  with_store (fun store ->
      let jobs = Analysis.names () in
      let key_of job =
        let a = Option.get (Analysis.find job) in
        {
          Store.analysis = a.Analysis.name;
          source_digest = Store.digest_source (sample_source a);
          config = Analysis.config_to_string a.Analysis.defaults;
          schema_version = Analysis.report_schema_version;
        }
      in
      (* distinct snapshot keys per analysis, even for analyses sharing
         a source (groundness/depthk/gaia all sample qsort) *)
      Alcotest.(check int) "snapshot keys distinct"
        (List.length jobs)
        (List.length
           (List.sort_uniq compare
              (List.map (fun j -> Store.path_of store (key_of j)) jobs)));
      let worker ~job ~attempt:_ ~guard =
        let a = Option.get (Analysis.find job) in
        let rep = Analysis.run a ~guard (sample_source a) in
        let payload =
          Metrics.json_to_string (Analysis.report_to_json ~input:"sample" rep)
        in
        match rep.Analysis.status with
        | Guard.Complete -> (Serve.Complete, payload)
        | Guard.Partial { reason; _ } ->
            (Serve.Partial_result (Guard.reason_to_string reason), payload)
      in
      let cached ~job = Store.load store (key_of job) in
      let persist ~job ~payload = Store.save store (key_of job) payload in
      Metrics.reset ();
      let cold =
        Serve.run_batch ~config:quick_config ~cached ~persist ~worker jobs
      in
      Alcotest.(check (list string)) "cold: all jobs reported" jobs
        (List.map (fun r -> r.Serve.job) cold);
      List.iter
        (fun r ->
          Alcotest.(check string)
            (r.Serve.job ^ " cold outcome")
            "complete"
            (Serve.outcome_class r.Serve.outcome))
        cold;
      Alcotest.(check int) "cold: one snapshot write per analysis"
        (List.length jobs)
        (Metrics.counter_value "store.writes");
      Metrics.reset ();
      let warm =
        Serve.run_batch ~config:quick_config ~cached ~persist ~worker jobs
      in
      Alcotest.(check int) "warm: every job a store hit" (List.length jobs)
        (Metrics.counter_value "store.hits");
      Alcotest.(check int) "warm: no forks"
        0
        (Metrics.counter_value "serve.workers_spawned");
      List.iter
        (fun r ->
          match r.Serve.outcome with
          | Serve.Done { from_cache = true; payload; _ } -> (
              (* the snapshot is the prax.report document itself *)
              match
                Analysis.report_of_json (Metrics.json_of_string payload)
              with
              | Ok p ->
                  Alcotest.(check string)
                    (r.Serve.job ^ " snapshot names its analysis")
                    r.Serve.job p.Analysis.p_analysis
              | Error e ->
                  Alcotest.failf "%s: snapshot not a prax.report: %s"
                    r.Serve.job e)
          | _ -> Alcotest.failf "%s not answered from cache" r.Serve.job)
        warm;
      Metrics.reset ())

(* --- words per phase ------------------------------------------------------ *)

(* Every analysis run adds what each of its phases allocated to the
   alloc.* counters: every evaluation builds terms, so that counter
   moves, and two runs of the same source in one process move each
   counter by about the same amount (allocation does not swing with
   host load the way wall time does). *)
let test_phase_words () =
  List.iter
    (fun (a : Analysis.t) ->
      let run () =
        Metrics.reset ();
        ignore (Analysis.run a ~guard:(guard ()) (sample_source a));
        List.map Metrics.counter_value
          [ "alloc.preprocess_words"; "alloc.evaluate_words";
            "alloc.collect_words" ]
      in
      let first = run () in
      let second = run () in
      List.iter2
        (fun (phase, w1) w2 ->
          if phase = "evaluate" then
            Alcotest.(check bool)
              (Printf.sprintf "%s evaluate allocates" a.Analysis.name)
              true (w1 > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s words repeat within 2x (%d, %d)"
               a.Analysis.name phase w1 w2)
            true
            (w2 <= (2 * w1) + 256 && w1 <= (2 * w2) + 256))
        (List.combine [ "preprocess"; "evaluate"; "collect" ] first)
        second)
    (Analysis.all ())

let () =
  Alcotest.run "analysis"
    [
      ( "registry",
        [
          Alcotest.test_case "five analyses, ordered" `Quick test_registry;
          Alcotest.test_case "duplicate rejected" `Quick
            test_duplicate_registration_rejected;
        ] );
      ( "config",
        [
          Alcotest.test_case "merge" `Quick test_merge_config;
          Alcotest.test_case "assignments" `Quick test_assignments_of_string;
          Alcotest.test_case "malformed values" `Quick test_config_errors;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip, every analysis" `Quick
            test_report_roundtrip;
          Alcotest.test_case "rejects foreign documents" `Quick
            test_report_of_json_rejects;
        ] );
      ( "cfg-format",
        [
          Alcotest.test_case "round-trip" `Quick test_cfg_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_cfg_parse_errors;
        ] );
      ( "phases",
        [ Alcotest.test_case "words per phase" `Quick test_phase_words ] );
      ( "batch-store",
        [
          Alcotest.test_case "every analysis batches and warm-starts" `Quick
            test_batch_store_every_analysis;
        ] );
    ]

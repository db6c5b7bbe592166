(* The observability layer: counter invariants on a real analysis run,
   timer nesting/reentrancy/exception safety, and the serialized schema (JSON round-trip, CSV shape). *)

module M = Prax_metrics.Metrics

let small_program =
  "app([], L, L).\n\
   app([H|T], L, [H|R]) :- app(T, L, R).\n\
   rev([], []).\n\
   rev([H|T], R) :- rev(T, RT), app(RT, [H], R)."

(* --- counter invariants -------------------------------------------------- *)

let test_engine_invariants () =
  M.reset ();
  let rep = Prax_ground.Analyze.analyze small_program in
  let c = M.counter_value in
  let lookups = c "engine.call_lookups" in
  Alcotest.(check bool) "analysis exercises the engine" true (lookups > 0);
  Alcotest.(check int) "lookups = hits + misses" lookups
    (c "engine.call_hits" + c "engine.call_misses");
  Alcotest.(check int) "offered = inserted + deduped"
    (c "engine.answers_offered")
    (c "engine.answers_inserted" + c "engine.answers_deduped");
  (* a miss is exactly a new call-table entry; one engine ran, so the
     global counter must equal its per-engine figure *)
  Alcotest.(check int) "misses = table entries"
    rep.Prax_ground.Analyze.engine_stats.Prax_tabling.Engine.table_entries
    (c "engine.call_misses");
  Alcotest.(check int) "resumptions agree with the per-engine stats"
    rep.Prax_ground.Analyze.engine_stats.Prax_tabling.Engine.resumptions
    (c "engine.consumer_resumptions");
  Alcotest.(check bool) "unification was counted" true (c "unify.attempts" > 0)

let test_phase_timers () =
  M.reset ();
  ignore (Prax_ground.Analyze.analyze small_program);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " advanced") true (M.timer_seconds name > 0.))
    [ "ground.preprocess"; "ground.evaluate"; "ground.collect" ]

(* --- timers -------------------------------------------------------------- *)

let spin () =
  (* enough work for a monotonic-clock delta on any platform *)
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  !x

let timing_of name =
  let snap = M.snapshot () in
  List.find (fun t -> String.equal t.M.timer_name name) snap.M.timers

let test_timer_nesting () =
  let outer = M.timer "test.outer" in
  let inner = M.timer "test.inner" in
  M.reset ();
  let r =
    M.time outer (fun () ->
        ignore (spin ());
        M.time inner spin)
  in
  Alcotest.(check bool) "time returns the body's result" true (r > 0);
  Alcotest.(check bool) "inner <= outer" true
    (M.seconds inner <= M.seconds outer);
  Alcotest.(check bool) "both advanced" true (M.seconds inner > 0.);
  let t = timing_of "test.inner" in
  Alcotest.(check (option string)) "dynamic parent attribution"
    (Some "test.outer") t.M.parent;
  Alcotest.(check int) "one activation" 1 t.M.activations

let test_timer_reentrancy () =
  let t = M.timer "test.reentrant" in
  M.reset ();
  let rec go n = M.time t (fun () -> if n > 0 then go (n - 1) else spin ()) in
  ignore (go 3);
  let tg = timing_of "test.reentrant" in
  Alcotest.(check int) "nested self-activations count once" 1 tg.M.activations;
  Alcotest.(check bool) "clock charged once, not per level" true
    (tg.M.timer_seconds > 0.)

let test_timer_exception_safety () =
  let t = M.timer "test.raising" in
  M.reset ();
  (try M.time t (fun () -> ignore (spin ()); raise Exit) with Exit -> ());
  let tg = timing_of "test.raising" in
  Alcotest.(check int) "activation recorded despite the raise" 1
    tg.M.activations;
  Alcotest.(check bool) "elapsed time recorded despite the raise" true
    (tg.M.timer_seconds > 0.);
  (* the timer must be reusable afterwards: depth guard back to zero *)
  ignore (M.time t spin);
  Alcotest.(check int) "timer usable after the raise" 2
    (timing_of "test.raising").M.activations

(* --- serialization ------------------------------------------------------- *)

let test_json_roundtrip () =
  M.reset ();
  let c = M.counter ~units:"events" "test.json_counter" in
  M.add c 7;
  let g = M.gauge ~units:"bytes" "test.json_gauge" in
  M.set g 4096;
  ignore (M.time (M.timer "test.json_timer") spin);
  let doc =
    M.stats_doc ~tool:"test" ~analysis:"roundtrip" ~input:"-"
      ~phases:[ ("preprocess", 0.25); ("evaluate", 0.5) ]
      ~extra:[ ("note", M.Str "a \"quoted\"\nvalue") ]
      (M.snapshot ())
  in
  let reparsed = M.json_of_string (M.json_to_string doc) in
  Alcotest.(check bool) "document round-trips structurally" true
    (reparsed = doc);
  Alcotest.(check bool) "schema version present" true
    (M.member "schema_version" reparsed = Some (M.Int M.schema_version));
  Alcotest.(check bool) "schema name present" true
    (M.member "schema" reparsed = Some (M.Str M.schema_name));
  (* total_seconds is the exact sum of the phases *)
  Alcotest.(check bool) "total_seconds = sum of phases" true
    (M.member "total_seconds" reparsed = Some (M.Float 0.75))

let test_json_values () =
  List.iter
    (fun j ->
      Alcotest.(check bool) "value round-trips" true
        (M.json_of_string (M.json_to_string j) = j))
    [
      M.Null;
      M.Bool true;
      M.Int (-42);
      M.Float 0.1;
      M.Float 1.0;
      M.Float (-3.25e-7);
      M.Str "plain";
      M.Str "esc \\ \" \n \t \001";
      M.Arr [ M.Int 1; M.Str "two"; M.Arr []; M.Obj [] ];
      M.Obj [ ("a", M.Null); ("b", M.Arr [ M.Bool false ]) ];
    ];
  Alcotest.check_raises "trailing garbage rejected"
    (M.Json_error "trailing input at offset 2") (fun () ->
      ignore (M.json_of_string "1 x"))

let test_csv () =
  M.reset ();
  let c = M.counter "test.csv_counter" in
  M.incr c;
  M.incr c;
  let csv = M.snapshot_to_csv (M.snapshot ()) in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header row" "kind,name,value,unit" (List.hd lines);
  Alcotest.(check bool) "counter row present" true
    (List.mem "counter,test.csv_counter,2,events" lines);
  (* every data row has exactly the four header fields *)
  List.iter
    (fun l ->
      if l <> "" then
        Alcotest.(check int)
          ("four fields: " ^ l)
          4
          (List.length (String.split_on_char ',' l)))
    lines

let () =
  Alcotest.run "metrics"
    [
      ( "counters",
        [
          Alcotest.test_case "engine invariants" `Quick test_engine_invariants;
          Alcotest.test_case "phase timers advance" `Quick test_phase_timers;
        ] );
      ( "timers",
        [
          Alcotest.test_case "nesting" `Quick test_timer_nesting;
          Alcotest.test_case "reentrancy" `Quick test_timer_reentrancy;
          Alcotest.test_case "exception safety" `Quick
            test_timer_exception_safety;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "stats_doc round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json values" `Quick test_json_values;
          Alcotest.test_case "csv shape" `Quick test_csv;
        ] );
    ]

(* Corpus regression tests: every benchmark parses, runs concretely
   (logic: the *_top entry point has a solution under SLD; functional:
   main() normalizes under the lazy interpreter), analyzes under every
   engine, and the registry's paper-reported rows are consistent with
   the tables in the paper. *)

open Prax_logic
open Prax_benchdata

let top_of db =
  Database.predicates db
  |> List.find_opt (fun (n, _) ->
         String.length n > 4
         && String.equal (String.sub n (String.length n - 4) 4) "_top")

let test_logic_tops_run () =
  List.iter
    (fun (b : Registry.logic_bench) ->
      let db = Database.create ~mode:Database.Compiled () in
      ignore (Database.load_string db b.Registry.source);
      match top_of db with
      | None -> Alcotest.failf "%s has no *_top entry point" b.Registry.name
      | Some (name, arity) ->
          let goal =
            Term.mk name (Array.init arity (fun _ -> Term.fresh_var ()))
          in
          let sols =
            Sld.solutions ~limit:1 ~max_inferences:8_000_000 db goal
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s/%d solvable" b.Registry.name name arity)
            1 (List.length sols))
    Registry.logic_benchmarks

let test_logic_corpus_sizes () =
  List.iter
    (fun (b : Registry.logic_bench) ->
      let clauses = Parser.parse_clauses b.Registry.source in
      Alcotest.(check bool)
        (b.Registry.name ^ " nontrivial")
        true
        (List.length clauses >= 8))
    Registry.logic_benchmarks

let test_registry_unique_names () =
  let names =
    List.map (fun (b : Registry.logic_bench) -> b.Registry.name)
      Registry.logic_benchmarks
    @ List.map (fun (b : Registry.fp_bench) -> b.Registry.name)
        Registry.fp_benchmarks
  in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_registry_paper_rows () =
  (* Table 1 covers all 12 logic benchmarks; Table 4 exactly 9 (the
     paper omits gabriel/press1/press2); Table 2 (GAIA) all 12; Table 3
     all 10 functional ones *)
  Alcotest.(check int) "12 logic benchmarks" 12
    (List.length Registry.logic_benchmarks);
  Alcotest.(check int) "table1 rows" 12
    (List.length
       (List.filter
          (fun (b : Registry.logic_bench) -> b.Registry.table1 <> None)
          Registry.logic_benchmarks));
  Alcotest.(check int) "table4 rows" 9 (List.length Registry.table4_benchmarks);
  Alcotest.(check bool) "table4 omits press1" true
    (List.for_all
       (fun (b : Registry.logic_bench) ->
         not (List.mem b.Registry.name [ "gabriel"; "press1"; "press2" ]))
       Registry.table4_benchmarks);
  Alcotest.(check int) "10 functional benchmarks" 10
    (List.length Registry.fp_benchmarks);
  (* paper row internal consistency: phases sum to ~total *)
  List.iter
    (fun (b : Registry.logic_bench) ->
      match b.Registry.table1 with
      | Some r ->
          let sum = r.Registry.preproc +. r.Registry.analysis +. r.Registry.collection in
          Alcotest.(check bool)
            (b.Registry.name ^ " phases sum to total")
            true
            (Float.abs (sum -. r.Registry.total) < 0.02)
      | None -> ())
    Registry.logic_benchmarks

let test_all_engines_run_corpus () =
  (* groundness + depth-k(k=1) + gaia-bdd produce results on all 12 *)
  List.iter
    (fun (b : Registry.logic_bench) ->
      let g = Prax_ground.Analyze.analyze b.Registry.source in
      Alcotest.(check bool) (b.Registry.name ^ " ground") true
        (g.Prax_ground.Analyze.results <> []);
      let d = Prax_depthk.Analyze.analyze ~k:1 b.Registry.source in
      Alcotest.(check bool) (b.Registry.name ^ " depthk") true
        (d.Prax_depthk.Analyze.results <> []);
      let a = Prax_gaia.Analyze.analyze_bdd b.Registry.source in
      Alcotest.(check bool) (b.Registry.name ^ " gaia") true
        (a.Prax_gaia.Analyze.results <> []))
    Registry.logic_benchmarks

let test_strictness_runs_corpus () =
  List.iter
    (fun (b : Registry.fp_bench) ->
      let r =
        Prax_strict.Analyze.analyze
          ~supplementary:Prax_strict.Analysis_def.default_supplementary
          b.Registry.source
      in
      Alcotest.(check bool) (b.Registry.name ^ " strict") true
        (r.Prax_strict.Analyze.results <> []))
    [ Option.get (Registry.find_fp "eu");
      Option.get (Registry.find_fp "mergesort");
      Option.get (Registry.find_fp "quicksort");
      Option.get (Registry.find_fp "strassen") ]

(* spot-check specific, human-verified results on the reconstructions *)
let test_qsort_result_correct () =
  let b = Option.get (Registry.find_logic "qsort") in
  let db = Database.create () in
  ignore (Database.load_string db b.Registry.source);
  let goal = Parser.parse_term "qsort([3,1,2], S)" in
  match Sld.solutions ~limit:1 db goal with
  | [ s ] ->
      Alcotest.(check string) "sorted" "qsort([3,1,2],[1,2,3])"
        (Pretty.term_to_string (Canon.canonical s goal))
  | _ -> Alcotest.fail "qsort failed"

let test_read_roundtrip () =
  (* the Prolog-implemented reader parses its own operator expressions *)
  let b = Option.get (Registry.find_logic "read") in
  let db = Database.create () in
  ignore (Database.load_string db b.Registry.source);
  let goal =
    Parser.parse_term "read_term_codes(\"a + b * c.\", T)"
  in
  match Sld.solutions ~limit:1 ~max_inferences:2_000_000 db goal with
  | [ s ] ->
      Alcotest.(check string) "precedence respected" "a + b * c"
        (Pretty.term_to_string (Subst.resolve s (Term.args_of goal).(1)))
  | _ -> Alcotest.fail "reader failed"

let test_peep_optimizes () =
  let b = Option.get (Registry.find_logic "peep") in
  let db = Database.create () in
  ignore (Database.load_string db b.Registry.source);
  let goal = Parser.parse_term "optimize([move(r1,r1), add(2,r2), add(3,r2)], Out)" in
  match Sld.solutions ~limit:1 ~max_inferences:2_000_000 db goal with
  | [ s ] ->
      Alcotest.(check string) "window rules fire" "[add(5,r2)]"
        (Pretty.term_to_string (Subst.resolve s (Term.args_of goal).(1)))
  | _ -> Alcotest.fail "peep failed"

let test_plan_achieves_goals () =
  let b = Option.get (Registry.find_logic "plan") in
  let db = Database.create () in
  ignore (Database.load_string db b.Registry.source);
  (* validate the plan by checking the goal holds in the final state *)
  let goal =
    Parser.parse_term
      "(plan_top(P), initial(S0), goals(Gs), check_plan(S0, P, Gs))"
  in
  ignore (Database.load_string db
    "check_plan(S, [], Gs) :- satisfied(Gs, S).\n\
     check_plan(S, [A|As], Gs) :- action(A, Pre, Add, Del), satisfied(Pre, S), apply_action(S, Add, Del, S1), check_plan(S1, As, Gs).");
  match Sld.solutions ~limit:1 ~max_inferences:8_000_000 db goal with
  | [ _ ] -> ()
  | _ -> Alcotest.fail "plan invalid or missing"

(* --- worst-case stress corpus (examples/stress/) ------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* dune runtest runs from _build/default/test, dune exec from the
   invocation directory — accept either *)
let stress_dir () =
  List.find_opt Sys.file_exists
    [ "../examples/stress"; "examples/stress" ]

let test_stress_files_in_sync () =
  (* the on-disk .pl files CI and the CLI exercise must be byte-identical
     to the sources the bench harness embeds *)
  let dir =
    match stress_dir () with
    | Some d -> d
    | None -> Alcotest.fail "examples/stress not found from test cwd"
  in
  List.iter
    (fun (b : Registry.stress_bench) ->
      let path = Filename.concat dir (b.Registry.name ^ ".pl") in
      Alcotest.(check string)
        (b.Registry.name ^ ".pl in sync")
        b.Registry.source (read_file path))
    Registry.stress_benchmarks

let test_stress_contract () =
  (* the registry budget keeps both exit codes exercised: the smallest
     product size completes under mode=dynamic, the largest trips the
     budget — and mode=def completes every size *)
  let module Guard = Prax_guard.Guard in
  let run mode name =
    let b = Option.get (Registry.find_stress name) in
    let guard = Guard.create ~max_steps:b.Registry.max_steps () in
    let rep =
      match mode with
      | `Dynamic -> Prax_ground.Analyze.analyze ~guard b.Registry.source
      | `Def -> Prax_ground.Def.analyze ~guard b.Registry.source
    in
    rep.Prax_ground.Analyze.status
  in
  Alcotest.(check bool) "ghc8 dynamic completes" true
    (run `Dynamic "ghc8" = Guard.Complete);
  Alcotest.(check bool) "ghc16 dynamic trips" true
    (Guard.is_partial (run `Dynamic "ghc16"));
  List.iter
    (fun (b : Registry.stress_bench) ->
      Alcotest.(check bool)
        (b.Registry.name ^ " def completes")
        true
        (run `Def b.Registry.name = Guard.Complete))
    Registry.stress_benchmarks

let () =
  Alcotest.run "prax_benchdata"
    [
      ( "registry",
        [
          Alcotest.test_case "unique names" `Quick test_registry_unique_names;
          Alcotest.test_case "paper rows" `Quick test_registry_paper_rows;
          Alcotest.test_case "corpus sizes" `Quick test_logic_corpus_sizes;
        ] );
      ( "concrete runs",
        [
          Alcotest.test_case "all logic tops solvable" `Slow test_logic_tops_run;
          Alcotest.test_case "qsort result" `Quick test_qsort_result_correct;
          Alcotest.test_case "read roundtrip" `Quick test_read_roundtrip;
          Alcotest.test_case "peep optimizes" `Quick test_peep_optimizes;
          Alcotest.test_case "plan achieves goals" `Quick test_plan_achieves_goals;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "all engines on corpus" `Slow
            test_all_engines_run_corpus;
          Alcotest.test_case "strictness subset" `Quick
            test_strictness_runs_corpus;
        ] );
      ( "stress corpus",
        [
          Alcotest.test_case "files in sync" `Quick test_stress_files_in_sync;
          Alcotest.test_case "budget contract" `Quick test_stress_contract;
        ] );
    ]

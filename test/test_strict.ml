(* Tests for strictness analysis: the paper's Figure 4 example, the
   demand lattice, base relations, collection, supplementary tabling
   equivalence, and the soundness property against the lazy interpreter:
   forcing an argument the analysis marks strict never turns a
   terminating program into a diverging one. *)

open Prax_fp
open Prax_strict

let analyze =
  Analyze.analyze ~supplementary:Analysis_def.default_supplementary

let demands rep f =
  match Analyze.result_for rep f with
  | Some r -> (r.Analyze.e_demands, r.Analyze.d_demands)
  | None -> Alcotest.failf "no result for %s" f

let dstr = Analyze.demand_string

(* --- the paper's example ----------------------------------------------- *)

let ap_src = "ap([], ys) = ys;\nap(x:xs, ys) = x : ap(xs, ys);"

let test_ap_paper_result () =
  let rep = analyze ap_src in
  let e, d = demands rep "ap" in
  Alcotest.(check string) "ee-strict" "ee" (dstr e);
  Alcotest.(check string) "d-strict in 1st only" "dn" (dstr d)

(* --- demand lattice ------------------------------------------------------ *)

let test_demand_lattice () =
  let open Demand in
  Alcotest.(check bool) "glb e d" true (glb E D = D);
  Alcotest.(check bool) "glb d n" true (glb D N = N);
  Alcotest.(check bool) "lub d n" true (lub D N = D);
  Alcotest.(check bool) "lub e anything" true (lub E N = E);
  Alcotest.(check bool) "strict e" true (is_strict E);
  Alcotest.(check bool) "strict d" true (is_strict D);
  Alcotest.(check bool) "not strict n" false (is_strict N);
  (* unbound variables collect as N *)
  Alcotest.(check bool) "var is N" true
    (of_term (Prax_logic.Term.var 3) = Some N)

(* --- basic propagations -------------------------------------------------- *)

let test_identity () =
  let rep = analyze "id(x) = x;" in
  let e, d = demands rep "id" in
  Alcotest.(check string) "e passes through" "e" (dstr e);
  Alcotest.(check string) "d passes through" "d" (dstr d)

let test_primitive_strict () =
  let rep = analyze "add(x, y) = x + y;" in
  let e, d = demands rep "add" in
  Alcotest.(check string) "flat e" "ee" (dstr e);
  Alcotest.(check string) "flat d" "ee" (dstr d)

let test_const_ignores () =
  let rep = analyze "konst(x, y) = x;" in
  let _, d = demands rep "konst" in
  Alcotest.(check string) "second arg never demanded" "dn" (dstr d)

let test_if_joins_branches () =
  (* x demanded in both branches: strict; y and z in one each: not *)
  let rep = analyze "f(c, x, y, z) = if c == 0 then x + y else x + z;" in
  let _, d = demands rep "f" in
  Alcotest.(check string) "condition + both-branch var" "eenn" (dstr d)

let test_constructor_lazy () =
  (* building a cons demands nothing of its components under d *)
  let rep = analyze "wrap(x) = x : [];" in
  let e, d = demands rep "wrap" in
  Alcotest.(check string) "e forces components" "e" (dstr e);
  Alcotest.(check string) "d forces nothing" "n" (dstr d)

let test_pattern_match_demands () =
  (* matching forces the scrutinized argument *)
  let rep = analyze "null([]) = True;\nnull(x:xs) = False;" in
  let _, d = demands rep "null" in
  Alcotest.(check string) "whnf demand from matching" "d" (dstr d)

let test_deep_pattern () =
  let rep = analyze "second(x:y:rest) = y;" in
  let _, d = demands rep "second" in
  (* matching two cons cells and returning y: at least d *)
  Alcotest.(check string) "nested pattern" "d" (dstr d)

let test_multiple_occurrences_join () =
  let rep = analyze "both(x) = x + x;" in
  let _, d = demands rep "both" in
  Alcotest.(check string) "join of occurrences" "e" (dstr d)

let test_let_laziness () =
  (* the let binding is only demanded when used *)
  let rep = analyze "f(x, y) = let u = y + 1 in x;" in
  let _, d = demands rep "f" in
  Alcotest.(check string) "unused let leaves y alone" "dn" (dstr d);
  let rep2 = analyze "g(x, y) = let u = y + 1 in x + u;" in
  let _, d2 = demands rep2 "g" in
  Alcotest.(check string) "used let forces y" "ee" (dstr d2)

let test_nonterminating_function () =
  let rep = analyze "bot = bot;" in
  (match Analyze.result_for rep "bot" with
  | Some r ->
      Alcotest.(check bool) "no answers under e" true
        (r.Analyze.e_demands = None)
  | None -> Alcotest.fail "missing bot")

let test_mutual_recursion () =
  let rep =
    analyze
      "even(n) = if n == 0 then True else odd(n - 1);\n\
       odd(n) = if n == 0 then False else even(n - 1);"
  in
  let _, d = demands rep "even" in
  Alcotest.(check string) "mutually recursive strictness" "e" (dstr d)

let test_short_circuit_and () =
  (* a and b: b only demanded when a is True -> not strict in b *)
  let rep = analyze "conj(a, b) = a and b;" in
  let _, d = demands rep "conj" in
  Alcotest.(check string) "short-circuit" "en" (dstr d)

(* --- corpus sanity --------------------------------------------------------- *)

let test_corpus_known_results () =
  (* spot-check well-understood functions from the benchmark corpus *)
  let src b =
    (Option.get (Prax_benchdata.Registry.find_fp b))
      .Prax_benchdata.Registry.source
  in
  let rep = analyze (src "mergesort") in
  let _, d = demands rep "merge" in
  Alcotest.(check string) "merge d-strict in both" "dd" (dstr d);
  let _, dm = demands rep "msort" in
  Alcotest.(check string) "msort d-strict" "d" (dstr dm);
  let rep2 = analyze (src "quicksort") in
  let _, dq = demands rep2 "qsort" in
  Alcotest.(check string) "qsort d-strict" "d" (dstr dq);
  let eq, _ = demands rep2 "smaller" in
  (* the base equation smaller(p, []) ignores the pivot, so no demand on
     it is guaranteed across equations; the list is always forced *)
  Alcotest.(check string) "smaller under e" "ne" (dstr eq)

(* --- answer subsumption ------------------------------------------------ *)

module Term = Prax_logic.Term
module Engine = Prax_tabling.Engine
module Guard = Prax_guard.Guard
module Registry = Prax_benchdata.Registry

let fp_program name =
  match Registry.find_fp name with
  | Some b -> Check.parse_and_check b.Registry.source
  | None -> Alcotest.failf "no fp benchmark %s" name

let corpus_names =
  List.map (fun (b : Registry.fp_bench) -> b.Registry.name)
    Registry.fp_benchmarks

(* Proof obligation of answer subsumption: every base relation is
   monotone from its inputs to its outputs.  For each tuple (i, o) and
   each input i' <= i there is a tuple (i', o') with o' <= o, so lowering
   an answer never loses a derivation, only lowers what it derives.
   Demand flows top-down through spc/sp_if/spstrict (input: the demand
   on the expression) and bottom-up through pm (inputs: the component
   demands) and dlub (inputs: the two joined demands). *)
let input_positions name arity =
  match name with
  | "dlub" -> [ 0; 1 ]
  | "sp_if" | "spstrict1" | "spstrict2" -> [ 0 ]
  | _ when String.starts_with ~prefix:"spc_" name -> [ 0 ]
  | _ when String.starts_with ~prefix:"pm_" name -> List.init (arity - 1) succ
  | _ -> Alcotest.failf "unexpected base relation %s/%d" name arity

(* a fact's ground instances over {n,d,e}, as demand ranks *)
let ground_instances (head : Term.t) : int array list =
  let vars = List.sort_uniq compare (Term.vars head) in
  let rec assignments = function
    | [] -> [ [] ]
    | v :: rest ->
        List.concat_map
          (fun tl -> List.map (fun d -> (v, d) :: tl) Demand.all)
          (assignments rest)
  in
  List.map
    (fun asg ->
      let t = Term.map_vars (fun v -> Demand.to_atom (List.assoc v asg)) head in
      Array.map
        (fun a ->
          match Demand.of_term a with
          | Some d -> Demand.rank d
          | None -> Alcotest.failf "non-demand position in a base fact")
        (Term.args_of t))
    (assignments vars)

(* every tuple over {0,1,2} pointwise <= [bound] on [positions] *)
let rec lowerings bound positions (t : int array) =
  match positions with
  | [] -> [ Array.copy t ]
  | p :: rest ->
      List.concat_map
        (fun r ->
          let t' = Array.copy t in
          t'.(p) <- r;
          lowerings bound rest t')
        (List.init (bound.(p) + 1) Fun.id)

let monotone ~inputs (rel : int array list) =
  List.for_all
    (fun t ->
      let outputs =
        List.filter (fun i -> not (List.mem i inputs))
          (List.init (Array.length t) Fun.id)
      in
      List.for_all
        (fun lowered ->
          List.exists
            (fun t' ->
              List.for_all (fun i -> t'.(i) = lowered.(i)) inputs
              && List.for_all (fun i -> t'.(i) <= t.(i)) outputs)
            rel)
        (lowerings t inputs t))
    rel

let base_relations constructors =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c : Prax_logic.Parser.clause) ->
      match Term.functor_of c.Prax_logic.Parser.head with
      | Some key ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key
            (ground_instances c.Prax_logic.Parser.head @ prev)
      | None -> Alcotest.fail "atomless base fact")
    (Transform.base_facts constructors);
  Hashtbl.fold (fun key rel acc -> (key, rel) :: acc) tbl []

let test_base_relations_monotone () =
  (* the checker itself rejects a relation that raises its output when
     its input drops: (e -> n) but (d -> e) *)
  Alcotest.(check bool) "checker rejects a non-monotone relation" false
    (monotone ~inputs:[ 0 ] [ [| 2; 0 |]; [| 1; 2 |] ]);
  let checked = Hashtbl.create 64 in
  List.iter
    (fun name ->
      List.iter
        (fun ((rel_name, arity), rel) ->
          Hashtbl.replace checked rel_name ();
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%d monotone" name rel_name arity)
            true
            (monotone ~inputs:(input_positions rel_name arity) rel))
        (base_relations (Ast.constructors (fp_program name))))
    corpus_names;
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " was checked") true (Hashtbl.mem checked r))
    [ "dlub"; "sp_if"; "spstrict1"; "spstrict2"; "spc_cons"; "pm_cons" ]

(* The oracle: the engine built straight from the derived rules, with
   the strictness answer order ([Analyze.hooks]) or plain variant tabling
   ([Engine.concrete_hooks]), under a deterministic guard.  Variant
   tabling of pcprove takes 3.0M steps and 12.8 MB of tables. *)
let oracle_budget = (4_000_000, 32 * 1024 * 1024)

let evaluate ?(reverse = false) ?(budget = oracle_budget) ~hooks
    ~supplementary prog =
  let rules = Transform.program prog in
  let rules =
    if supplementary then
      Prax_tabling.Supplement.fold_program ~threshold:2 rules
    else rules
  in
  let db = Prax_logic.Database.create () in
  Prax_logic.Database.load_clauses db rules;
  let max_steps, max_table_bytes = budget in
  let guard = Guard.create ~max_steps ~max_table_bytes () in
  let e = Engine.create ~hooks ~guard db in
  let funcs = Ast.functions prog in
  let goals = Analyze.demand_goals funcs in
  let status =
    List.fold_left
      (fun acc g -> Guard.combine acc (Engine.run_status e g (fun _ -> ())))
      Guard.Complete
      (if reverse then List.rev goals else goals)
  in
  if not (Guard.is_partial status) then Engine.settle e;
  (e, status, Analyze.collect_results e status funcs)

let demand_text results =
  String.concat "\n" (List.map Analyze.result_to_string results)

let complete label status =
  Alcotest.(check bool) (label ^ " completes under the budget") false
    (Guard.is_partial status)

let check_same_demands ~supplementary name =
  let prog = fp_program name in
  let label = Printf.sprintf "%s (supplementary=%b)" name supplementary in
  let _, st_var, variant =
    evaluate ~hooks:Engine.concrete_hooks ~supplementary prog
  in
  let _, st_sub, subsumed = evaluate ~hooks:Analyze.hooks ~supplementary prog in
  complete (label ^ " variant") st_var;
  complete (label ^ " subsumption") st_sub;
  Alcotest.(check string)
    (label ^ ": demands with subsumption == variant tabling")
    (demand_text variant) (demand_text subsumed)

let test_subsumption_same_demands () =
  List.iter (check_same_demands ~supplementary:true) corpus_names;
  (* without folding the variant side of the other programs runs for
     seconds to minutes (mergesort 37 s) *)
  List.iter
    (check_same_demands ~supplementary:false)
    [ "eu"; "listcompr"; "quicksort" ]

(* The tables are the antichains of minimal answers, whatever the
   discovery order: running the demand goals backwards dumps the same
   bytes. *)
let test_subsumption_canonical_tables () =
  List.iter
    (fun supplementary ->
      List.iter
        (fun name ->
          let prog = fp_program name in
          let e_fwd, st_fwd, _ =
            evaluate ~hooks:Analyze.hooks ~supplementary prog
          in
          let e_rev, st_rev, _ =
            evaluate ~reverse:true ~hooks:Analyze.hooks ~supplementary prog
          in
          let label =
            Printf.sprintf "%s (supplementary=%b)" name supplementary
          in
          complete label st_fwd;
          complete (label ^ " reversed") st_rev;
          Alcotest.(check bool) (label ^ ": tables consistent") true
            (Engine.tables_consistent e_fwd);
          Alcotest.(check string)
            (label ^ ": dump_tables independent of goal order")
            (Engine.dump_tables e_fwd) (Engine.dump_tables e_rev))
        corpus_names)
    [ true; false ]

(* A budget partial claims no more than the complete run: every partial
   demand is <= the complete one, and a function the complete run finds
   unusable under a demand may read anything. *)
let demands_leq partial complete =
  match (partial, complete) with
  | _, None -> true
  | None, Some _ -> false
  | Some p, Some c ->
      Array.for_all2 (fun a b -> Demand.rank a <= Demand.rank b) p c

let test_subsumption_partial_below_complete () =
  List.iter
    (fun name ->
      let prog = fp_program name in
      let _, st, full =
        evaluate ~hooks:Analyze.hooks ~supplementary:true prog
      in
      complete name st;
      List.iter
        (fun steps ->
          let e, st, partial =
            evaluate ~budget:(steps, 32 * 1024 * 1024) ~hooks:Analyze.hooks
              ~supplementary:true prog
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at %d steps: tables consistent" name steps)
            true
            (Engine.tables_consistent ~after_abort:(Guard.is_partial st) e);
          List.iter2
            (fun (p : Analyze.func_result) (c : Analyze.func_result) ->
              let ok =
                demands_leq p.Analyze.e_demands c.Analyze.e_demands
                && demands_leq p.Analyze.d_demands c.Analyze.d_demands
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s at %d steps: %s below %s" name steps
                   (Analyze.result_to_string p)
                   (Analyze.result_to_string c))
                true ok)
            partial full)
        [ 50; 300; 1000; 3000 ])
    corpus_names

(* --- supplementary tabling equivalence ----------------------------------- *)

(* Both settings of [supplementary] give byte-identical reports, text and
   JSON, through the registry entry that xanalyze and the daemon run: on a
   few small sources and on every corpus program.  The corpus cases tie
   the registry default to the variant-tabling oracle above. *)
let test_supplementary_same_results () =
  let module Analysis = Prax_analysis.Analysis in
  let module Metrics = Prax_metrics.Metrics in
  let run label src supplementary =
    let max_steps, max_table_bytes = oracle_budget in
    let rep =
      Analysis.run Analysis_def.def
        ~config:[ ("supplementary", string_of_bool supplementary) ]
        ~guard:(Guard.create ~max_steps ~max_table_bytes ())
        src
    in
    complete (Printf.sprintf "%s (supplementary=%b)" label supplementary)
      rep.Analysis.status;
    rep
  in
  List.iter
    (fun (label, src) ->
      let folded = run label src true and plain = run label src false in
      Alcotest.(check string) (label ^ ": payload_text")
        folded.Analysis.payload_text plain.Analysis.payload_text;
      Alcotest.(check string) (label ^ ": payload_json")
        (Metrics.json_to_string folded.Analysis.payload_json)
        (Metrics.json_to_string plain.Analysis.payload_json))
    ([
       ("ap", ap_src);
       ("branches", "f(c, x, y, z) = if c == 0 then x + y else x + z;");
       ( "sum of squares",
         "sum([]) = 0;\nsum(x:xs) = x + sum(xs);\n\
          sq([]) = [];\nsq(x:xs) = (x*x) : sq(xs);\nmain(l) = sum(sq(l));" );
     ]
    @ List.map
        (fun name -> (name, (Option.get (Registry.find_fp name)).Registry.source))
        corpus_names)

(* --- soundness against the interpreter ------------------------------------ *)

(* For strict arguments, forcing before the call must preserve results on
   terminating inputs. *)
let test_soundness_forcing () =
  let cases =
    [
      (ap_src, "ap",
       [ Ast.Con (":", [ Ast.Int 1; Ast.Con ("[]", []) ]); Ast.Con ("[]", []) ]);
      ( "sum([]) = 0;\nsum(x:xs) = x + sum(xs);",
        "sum",
        [
          Ast.Con (":", [ Ast.Int 2; Ast.Con (":", [ Ast.Int 3; Ast.Con ("[]", []) ]) ]);
        ] );
      ( "f(c, x, y, z) = if c == 0 then x + y else x + z;",
        "f",
        [ Ast.Int 0; Ast.Int 1; Ast.Int 2; Ast.Int 3 ] );
    ]
  in
  List.iter
    (fun (src, fname, args) ->
      let rep = analyze src in
      let r = Option.get (Analyze.result_for rep fname) in
      let strict = Analyze.strict_args r in
      let prog = Check.parse_and_check src in
      let plain = Eval.run prog fname args in
      let forced = Eval.run_forcing prog fname args ~force_args:strict in
      Alcotest.(check string) (fname ^ " forced = plain") plain forced)
    cases

(* soundness property on random list inputs for corpus sorts *)
let gen_int_list = QCheck2.Gen.(list_size (int_range 0 8) (int_range (-20) 20))

let list_expr xs =
  List.fold_right
    (fun x acc -> Ast.Con (":", [ Ast.Int x; acc ]))
    xs (Ast.Con ("[]", []))

let prop_force_strict_sound =
  QCheck2.Test.make ~name:"forcing strict args preserves msort results"
    ~count:60 gen_int_list (fun xs ->
      let src =
        (Option.get (Prax_benchdata.Registry.find_fp "mergesort"))
          .Prax_benchdata.Registry.source
      in
      let rep = analyze src in
      let r = Option.get (Analyze.result_for rep "msort") in
      let strict = Analyze.strict_args r in
      let prog = Check.parse_and_check src in
      let args = [ list_expr xs ] in
      let plain = Eval.run prog "msort" args in
      let forced = Eval.run_forcing prog "msort" args ~force_args:strict in
      String.equal plain forced)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_force_strict_sound ]

let () =
  Alcotest.run "prax_strict"
    [
      ( "paper example",
        [ Alcotest.test_case "ap strictness" `Quick test_ap_paper_result ] );
      ("lattice", [ Alcotest.test_case "demand order" `Quick test_demand_lattice ]);
      ( "propagation",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "primitives" `Quick test_primitive_strict;
          Alcotest.test_case "constant function" `Quick test_const_ignores;
          Alcotest.test_case "if joins branches" `Quick test_if_joins_branches;
          Alcotest.test_case "lazy constructors" `Quick test_constructor_lazy;
          Alcotest.test_case "pattern demand" `Quick test_pattern_match_demands;
          Alcotest.test_case "deep pattern" `Quick test_deep_pattern;
          Alcotest.test_case "occurrence join" `Quick test_multiple_occurrences_join;
          Alcotest.test_case "let laziness" `Quick test_let_laziness;
          Alcotest.test_case "nontermination" `Quick test_nonterminating_function;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "short-circuit and" `Quick test_short_circuit_and;
        ] );
      ( "supplementary tabling",
        [
          Alcotest.test_case "same results" `Quick
            test_supplementary_same_results;
        ] );
      ( "corpus",
        [ Alcotest.test_case "known results" `Quick test_corpus_known_results ] );
      ( "answer subsumption",
        [
          Alcotest.test_case "base relations monotone" `Quick
            test_base_relations_monotone;
          Alcotest.test_case "same demands as variant tabling" `Slow
            test_subsumption_same_demands;
          Alcotest.test_case "tables independent of goal order" `Quick
            test_subsumption_canonical_tables;
          Alcotest.test_case "partial below complete" `Quick
            test_subsumption_partial_below_complete;
        ] );
      ( "soundness",
        Alcotest.test_case "forcing strict args" `Quick test_soundness_forcing
        :: qsuite );
    ]

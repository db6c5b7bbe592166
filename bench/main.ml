(* Benchmark harness: regenerates every table of the paper's evaluation
   section and the ablations motivated by its prose, then runs Bechamel
   micro-benchmarks of the analysis phase.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- one section

   Assessment-driven runs (lib/benchrun, docs/BENCHMARKING.md):

     bench/main.exe run [--repeats N] ...     persistent run directory
     bench/main.exe ab <a> <b>                A/B deltas between two runs
     bench/main.exe gate --baseline <id>      nonzero exit on regression

   Shapes, not absolute times, are the reproduction target: the paper
   measured XSB 1.4.2 on 1996 SPARCstations.  EXPERIMENTS.md holds the
   side-by-side discussion. *)

open Prax

(* Tabled evaluation is allocation-heavy (activation copies, persistent
   substitution nodes, canonical answers), and the long-lived survivors
   are the tables themselves.  The default 256k-word minor heap forces a
   minor collection every fraction of a millisecond and promotes
   still-live transients; a workload-sized nursery removes that overhead
   (docs/PERFORMANCE.md quantifies it). *)
let () = Analysis.size_nursery ()

(* the registry-driven sections dispatch through Prax.Analysis *)
let () = Analyses.ensure ()

let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* Every governed table row runs under a per-run wall-clock budget: a
   corpus program that diverges (or a regression that makes one diverge)
   degrades that row to a sound partial result instead of wedging the
   whole harness.  The status and budget are recorded per row. *)
let bench_timeout = 10. (* seconds *)
let bench_guard () = Guard.create ~timeout:bench_timeout ()
let budget_cell = Printf.sprintf "%gs" bench_timeout

let status_cell = function
  | Guard.Complete -> "complete"
  | Guard.Partial { reason; _ } ->
      "partial:" ^ Guard.reason_to_string reason

(* best of three runs, as a mild guard against scheduler noise *)
let best3 f =
  let r1 = f () in
  let m1 = fst r1 in
  let r2 = f () in
  let m2 = fst r2 in
  let r3 = f () in
  let m3 = fst r3 in
  if m1 <= m2 && m1 <= m3 then r1 else if m2 <= m3 then r2 else r3

let src n =
  (Option.get (Benchdata.Registry.find_logic n)).Benchdata.Registry.source

let fsrc n =
  (Option.get (Benchdata.Registry.find_fp n)).Benchdata.Registry.source

(* ------------------------------------------------------------------ *)
(* Table 1: Prop-based groundness analysis                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1: performance of Prop-based groundness analysis (tabled engine, \
     dynamic mode)";
  Printf.printf "%-8s %5s | %8s %8s %8s %8s | %8s %10s | %7s %7s %7s | %-8s %s\n"
    "Program" "lines" "Preproc" "Analysis" "Collect" "Total" "Incr.(%)"
    "Table(B)" "Entries" "Answers" "Resump" "Status" "Budget";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let (total, (rep, compile)) =
        best3 (fun () ->
            let rep =
              Groundness.analyze ~guard:(bench_guard ())
                b.Benchdata.Registry.source
            in
            let compile =
              Groundness.Analyze.compile_time b.Benchdata.Registry.source
            in
            (Prax_ground.Analyze.total rep.Prax_ground.Analyze.phases,
             (rep, compile)))
      in
      let p = rep.Prax_ground.Analyze.phases in
      let st = rep.Prax_ground.Analyze.engine_stats in
      Printf.printf
        "%-8s %5d | %8.4f %8.4f %8.4f %8.4f | %8.1f %10d | %7d %7d %7d | %-8s %s\n"
        b.Benchdata.Registry.name b.Benchdata.Registry.paper_lines
        p.Prax_ground.Analyze.preproc p.Prax_ground.Analyze.analysis
        p.Prax_ground.Analyze.collection total
        (100. *. total /. max 1e-9 compile)
        rep.Prax_ground.Analyze.table_bytes
        st.Prax_tabling.Engine.table_entries st.Prax_tabling.Engine.answers
        st.Prax_tabling.Engine.resumptions
        (status_cell rep.Prax_ground.Analyze.status)
        budget_cell)
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Table 2: declarative-on-tabled-engine vs special-purpose (GAIA)     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section
    "Table 2: total analysis time, tabled declarative analyzer (\"XSB\") vs \
     special-purpose abstract interpreter (\"GAIA\", BDD back-end)";
  Printf.printf "%-8s | %10s %10s | %s\n" "Program" "tabled(s)" "gaia(s)"
    "paper: XSB vs GAIA (s)";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let tabled, _ =
        best3 (fun () ->
            let rep = Groundness.analyze b.Benchdata.Registry.source in
            (Prax_ground.Analyze.total rep.Prax_ground.Analyze.phases, ()))
      in
      let gaia, _ =
        best3 (fun () ->
            let rep = Gaia.Analyze.analyze_bdd b.Benchdata.Registry.source in
            (Prax_gaia.Analyze.total rep.Prax_gaia.Analyze.phases, ()))
      in
      let paper =
        match (b.Benchdata.Registry.table1, b.Benchdata.Registry.gaia_total)
        with
        | Some row, Some g ->
            Printf.sprintf "%.2f vs %.2f" row.Benchdata.Registry.total g
        | _ -> "-"
      in
      Printf.printf "%-8s | %10.4f %10.4f | %s\n" b.Benchdata.Registry.name
        tabled gaia paper)
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Table 3: strictness analysis                                        *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: performance of strictness analysis (tabled engine)";
  Printf.printf "%-10s %5s | %8s %8s %8s %8s | %9s %10s | %7s %7s %7s | %-8s %s\n"
    "Program" "lines" "Preproc" "Analysis" "Collect" "Total" "lines/s"
    "Table(B)" "Entries" "Answers" "Resump" "Status" "Budget";
  let total_lines = ref 0 and total_time = ref 0. in
  List.iter
    (fun (b : Benchdata.Registry.fp_bench) ->
      let (total, rep) =
        best3 (fun () ->
            let rep =
              Strictness.analyze ~guard:(bench_guard ())
                b.Benchdata.Registry.source
            in
            (Prax_strict.Analyze.total rep.Prax_strict.Analyze.phases, rep))
      in
      let p = rep.Prax_strict.Analyze.phases in
      let st = rep.Prax_strict.Analyze.engine_stats in
      let lines = rep.Prax_strict.Analyze.source_lines in
      total_lines := !total_lines + lines;
      total_time := !total_time +. total;
      Printf.printf
        "%-10s %5d | %8.4f %8.4f %8.4f %8.4f | %9.0f %10d | %7d %7d %7d | %-8s %s\n"
        b.Benchdata.Registry.name lines p.Prax_strict.Analyze.preproc
        p.Prax_strict.Analyze.analysis p.Prax_strict.Analyze.collection total
        (float_of_int lines /. max 1e-9 total)
        rep.Prax_strict.Analyze.table_bytes
        st.Prax_tabling.Engine.table_entries st.Prax_tabling.Engine.answers
        st.Prax_tabling.Engine.resumptions
        (status_cell rep.Prax_strict.Analyze.status)
        budget_cell)
    Benchdata.Registry.fp_benchmarks;
  Printf.printf
    "\nThroughput over the whole corpus: %.0f source lines/second\n"
    (float_of_int !total_lines /. max 1e-9 !total_time)

(* ------------------------------------------------------------------ *)
(* Table 4: depth-k groundness                                         *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section
    "Table 4: groundness analysis with depth-k term abstraction (k=1; the \
     paper's Table 4 also omits gabriel/press1/press2)";
  Printf.printf "%-8s | %8s %8s %8s %8s | %8s %10s | %7s %7s %7s | %-8s %s\n"
    "Program" "Preproc" "Analysis" "Collect" "Total" "Incr.(%)" "Table(B)"
    "Entries" "Answers" "Resump" "Status" "Budget";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let (total, (rep, compile)) =
        best3 (fun () ->
            let rep =
              Depthk.analyze ~guard:(bench_guard ()) ~k:1
                b.Benchdata.Registry.source
            in
            let compile =
              Groundness.Analyze.compile_time b.Benchdata.Registry.source
            in
            (Prax_depthk.Analyze.total rep.Prax_depthk.Analyze.phases,
             (rep, compile)))
      in
      let p = rep.Prax_depthk.Analyze.phases in
      let st = rep.Prax_depthk.Analyze.engine_stats in
      Printf.printf
        "%-8s | %8.4f %8.4f %8.4f %8.4f | %8.1f %10d | %7d %7d %7d | %-8s %s\n"
        b.Benchdata.Registry.name p.Prax_depthk.Analyze.preproc
        p.Prax_depthk.Analyze.analysis p.Prax_depthk.Analyze.collection total
        (100. *. total /. max 1e-9 compile)
        rep.Prax_depthk.Analyze.table_bytes
        st.Prax_tabling.Engine.table_entries st.Prax_tabling.Engine.answers
        st.Prax_tabling.Engine.resumptions
        (status_cell rep.Prax_depthk.Analyze.status)
        budget_cell)
    Benchdata.Registry.table4_benchmarks

(* ------------------------------------------------------------------ *)
(* Stress: worst-case groundness, dynamic vs def under a step budget   *)
(* ------------------------------------------------------------------ *)

let stress () =
  section
    "Stress: worst-case groundness programs (examples/stress/, after \
     Genaim-Howe-Codish) - tabled Prop (mode=dynamic) vs def-domain \
     fast path (mode=def) under the registry step budgets";
  Printf.printf "%-12s %8s | %-16s %10s %10s %8s | %-10s %10s %10s\n" "Program"
    "budget" "dynamic" "total(s)" "Table(B)" "answers" "def" "total(s)"
    "Table(B)";
  List.iter
    (fun (b : Benchdata.Registry.stress_bench) ->
      let measure mode =
        let guard = Guard.create ~max_steps:b.Benchdata.Registry.max_steps () in
        let rep =
          match mode with
          | `Dynamic -> Groundness.analyze ~guard b.Benchdata.Registry.source
          | `Def ->
              Groundness.Def.analyze ~guard b.Benchdata.Registry.source
        in
        rep
      in
      let d = measure `Dynamic and f = measure `Def in
      Printf.printf
        "%-12s %8d | %-16s %10.4f %10d %8d | %-10s %10.4f %10d\n"
        b.Benchdata.Registry.name b.Benchdata.Registry.max_steps
        (status_cell d.Prax_ground.Analyze.status)
        (Prax_ground.Analyze.total d.Prax_ground.Analyze.phases)
        d.Prax_ground.Analyze.table_bytes
        d.Prax_ground.Analyze.engine_stats.Prax_tabling.Engine.answers
        (status_cell f.Prax_ground.Analyze.status)
        (Prax_ground.Analyze.total f.Prax_ground.Analyze.phases)
        f.Prax_ground.Analyze.table_bytes)
    Benchdata.Registry.stress_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: dynamic (assert) vs compiled clause store                 *)
(* ------------------------------------------------------------------ *)

let ablation_dynvscomp () =
  section
    "Ablation (Section 4 prose): dynamic (assert + interpret) vs full \
     compilation of the analysis rules";
  Printf.printf "%-8s | %9s %9s %9s | %9s %9s %9s | %s\n" "Program" "dyn-pre"
    "dyn-eval" "dyn-tot" "comp-pre" "comp-eval" "comp-tot" "winner";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let measure mode =
        best3 (fun () ->
            let rep =
              Groundness.Analyze.analyze ~mode b.Benchdata.Registry.source
            in
            let p = rep.Prax_ground.Analyze.phases in
            (Prax_ground.Analyze.total p, p))
      in
      let dt, dp = measure Logic.Database.Dynamic in
      let ct, cp = measure Logic.Database.Compiled in
      Printf.printf
        "%-8s | %9.4f %9.4f %9.4f | %9.4f %9.4f %9.4f | %s\n"
        b.Benchdata.Registry.name dp.Prax_ground.Analyze.preproc
        dp.Prax_ground.Analyze.analysis dt cp.Prax_ground.Analyze.preproc
        cp.Prax_ground.Analyze.analysis ct
        (if dt <= ct then "dynamic" else "compiled"))
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: enumerative truth tables vs BDDs                          *)
(* ------------------------------------------------------------------ *)

(* kalah/read: the truth-table back-end cannot represent their widest
   clauses (>20 variables); press2 takes over half a minute *)
let bitset_infeasible = [ "kalah"; "read"; "press2" ]

let ablation_repr () =
  section
    "Ablation (Section 4 prose): boolean-function representation in the \
     special-purpose analyzer - enumerated truth tables vs BDDs";
  Printf.printf "%-8s | %12s %12s\n" "Program" "bitset(s)" "bdd(s)";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      if List.mem b.Benchdata.Registry.name bitset_infeasible then
        Printf.printf "%-8s | %12s %12s\n" b.Benchdata.Registry.name
          "(infeasible)" "-"
      else begin
        (* single run: the slow side of this ablation is the datum *)
        let tb =
          let rep = Gaia.Analyze.analyze_bitset b.Benchdata.Registry.source in
          Prax_gaia.Analyze.total rep.Prax_gaia.Analyze.phases
        in
        let td, _ =
          best3 (fun () ->
              let rep = Gaia.Analyze.analyze_bdd b.Benchdata.Registry.source in
              (Prax_gaia.Analyze.total rep.Prax_gaia.Analyze.phases, ()))
        in
        Printf.printf "%-8s | %12.4f %12.4f\n" b.Benchdata.Registry.name tb td
      end)
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: top-down tabling vs bottom-up (Coral) with magic sets     *)
(* ------------------------------------------------------------------ *)

let entry_pred (clauses : Logic.Parser.clause list) : (string * int) option =
  (* the corpus convention: a *_top predicate is the entry point *)
  List.find_map
    (fun (c : Logic.Parser.clause) ->
      match Logic.Term.functor_of c.Logic.Parser.head with
      | Some (name, arity)
        when String.length name > 4
             && String.equal (String.sub name (String.length name - 4) 4)
                  "_top" ->
          Some (name, arity)
      | _ -> None)
    clauses

let ablation_magic () =
  section
    "Ablation (Section 7): goal-directed evaluation - tabled top-down vs \
     bottom-up semi-naive, plain / magic / supplementary-magic";
  Printf.printf "%-8s | %9s %9s %9s %9s | %7s %7s %7s\n" "Program" "tabled"
    "plain-bu" "magic" "supmagic" "factsP" "factsM" "factsS";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let clauses = Logic.Parser.parse_clauses b.Benchdata.Registry.source in
      match entry_pred clauses with
      | None -> Printf.printf "%-8s | (no entry predicate)\n" b.Benchdata.Registry.name
      | Some (top, arity) ->
          let abstract, _, maxiff = Groundness.Transform.program clauses in
          (* tabled top-down, goal-directed from the entry point *)
          let t_tab, _ =
            best3 (fun () ->
                let db = Logic.Database.create () in
                Logic.Database.load_clauses db abstract;
                let e = Tabling.Engine.create db in
                Prop.Iff.register e ~max_arity:maxiff;
                let goal =
                  Logic.Term.mk
                    (Groundness.Transform.prefix ^ top)
                    (Array.init arity (fun _ -> Logic.Term.fresh_var ()))
                in
                let t0 = Unix.gettimeofday () in
                Tabling.Engine.run e goal (fun _ -> ());
                (Unix.gettimeofday () -. t0, ()))
          in
          let rules =
            Bottomup.From_prop.convert ~domain:Bottomup.From_prop.bool_domain
              abstract
          in
          let q =
            {
              Bottomup.Datalog.pred = (Groundness.Transform.prefix ^ top, arity);
              args = Array.init arity (fun _ -> Logic.Term.fresh_var ());
            }
          in
          let run rules =
            let t0 = Unix.gettimeofday () in
            let intensional, db = Bottomup.Datalog.load rules in
            ignore (Bottomup.Datalog.seminaive intensional db);
            (Unix.gettimeofday () -. t0, Bottomup.Datalog.fact_count db)
          in
          let t_plain, f_plain = run rules in
          let mrules, _ = Bottomup.Magic.magic rules q in
          let t_magic, f_magic = run mrules in
          let srules, _ = Bottomup.Magic.supplementary rules q in
          let t_sup, f_sup = run srules in
          Printf.printf
            "%-8s | %9.4f %9.4f %9.4f %9.4f | %7d %7d %7d\n"
            b.Benchdata.Registry.name t_tab t_plain t_magic t_sup f_plain
            f_magic f_sup)
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: supplementary tabling for strictness                      *)
(* ------------------------------------------------------------------ *)

(* without supplementary tabling the larger programs take minutes *)
let supp_off_feasible = [ "eu"; "quicksort"; "listcompr"; "mergesort" ]

let ablation_supp () =
  section
    "Ablation (Section 4.2): supplementary tabling for the strictness \
     analyzer (the optimization the paper proposes but leaves unevaluated)";
  Printf.printf "%-10s | %10s %10s | %12s %12s\n" "Program" "supp-on" "supp-off"
    "resump-on" "resump-off";
  List.iter
    (fun (b : Benchdata.Registry.fp_bench) ->
      let measure supplementary =
        let rep =
          Strictness.Analyze.analyze ~supplementary b.Benchdata.Registry.source
        in
        ( Prax_strict.Analyze.total rep.Prax_strict.Analyze.phases,
          rep.Prax_strict.Analyze.engine_stats.Prax_tabling.Engine.resumptions
        )
      in
      let t_on, r_on = measure true in
      if List.mem b.Benchdata.Registry.name supp_off_feasible then begin
        let t_off, r_off = measure false in
        Printf.printf "%-10s | %10.4f %10.4f | %12d %12d\n"
          b.Benchdata.Registry.name t_on t_off r_on r_off
      end
      else
        Printf.printf "%-10s | %10.4f %10s | %12d %12s\n"
          b.Benchdata.Registry.name t_on "(min.)" r_on "-")
    Benchdata.Registry.fp_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: depth parameter sweep                                     *)
(* ------------------------------------------------------------------ *)

let k2_feasible =
  [ "qsort"; "queens"; "pg"; "gabriel"; "disj"; "cs"; "peep" ]

let ablation_depthk_sweep () =
  section "Ablation: depth-k sweep (k = 1 vs k = 2, where tractable)";
  Printf.printf "%-8s | %10s %8s %8s | %10s %8s %8s\n" "Program" "k=1(s)"
    "answers" "entries" "k=2(s)" "answers" "entries";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let measure k =
        let rep = Depthk.analyze ~k b.Benchdata.Registry.source in
        ( Prax_depthk.Analyze.total rep.Prax_depthk.Analyze.phases,
          rep.Prax_depthk.Analyze.engine_stats.Prax_tabling.Engine.answers,
          rep.Prax_depthk.Analyze.engine_stats.Prax_tabling.Engine.table_entries
        )
      in
      let t1, a1, e1 = measure 1 in
      if List.mem b.Benchdata.Registry.name k2_feasible then begin
        let t2, a2, e2 = measure 2 in
        Printf.printf "%-8s | %10.4f %8d %8d | %10.4f %8d %8d\n"
          b.Benchdata.Registry.name t1 a1 e1 t2 a2 e2
      end
      else
        Printf.printf "%-8s | %10.4f %8d %8d | %10s %8s %8s\n"
          b.Benchdata.Registry.name t1 a1 e1 "(slow)" "-" "-")
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Ablation: variant tabling vs the open-call strategy (Section 6.2)   *)
(* ------------------------------------------------------------------ *)

let ablation_opencall () =
  section
    "Ablation (Section 6.2): variant tabling vs the open-call \
     (forward-subsumption) strategy, groundness corpus";
  Printf.printf "%-8s | %9s %7s %7s | %9s %7s %7s\n" "Program" "variant"
    "entries" "answers" "opencall" "entries" "answers";
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      let clauses = Logic.Parser.parse_clauses b.Benchdata.Registry.source in
      let abstract, preds, maxiff = Groundness.Transform.program clauses in
      let measure open_calls =
        let db = Logic.Database.create () in
        Logic.Database.load_clauses db abstract;
        let e = Tabling.Engine.create ~open_calls db in
        Prop.Iff.register e ~max_arity:maxiff;
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun (name, arity) ->
            let goal =
              Logic.Term.mk
                (Groundness.Transform.prefix ^ name)
                (Array.init arity (fun _ -> Logic.Term.fresh_var ()))
            in
            Tabling.Engine.run e goal (fun _ -> ()))
          preds;
        let st = Tabling.Engine.stats e in
        ( Unix.gettimeofday () -. t0,
          st.Prax_tabling.Engine.table_entries,
          st.Prax_tabling.Engine.answers )
      in
      let tv, ev, av = measure false in
      let to_, eo, ao = measure true in
      Printf.printf "%-8s | %9.4f %7d %7d | %9.4f %7d %7d\n"
        b.Benchdata.Registry.name tv ev av to_ eo ao)
    Benchdata.Registry.logic_benchmarks

(* ------------------------------------------------------------------ *)
(* Extension benches: Section 7 dataflow, Section 6.1 widening & types *)
(* ------------------------------------------------------------------ *)

let ext_dataflow () =
  section
    "Extension (Section 7): demand-driven dataflow on ladder CFGs - one \
     demand query vs the exhaustive relation, tabled engine";
  Printf.printf "%7s | %12s %9s | %12s %9s\n" "rungs" "demand(s)" "entries"
    "exhaustive" "entries";
  List.iter
    (fun rungs ->
      let p = [ Dataflow.Cfg.ladder ~name:"main" ~base:0 ~rungs ] in
      let t0 = Unix.gettimeofday () in
      let t = Dataflow.Analyze.make p in
      ignore (Dataflow.Analyze.reaches t ~var:"v0" ~def:1 ~node:2);
      let td = Unix.gettimeofday () -. t0 in
      let ed = (Dataflow.Analyze.stats t).Prax_tabling.Engine.table_entries in
      let t1 = Unix.gettimeofday () in
      let t' = Dataflow.Analyze.make p in
      let nodes =
        List.concat_map
          (fun (pr : Dataflow.Cfg.proc) ->
            List.map (fun (n : Dataflow.Cfg.node) -> n.Dataflow.Cfg.id)
              pr.Dataflow.Cfg.nodes)
          p
      in
      List.iter (fun n -> ignore (Dataflow.Analyze.reaching_at t' ~node:n)) nodes;
      let te = Unix.gettimeofday () -. t1 in
      let ee = (Dataflow.Analyze.stats t').Prax_tabling.Engine.table_entries in
      Printf.printf "%7d | %12.4f %9d | %12.4f %9d\n" rungs td ed te ee)
    [ 10; 20; 40; 80 ]

let ext_widening () =
  section
    "Extension (Section 6.1): widening over the infinite successor domain \
     - answers stay finite, precision grows with the chain cutoff";
  let peano =
    "nat(0). nat(s(X)) :- nat(X).\n\
     plus(0, Y, Y). plus(s(X), Y, s(Z)) :- plus(X, Y, Z).\n\
     even(0). even(s(s(X))) :- even(X)."
  in
  Printf.printf "%7s | %10s %9s %9s\n" "chain" "time(s)" "answers" "widened";
  List.iter
    (fun chain ->
      let t0 = Unix.gettimeofday () in
      let rep = Infinite.Widen.analyze ~chain peano in
      let t = Unix.gettimeofday () -. t0 in
      let answers =
        List.fold_left
          (fun acc r -> acc + List.length r.Prax_infinite.Widen.answers)
          0 rep.Prax_infinite.Widen.results
      in
      let widened =
        List.length
          (List.filter
             (fun r -> r.Prax_infinite.Widen.widened)
             rep.Prax_infinite.Widen.results)
      in
      Printf.printf "%7d | %10.4f %9d %9d/3\n" chain t answers widened)
    [ 2; 3; 5; 8 ]

let ext_types () =
  section
    "Extension (Section 6.1): Hindley-Milner type analysis by occur-check \
     unification, functional corpus";
  Printf.printf "%-10s | %10s %6s\n" "Program" "time(s)" "funcs";
  List.iter
    (fun (b : Benchdata.Registry.fp_bench) ->
      let t0 = Unix.gettimeofday () in
      match Hm.Infer.infer_source b.Benchdata.Registry.source with
      | results ->
          Printf.printf "%-10s | %10.4f %6d\n" b.Benchdata.Registry.name
            (Unix.gettimeofday () -. t0)
            (List.length results)
      | exception Hm.Infer.Type_error m ->
          Printf.printf "%-10s | type error: %s\n" b.Benchdata.Registry.name m)
    Benchdata.Registry.fp_benchmarks

(* ------------------------------------------------------------------ *)
(* Machine-readable stats dump                                         *)
(* ------------------------------------------------------------------ *)

let statsjson () =
  section
    "Machine-readable stats: one prax.stats JSON document per corpus \
     benchmark (schema in docs/METRICS.md)";
  let emit ~analysis ~timer_prefix ~input ~table_bytes ~guard ~status =
    let open Metrics in
    let g =
      gauge ~units:"bytes" ~doc:"call/answer table space estimate"
        "engine.table_space_bytes"
    in
    set g table_bytes;
    let phases =
      List.map
        (fun ph -> (ph, timer_seconds (timer_prefix ^ "." ^ ph)))
        [ "preprocess"; "evaluate"; "collect" ]
    in
    let extra =
      Guard.status_json_fields status @ Guard.budget_json_fields guard
    in
    print_endline
      (json_to_string
         (stats_doc ~tool:"bench" ~analysis ~input ~phases ~extra
            (snapshot ())))
  in
  List.iter
    (fun (b : Benchdata.Registry.logic_bench) ->
      (* counters are process-wide: reset so each document covers one run *)
      Metrics.reset ();
      let guard = bench_guard () in
      let rep = Groundness.analyze ~guard b.Benchdata.Registry.source in
      emit ~analysis:"groundness" ~timer_prefix:"ground"
        ~input:b.Benchdata.Registry.name
        ~table_bytes:rep.Prax_ground.Analyze.table_bytes ~guard
        ~status:rep.Prax_ground.Analyze.status)
    Benchdata.Registry.logic_benchmarks;
  List.iter
    (fun (b : Benchdata.Registry.fp_bench) ->
      Metrics.reset ();
      let guard = bench_guard () in
      let rep = Strictness.analyze ~guard b.Benchdata.Registry.source in
      emit ~analysis:"strictness" ~timer_prefix:"strict"
        ~input:b.Benchdata.Registry.name
        ~table_bytes:rep.Prax_strict.Analyze.table_bytes ~guard
        ~status:rep.Prax_strict.Analyze.status)
    Benchdata.Registry.fp_benchmarks;
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let run_bechamel ?(quota = 0.5) ?(kde = Some 1000) tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let name = Test.name test in
      Hashtbl.iter
        (fun key raw ->
          let est = Analyze.one ols instance raw in
          ignore key;
          match Analyze.OLS.estimates est with
          | Some [ t ] ->
              Printf.printf "%-34s %12.1f ns/run\n" name t
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        results)
    tests

let bechamel () =
  section
    "Bechamel micro-benchmarks: one statistically-sampled representative per \
     table (analysis pipeline end to end)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"table1/groundness-qsort"
        (Staged.stage (fun () -> ignore (Groundness.analyze (src "qsort"))));
      Test.make ~name:"table1/groundness-read"
        (Staged.stage (fun () -> ignore (Groundness.analyze (src "read"))));
      Test.make ~name:"table2/gaia-bdd-qsort"
        (Staged.stage (fun () ->
             ignore (Gaia.Analyze.analyze_bdd (src "qsort"))));
      Test.make ~name:"table3/strictness-mergesort"
        (Staged.stage (fun () ->
             ignore (Strictness.analyze (fsrc "mergesort"))));
      Test.make ~name:"table4/depthk-queens"
        (Staged.stage (fun () -> ignore (Depthk.analyze ~k:1 (src "queens"))));
    ]
  in
  run_bechamel tests

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks of the term-representation hot paths               *)
(* ------------------------------------------------------------------ *)

(* The three operations the interned/hash-consed representation is meant
   to make cheap: head unification, canonicalization for variant table
   keys, and answer-table insert with duplicate detection.  Variable ids
   are fixed (disjoint blocks) so every run measures the same work. *)
let micro_tests () =
  let open Bechamel in
  let v i = Logic.Term.var (1000 + i) in
  let pat =
    Logic.Term.mk "p"
      [|
        v 0;
        Logic.Term.mk "f" [| v 1; Logic.Term.atom "a" |];
        Logic.Term.mk "g" [| v 0; v 2 |];
      |]
  in
  let ground_goal =
    Logic.Parser.parse_term "p(h(b), f(c, a), g(h(b), [1, 2, 3, 4, 5]))"
  in
  let variant = Logic.Term.map_vars (fun i -> Logic.Term.var (i + 1000)) pat in
  let nonground = Logic.Parser.parse_term "f(X, g(Y, h(Z, [A, B | C])), Y)" in
  let ground_big =
    Logic.Parser.parse_term "f(1, g(2, h(3, [4, 5, 6, 7, 8])), 9)"
  in
  (* 64 offers, 32 distinct: every other insert is a duplicate, the mix
     the engine's answer tables see on the iff-heavy corpus *)
  let answers =
    Array.init 64 (fun i ->
        Logic.Canon.of_term
          (Logic.Term.mk "ans"
             [| Logic.Term.int (i mod 32); Logic.Term.var 0 |]))
  in
  [
    Test.make ~name:"micro/unify-bind"
      (Staged.stage (fun () ->
           ignore (Logic.Unify.unify Logic.Subst.empty pat ground_goal)));
    Test.make ~name:"micro/unify-variant"
      (Staged.stage (fun () ->
           ignore (Logic.Unify.unify Logic.Subst.empty pat variant)));
    Test.make ~name:"micro/canonical-ground"
      (Staged.stage (fun () ->
           ignore (Logic.Canon.canonical Logic.Subst.empty ground_big)));
    Test.make ~name:"micro/canonical-vars"
      (Staged.stage (fun () ->
           ignore (Logic.Canon.canonical Logic.Subst.empty nonground)));
    Test.make ~name:"micro/answer-insert-dedup"
      (Staged.stage (fun () ->
           let tbl = Logic.Canon.Tbl.create 64 in
           Array.iter
             (fun a ->
               if not (Logic.Canon.Tbl.mem tbl a) then
                 Logic.Canon.Tbl.add tbl a ())
             answers));
  ]

let micro () =
  section
    "Bechamel micro-benchmarks: term-representation hot paths (unify, \
     canonicalization, answer-table insert/dedup)";
  run_bechamel (micro_tests ())

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: splice speedup per edit distance           *)
(* ------------------------------------------------------------------ *)

(* The incremental matrix: the analyses with per-SCC fragment support,
   each over its corpus, at edit distances 1/4/16 clauses applied by
   the deterministic mutation generator (seeded, so every machine
   measures the same edits).  Scratch and spliced runs both analyze
   the *edited* source; the fragment cache is populated once from the
   base source and then frozen (loads only), so every repetition
   measures the same base->edit re-analysis. *)

let incr_edit_sizes = [ 1; 4; 16 ]

let incr_matrix () =
  List.map
    (fun (b : Benchdata.Registry.logic_bench) ->
      ( "groundness",
        b.Benchdata.Registry.name,
        b.Benchdata.Registry.source,
        Incr.Mutate.mutate_pl ))
    Benchdata.Registry.logic_benchmarks
  @ List.map
      (fun (b : Benchdata.Registry.fp_bench) ->
        ( "strictness",
          b.Benchdata.Registry.name,
          b.Benchdata.Registry.source,
          Incr.Mutate.mutate_eq ))
      Benchdata.Registry.fp_benchmarks

let gauge_value name =
  let snap = Metrics.snapshot () in
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      if String.equal s.Metrics.name name then s.Metrics.value else acc)
    0 snap.Metrics.gauges

type incr_row = {
  ir_analysis : string;
  ir_name : string;
  ir_edit : int;  (* mutation count applied to the base source *)
  ir_scratch : Analysis.phases;
  ir_spliced : Analysis.phases;
  ir_sccs : int;
  ir_invalidated : int;
  ir_spliced_sccs : int;
  ir_cone_permille : int;
}

(* Speedup over the phases the splice can help (evaluate + collect):
   both runs parse the same edited source, so including preprocess
   would only dilute the signal on small programs. *)
let ir_speedup r =
  let work (p : Analysis.phases) =
    p.Analysis.analysis +. p.Analysis.collection
  in
  work r.ir_scratch /. Float.max (work r.ir_spliced) 1e-9

let incr_sweep () =
  List.concat_map
    (fun (aname, bname, source, mut) ->
      let a = Option.get (Analysis.find aname) in
      let base_tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let populate =
        {
          Analysis.cache_load = (fun k -> Hashtbl.find_opt base_tbl k);
          cache_save = (fun k v -> Hashtbl.replace base_tbl k v);
        }
      in
      ignore
        (Analysis.run_incr a ~guard:(bench_guard ()) ~cache:populate source);
      let frozen =
        {
          Analysis.cache_load = (fun k -> Hashtbl.find_opt base_tbl k);
          cache_save = (fun _ _ -> ());
        }
      in
      List.filter_map
        (fun n ->
          match Incr.Mutate.apply_n ~seed:1 ~n mut source with
          | None -> None
          | Some edited ->
              let _, scratch =
                best3 (fun () ->
                    let rep =
                      Analysis.run a ~guard:(bench_guard ()) edited
                    in
                    (Analysis.total rep.Analysis.phases, rep.Analysis.phases))
              in
              let _, (spliced, sccs, invalidated, spliced_sccs, cone) =
                best3 (fun () ->
                    Metrics.reset ();
                    let rep =
                      Analysis.run_incr a ~guard:(bench_guard ()) ~cache:frozen
                        edited
                    in
                    ( Analysis.total rep.Analysis.phases,
                      ( rep.Analysis.phases,
                        Metrics.counter_value "incr.sccs",
                        Metrics.counter_value "incr.invalidated",
                        Metrics.counter_value "incr.spliced",
                        gauge_value "incr.cone_frac" ) ))
              in
              Metrics.reset ();
              Some
                {
                  ir_analysis = aname;
                  ir_name = bname;
                  ir_edit = n;
                  ir_scratch = scratch;
                  ir_spliced = spliced;
                  ir_sccs = sccs;
                  ir_invalidated = invalidated;
                  ir_spliced_sccs = spliced_sccs;
                  ir_cone_permille = cone;
                })
        incr_edit_sizes)
    (incr_matrix ())

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let n = List.length sorted in
      if n mod 2 = 1 then List.nth sorted (n / 2)
      else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

let incremental () =
  section
    "Incremental re-analysis: spliced re-run vs scratch per edit distance \
     (docs/INCREMENTAL.md)";
  let rows = incr_sweep () in
  List.iter
    (fun r ->
      Printf.printf
        "  %-10s %-10s edit %2d  scratch %8.4fs  spliced %8.4fs  %6.1fx  \
         cone %4d/1000 (%d/%d sccs)\n"
        r.ir_analysis r.ir_name r.ir_edit
        (r.ir_scratch.Analysis.analysis +. r.ir_scratch.Analysis.collection)
        (r.ir_spliced.Analysis.analysis +. r.ir_spliced.Analysis.collection)
        (ir_speedup r) r.ir_cone_permille r.ir_invalidated r.ir_sccs)
    rows;
  List.iter
    (fun n ->
      match
        List.filter_map
          (fun r -> if r.ir_edit = n then Some (ir_speedup r) else None)
          rows
      with
      | [] -> ()
      | sp -> Printf.printf "  median speedup, edit %2d: %6.1fx\n" n (median sp))
    incr_edit_sizes;
  (* The acceptance slice: single-clause edits where the condensation
     actually has somewhere to split AND the scratch run does enough
     work to amortize the splice's fixed costs (graph + closure-digest
     planning, fragment decode, demand replay — a few milliseconds).
     Programs whose whole scratch analysis is under the floor can never
     win incrementally, whatever the cache does; the floor keeps the
     slice honest rather than flattering — slow *spliced* runs above it
     still count against the median.  The all-rows median printed above
     keeps the full picture visible. *)
  let amortizable_floor = 0.010 in
  match
    rows
    |> List.filter (fun r ->
           r.ir_edit = 1 && r.ir_sccs > 1
           && r.ir_scratch.Analysis.analysis
              +. r.ir_scratch.Analysis.collection
              >= amortizable_floor)
    |> List.map ir_speedup
  with
  | [] -> ()
  | sp ->
      Printf.printf
        "  median speedup, single-clause edits on multi-SCC programs (>= \
         %.0fms scratch work): %6.1fx\n"
        (amortizable_floor *. 1000.) (median sp)

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark dump: BENCH_engine.json                  *)
(* ------------------------------------------------------------------ *)

let bench_json_file = "BENCH_engine.json"

let tracked_counters =
  [
    "engine.call_lookups";
    "engine.call_hits";
    "engine.call_misses";
    "engine.answers_offered";
    "engine.answers_inserted";
    "engine.answers_deduped";
    "engine.consumer_resumptions";
    "unify.attempts";
    "unify.failures";
    "hashcons.hits";
    "hashcons.misses";
    "intern.symbols";
    "trie.nodes";
    "trie.prefix_hits";
  ]

(* Which corpus slice a registered analysis sweeps in benchjson, with
   each row's configuration.  Everything else about the row is
   generic: the analysis is found in the registry and run through
   [Analysis.run].  depthk reproduces Table 4 (k=1 over the paper's
   Table-4 subset); groundness additionally sweeps the worst-case
   stress corpus in def mode (the mode that completes it —
   examples/stress/README.md); the other analyses take their kind's
   whole corpus at default configuration. *)
let bench_corpus (a : Analysis.t) :
    (string * string * int option * Analysis.config) list =
  match a.Analysis.name with
  | "depthk" ->
      List.map
        (fun (b : Benchdata.Registry.logic_bench) ->
          ( b.Benchdata.Registry.name,
            b.Benchdata.Registry.source,
            Some b.Benchdata.Registry.paper_lines,
            [ ("k", "1") ] ))
        Benchdata.Registry.table4_benchmarks
  | _ -> (
      match a.Analysis.kind with
      | Analysis.Logic_program ->
          List.map
            (fun (b : Benchdata.Registry.logic_bench) ->
              ( b.Benchdata.Registry.name,
                b.Benchdata.Registry.source,
                Some b.Benchdata.Registry.paper_lines,
                [] ))
            Benchdata.Registry.logic_benchmarks
          @
          if a.Analysis.name = "groundness" then
            List.map
              (fun (b : Benchdata.Registry.stress_bench) ->
                ( b.Benchdata.Registry.name,
                  b.Benchdata.Registry.source,
                  None,
                  [ ("mode", "def") ] ))
              Benchdata.Registry.stress_benchmarks
          else []
      | Analysis.Fp_program ->
          List.map
            (fun (b : Benchdata.Registry.fp_bench) ->
              ( b.Benchdata.Registry.name,
                b.Benchdata.Registry.source,
                Some b.Benchdata.Registry.paper_lines,
                [] ))
            Benchdata.Registry.fp_benchmarks
      | Analysis.Cfg_program ->
          List.map
            (fun (b : Benchdata.Registry.cfg_bench) ->
              (b.Benchdata.Registry.name, b.Benchdata.Registry.source, None, []))
            Benchdata.Registry.cfg_benchmarks)

(* One row per (registered analysis, corpus benchmark of its kind) —
   Tables 1, 3, and 4 plus the gaia and dataflow sweeps all go through
   the same registry dispatch.  Best of three runs, counters reset per
   repetition so each row's counters describe exactly the run whose
   times it reports.  The perf trajectory across PRs is tracked by
   diffing these files; docs/PERFORMANCE.md explains how to read one. *)
let benchjson () =
  section
    ("Machine-readable engine benchmarks -> " ^ bench_json_file
   ^ " (every registered analysis over its corpus; docs/PERFORMANCE.md \
      explains the fields)");
  let open Metrics in
  let counters_now () =
    List.map (fun c -> (c, Int (counter_value c))) tracked_counters
  in
  let row ~name ~lines ~(rep : Analysis.report) ~counters =
    let p = rep.Analysis.phases in
    Obj
      ([
         ("name", Str name);
         ("analysis", Str rep.Analysis.analysis);
         ("config", Analysis.config_to_json rep.Analysis.config);
       ]
      @ (match (rep.Analysis.source_lines, lines) with
        | Some l, _ | None, Some l -> [ ("source_lines", Int l) ]
        | None, None -> [])
      @ [
          ( "phases",
            Obj
              [
                ("preprocess", Float p.Analysis.preproc);
                ("evaluate", Float p.Analysis.analysis);
                ("collect", Float p.Analysis.collection);
              ] );
          ("total_seconds", Float (Analysis.total p));
          ("table_bytes", Int rep.Analysis.table_bytes);
          ("clause_count", Int rep.Analysis.clause_count);
        ]
      @ (match rep.Analysis.engine with
        | Some e ->
            [
              ("table_entries", Int e.Analysis.table_entries);
              ("answers", Int e.Analysis.answers);
              ("resumptions", Int e.Analysis.resumptions);
            ]
        | None -> [])
      @ [ ("status", Str (status_cell rep.Analysis.status));
          ("counters", Obj counters);
        ])
  in
  let rows =
    List.concat_map
      (fun (a : Analysis.t) ->
        let corpus = bench_corpus a in
        List.map
          (fun (name, source, lines, config) ->
            let _, (rep, counters) =
              best3 (fun () ->
                  Metrics.reset ();
                  let rep =
                    Analysis.run a ~config ~guard:(bench_guard ()) source
                  in
                  (Analysis.total rep.Analysis.phases, (rep, counters_now ())))
            in
            Printf.printf "  %-10s %-10s analysis %8.4fs  table %7dB\n"
              a.Analysis.name name
              rep.Analysis.phases.Analysis.analysis
              rep.Analysis.table_bytes;
            row ~name ~lines ~rep ~counters)
          corpus)
      (Analysis.all ())
  in
  Metrics.reset ();
  (* the incremental section: scratch-vs-spliced re-analysis per edit
     distance, same deterministic matrix as the [incremental] console
     section (prax.bench v3 is additive over v2) *)
  let phases_json (p : Analysis.phases) =
    Obj
      [
        ("preprocess", Float p.Analysis.preproc);
        ("evaluate", Float p.Analysis.analysis);
        ("collect", Float p.Analysis.collection);
      ]
  in
  let incr_rows =
    List.map
      (fun r ->
        Printf.printf "  %-10s %-10s incremental edit %2d  %6.1fx\n"
          r.ir_analysis r.ir_name r.ir_edit (ir_speedup r);
        Obj
          [
            ("name", Str r.ir_name);
            ("analysis", Str r.ir_analysis);
            ("edit_clauses", Int r.ir_edit);
            ("scratch", phases_json r.ir_scratch);
            ("spliced", phases_json r.ir_spliced);
            ("speedup", Float (ir_speedup r));
            ("sccs", Int r.ir_sccs);
            ("invalidated", Int r.ir_invalidated);
            ("spliced_sccs", Int r.ir_spliced_sccs);
            ("cone_frac_permille", Int r.ir_cone_permille);
          ])
      (incr_sweep ())
  in
  Metrics.reset ();
  let doc =
    Obj
      [
        ("schema", Str "prax.bench");
        ("schema_version", Int 3);
        ("stats_schema_version", Int Metrics.schema_version);
        ("report_schema_version", Int Analysis.report_schema_version);
        ("benchmarks", Arr rows);
        ("incremental", Arr incr_rows);
      ]
  in
  let oc = open_out bench_json_file in
  output_string oc (json_to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" bench_json_file (List.length rows)

(* ------------------------------------------------------------------ *)
(* Smoke: the CI gate over the term representation                      *)
(* ------------------------------------------------------------------ *)

(* Quick (<~5s) representation-invariant checks plus a short-quota run
   of the micro-benchmarks, exiting nonzero on any violation so a
   representation regression fails the CI workflow loudly. *)
let smoke () =
  section
    "Smoke: term-representation invariants + short-quota micro-benchmarks \
     (CI gate; nonzero exit on failure)";
  let failed = ref false in
  let check name ok =
    Printf.printf "  %-52s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then failed := true
  in
  let a = Logic.Term.mk "pt" [| Logic.Term.int 1; Logic.Term.atom "smoke" |] in
  let b = Logic.Term.mk "pt" [| Logic.Term.int 1; Logic.Term.atom "smoke" |] in
  check "structurally equal structs are physically equal" (a == b);
  check "atoms are interned"
    (Logic.Term.atom "smoke" == Logic.Term.atom "smoke");
  check "O(1) size from the meta word" (Logic.Term.size a = 3);
  check "O(1) ground flag" (Logic.Term.is_ground a);
  check "O(1) ground flag (negative)"
    (not (Logic.Term.is_ground (Logic.Term.mk "f" [| Logic.Term.var 0 |])));
  check "variant check via canonical forms"
    (Logic.Canon.variant
       (Logic.Parser.parse_term "f(X, g(X, Y))")
       (Logic.Parser.parse_term "f(A, g(A, B))"));
  check "all five analyses registered"
    (List.sort compare (Analysis.names ())
    = [ "dataflow"; "depthk"; "gaia"; "groundness"; "strictness" ]);
  check "registry claims .pl/.eq/.cfg"
    (List.for_all
       (fun ext -> Analysis.claiming_extension ext <> None)
       [ ".pl"; ".eq"; ".cfg" ]);
  Metrics.reset ();
  ignore (Logic.Term.atom "smoke_fresh_symbol_probe");
  let rep = Groundness.analyze (src "qsort") in
  check "groundness(qsort) completes"
    (match rep.Prax_ground.Analyze.status with
    | Guard.Complete -> true
    | Guard.Partial _ -> false);
  check "table space accounted" (rep.Prax_ground.Analyze.table_bytes > 0);
  check "hash-cons counters live"
    (Metrics.counter_value "hashcons.hits"
     + Metrics.counter_value "hashcons.misses"
     > 0);
  check "symbol-intern counter live"
    (Metrics.counter_value "intern.symbols" > 0);
  Metrics.reset ();
  run_bechamel ~quota:0.05 ~kde:None (micro_tests ());
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Profiling loop: run one groundness analysis many times in-process   *)
(* so sampling profilers (gprofng, perf) get enough samples.           *)
(* ------------------------------------------------------------------ *)

let profile () =
  let name =
    try Sys.getenv "PROFILE_BENCH" with Not_found -> "read"
  in
  let reps =
    try int_of_string (Sys.getenv "PROFILE_REPS") with _ -> 400
  in
  section
    (Printf.sprintf "Profile loop: groundness on %s x%d (for sampling \
                     profilers; PROFILE_BENCH / PROFILE_REPS to override)"
       name reps);
  let source = src name in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Groundness.analyze ~guard:(bench_guard ()) source)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "%d runs in %.3fs (%.4fs/run)\n%!" reps dt
    (dt /. float_of_int reps)

(* ------------------------------------------------------------------ *)
(* Batch: supervised worker overhead and store warm-start             *)
(* ------------------------------------------------------------------ *)

(* Quantifies what OS-process isolation costs (a fork per worker slot
   and a request/result-frame round trip per job, vs calling the
   analyzer in-process) and what the persistent store buys back (a warm
   second run answers every job from snapshots without forking at all).
   docs/ROBUSTNESS.md describes the supervision protocol and the
   snapshot format. *)
let batch () =
  section
    "Batch: supervised worker overhead vs in-process, and \
     persistent-store warm start";
  let names = [ "cs"; "disj"; "gabriel"; "qsort"; "queens"; "read" ] in
  let sources = List.map (fun n -> (n, src n)) names in
  let jobs = List.map fst sources in
  let config =
    {
      Serve.default_config with
      Serve.jobs = 2;
      budget = Guard.spec ~timeout:bench_timeout ();
    }
  in
  let worker ~job ~attempt:_ ~guard =
    let rep = Groundness.analyze ~guard (List.assoc job sources) in
    match rep.Prax_ground.Analyze.status with
    | Guard.Complete -> (Serve.Complete, "ok:" ^ job)
    | Guard.Partial { reason; _ } ->
        (Serve.Partial_result (Guard.reason_to_string reason), "partial:" ^ job)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let inproc, () =
    time (fun () ->
        List.iter
          (fun (_, source) ->
            ignore (Groundness.analyze ~guard:(bench_guard ()) source))
          sources)
  in
  let cold, _ = time (fun () -> Serve.run_batch ~config ~worker jobs) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-bench-store.%d" (Unix.getpid ()))
  in
  let store = Store.open_dir dir in
  let key_of job =
    {
      Store.analysis = "groundness";
      source_digest = Store.digest_source (List.assoc job sources);
      config = "mode=dynamic";
      schema_version = Metrics.schema_version;
    }
  in
  let cached ~job = Store.load store (key_of job) in
  let persist ~job ~payload = Store.save store (key_of job) payload in
  Metrics.reset ();
  let cold_store, _ =
    time (fun () -> Serve.run_batch ~config ~cached ~persist ~worker jobs)
  in
  let writes = Metrics.counter_value "store.writes" in
  Metrics.reset ();
  let warm, reports =
    time (fun () -> Serve.run_batch ~config ~cached ~persist ~worker jobs)
  in
  let hits = Metrics.counter_value "store.hits" in
  let forks = Metrics.counter_value "serve.workers_spawned" in
  let n = List.length jobs in
  let pct a b = 100. *. (a -. b) /. b in
  Printf.printf "  %d groundness jobs, %d concurrent workers\n" n
    config.Serve.jobs;
  Printf.printf "  in-process, sequential        %8.4fs\n" inproc;
  Printf.printf "  supervised, no store (cold)   %8.4fs  isolation overhead %+.1f%%\n"
    cold (pct cold inproc);
  Printf.printf "  supervised + store (cold)     %8.4fs  %d snapshot writes\n"
    cold_store writes;
  Printf.printf
    "  supervised + store (warm)     %8.4fs  %d/%d store hits, %d forks (%.1fx vs cold)\n"
    warm hits n forks
    (if warm > 0. then cold /. warm else 0.);
  let cached_n =
    List.length
      (List.filter
         (fun r ->
           match r.Serve.outcome with
           | Serve.Done { from_cache = true; _ } -> true
           | _ -> false)
         reports)
  in
  if cached_n <> n then
    Printf.printf "  WARNING: only %d/%d jobs answered from cache\n" cached_n n;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Run store: bench run / ab / gate (lib/benchrun, docs/BENCHMARKING.md)*)
(* ------------------------------------------------------------------ *)

let default_runs_dir = Filename.concat "bench_data" "runs"

(* exit codes of the run-store subcommands (docs/CLI.md): 0 ok / gate
   passed, 1 usage or load error, 2 gate found regressions *)
let exit_usage = 1
let exit_regression = 2

let usage_fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit exit_usage)
    fmt

(* PRAX_BENCH_SLOWDOWN="analysis:benchmark:seconds[,...]" — measurement
   injection for testing the gate: the seconds are added to the
   recorded evaluate/total samples of every matching row, making the
   row *report* slower without sleeping.  CI and test_benchrun use it
   to prove that an artificially slowed benchmark trips the gate. *)
let injected_slowdown ~analysis ~name =
  match Sys.getenv_opt "PRAX_BENCH_SLOWDOWN" with
  | None -> 0.
  | Some spec ->
      List.fold_left
        (fun acc entry ->
          match String.split_on_char ':' (String.trim entry) with
          | [ a; n; secs ] when a = analysis && n = name -> (
              match float_of_string_opt secs with
              | Some s -> acc +. s
              | None -> usage_fail "PRAX_BENCH_SLOWDOWN: bad seconds in %S" entry)
          | _ -> acc)
        0.
        (String.split_on_char ',' spec)

type sweep_sample = {
  s_phases : (string * float) list;  (* preprocess/evaluate/collect *)
  s_total : float;
  s_bytes : float;
  s_status : string;
  s_counters : (string * float) list;
}

(* One repeat of one (analysis x benchmark) cell, counters reset around
   it so they describe exactly this repetition. *)
let sweep_once (a : Analysis.t) ~config ~name source =
  Metrics.reset ();
  let rep = Analysis.run a ~config ~guard:(bench_guard ()) source in
  let p = rep.Analysis.phases in
  let slow = injected_slowdown ~analysis:a.Analysis.name ~name in
  ( {
      s_phases =
        [
          ("preprocess", p.Analysis.preproc);
          ("evaluate", p.Analysis.analysis +. slow);
          ("collect", p.Analysis.collection);
        ];
      s_total = Analysis.total p +. slow;
      s_bytes = float_of_int rep.Analysis.table_bytes;
      s_status = status_cell rep.Analysis.status;
      s_counters =
        List.map
          (fun c -> (c, float_of_int (Metrics.counter_value c)))
          tracked_counters;
    },
    rep )

(* The repeat-sampling loop over the (analysis x corpus) matrix.
   Filters: [analyses] / [benchmarks] are comma-lists of names (None =
   everything).  Returns the rows plus one log per row with the
   per-repeat raw samples. *)
let sweep ~repeats ~analyses ~benchmarks () =
  let wanted filter x =
    match filter with None -> true | Some l -> List.mem x l
  in
  let rows = ref [] and logs = ref [] in
  List.iter
    (fun (a : Analysis.t) ->
      if wanted analyses a.Analysis.name then begin
        let corpus = bench_corpus a in
        List.iter
          (fun (name, source, lines, config) ->
            if wanted benchmarks name then begin
              let samples = ref [] and last_rep = ref None in
              (* one untimed warm-up: the cold first execution of a
                 cell can run an order of magnitude slower (heap
                 growth, cold caches) and would pollute q3/IQR *)
              ignore (sweep_once a ~config ~name source);
              for _ = 1 to repeats do
                (* settle the GC so a pending major slice from the
                   previous cell doesn't land in this one — without
                   this, adjacent cells' times trade off between
                   otherwise-identical runs *)
                Gc.full_major ();
                let s, rep = sweep_once a ~config ~name source in
                samples := s :: !samples;
                last_rep := Some rep
              done;
              let samples = List.rev !samples in
              let rep = Option.get !last_rep in
              let totals = List.map (fun s -> s.s_total) samples in
              let total = Benchrun.stats_of totals in
              (* the representative repeat (status): the one whose
                 total lands closest to the median *)
              let repr =
                List.fold_left
                  (fun best s ->
                    if
                      Float.abs (s.s_total -. total.Benchrun.median)
                      < Float.abs (best.s_total -. total.Benchrun.median)
                    then s
                    else best)
                  (List.hd samples) samples
              in
              let phase ph =
                ( ph,
                  Benchrun.stats_of
                    (List.map (fun s -> List.assoc ph s.s_phases) samples) )
              in
              let row =
                {
                  Benchrun.r_analysis = a.Analysis.name;
                  r_name = name;
                  r_config = config;
                  r_status = repr.s_status;
                  r_source_lines =
                    (match (rep.Analysis.source_lines, lines) with
                    | Some l, _ | None, Some l -> Some l
                    | None, None -> None);
                  r_clause_count = rep.Analysis.clause_count;
                  r_phases =
                    List.map phase [ "preprocess"; "evaluate"; "collect" ];
                  r_total = total;
                  r_table_bytes =
                    Benchrun.stats_of (List.map (fun s -> s.s_bytes) samples);
                  (* counters come from the LAST repeat: with the
                     process warmed up they are deterministic for a
                     given binary and matrix order, so A/B counter
                     deltas reflect code changes, not cold-start
                     effects of whichever repeat won the median *)
                  r_counters =
                    (List.nth samples (List.length samples - 1)).s_counters;
                }
              in
              Printf.printf "  %-10s %-10s median %8.4fs  iqr %8.4fs  table %7.0fB  %s\n%!"
                a.Analysis.name name total.Benchrun.median
                (Benchrun.iqr total) row.Benchrun.r_table_bytes.Benchrun.median
                repr.s_status;
              let log =
                String.concat ""
                  (List.mapi
                     (fun i s ->
                       Printf.sprintf
                         "repeat %d: total=%.6f preprocess=%.6f \
                          evaluate=%.6f collect=%.6f table_bytes=%.0f \
                          status=%s\n"
                         (i + 1) s.s_total
                         (List.assoc "preprocess" s.s_phases)
                         (List.assoc "evaluate" s.s_phases)
                         (List.assoc "collect" s.s_phases)
                         s.s_bytes s.s_status)
                     samples)
              in
              rows := row :: !rows;
              logs :=
                (Printf.sprintf "%s-%s.log" a.Analysis.name name, log) :: !logs
            end)
          corpus
      end)
    (Analysis.all ());
  Metrics.reset ();
  (List.rev !rows, List.rev !logs)

(* --- flag parsing (shared by run/ab/gate) --------------------------- *)

let comma_list s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

type runopts = {
  mutable repeats : int;
  mutable shards : int;
  mutable runs_dir : string;
  mutable run_id : string option;
  mutable analyses : string list option;
  mutable benchmarks : string list option;
  mutable baseline : string option;
  mutable candidate : string option;
  mutable json : bool;
  mutable th : Benchrun.thresholds;
}

let parse_opts ~what ~defaults_repeats args =
  let o =
    {
      repeats = defaults_repeats;
      shards = 2;
      runs_dir = default_runs_dir;
      run_id = None;
      analyses = None;
      benchmarks = None;
      baseline = None;
      candidate = None;
      json = false;
      th = Benchrun.default_thresholds;
    }
  in
  let positional = ref [] in
  let int_of ~flag v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> usage_fail "%s: %s expects a positive integer, got %S" what flag v
  in
  let float_of ~flag v =
    match float_of_string_opt v with
    | Some f when f >= 0. -> f
    | _ -> usage_fail "%s: %s expects a non-negative number, got %S" what flag v
  in
  let rec go = function
    | [] -> ()
    | "--repeats" :: v :: rest ->
        o.repeats <- int_of ~flag:"--repeats" v;
        go rest
    | "--shards" :: v :: rest ->
        o.shards <- int_of ~flag:"--shards" v;
        go rest
    | "--runs-dir" :: v :: rest ->
        o.runs_dir <- v;
        go rest
    | "--id" :: v :: rest ->
        o.run_id <- Some v;
        go rest
    | "--analyses" :: v :: rest ->
        o.analyses <- Some (comma_list v);
        go rest
    | "--benchmarks" :: v :: rest ->
        o.benchmarks <- Some (comma_list v);
        go rest
    | "--baseline" :: v :: rest ->
        o.baseline <- Some v;
        go rest
    | "--candidate" :: v :: rest ->
        o.candidate <- Some v;
        go rest
    | "--json" :: rest ->
        o.json <- true;
        go rest
    | "--rel-time" :: v :: rest ->
        o.th <- { o.th with Benchrun.rel_time = float_of ~flag:"--rel-time" v };
        go rest
    | "--abs-time" :: v :: rest ->
        o.th <- { o.th with Benchrun.abs_time = float_of ~flag:"--abs-time" v };
        go rest
    | "--rel-bytes" :: v :: rest ->
        o.th <- { o.th with Benchrun.rel_bytes = float_of ~flag:"--rel-bytes" v };
        go rest
    | "--abs-bytes" :: v :: rest ->
        o.th <- { o.th with Benchrun.abs_bytes = float_of ~flag:"--abs-bytes" v };
        go rest
    | "--metrics" :: v :: rest ->
        let ms = comma_list v in
        List.iter
          (fun m ->
            if m <> "time" && m <> "bytes" then
              usage_fail "%s: --metrics accepts time,bytes (got %S)" what m)
          ms;
        o.th <-
          {
            o.th with
            Benchrun.gate_time = List.mem "time" ms;
            gate_bytes = List.mem "bytes" ms;
          };
        go rest
    | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        usage_fail "%s: unknown or value-less option %s" what flag
    | arg :: rest ->
        positional := arg :: !positional;
        go rest
  in
  go args;
  (o, List.rev !positional)

let load_run_or_fail ~runs_dir spec =
  match Benchrun.find_run ~runs_dir spec with
  | Ok run -> run
  | Error msg -> usage_fail "%s" msg

(* Execute the matrix in [shards] fresh processes and pool the
   samples.  Code/heap layout is a per-process lottery worth tens of
   percent on some cells for the process's whole lifetime, so a single
   process's tight samples can systematically mislead an A/B; with
   every run's samples drawn from several layouts, that variance shows
   up in each row's own IQR and the noise bound adapts.  Each shard is
   a re-exec of this binary with [--shards 1] (fork would inherit the
   parent's layout and defeat the point). *)
let sharded_sweep o =
  let per_shard =
    List.init o.shards (fun i ->
        (o.repeats / o.shards)
        + if i < o.repeats mod o.shards then 1 else 0)
    |> List.filter (fun n -> n > 0)
  in
  let tmp =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-bench-shards-%d" (Unix.getpid ()))
  in
  let filters =
    (match o.analyses with
    | Some l -> [ "--analyses"; String.concat "," l ]
    | None -> [])
    @
    match o.benchmarks with
    | Some l -> [ "--benchmarks"; String.concat "," l ]
    | None -> []
  in
  let shard_dirs =
    List.mapi
      (fun i reps ->
        let id = Printf.sprintf "shard-%d" (i + 1) in
        Printf.printf "  shard %d/%d: %d repeat%s...\n%!" (i + 1)
          (List.length per_shard) reps
          (if reps = 1 then "" else "s");
        let argv =
          [
            Sys.executable_name; "run"; "--shards"; "1"; "--runs-dir"; tmp;
            "--id"; id; "--repeats"; string_of_int reps;
          ]
          @ filters
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list argv)
            Unix.stdin devnull Unix.stderr
        in
        Unix.close devnull;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, st ->
            let what =
              match st with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
            in
            usage_fail "bench run: shard %d failed (%s)" (i + 1) what);
        Filename.concat tmp id)
      per_shard
  in
  let shards =
    List.map
      (fun d ->
        match Benchrun.load_run d with
        | Ok run -> run
        | Error msg -> usage_fail "bench run: shard unreadable: %s" msg)
      shard_dirs
  in
  let rows = Benchrun.pool_rows (List.map (fun r -> r.Benchrun.rows) shards) in
  (* merge the per-cell logs, one "# shard i" block per process *)
  let logs = Hashtbl.create 64 in
  let order = ref [] in
  List.iteri
    (fun i d ->
      let ldir = Filename.concat d "logs" in
      if Sys.file_exists ldir then
        Array.iter
          (fun f ->
            let ic = open_in (Filename.concat ldir f) in
            let len = in_channel_length ic in
            let content = really_input_string ic len in
            close_in ic;
            let name = f in
            if not (Hashtbl.mem logs name) then order := name :: !order;
            Hashtbl.replace logs name
              (Option.value ~default:"" (Hashtbl.find_opt logs name)
              ^ Printf.sprintf "# shard %d\n" (i + 1)
              ^ content))
          (Sys.readdir ldir))
    shard_dirs;
  let logs =
    List.rev_map (fun name -> (name, Hashtbl.find logs name)) !order
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (try rm tmp with Sys_error _ -> ());
  List.iter
    (fun (r : Benchrun.row) ->
      Printf.printf
        "  %-10s %-10s median %8.4fs  iqr %8.4fs  table %7.0fB  %s\n%!"
        r.Benchrun.r_analysis r.Benchrun.r_name
        r.Benchrun.r_total.Benchrun.median
        (Benchrun.iqr r.Benchrun.r_total)
        r.Benchrun.r_table_bytes.Benchrun.median r.Benchrun.r_status)
    rows;
  (rows, logs)

(* bench run: execute the matrix, persist a run directory *)
let cmd_run args =
  let o, positional = parse_opts ~what:"bench run" ~defaults_repeats:6 args in
  if positional <> [] then
    usage_fail "bench run: unexpected argument %s" (List.hd positional);
  let run_id =
    match o.run_id with Some id -> id | None -> Benchrun.fresh_id ()
  in
  let dir = Filename.concat o.runs_dir run_id in
  if Sys.file_exists dir then
    usage_fail "bench run: %s already exists (pick another --id)" dir;
  section
    (Printf.sprintf
       "Bench run %s: %d repeat%s x %d shard%s per (analysis x benchmark) -> %s"
       run_id o.repeats
       (if o.repeats = 1 then "" else "s")
       o.shards
       (if o.shards = 1 then "" else "s")
       dir);
  let rows, logs =
    if o.shards > 1 && o.repeats > 1 then sharded_sweep o
    else
      sweep ~repeats:o.repeats ~analyses:o.analyses ~benchmarks:o.benchmarks ()
  in
  if rows = [] then
    usage_fail "bench run: the filters selected no (analysis x benchmark) cells";
  let manifest =
    Benchrun.make_manifest ~run_id ~repeats:o.repeats
      ~argv:(Array.to_list Sys.argv)
  in
  Benchrun.write_run ~dir ~manifest ~rows ~logs;
  Printf.printf "wrote %s (%d rows, %d repeats, rev %s)\n" dir
    (List.length rows) o.repeats manifest.Benchrun.m_git_rev;
  run_id

(* bench ab: load two runs, print the deltas *)
let cmd_ab args =
  let o, positional = parse_opts ~what:"bench ab" ~defaults_repeats:5 args in
  let a, b =
    match positional with
    | [ a; b ] -> (a, b)
    | _ -> usage_fail "usage: bench ab <run-id-or-dir> <run-id-or-dir>"
  in
  let base = load_run_or_fail ~runs_dir:o.runs_dir a in
  let cand = load_run_or_fail ~runs_dir:o.runs_dir b in
  (match (base.Benchrun.manifest, cand.Benchrun.manifest) with
  | Some mb, Some mc when mb.Benchrun.m_git_rev <> mc.Benchrun.m_git_rev ->
      Printf.printf "note: comparing different revisions (%s vs %s)\n"
        mb.Benchrun.m_git_rev mc.Benchrun.m_git_rev
  | None, _ | _, None ->
      print_endline
        "note: a manifest is missing or corrupt; comparing rows only"
  | _ -> ());
  let ab = Benchrun.compare_runs ~thresholds:o.th base cand in
  if o.json then print_endline (Metrics.json_to_string (Benchrun.ab_to_json ab))
  else print_string (Benchrun.render_ab ab)

(* bench gate: compare a candidate (given, or freshly swept) against a
   baseline; exit 2 on any gated regression *)
let cmd_gate args =
  let o, positional = parse_opts ~what:"bench gate" ~defaults_repeats:4 args in
  if positional <> [] then
    usage_fail "bench gate: unexpected argument %s" (List.hd positional);
  let baseline_spec =
    match o.baseline with
    | Some b -> b
    | None -> usage_fail "bench gate: --baseline <run-id-or-dir> is required"
  in
  let base = load_run_or_fail ~runs_dir:o.runs_dir baseline_spec in
  let cand =
    match o.candidate with
    | Some c -> load_run_or_fail ~runs_dir:o.runs_dir c
    | None ->
        (* no candidate run given: sweep one now, restricted to the
           baseline's matrix so missing-row gating compares like with
           like *)
        let analyses =
          match o.analyses with
          | Some _ as f -> f
          | None ->
              Some
                (List.sort_uniq compare
                   (List.map
                      (fun r -> r.Benchrun.r_analysis)
                      base.Benchrun.rows))
        in
        let benchmarks =
          match o.benchmarks with
          | Some _ as f -> f
          | None ->
              Some
                (List.sort_uniq compare
                   (List.map (fun r -> r.Benchrun.r_name) base.Benchrun.rows))
        in
        let id =
          cmd_run
            ([ "--repeats"; string_of_int o.repeats;
               "--shards"; string_of_int o.shards;
               "--runs-dir"; o.runs_dir;
               "--analyses"; String.concat "," (Option.get analyses);
               "--benchmarks"; String.concat "," (Option.get benchmarks);
             ]
            @ match o.run_id with Some id -> [ "--id"; id ] | None -> [])
        in
        load_run_or_fail ~runs_dir:o.runs_dir id
  in
  let ab = Benchrun.compare_runs ~thresholds:o.th base cand in
  if o.json then print_endline (Metrics.json_to_string (Benchrun.ab_to_json ab))
  else print_string (Benchrun.render_ab ab);
  if ab.Benchrun.regressions > 0 then begin
    Printf.printf "gate: FAIL (%d regression%s vs %s)\n" ab.Benchrun.regressions
      (if ab.Benchrun.regressions = 1 then "" else "s")
      ab.Benchrun.base_id;
    exit exit_regression
  end
  else Printf.printf "gate: PASS (vs %s)\n" ab.Benchrun.base_id

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("stress", stress);
    ("ablation_dynvscomp", ablation_dynvscomp);
    ("ablation_repr", ablation_repr);
    ("ablation_magic", ablation_magic);
    ("ablation_supp", ablation_supp);
    ("ablation_depthk", ablation_depthk_sweep);
    ("ablation_opencall", ablation_opencall);
    ("ext_dataflow", ext_dataflow);
    ("ext_widening", ext_widening);
    ("ext_types", ext_types);
    ("statsjson", statsjson);
    ("incremental", incremental);
    ("benchjson", benchjson);
    ("bechamel", bechamel);
    ("micro", micro);
    ("smoke", smoke);
    ("batch", batch);
    ("profile", profile);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "run" :: rest -> ignore (cmd_run rest)
  | "ab" :: rest -> cmd_ab rest
  | "gate" :: rest -> cmd_gate rest
  | [] ->
      (* the profiling loop is opt-in: it exists for sampling profilers,
         not for the report *)
      List.iter
        (fun (n, f) -> if n <> "profile" then f ())
        sections
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> f ()
          | None ->
              Printf.eprintf
                "unknown section %s; available: %s\n\
                 run-store subcommands: run, ab, gate (docs/BENCHMARKING.md)\n"
                n
                (String.concat ", " (List.map fst sections));
              exit 1)
        names

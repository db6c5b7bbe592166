(* Benchmark harness: regenerates every table of the paper's evaluation
   section and the ablations motivated by its prose, the incremental
   re-analysis matrix, and Bechamel micro-benchmarks of the
   term-representation hot paths.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1  -- one section

   Every section that times (analysis, config, benchmark) cells of the
   analysis registry goes through one loop, [sweep]: an untimed warm-up,
   then [repeats] timed runs summarized by their medians.  Tables 1-4,
   the stress table and the registry ablations are lists of such cells
   plus a column choice, printed by [print_table].

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

let src n =
  (Option.get (Benchdata.Registry.find_logic n)).Benchdata.Registry.source

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

(* ------------------------------------------------------------------ *)
(* Registry cells and the one measurement loop                         *)
(* ------------------------------------------------------------------ *)

type program = { p_name : string; p_source : string; p_lines : int option }

let logic_corpus_of =
  List.map (fun (b : Benchdata.Registry.logic_bench) ->
      Benchdata.Registry.
        { p_name = b.name; p_source = b.source; p_lines = Some b.paper_lines })

let logic_corpus = logic_corpus_of Benchdata.Registry.logic_benchmarks
let table4_corpus = logic_corpus_of Benchdata.Registry.table4_benchmarks

let fp_corpus =
  List.map
    (fun (b : Benchdata.Registry.fp_bench) ->
      Benchdata.Registry.
        { p_name = b.name; p_source = b.source; p_lines = Some b.paper_lines })
    Benchdata.Registry.fp_benchmarks

let stress_corpus =
  List.map
    (fun (b : Benchdata.Registry.stress_bench) ->
      Benchdata.Registry.
        { p_name = b.name; p_source = b.source; p_lines = None })
    Benchdata.Registry.stress_benchmarks

let cfg_corpus =
  List.map
    (fun (b : Benchdata.Registry.cfg_bench) ->
      Benchdata.Registry.
        { p_name = b.name; p_source = b.source; p_lines = None })
    Benchdata.Registry.cfg_benchmarks

(* One cell of the analysis registry: an analysis at a configuration on
   one program.  [budget] replaces the default wall-clock guard (the
   stress table runs under per-program step budgets); [cache] makes the
   run a spliced re-analysis over those fragments. *)
type cell = {
  analysis : Analysis.t;
  config : Analysis.config;
  prog : program;
  budget : Guard.spec option;
  cache : Analysis.cache option;
}

let cell ?budget analysis config prog =
  { analysis; config; prog; budget; cache = None }

(* The registry matrix: which corpus slice each registered analysis
   sweeps, at which configuration.  depthk reproduces Table 4 (k=1 over
   the paper's Table-4 subset); groundness additionally sweeps the
   worst-case stress corpus in def mode (the mode that completes it —
   examples/stress/README.md); the other analyses take their kind's
   whole corpus at default configuration.  [bench run]/[gate] and
   [benchjson] measure exactly these cells. *)
let matrix () =
  List.concat_map
    (fun (a : Analysis.t) ->
      let cells config = List.map (cell a config) in
      match (a.Analysis.name, a.Analysis.kind) with
      | "depthk", _ -> cells [ ("k", "1") ] table4_corpus
      | "groundness", _ ->
          cells [] logic_corpus @ cells [ ("mode", "def") ] stress_corpus
      | _, Analysis.Logic_program -> cells [] logic_corpus
      | _, Analysis.Fp_program -> cells [] fp_corpus
      | _, Analysis.Cfg_program -> cells [] cfg_corpus)
    (Analysis.all ())

let tracked_counters =
  [
    "engine.call_lookups";
    "engine.call_hits";
    "engine.call_misses";
    "engine.answers_offered";
    "engine.answers_inserted";
    "engine.answers_deduped";
    "engine.answers_retracted";
    "engine.consumer_resumptions";
    "unify.attempts";
    "unify.failures";
    "hashcons.hits";
    "hashcons.misses";
    "intern.symbols";
    "trie.nodes";
    "trie.prefix_hits";
  ]

(* what a spliced re-run records instead: the planner's SCC counts and
   the invalidated cone (a gauge, in permille) *)
let incr_counters =
  [ "incr.sccs"; "incr.invalidated"; "incr.spliced"; "incr.cone_frac" ]

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

(* One repeat of one cell, counters reset around it so they describe
   exactly this repetition: the report, with any injected slowdown
   billed to its evaluate phase, and the recorded counters. *)
let sweep_once c =
  Metrics.reset ();
  let guard =
    match c.budget with Some b -> Guard.of_spec b | None -> bench_guard ()
  in
  let rep =
    Analysis.run c.analysis ~config:c.config ~guard ?cache:c.cache
      c.prog.p_source
  in
  let snap = Metrics.snapshot () in
  let value name =
    match
      List.find_opt
        (fun (s : Metrics.sample) -> s.Metrics.name = name)
        (snap.Metrics.counters @ snap.Metrics.gauges)
    with
    | Some s -> float_of_int s.Metrics.value
    | None -> 0.
  in
  let p = rep.Analysis.phases in
  let slow =
    injected_slowdown ~analysis:c.analysis.Analysis.name ~name:c.prog.p_name
  in
  ( {
      rep with
      Analysis.phases =
        { p with Analysis.analysis = p.Analysis.analysis +. slow };
    },
    List.map
      (fun n -> (n, value n))
      (if c.cache = None then tracked_counters else incr_counters) )

let log_file (r : Benchrun.row) =
  Printf.sprintf "%s-%s.log" r.Benchrun.r_analysis r.Benchrun.r_name

(* The repeat-sampling loop: one row per cell, in order, plus one log per
   row with the per-repeat raw samples. *)
let sweep ~repeats cells =
  let measure c =
    (* one untimed warm-up: the cold first execution of a cell can run
       an order of magnitude slower (heap growth, cold caches) and would
       pollute q3/IQR *)
    ignore (sweep_once c);
    let runs =
      List.init repeats (fun _ ->
          (* settle the GC so a pending major slice from the previous
             cell doesn't land in this one — without this, adjacent
             cells' times trade off between otherwise-identical runs *)
          Gc.full_major ();
          sweep_once c)
    in
    let reps = List.map fst runs in
    let stats f = Benchrun.stats_of (List.map f reps) in
    let seconds (r : Analysis.report) = Analysis.total r.Analysis.phases in
    let total = stats seconds in
    (* the representative repeat (status): the one whose total lands
       closest to the median *)
    let off r = Float.abs (seconds r -. total.Benchrun.median) in
    let repr =
      List.fold_left
        (fun a b -> if off b < off a then b else a)
        (List.hd reps) reps
    in
    let rep, counters = List.nth runs (repeats - 1) in
    let row =
      {
        Benchrun.r_analysis = c.analysis.Analysis.name;
        r_name = c.prog.p_name;
        r_config = rep.Analysis.config;
        r_status = status_cell repr.Analysis.status;
        r_source_lines =
          (match rep.Analysis.source_lines with
          | Some _ as l -> l
          | None -> c.prog.p_lines);
        r_clause_count = rep.Analysis.clause_count;
        r_phases =
          [
            ("preprocess", stats (fun r -> r.Analysis.phases.Analysis.preproc));
            ("evaluate", stats (fun r -> r.Analysis.phases.Analysis.analysis));
            ("collect", stats (fun r -> r.Analysis.phases.Analysis.collection));
          ];
        r_total = total;
        r_table_bytes = stats (fun r -> float_of_int r.Analysis.table_bytes);
        r_engine =
          (match rep.Analysis.engine with
          | Some e ->
              [
                ("table_entries", e.Analysis.table_entries);
                ("answers", e.Analysis.answers);
                ("resumptions", e.Analysis.resumptions);
              ]
          | None -> []);
        (* counters come from the LAST repeat: with the process warmed
           up they are deterministic for a given binary and matrix
           order, so A/B counter deltas reflect code changes, not
           cold-start effects of whichever repeat won the median *)
        r_counters = counters;
      }
    in
    let log =
      String.concat ""
        (List.mapi
           (fun i (r : Analysis.report) ->
             let p = r.Analysis.phases in
             Printf.sprintf
               "repeat %d: total=%.6f preprocess=%.6f evaluate=%.6f \
                collect=%.6f table_bytes=%d status=%s\n"
               (i + 1) (seconds r) p.Analysis.preproc p.Analysis.analysis
               p.Analysis.collection r.Analysis.table_bytes
               (status_cell r.Analysis.status))
           reps)
    in
    (row, (log_file row, log))
  in
  let measured = List.map measure cells in
  Metrics.reset ();
  List.split measured

let print_row (r : Benchrun.row) =
  Printf.printf "  %-10s %-10s median %8.4fs  iqr %8.4fs  table %7.0fB  %s\n%!"
    r.Benchrun.r_analysis r.Benchrun.r_name r.Benchrun.r_total.Benchrun.median
    (Benchrun.iqr r.Benchrun.r_total)
    r.Benchrun.r_table_bytes.Benchrun.median r.Benchrun.r_status

(* ------------------------------------------------------------------ *)
(* Tables rendered from cells                                          *)
(* ------------------------------------------------------------------ *)

(* A printed column: header, printf width (negative pads on the right),
   and its text for one program given the rows of that program's cells,
   looked up by side label. *)
type column = {
  head : string;
  width : int;
  text : program -> (string -> Benchrun.row option) -> string;
}

(* Measure every program of [corpus] under each side — a side returns
   [None] for a program it skips (an infeasible or too-slow cell) — and
   print one line per program, column groups separated by " | ".
   Returns every measured row. *)
let print_table ~title ~repeats ~corpus ~sides groups =
  section title;
  let print text =
    print_endline
      (String.concat " | "
         (List.map
            (fun group ->
              String.concat " "
                (List.map
                   (fun c -> Printf.sprintf "%*s" c.width (text c))
                   group))
            groups))
  in
  print (fun c -> c.head);
  List.concat_map
    (fun p ->
      let labels, cells =
        List.split
          (List.filter_map
             (fun (label, side) -> Option.map (fun c -> (label, c)) (side p))
             sides)
      in
      let rows, _ = sweep ~repeats cells in
      let by_side = List.combine labels rows in
      print (fun c -> c.text p (fun s -> List.assoc_opt s by_side));
      rows)
    corpus

(* [side aname config] measures every program [keep] admits *)
let side ?(keep = fun _ -> true) ?budget aname config p =
  if keep p.p_name then
    Some
      (cell
         ?budget:(Option.map (fun f -> f p) budget)
         (Option.get (Analysis.find aname))
         config p)
  else None

let column head width text = { head; width; text }
let program_col width = column "Program" (-width) (fun p _ -> p.p_name)

(* a column of one side's row; [missing] where the side skipped the
   program *)
let on ?(missing = "-") s head width f =
  column head width (fun _ row ->
      match row s with Some r -> f r | None -> missing)

let phase ph (r : Benchrun.row) =
  (List.assoc ph r.Benchrun.r_phases).Benchrun.median

let total (r : Benchrun.row) = r.Benchrun.r_total.Benchrun.median
let secs f r = Printf.sprintf "%.4f" (f r)

let bytes (r : Benchrun.row) =
  string_of_int (int_of_float r.Benchrun.r_table_bytes.Benchrun.median)

let count field (r : Benchrun.row) =
  match List.assoc_opt field r.Benchrun.r_engine with
  | Some n -> string_of_int n
  | None -> "-"

let status (r : Benchrun.row) = r.Benchrun.r_status

(* Tables 1, 3 and 4: one analysis under the paper's columns — [lead]
   (the program), phase times, [extra] and table space, engine counts,
   status and budget *)
let paper_table ~title ~corpus ~analysis:s ~config ~lead ~extra =
  print_table ~title ~repeats:3 ~corpus ~sides:[ (s, side s config) ]
    [
      lead;
      [
        on s "Preproc" 8 (secs (phase "preprocess"));
        on s "Analysis" 8 (secs (phase "evaluate"));
        on s "Collect" 8 (secs (phase "collect"));
        on s "Total" 8 (secs total);
      ];
      [ extra; on s "Table(B)" 10 bytes ];
      [
        on s "Entries" 7 (count "table_entries");
        on s "Answers" 7 (count "answers");
        on s "Resump" 7 (count "resumptions");
      ];
      [ on s "Status" (-8) status; column "Budget" 0 (fun _ _ -> budget_cell) ];
    ]

(* the paper's "Incr. %": analysis time as a percentage of the time to
   compile the program *)
let incr_col s =
  column "Incr.(%)" 8 (fun p row ->
      match row s with
      | Some r ->
          Printf.sprintf "%.1f"
            (100. *. total r
            /. Float.max 1e-9 (Groundness.Analyze.compile_time p.p_source))
      | None -> "-")

let table1 () =
  ignore
    (paper_table
       ~title:
         "Table 1: performance of Prop-based groundness analysis (tabled \
          engine, dynamic mode)"
       ~corpus:logic_corpus ~analysis:"groundness" ~config:[]
       ~lead:
         [
           program_col 8;
           column "lines" 5 (fun p _ -> string_of_int (Option.get p.p_lines));
         ]
       ~extra:(incr_col "groundness"))

let table2 () =
  let paper p =
    match Benchdata.Registry.find_logic p.p_name with
    | Some { Benchdata.Registry.table1 = Some row; gaia_total = Some g; _ } ->
        Printf.sprintf "%.2f vs %.2f" row.Benchdata.Registry.total g
    | _ -> "-"
  in
  ignore
    (print_table
       ~title:
         "Table 2: total analysis time, tabled declarative analyzer (\"XSB\") \
          vs special-purpose abstract interpreter (\"GAIA\", BDD back-end)"
       ~repeats:3 ~corpus:logic_corpus
       ~sides:
         [
           ("tabled", side "groundness" []);
           ("gaia", side "gaia" [ ("backend", "bdd") ]);
         ]
       [
         [ program_col 8 ];
         [
           on "tabled" "tabled(s)" 10 (secs total);
           on "gaia" "gaia(s)" 10 (secs total);
         ];
         [ column "paper: XSB vs GAIA (s)" 0 (fun p _ -> paper p) ];
       ])

let table3 () =
  let s = "strictness" in
  let lines (r : Benchrun.row) = Option.get r.Benchrun.r_source_lines in
  let rows =
    paper_table
      ~title:"Table 3: performance of strictness analysis (tabled engine)"
      ~corpus:fp_corpus ~analysis:s ~config:[]
      ~lead:[ program_col 10; on s "lines" 5 (fun r -> string_of_int (lines r)) ]
      ~extra:
        (on s "lines/s" 9 (fun r ->
             Printf.sprintf "%.0f"
               (float_of_int (lines r) /. Float.max 1e-9 (total r))))
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  Printf.printf "\nThroughput over the whole corpus: %.0f source lines/second\n"
    (sum (fun r -> float_of_int (lines r)) /. Float.max 1e-9 (sum total))

let table4 () =
  ignore
    (paper_table
       ~title:
         "Table 4: groundness analysis with depth-k term abstraction (k=1; \
          the paper's Table 4 also omits gabriel/press1/press2)"
       ~corpus:table4_corpus ~analysis:"depthk" ~config:[ ("k", "1") ]
       ~lead:[ program_col 8 ]
       ~extra:(incr_col "depthk"))

(* worst-case groundness, dynamic vs def under the registry step budgets *)
let stress () =
  let steps p =
    (Option.get (Benchdata.Registry.find_stress p.p_name))
      .Benchdata.Registry.max_steps
  in
  let mode m =
    side
      ~budget:(fun p -> Guard.spec ~max_steps:(steps p) ())
      "groundness" [ ("mode", m) ]
  in
  let cols s w =
    [
      on s s (-w) status;
      on s "total(s)" 10 (secs total);
      on s "Table(B)" 10 bytes;
    ]
  in
  ignore
    (print_table
       ~title:
         "Stress: worst-case groundness programs (examples/stress/, after \
          Genaim-Howe-Codish) - tabled Prop (mode=dynamic) vs def-domain fast \
          path (mode=def) under the registry step budgets"
       ~repeats:1 ~corpus:stress_corpus
       ~sides:[ ("dynamic", mode "dynamic"); ("def", mode "def") ]
       [
         [
           program_col 12;
           column "budget" 8 (fun p _ -> string_of_int (steps p));
         ];
         cols "dynamic" 16 @ [ on "dynamic" "answers" 8 (count "answers") ];
         cols "def" 10;
       ])

let ablation_dynvscomp () =
  let mode m = side "groundness" [ ("mode", m) ] in
  let times s prefix =
    [
      on s (prefix ^ "-pre") 9 (secs (phase "preprocess"));
      on s (prefix ^ "-eval") 9 (secs (phase "evaluate"));
      on s (prefix ^ "-tot") 9 (secs total);
    ]
  in
  let winner _ row =
    match (row "dynamic", row "compiled") with
    | Some d, Some c -> if total d <= total c then "dynamic" else "compiled"
    | _ -> "-"
  in
  ignore
    (print_table
       ~title:
         "Ablation (Section 4 prose): dynamic (assert + interpret) vs full \
          compilation of the analysis rules"
       ~repeats:3 ~corpus:logic_corpus
       ~sides:[ ("dynamic", mode "dynamic"); ("compiled", mode "compiled") ]
       [
         [ program_col 8 ];
         times "dynamic" "dyn";
         times "compiled" "comp";
         [ column "winner" 0 winner ];
       ])

(* kalah/read: the truth-table back-end cannot represent their widest
   clauses (>20 variables); press2 takes over half a minute *)
let bitset_infeasible = [ "kalah"; "read"; "press2" ]

let ablation_repr () =
  let backend b =
    side ~keep:(fun n -> not (List.mem n bitset_infeasible)) "gaia"
      [ ("backend", b) ]
  in
  ignore
    (print_table
       ~title:
         "Ablation (Section 4 prose): boolean-function representation in the \
          special-purpose analyzer - enumerated truth tables vs BDDs"
       (* one timed run: the slow side of this ablation is the datum *)
       ~repeats:1 ~corpus:logic_corpus
       ~sides:[ ("bitset", backend "bitset"); ("bdd", backend "bdd") ]
       [
         [ program_col 8 ];
         [
           on ~missing:"(infeasible)" "bitset" "bitset(s)" 12 (secs total);
           on "bdd" "bdd(s)" 12 (secs total);
         ];
       ])

(* with answer subsumption every program completes either way (the
   slowest nosupp evaluation takes milliseconds): the status columns
   show it, and the datum is the cost of the unfolded bodies *)
let ablation_supp () =
  let supp v = side "strictness" [ ("supplementary", v) ] in
  ignore
    (print_table
       ~title:
         "Ablation (Section 4.2): supplementary tabling for the strictness \
          analyzer (the optimization the paper proposes but leaves \
          unevaluated)"
       ~repeats:1 ~corpus:fp_corpus
       ~sides:[ ("on", supp "true"); ("off", supp "false") ]
       [
         [ program_col 10 ];
         [
           on "on" "supp-on" 10 (secs total);
           on "off" "supp-off" 10 (secs total);
         ];
         [
           on "on" "resump-on" 12 (count "resumptions");
           on "off" "resump-off" 12 (count "resumptions");
         ];
         [
           on "on" "status-on" (-10) status;
           on "off" "status-off" 0 status;
         ];
       ])

let k2_feasible = [ "qsort"; "queens"; "pg"; "gabriel"; "disj"; "cs"; "peep" ]

let ablation_depthk () =
  let k keep v = side ~keep "depthk" [ ("k", v) ] in
  let cols ?missing s head =
    [
      on ?missing s head 10 (secs total);
      on s "answers" 8 (count "answers");
      on s "entries" 8 (count "table_entries");
    ]
  in
  ignore
    (print_table
       ~title:"Ablation: depth-k sweep (k = 1 vs k = 2, where tractable)"
       ~repeats:1 ~corpus:logic_corpus
       ~sides:
         [
           ("k1", k (fun _ -> true) "1");
           ("k2", k (fun n -> List.mem n k2_feasible) "2");
         ]
       [
         [ program_col 8 ];
         cols "k1" "k=1(s)";
         cols ~missing:"(slow)" "k2" "k=2(s)";
       ])

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
          let t_tab =
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
            Unix.gettimeofday () -. t0
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
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
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
  List.map (fun p -> ("groundness", p, Incr.Mutate.mutate_pl)) logic_corpus
  @ List.map (fun p -> ("strictness", p, Incr.Mutate.mutate_eq)) fp_corpus

type incr_row = {
  ir_edit : int;  (* mutation count applied to the base source *)
  ir_scratch : Benchrun.row;
  ir_spliced : Benchrun.row;  (* its counters are [incr_counters] *)
}

(* Speedup over the phases the splice can help (evaluate + collect):
   both runs parse the same edited source, so including preprocess
   would only dilute the signal on small programs. *)
let work r = phase "evaluate" r +. phase "collect" r
let ir_speedup r = work r.ir_scratch /. Float.max (work r.ir_spliced) 1e-9

let ir_count r name =
  int_of_float (List.assoc name r.ir_spliced.Benchrun.r_counters)

let incr_sweep () =
  List.concat_map
    (fun (aname, p, mut) ->
      let a = Option.get (Analysis.find aname) in
      let base = Analysis.memory_cache () in
      ignore (Analysis.run a ~guard:(bench_guard ()) ~cache:base p.p_source);
      let frozen = { base with Analysis.cache_save = (fun _ _ -> ()) } in
      List.filter_map
        (fun n ->
          Option.map
            (fun edited ->
              let scratch = cell a [] { p with p_source = edited } in
              let spliced = { scratch with cache = Some frozen } in
              match fst (sweep ~repeats:3 [ scratch; spliced ]) with
              | [ s; sp ] -> { ir_edit = n; ir_scratch = s; ir_spliced = sp }
              | _ -> assert false)
            (Incr.Mutate.apply_n ~seed:1 ~n mut p.p_source))
        incr_edit_sizes)
    (incr_matrix ())

let median xs = (Benchrun.stats_of xs).Benchrun.median

(* one line per row, the median speedup per edit distance, and the
   median over the acceptance slice *)
let print_incr rows =
  List.iter
    (fun r ->
      Printf.printf
        "  %-10s %-10s edit %2d  scratch %8.4fs  spliced %8.4fs  %6.1fx  \
         cone %4d/1000 (%d/%d sccs)\n"
        r.ir_scratch.Benchrun.r_analysis r.ir_scratch.Benchrun.r_name r.ir_edit
        (work r.ir_scratch) (work r.ir_spliced) (ir_speedup r)
        (ir_count r "incr.cone_frac")
        (ir_count r "incr.invalidated")
        (ir_count r "incr.sccs"))
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
           r.ir_edit = 1
           && ir_count r "incr.sccs" > 1
           && work r.ir_scratch >= amortizable_floor)
    |> List.map ir_speedup
  with
  | [] -> ()
  | sp ->
      Printf.printf
        "  median speedup, single-clause edits on multi-SCC programs (>= \
         %.0fms scratch work): %6.1fx\n"
        (amortizable_floor *. 1000.) (median sp)

let incremental () =
  section
    "Incremental re-analysis: spliced re-run vs scratch per edit distance \
     (docs/INCREMENTAL.md)";
  print_incr (incr_sweep ())

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark dump: BENCH_engine.json                  *)
(* ------------------------------------------------------------------ *)

let bench_json_file = "BENCH_engine.json"

(* The registry matrix as prax.bench rows — the median of 3 repeats per
   cell, from the same loop and row encoder as [bench run] — plus the
   incremental matrix.  The perf trajectory across PRs is tracked by
   diffing these files; docs/PERFORMANCE.md explains how to read one. *)
let benchjson () =
  section
    ("Machine-readable engine benchmarks -> " ^ bench_json_file
   ^ " (every registered analysis over its corpus; docs/PERFORMANCE.md \
      explains the fields)");
  let rows, _ = sweep ~repeats:3 (matrix ()) in
  List.iter print_row rows;
  (* the incremental section: scratch-vs-spliced re-analysis per edit
     distance, same deterministic matrix as the [incremental] console
     section (prax.bench v3 is additive over v2) *)
  let phases_json (r : Benchrun.row) =
    Metrics.Obj
      (List.map
         (fun (ph, s) -> (ph, Metrics.Float s.Benchrun.median))
         r.Benchrun.r_phases)
  in
  let incr = incr_sweep () in
  print_incr incr;
  let incr_rows =
    List.map
      (fun r ->
        Metrics.Obj
          [
            ("name", Metrics.Str r.ir_scratch.Benchrun.r_name);
            ("analysis", Metrics.Str r.ir_scratch.Benchrun.r_analysis);
            ("edit_clauses", Metrics.Int r.ir_edit);
            ("scratch", phases_json r.ir_scratch);
            ("spliced", phases_json r.ir_spliced);
            ("speedup", Metrics.Float (ir_speedup r));
            ("sccs", Metrics.Int (ir_count r "incr.sccs"));
            ("invalidated", Metrics.Int (ir_count r "incr.invalidated"));
            ("spliced_sccs", Metrics.Int (ir_count r "incr.spliced"));
            ("cone_frac_permille", Metrics.Int (ir_count r "incr.cone_frac"));
          ])
      incr
  in
  let doc =
    Metrics.Obj
      [
        ("schema", Metrics.Str "prax.bench");
        ("schema_version", Metrics.Int 3);
        ("stats_schema_version", Metrics.Int Metrics.schema_version);
        ("report_schema_version", Metrics.Int Analysis.report_schema_version);
        ("benchmarks", Metrics.Arr (List.map Benchrun.row_to_json rows));
        ("incremental", Metrics.Arr incr_rows);
      ]
  in
  Out_channel.with_open_text bench_json_file (fun oc ->
      output_string oc (Metrics.json_to_string doc ^ "\n"));
  Printf.printf "wrote %s (%d rows)\n" bench_json_file (List.length rows)

(* ------------------------------------------------------------------ *)
(* Batch: supervised worker overhead and store warm-start             *)
(* ------------------------------------------------------------------ *)

(* Quantifies what OS-process isolation costs (a fork per worker slot
   and a request/result-frame round trip per job, vs calling the
   analyzer in-process) and what the persistent store buys back (a warm
   second run answers every job from snapshots without forking at all).
   Jobs run the production job body ([Analyses.run_job], a prax.report
   frame) under the production store key.  docs/ROBUSTNESS.md describes
   the supervision protocol and the snapshot format. *)
let batch () =
  section
    "Batch: supervised worker overhead vs in-process, and \
     persistent-store warm start";
  let a = Option.get (Analysis.find "groundness") in
  let config = a.Analysis.defaults in
  let jobs = [ "cs"; "disj"; "gabriel"; "qsort"; "queens"; "read" ] in
  let serve =
    {
      Serve.default_config with
      Serve.jobs = 2;
      budget = Guard.spec ~timeout:bench_timeout ();
    }
  in
  let run_job ~job ~guard =
    Analyses.run_job a ~config ~guard ~input:job (src job)
  in
  let worker ~job ~attempt:_ ~guard = run_job ~job ~guard in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let inproc, () =
    time (fun () ->
        List.iter (fun job -> ignore (run_job ~job ~guard:(bench_guard ()))) jobs)
  in
  let cold, _ = time (fun () -> Serve.run_batch ~config:serve ~worker jobs) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-bench-store.%d" (Unix.getpid ()))
  in
  let store = Store.open_dir dir in
  let key_of job = Analyses.store_key a ~config (src job) in
  let cached ~job = Store.load store (key_of job) in
  let persist ~job ~payload = Store.save store (key_of job) payload in
  Metrics.reset ();
  let cold_store, _ =
    time (fun () -> Serve.run_batch ~config:serve ~cached ~persist ~worker jobs)
  in
  let writes = Metrics.counter_value "store.writes" in
  Metrics.reset ();
  let warm, reports =
    time (fun () -> Serve.run_batch ~config:serve ~cached ~persist ~worker jobs)
  in
  let hits = Metrics.counter_value "store.hits" in
  let forks = Metrics.counter_value "serve.workers_spawned" in
  let n = List.length jobs in
  let pct a b = 100. *. (a -. b) /. b in
  Printf.printf "  %d groundness jobs, %d concurrent workers\n" n
    serve.Serve.jobs;
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
    List.concat_map
      (fun (flag, f) ->
        Option.fold ~none:[] ~some:(fun l -> [ flag; String.concat "," l ]) f)
      [ ("--analyses", o.analyses); ("--benchmarks", o.benchmarks) ]
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
  let rows =
    Benchrun.pool_rows
      (List.map
         (fun d ->
           match Benchrun.load_run d with
           | Ok run -> run.Benchrun.rows
           | Error msg -> usage_fail "bench run: shard unreadable: %s" msg)
         shard_dirs)
  in
  (* merge the per-cell logs, one "# shard i" block per process *)
  let logs =
    List.map
      (fun r ->
        let file = log_file r in
        ( file,
          String.concat ""
            (List.mapi
               (fun i d ->
                 let path = Filename.concat (Filename.concat d "logs") file in
                 if Sys.file_exists path then
                   Printf.sprintf "# shard %d\n%s" (i + 1)
                     (In_channel.with_open_bin path In_channel.input_all)
                 else "")
               shard_dirs) ))
      rows
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  (try rm tmp with Sys_error _ -> ());
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
  let wanted filter x =
    match filter with None -> true | Some l -> List.mem x l
  in
  let rows, logs =
    if o.shards > 1 && o.repeats > 1 then sharded_sweep o
    else
      sweep ~repeats:o.repeats
        (List.filter
           (fun c ->
             wanted o.analyses c.analysis.Analysis.name
             && wanted o.benchmarks c.prog.p_name)
           (matrix ()))
  in
  if rows = [] then
    usage_fail "bench run: the filters selected no (analysis x benchmark) cells";
  List.iter print_row rows;
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
        let filter given field =
          String.concat ","
            (match given with
            | Some l -> l
            | None -> List.sort_uniq compare (List.map field base.Benchrun.rows))
        in
        let id =
          cmd_run
            ([ "--repeats"; string_of_int o.repeats;
               "--shards"; string_of_int o.shards;
               "--runs-dir"; o.runs_dir;
               "--analyses"; filter o.analyses (fun r -> r.Benchrun.r_analysis);
               "--benchmarks"; filter o.benchmarks (fun r -> r.Benchrun.r_name);
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
    ("ablation_depthk", ablation_depthk);
    ("ablation_opencall", ablation_opencall);
    ("ext_dataflow", ext_dataflow);
    ("ext_widening", ext_widening);
    ("ext_types", ext_types);
    ("incremental", incremental);
    ("benchjson", benchjson);
    ("micro", micro);
    ("batch", batch);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "run" :: rest -> ignore (cmd_run rest)
  | "ab" :: rest -> cmd_ab rest
  | "gate" :: rest -> cmd_gate rest
  | [] -> List.iter (fun (_, f) -> f ()) sections
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

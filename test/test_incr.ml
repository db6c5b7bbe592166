(* Incremental re-analysis (docs/INCREMENTAL.md): the dependency graph
   and its closure digests invalidate exactly the dependent cone, the
   fragment codec round-trips and degrades corrupt payloads to misses,
   spliced tables are byte-identical to from-scratch ones, and — the
   oracle the whole feature hangs on — a deterministic mutation sweep
   over the full corpus asserting the incremental report equals the
   from-scratch report after every edit. *)

open Prax_logic
module Engine = Prax_tabling.Engine
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics
module Store = Prax_store.Store
module Depgraph = Prax_incr.Depgraph
module Incr = Prax_incr.Incr
module Mutate = Prax_incr.Mutate
module Registry = Prax_benchdata.Registry

let () = Prax_analyses.Analyses.ensure ()
let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* first-occurrence textual replacement (avoids a Str dependency) *)
let replace ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "replace: %S not found" sub
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let analysis name =
  match Analysis.find name with
  | Some a -> a
  | None -> Alcotest.failf "analysis %s not registered" name

let logic_src name =
  match Registry.find_logic name with
  | Some b -> b.Registry.source
  | None -> Alcotest.failf "no logic benchmark %s" name

(* --- dependency graph ---------------------------------------------------- *)

(* A five-SCC program: {p,q} mutual, r a fact, s over r, t over s and
   the *undefined* u — undefined-but-called predicates must be graph
   nodes, or gaining clauses later would not invalidate their callers. *)
let diamond =
  "p(X) :- q(X), r(X).\n\
   q(X) :- p(X).\n\
   q(a).\n\
   r(a).\n\
   s(X) :- r(X).\n\
   t(X) :- s(X), u(X).\n"

let graph src = Depgraph.build (Parser.parse_clauses src)

let scc g p =
  match Depgraph.scc_of g p with
  | Some i -> i
  | None -> Alcotest.failf "%s/%d has no SCC" (fst p) (snd p)

let test_condensation () =
  let g = graph diamond in
  check_i "five SCCs" 5 (Depgraph.scc_count g);
  check_i "p and q share an SCC" (scc g ("p", 1)) (scc g ("q", 1));
  check_b "undefined u is a node" true
    (List.mem ("u", 1) (Depgraph.preds g));
  Alcotest.(check (list (pair string int)))
    "members sorted"
    [ ("p", 1); ("q", 1) ]
    (Depgraph.members g (scc g ("p", 1)));
  (* reverse topological ids: callees first *)
  check_b "callee r below caller {p,q}" true (scc g ("r", 1) < scc g ("p", 1));
  check_b "callee r below caller s" true (scc g ("r", 1) < scc g ("s", 1));
  check_b "callee s below caller t" true (scc g ("s", 1) < scc g ("t", 1));
  check_b "callee u below caller t" true (scc g ("u", 1) < scc g ("t", 1));
  Alcotest.(check (list int))
    "condensation successors of t, sorted, no self"
    (List.sort compare [ scc g ("s", 1); scc g ("u", 1) ])
    (Depgraph.succs g (scc g ("t", 1)));
  check_i "t has two clauses? no — one" 1
    (List.length (Depgraph.clauses_of g ("t", 1)));
  check_i "undefined u has no clauses" 0
    (List.length (Depgraph.clauses_of g ("u", 1)))

let test_cone () =
  let g = graph diamond in
  (* everything that can reach r: {p,q}, r itself, s, t — not u *)
  Alcotest.(check (list int))
    "cone of an edit to r"
    (List.sort compare
       [ scc g ("r", 1); scc g ("p", 1); scc g ("s", 1); scc g ("t", 1) ])
    (Depgraph.dependent_cone g [ ("r", 1) ]);
  Alcotest.(check (list int))
    "cone of the undefined u is u and its caller"
    (List.sort compare [ scc g ("u", 1); scc g ("t", 1) ])
    (Depgraph.dependent_cone g [ ("u", 1) ]);
  Alcotest.(check (list int))
    "cone of the top SCC is itself"
    [ scc g ("t", 1) ]
    (Depgraph.dependent_cone g [ ("t", 1) ])

(* Digests are a pure function of the canonical clause text, and the set
   of SCCs whose closure digest changes under an edit is exactly the
   dependent cone — the soundness condition for cache invalidation. *)
let test_digests () =
  let g1 = graph diamond and g2 = graph diamond in
  List.iter
    (fun p ->
      check_s
        (Printf.sprintf "digest of %s/%d stable across builds" (fst p) (snd p))
        (Depgraph.pred_digest g1 p) (Depgraph.pred_digest g2 p))
    (Depgraph.preds g1);
  (* variable names do not matter: the rendering is canonical *)
  let g_renamed =
    graph (String.concat "Zz" (String.split_on_char 'X' diamond))
  in
  check_s "alpha-renaming preserves digests"
    (Depgraph.pred_digest g1 ("p", 1))
    (Depgraph.pred_digest g_renamed ("p", 1));
  (* edit r's fact; the graph shape is unchanged, so SCC ids align *)
  let g3 =
    graph (replace ~sub:"r(a)." ~by:"r(b)." diamond)
  in
  check_b "edited predicate digest changes" true
    (Depgraph.pred_digest g1 ("r", 1) <> Depgraph.pred_digest g3 ("r", 1));
  check_s "unrelated predicate digest unchanged"
    (Depgraph.pred_digest g1 ("t", 1))
    (Depgraph.pred_digest g3 ("t", 1));
  let cone = Depgraph.dependent_cone g1 [ ("r", 1) ] in
  List.iter
    (fun p ->
      let changed =
        Depgraph.closure_digest g1 (scc g1 p)
        <> Depgraph.closure_digest g3 (scc g3 p)
      in
      check_b
        (Printf.sprintf "closure digest of %s/%d changed iff in cone" (fst p)
           (snd p))
        (List.mem (scc g1 p) cone)
        changed)
    (Depgraph.preds g1)

(* --- fragment codec ------------------------------------------------------ *)

(* Capture the payloads a real run persists: every one must decode, and
   re-encoding must reproduce the payload byte-for-byte (the codec is a
   fixpoint of its own round-trip, same property as dump_tables). *)
let recording_cache () =
  let tbl : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let saved = ref [] in
  ( {
      Analysis.cache_load = (fun k -> Hashtbl.find_opt tbl k);
      cache_save =
        (fun k v ->
          saved := (k, v) :: !saved;
          Hashtbl.replace tbl k v);
    },
    saved )

let test_codec_roundtrip () =
  let a = analysis "groundness" in
  let cache, saved = recording_cache () in
  ignore (Analysis.run_incr a ~cache (logic_src "qsort"));
  check_b "a fresh run persists fragments" true (!saved <> []);
  List.iter
    (fun (k, payload) ->
      match Incr.fragment_of_string payload with
      | None -> Alcotest.failf "persisted fragment %s does not decode" k
      | Some records ->
          check_b "fragments are non-empty" true (records <> []);
          check_s
            (Printf.sprintf "fragment %s re-encodes byte-identically" k)
            payload
            (Incr.fragment_to_string records))
    !saved

let test_codec_corruption () =
  (* gp_p(true) / gp_q(V0) in the preorder length-prefixed encoding;
     the answer is a back-reference to node 1 (postorder: true=0,
     gp_p(true)=1), exactly as the sharing encoder would emit it *)
  let sample =
    "prax.incr.fragment 2\n\
     e f4:gp_p/1 a4:true\n\
     a r1\n\
     s f4:gp_q/1 v0\n"
  in
  check_b "well-formed sample decodes" true
    (Incr.fragment_of_string sample <> None);
  List.iter
    (fun (label, payload) ->
      check_b (label ^ " degrades to a miss") true
        (Incr.fragment_of_string payload = None))
    [
      ("empty payload", "");
      ("old format version", "prax.incr.fragment 1\ne gp_p(true)\n");
      ("missing magic", "e f4:gp_p/1 a4:true\n");
      ("unknown record tag", "prax.incr.fragment 2\nz f4:gp_p/1 a4:true\n");
      ( "answer before any entry",
        "prax.incr.fragment 2\na f4:gp_p/1 a4:true\n" );
      ("unknown term tag", "prax.incr.fragment 2\ne x4:gp_p/1 a4:true\n");
      ("missing argument", "prax.incr.fragment 2\ne f4:gp_p/1\n");
      ("name length overruns", "prax.incr.fragment 2\ne a999:true\n");
      ("zero arity", "prax.incr.fragment 2\ne f4:gp_p/0\n");
      ( "back-reference to an undefined node",
        "prax.incr.fragment 2\ne f4:gp_p/1 r7\n" );
      ("truncated mid-token", String.sub sample 0 (String.length sample - 3));
    ]

(* --- table splice -------------------------------------------------------- *)

let run_open_goals e preds =
  List.iter
    (fun p ->
      ignore (Engine.run_status e (Prax_ground.Analyze.open_goal p) (fun _ -> ())))
    preds

let ground_engine src =
  Prax_ground.Analyze.prepare ~mode:Database.Dynamic ~guard:Guard.unlimited
    (Parser.parse_clauses src)

let run_incr_tabled ~cache src =
  let abstract, preds, e = ground_engine src in
  match
    Incr.run_tabled
      ~cache:{ Incr.fragments = cache; table_class = "prop" }
      ~engine:e ~clauses:abstract
      ~goals:(List.map Prax_ground.Analyze.open_goal preds)
      ()
  with
  | status, Some outcome -> (e, status, outcome)
  | _, None -> Alcotest.fail "a cached run reports its outcome"

(* Satellite lock: a fully spliced engine dumps its tables byte-identical
   to a from-scratch engine — call table, answers, and the space
   estimate all match, because the splice restores the exact demanded
   call-variant set and trie shape is a function of the key set. *)
let test_splice_dump_identity () =
  let src = logic_src "qsort" in
  let _, preds, e_scratch = ground_engine src in
  run_open_goals e_scratch preds;
  let d_scratch = Engine.dump_tables e_scratch in
  let cache = Analysis.memory_cache () in
  let e_cold, st_cold, o_cold = run_incr_tabled ~cache src in
  check_b "cold run complete" true (st_cold = Guard.Complete);
  check_s "cold incremental dump == scratch dump" d_scratch
    (Engine.dump_tables e_cold);
  check_i "cold run invalidates everything" o_cold.Incr.sccs
    o_cold.Incr.invalidated;
  check_i "cold run splices nothing" 0 o_cold.Incr.spliced;
  let e_warm, st_warm, o_warm = run_incr_tabled ~cache src in
  check_b "warm run complete" true (st_warm = Guard.Complete);
  check_i "warm run splices every SCC" o_warm.Incr.sccs o_warm.Incr.spliced;
  check_i "warm run invalidates nothing" 0 o_warm.Incr.invalidated;
  check_b "warm run installed entries by splice" true
    (Engine.spliced_entries e_warm > 0);
  check_s "spliced dump_tables byte-identical to scratch" d_scratch
    (Engine.dump_tables e_warm);
  check_i "table space estimate identical"
    (Engine.table_space_bytes e_scratch)
    (Engine.table_space_bytes e_warm)

(* A single-clause edit of a multi-SCC program invalidates a proper
   subset of the condensation (the CI job asserts the same property
   through the CLI as incr.cone_frac < 1000 permille). *)
let test_partial_invalidation () =
  let base =
    "leaf(a).\nleaf(b).\nmid1(X) :- leaf(X).\nmid2(X) :- mid1(X), leaf(X).\n\
     top(X) :- mid2(X).\n"
  in
  let edited =
    replace ~sub:"top(X) :- mid2(X)." ~by:"top(X) :- mid2(X), leaf(X)."
      base
  in
  let cache = Analysis.memory_cache () in
  let _, st0, _ = run_incr_tabled ~cache base in
  check_b "populate run complete" true (st0 = Guard.Complete);
  let e, st, o = run_incr_tabled ~cache edited in
  check_b "edited run complete" true (st = Guard.Complete);
  check_b "multi-SCC condensation" true (o.Incr.sccs > 1);
  check_i "only the edited top SCC recomputes" 1 o.Incr.invalidated;
  check_i "every other SCC splices" (o.Incr.sccs - 1) o.Incr.spliced;
  check_b "splice installed entries" true (Engine.spliced_entries e > 0);
  (* and the spliced result still equals scratch *)
  let _, preds, e_scratch = ground_engine edited in
  run_open_goals e_scratch preds;
  check_s "edited incremental dump == scratch dump"
    (Engine.dump_tables e_scratch) (Engine.dump_tables e)

(* --- the incremental-vs-scratch oracle ------------------------------------ *)

let status_str = function
  | Guard.Complete -> "complete"
  | Guard.Partial _ -> "partial"

(* What the oracle compares: everything report-visible.  Engine path
   counts (calls, resumptions) legitimately differ — a spliced entry
   never runs its producer — but answers, tables, and every rendered
   result must be byte-identical. *)
let fingerprint (r : Analysis.report) =
  String.concat "\n"
    [
      r.Analysis.payload_text;
      Metrics.json_to_string r.Analysis.payload_json;
      string_of_int r.Analysis.table_bytes;
      string_of_int r.Analysis.clause_count;
      status_str r.Analysis.status;
    ]

(* Every oracle run is budgeted, and deterministically — derivation
   steps and table bytes, never wall clock — so both sides of a pair
   trip at the same point: a runaway evaluation degrades to a Partial
   instead of taking the whole test binary down.  Partial runs persist
   no fragments, so every incremental run of a partial pair repeats the
   scratch run's work, and the full fingerprint (status included) must
   still match.  [roomy] clears every case that completes with margin
   (strictness pcprove took 3.0M steps and 12.8 MB of tables under
   variant tabling; with answer subsumption it takes about 5k steps). *)
let roomy_bytes = 32 * 1024 * 1024
let roomy = (4_000_000, roomy_bytes)

let oracle ?(seeds = [ 1; 2; 3 ]) ?(budget = roomy) ?(expect = "complete")
    ~label ~config ~mut name src =
  let a = analysis name in
  let max_steps, max_table_bytes = budget in
  let guard () = Guard.create ~max_steps ~max_table_bytes () in
  let cache = Analysis.memory_cache () in
  let scratch0 = Analysis.run a ~config ~guard:(guard ()) src in
  check_s (label ^ ": scratch status under the budget") expect
    (status_str scratch0.Analysis.status);
  let incr0 = Analysis.run_incr a ~config ~guard:(guard ()) ~cache src in
  check_s (label ^ ": cold incremental == scratch") (fingerprint scratch0)
    (fingerprint incr0);
  let warm = Analysis.run_incr a ~config ~guard:(guard ()) ~cache src in
  check_s (label ^ ": warm replay == scratch") (fingerprint scratch0)
    (fingerprint warm);
  List.iter
    (fun seed ->
      match mut ~seed src with
      | None -> ()
      | Some edited ->
          let incr =
            Analysis.run_incr a ~config ~guard:(guard ()) ~cache edited
          in
          let scratch = Analysis.run a ~config ~guard:(guard ()) edited in
          check_s
            (Printf.sprintf "%s: seed-%d edit, incremental == scratch" label
               seed)
            (fingerprint scratch) (fingerprint incr))
    seeds

let test_oracle_groundness_dynamic () =
  List.iter
    (fun (b : Registry.logic_bench) ->
      oracle
        ~label:("groundness/dynamic " ^ b.Registry.name)
        ~config:[ ("mode", "dynamic") ]
        ~mut:Mutate.mutate_pl "groundness" b.Registry.source)
    Registry.logic_benchmarks

let test_oracle_groundness_def () =
  List.iter
    (fun (b : Registry.logic_bench) ->
      oracle
        ~label:("groundness/def " ^ b.Registry.name)
        ~config:[ ("mode", "def") ]
        ~mut:Mutate.mutate_pl "groundness" b.Registry.source)
    Registry.logic_benchmarks

(* The stress corpus (examples/stress/) explodes under mode=dynamic; the
   def domain is its fast path and must stay exact under splicing. *)
let test_oracle_stress_def () =
  List.iter
    (fun (b : Registry.stress_bench) ->
      oracle ~seeds:[ 1; 2 ]
        ~label:("groundness/def stress " ^ b.Registry.name)
        ~config:[ ("mode", "def") ]
        ~mut:Mutate.mutate_pl "groundness" b.Registry.source)
    Registry.stress_benchmarks

(* Both supplementary settings, on every corpus program: [] takes the
   registry default (no folding, class slg-sub-nosupp), and
   supplementary=true is the section 4.2 folding (class slg-sub), whose
   derived rules, hence fragments, differ. *)
let test_oracle_strictness () =
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (b : Registry.fp_bench) ->
          oracle
            ~label:(label ^ " " ^ b.Registry.name)
            ~config ~mut:Mutate.mutate_eq "strictness" b.Registry.source)
        Registry.fp_benchmarks)
    [ ("strictness", []); ("strictness/supp", [ ("supplementary", "true") ]) ]

(* The partial-vs-partial pair of the default (no folding) setting; the
   corpus oracle above covers its complete runs.  Without folding,
   mergesort completes in about 750 derivation steps, so a 400-step
   budget trips both sides of the pair at the same point. *)
let test_oracle_strictness_nosupp () =
  let src =
    (match Registry.find_fp "mergesort" with
    | Some b -> b
    | None -> Alcotest.fail "no fp benchmark mergesort")
      .Registry.source
  in
  oracle ~label:"strictness/nosupp mergesort partial" ~budget:(400, roomy_bytes)
    ~expect:"partial"
    ~config:[ ("supplementary", "false") ]
    ~mut:Mutate.mutate_eq "strictness" src

(* A run without a cache is the scratch run, and pays nothing for the
   incremental machinery: no dependency graph (no incr.plan time), no
   incr.* counter moves.  The same program through an empty cache plans
   a multi-SCC condensation and reports identically. *)
let test_no_cache_is_scratch () =
  List.iter
    (fun (name, config, src) ->
      let a = analysis name in
      let label = name ^ " " ^ Analysis.config_to_string config in
      Metrics.reset ();
      let scratch = Analysis.run a ~config src in
      List.iter
        (fun c ->
          check_i (label ^ ": " ^ c ^ " stays 0 without a cache") 0
            (Metrics.counter_value c))
        [ "incr.sccs"; "incr.invalidated"; "incr.spliced" ];
      check_b (label ^ ": no incr.plan time without a cache") true
        (Metrics.timer_seconds "incr.plan" = 0.);
      let cold =
        Analysis.run_incr a ~config ~cache:(Analysis.memory_cache ()) src
      in
      check_b (label ^ ": the cached run sees several SCCs") true
        (Metrics.counter_value "incr.sccs" > 1);
      check_s (label ^ ": empty-cache run == run without a cache")
        (fingerprint scratch) (fingerprint cold))
    [
      ("groundness", [ ("mode", "dynamic") ], logic_src "qsort");
      ("groundness", [ ("mode", "def") ], logic_src "qsort");
      ( "strictness",
        [],
        (Option.get (Registry.find_fp "mergesort")).Registry.source );
    ]

(* A def run plans, loads and persists through the same per-SCC planner
   as the tabled drivers, so it shows up in the incremental layer
   breakdown: a cold run plans, probes and saves, a warm run plans and
   loads. *)
let test_def_timers () =
  let a = analysis "groundness" in
  let config = [ ("mode", "def") ] in
  let activations name =
    match
      List.find_opt
        (fun (t : Metrics.timing) -> t.Metrics.timer_name = name)
        (Metrics.snapshot ()).Metrics.timers
    with
    | Some t -> t.Metrics.activations
    | None -> 0
  in
  let cache = Analysis.memory_cache () in
  List.iter
    (fun (run, timers) ->
      Metrics.reset ();
      ignore (Analysis.run_incr a ~config ~cache (logic_src "qsort"));
      List.iter
        (fun t ->
          check_b (Printf.sprintf "%s def run advances %s" run t) true
            (activations t > 0))
        timers)
    [
      ("cold", [ "incr.plan"; "incr.load"; "incr.persist" ]);
      ("warm", [ "incr.plan"; "incr.load" ]);
    ]

(* Def values travel in the term fragment codec.  A fragment that still
   decodes as a term fragment but holds a value of the wrong arity or a
   mask that is not an integer is a miss: the SCC is recomputed (and
   its fragment rewritten), and the report equals scratch. *)
let test_def_fragment_corruption () =
  let a = analysis "groundness" in
  let config = [ ("mode", "def") ] in
  let src = logic_src "qsort" in
  let scratch = Analysis.run a ~config src in
  let counter = Metrics.counter_value in
  List.iter
    (fun (label, tamper) ->
      let cache, saved = recording_cache () in
      ignore (Analysis.run_incr a ~config ~cache src);
      let fragments = !saved in
      check_b (label ^ ": the cold run saves fragments") true
        (fragments <> []);
      let tampered =
        List.filter_map
          (fun (key, payload) ->
            match Incr.fragment_of_string payload with
            | None -> Alcotest.failf "def fragment %s does not decode" key
            | Some records -> (
                match tamper records with
                | None -> None
                | Some bad ->
                    cache.Analysis.cache_save key
                      (Incr.fragment_to_string bad);
                    Some key))
          fragments
      in
      check_b (label ^ ": some fragment was tampered with") true
        (tampered <> []);
      Metrics.reset ();
      let after = Analysis.run_incr a ~config ~cache src in
      check_i
        (label ^ ": every tampered fragment is a miss")
        (List.length tampered)
        (counter "incr.invalidated");
      check_s (label ^ ": the run still equals scratch") (fingerprint scratch)
        (fingerprint after);
      Metrics.reset ();
      ignore (Analysis.run_incr a ~config ~cache src);
      check_i (label ^ ": the recomputed fragments were rewritten") 0
        (counter "incr.invalidated"))
    [
      ( "wrong-arity value",
        function
        | (r : Engine.exported) :: rest ->
            let arity = snd (Option.get (Term.functor_of r.Engine.ex_call)) in
            Some
              ({ r with
                 Engine.ex_answers =
                   [ Term.mk "f" (Array.make (arity + 1) Term.nil) ] }
              :: rest)
        | [] -> None );
      ( "non-integer mask",
        fun records ->
          match
            List.partition
              (fun (r : Engine.exported) ->
                Term.args_of r.Engine.ex_call <> [||])
              records
          with
          | r :: rest, nullary ->
              let arity = Array.length (Term.args_of r.Engine.ex_call) in
              Some
                ({ r with
                   Engine.ex_answers =
                     [
                       Term.mk "f"
                         (Array.init arity (fun i ->
                              if i = 0 then Term.of_list [ Term.atom "x" ]
                              else Term.nil));
                     ] }
                :: rest
                @ nullary)
          | [], _ -> None );
    ]

let test_table_classes () =
  let tc name config =
    match Analysis.table_class (analysis name) ~config () with
    | Some c -> c
    | None -> Alcotest.failf "%s declares no table class" name
  in
  check_s "dynamic and compiled share tables" "prop"
    (tc "groundness" [ ("mode", "compiled") ]);
  check_s "dynamic is prop" "prop" (tc "groundness" [ ("mode", "dynamic") ]);
  check_s "def is its own class" "def" (tc "groundness" [ ("mode", "def") ]);
  check_b "supplementary setting splits the strictness class" true
    (tc "strictness" [ ("supplementary", "true") ]
    <> tc "strictness" [ ("supplementary", "false") ]);
  (* answer subsumption changed what a strictness table holds: the
     variant-tabled classes "slg"/"slg-nosupp" must never be spliced *)
  check_s "strictness class under answer subsumption" "slg-sub"
    (tc "strictness" [ ("supplementary", "true") ]);
  check_s "nosupp strictness class under answer subsumption"
    "slg-sub-nosupp"
    (tc "strictness" [ ("supplementary", "false") ]);
  check_s "the default strictness class is the nosupp one" "slg-sub-nosupp"
    (tc "strictness" []);
  check_b "analyses without incremental support say so" true
    (Analysis.table_class (analysis "gaia") () = None);
  (* the class prefixes the closure digest, so equal digests in
     different classes cannot collide *)
  check_b "fragment keys are class-prefixed" true
    (Incr.fragment_key ~table_class:"prop" "abc"
    <> Incr.fragment_key ~table_class:"def" "abc")

(* --- mutation generator --------------------------------------------------- *)

let test_mutate_deterministic () =
  let src = logic_src "queens" in
  List.iter
    (fun seed ->
      match (Mutate.mutate_pl ~seed src, Mutate.mutate_pl ~seed src) with
      | Some a, Some b ->
          check_s (Printf.sprintf "seed %d reproducible" seed) a b;
          check_b "mutation changed the source" true (a <> src);
          check_b "mutation still parses" true
            (match Parser.parse_clauses a with
            | _ -> true
            | exception _ -> false)
      | _ -> Alcotest.failf "seed %d: no mutation on queens" seed)
    [ 1; 2; 3; 4; 5 ];
  (* op directives survive re-printing: press1 defines === via :- op *)
  (match Mutate.mutate_pl ~seed:1 (logic_src "press1") with
  | None -> Alcotest.fail "press1 should mutate"
  | Some m ->
      check_b "mutated press1 re-parses through its op directive" true
        (match Parser.parse_clauses m with
        | _ -> true
        | exception _ -> false));
  match
    Mutate.apply_n ~seed:7 ~n:4 Mutate.mutate_pl (logic_src "qsort")
  with
  | None -> Alcotest.fail "4-step mutation chain on qsort"
  | Some m ->
      check_b "chained mutation parses" true
        (match Parser.parse_clauses m with
        | _ -> true
        | exception _ -> false)

let test_mutate_eq_valid () =
  let src =
    (match Registry.find_fp "eu" with
    | Some b -> b
    | None -> Alcotest.fail "no fp benchmark eu")
      .Registry.source
  in
  List.iter
    (fun seed ->
      match Mutate.mutate_eq ~seed src with
      | None -> Alcotest.failf "seed %d: no .eq mutation" seed
      | Some m ->
          check_b "mutated source differs" true (m <> src);
          check_b "mutated .eq source checks" true
            (match Prax_fp.Check.parse_and_check m with
            | _ -> true
            | exception _ -> false))
    [ 1; 2; 3; 4 ]

(* --- the store binding ----------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then (
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path)
  else Sys.remove path

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-incr-test-%d-%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* Fragments persisted through the snapshot store survive a re-open (the
   daemon-restart shape) and splice back to a scratch-identical report. *)
let test_store_cache_roundtrip () =
  with_tmpdir (fun dir ->
      let a = analysis "groundness" in
      let config = [ ("mode", "dynamic") ] in
      let src = logic_src "queens" in
      let tc =
        match Analysis.table_class a ~config () with
        | Some c -> c
        | None -> Alcotest.fail "groundness must declare a table class"
      in
      let scratch = Analysis.run a ~config src in
      let store = Store.open_dir dir in
      let cache =
        Incr.cache_of_store store ~analysis:"groundness" ~table_class:tc
      in
      ignore (Analysis.run_incr a ~config ~cache src);
      check_b "fragments land under incr/<analysis>/" true
        (Sys.is_directory Filename.(concat (concat dir "incr") "groundness"));
      let store2 = Store.open_dir dir in
      let cache2 =
        Incr.cache_of_store store2 ~analysis:"groundness" ~table_class:tc
      in
      let warm = Analysis.run_incr a ~config ~cache:cache2 src in
      check_s "re-opened store splices to a scratch-identical report"
        (fingerprint scratch) (fingerprint warm))

(* On-disk corruption of a fragment snapshot must degrade to a miss (the
   store CRC rejects it), and the run must still be scratch-identical. *)
let test_store_cache_corruption () =
  with_tmpdir (fun dir ->
      let a = analysis "groundness" in
      let config = [ ("mode", "dynamic") ] in
      let src = logic_src "qsort" in
      let store = Store.open_dir dir in
      let cache =
        Incr.cache_of_store store ~analysis:"groundness" ~table_class:"prop"
      in
      ignore (Analysis.run_incr a ~config ~cache src);
      let frag_dir = Filename.(concat (concat dir "incr") "groundness") in
      let snaps =
        Sys.readdir frag_dir |> Array.to_list
        |> List.filter (fun n -> not (Sys.is_directory (Filename.concat frag_dir n)))
      in
      check_b "store holds fragment snapshots" true (snaps <> []);
      List.iter
        (fun n ->
          let path = Filename.concat frag_dir n in
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc "tear";
          close_out oc)
        snaps;
      let scratch = Analysis.run a ~config src in
      let after = Analysis.run_incr a ~config ~cache src in
      check_s "corrupt fragments degrade to recomputation, same report"
        (fingerprint scratch) (fingerprint after))

(* Satellite lock: open_dir's orphan sweep recurses into the per-SCC
   subdirectories, still counted under store.tmp_swept. *)
let test_recursive_tmp_sweep () =
  with_tmpdir (fun dir ->
      let sub = Filename.(concat (concat dir "incr") "groundness") in
      Unix.mkdir (Filename.concat dir "incr") 0o755;
      Unix.mkdir sub 0o755;
      (* a dead writer's orphan, two levels below the store root *)
      let orphan = Filename.concat sub "frag.snap.tmp.999999999.7" in
      let oc = open_out orphan in
      output_string oc "half-written";
      close_out oc;
      let live = Filename.concat sub "frag.keep" in
      let oc = open_out live in
      output_string oc "snapshot";
      close_out oc;
      let before = Metrics.counter_value "store.tmp_swept" in
      ignore (Store.open_dir dir);
      check_b "orphan temp in a subdirectory is swept" false
        (Sys.file_exists orphan);
      check_b "non-temp files are untouched" true (Sys.file_exists live);
      check_i "sweep is counted" (before + 1)
        (Metrics.counter_value "store.tmp_swept"))

(* --- suite ----------------------------------------------------------------- *)

let () =
  Alcotest.run "incr"
    [
      ( "depgraph",
        [
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "dependent cone" `Quick test_cone;
          Alcotest.test_case "digests track the cone" `Quick test_digests;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "corruption -> miss" `Quick test_codec_corruption;
        ] );
      ( "splice",
        [
          Alcotest.test_case "dump_tables byte-identity" `Quick
            test_splice_dump_identity;
          Alcotest.test_case "single edit invalidates a proper cone" `Quick
            test_partial_invalidation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "groundness mode=dynamic corpus" `Slow
            test_oracle_groundness_dynamic;
          Alcotest.test_case "groundness mode=def corpus" `Slow
            test_oracle_groundness_def;
          Alcotest.test_case "groundness mode=def stress" `Slow
            test_oracle_stress_def;
          Alcotest.test_case "strictness corpus" `Slow test_oracle_strictness;
          Alcotest.test_case "strictness nosupp" `Quick
            test_oracle_strictness_nosupp;
          Alcotest.test_case "table classes" `Quick test_table_classes;
          Alcotest.test_case "no cache is the scratch run" `Quick
            test_no_cache_is_scratch;
          Alcotest.test_case "def runs move the incr timers" `Quick
            test_def_timers;
          Alcotest.test_case "def fragment corruption -> miss" `Quick
            test_def_fragment_corruption;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "deterministic and parseable" `Quick
            test_mutate_deterministic;
          Alcotest.test_case ".eq mutations check" `Quick test_mutate_eq_valid;
        ] );
      ( "store",
        [
          Alcotest.test_case "store-backed cache round-trip" `Quick
            test_store_cache_roundtrip;
          Alcotest.test_case "on-disk corruption -> miss" `Quick
            test_store_cache_corruption;
          Alcotest.test_case "recursive temp sweep" `Quick
            test_recursive_tmp_sweep;
        ] );
    ]

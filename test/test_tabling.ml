(* Tests for the tabled evaluation engine: termination on left recursion,
   variant-based call/answer tables, duplicate elimination, consumer
   resumption, and agreement with SLD where both terminate. *)

open Prax_logic
open Prax_tabling

let parse = Parser.parse_term
let show t = Pretty.term_to_string t

let engine_of ?mode src =
  let db = Database.create ?mode () in
  ignore (Database.load_string db src);
  Engine.create db

let query_strings e q = Engine.query e (parse q) |> List.map show

(* Left recursion: the canonical program no Prolog system terminates on,
   and the first thing a tabled system must get right. *)
let left_rec_path =
  "edge(a,b). edge(b,c). edge(c,d). edge(b,a).\n\
   path(X,Y) :- path(X,Z), edge(Z,Y).\n\
   path(X,Y) :- edge(X,Y)."

let test_left_recursion () =
  let e = engine_of left_rec_path in
  let sols = query_strings e "path(a, Y)" in
  Alcotest.(check (list string))
    "reachable from a"
    [ "path(a,a)"; "path(a,b)"; "path(a,c)"; "path(a,d)" ]
    (List.sort compare sols)

let test_right_recursion_same_answers () =
  let right =
    "edge(a,b). edge(b,c). edge(c,d). edge(b,a).\n\
     path(X,Y) :- edge(X,Y).\n\
     path(X,Y) :- edge(X,Z), path(Z,Y)."
  in
  let e1 = engine_of left_rec_path and e2 = engine_of right in
  Alcotest.(check (list string))
    "formulation-independent"
    (List.sort compare (query_strings e1 "path(X, Y)"))
    (List.sort compare (query_strings e2 "path(X, Y)"))

let test_cyclic_termination () =
  (* fully cyclic graph; non-tabled evaluation diverges *)
  let e =
    engine_of
      "edge(a,b). edge(b,c). edge(c,a).\n\
       path(X,Y) :- edge(X,Y).\n\
       path(X,Y) :- path(X,Z), path(Z,Y)."
  in
  Alcotest.(check int) "3x3 pairs" 9
    (List.length (query_strings e "path(X,Y)"))

let test_no_answer_loop_terminates () =
  (* p :- p has no answers; tabling must fail finitely *)
  let e = engine_of "p :- p. q(1)." in
  Alcotest.(check (list string)) "no answers" [] (query_strings e "p");
  Alcotest.(check (list string)) "rest of program alive" [ "q(1)" ]
    (query_strings e "q(X)")

let test_mutual_recursion () =
  let e =
    engine_of
      "even(0). even(s(N)) :- odd(N). odd(s(N)) :- even(N)."
  in
  Alcotest.(check bool) "even 4" true
    (query_strings e "even(s(s(s(s(0)))))" <> []);
  Alcotest.(check bool) "odd 4 fails" true
    (query_strings e "odd(s(s(s(s(0)))))" = [])

let test_variant_tables () =
  let e = engine_of left_rec_path in
  ignore (Engine.query e (parse "path(a, Y)"));
  ignore (Engine.query e (parse "path(a, X)"));
  (* the second query is a variant of the first: no new table entry *)
  let calls = Engine.calls_for e ("path", 2) in
  Alcotest.(check bool) "variant call shared" true (List.length calls >= 1);
  let open_before = List.length (Engine.calls e) in
  ignore (Engine.query e (parse "path(a, Z)"));
  Alcotest.(check int) "no growth on variant re-query" open_before
    (List.length (Engine.calls e))

let test_duplicate_answers_filtered () =
  let e = engine_of "p(a). p(a). p(a). p(b)." in
  let sols = query_strings e "p(X)" in
  Alcotest.(check (list string)) "dedup" [ "p(a)"; "p(b)" ]
    (List.sort compare sols);
  let st = Engine.stats e in
  Alcotest.(check int) "2 distinct answers" 2 st.Engine.answers;
  Alcotest.(check int) "2 duplicates filtered" 2 st.Engine.duplicates

let test_call_table_records_input_modes () =
  (* the paper's "input groundness for free": body calls with ground
     first argument show up as more specific call variants *)
  let e =
    engine_of
      "top(Y) :- helper(a, Y).\nhelper(X, f(X))."
  in
  ignore (Engine.query e (parse "top(Y)"));
  let calls = Engine.calls_for e ("helper", 2) in
  (match calls with
  | [ c ] -> (
      match Term.args_of c with
      | [| Term.Atom "a"; Term.Var _ |] -> ()
      | _ -> Alcotest.failf "expected helper(a,_), got %s" (show c))
  | _ -> Alcotest.fail "expected exactly one call variant")

let test_answers_for () =
  let e = engine_of left_rec_path in
  ignore (Engine.query e (parse "path(a, Y)"));
  let answers = Engine.answers_for e ("path", 2) in
  Alcotest.(check int) "4 answers" 4 (List.length answers)

let test_nonground_answers () =
  let e = engine_of "p(X, X). p(a, b)." in
  let sols = query_strings e "p(U, V)" in
  Alcotest.(check (list string)) "most general answer kept"
    [ "p(A,A)"; "p(a,b)" ]
    (List.sort compare sols)

let test_agreement_with_sld () =
  let src =
    "app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z).\n\
     nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R)."
  in
  let db = Database.create () in
  ignore (Database.load_string db src);
  let e = Engine.create db in
  let goal = parse "nrev([1,2,3,4], R)" in
  let tabled = Engine.query e goal |> List.map show in
  let sld =
    Sld.solutions db goal
    |> List.map (fun s -> show (Canon.canonical s goal))
  in
  Alcotest.(check (list string)) "tabled = sld" sld tabled

let test_builtin_registration () =
  let e = engine_of "p(X, Y) :- myplus(X, 1, Y)." in
  Engine.register_builtin e "myplus" 3 (fun eng s args sc ->
      match (Subst.walk s args.(0), Subst.walk s args.(1)) with
      | Term.Int a, Term.Int b -> (
          match (Engine.concrete_hooks.Engine.unify) s args.(2) (Term.int (a + b)) with
          | Some s' -> sc s'
          | None -> ())
      | _ ->
          ignore eng;
          ());
  Alcotest.(check (list string)) "builtin used" [ "p(41,42)" ]
    (query_strings e "p(41, Y)")

let test_table_space_positive () =
  let e = engine_of left_rec_path in
  ignore (Engine.query e (parse "path(X, Y)"));
  Alcotest.(check bool) "space accounted" true (Engine.table_space_bytes e > 0)

let test_reset_tables () =
  let e = engine_of left_rec_path in
  ignore (Engine.query e (parse "path(X, Y)"));
  Engine.reset_tables e;
  Alcotest.(check int) "tables empty" 0 (List.length (Engine.calls e));
  (* engine still usable after reset *)
  Alcotest.(check int) "re-run ok" 4
    (List.length (query_strings e "path(a, Y)"))

let test_open_call_strategy () =
  (* Section 6.2: table only the open call; specific calls filter its
     answers (forward subsumption).  Same answers, fewer table entries. *)
  let src =
    "edge(a,b). edge(b,c). edge(c,d).\n\
     path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y)."
  in
  let db = Database.create () in
  ignore (Database.load_string db src);
  let ev = Engine.create db in
  let eo = Engine.create ~open_calls:true db in
  List.iter
    (fun q ->
      Alcotest.(check (list string))
        (q ^ " same answers")
        (List.sort compare (query_strings ev q))
        (List.sort compare (query_strings eo q)))
    [ "path(a, Y)"; "path(X, d)"; "path(b, c)"; "path(X, Y)" ];
  Alcotest.(check bool) "fewer or equal table entries" true
    (List.length (Engine.calls eo) <= List.length (Engine.calls ev));
  (* under the open strategy, every tabled call variant is open *)
  List.iter
    (fun c ->
      match Term.args_of c with
      | [||] -> ()
      | args ->
          Alcotest.(check bool) "entry is an open call" true
            (Array.for_all (function Term.Var _ -> true | _ -> false) args))
    (Engine.calls eo)

let test_nontabled_predicates () =
  let db = Database.create () in
  ignore
    (Database.load_string db
       "double(X, Y) :- plusx(X, X, Y).\nplusx(a, a, aa).");
  let e = Engine.create ~tabled:(fun (n, _) -> n <> "plusx") db in
  Alcotest.(check (list string)) "mixed tabled/nontabled" [ "double(a,aa)" ]
    (query_strings e "double(a, Y)");
  Alcotest.(check (list string)) "only tabled preds in table" [ "double/2" ]
    (Engine.calls e
    |> List.filter_map Term.functor_of
    |> List.map (fun (n, a) -> Printf.sprintf "%s/%d" n a))

(* Property: on random acyclic graphs, tabled reachability agrees with a
   direct OCaml reachability computation. *)
let prop_reachability =
  QCheck2.Test.make ~name:"tabled path = OCaml reachability" ~count:40
    QCheck2.Gen.(
      list_size (int_range 0 30) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let src =
        "path(X,Y) :- path(X,Z), edge(Z,Y). path(X,Y) :- edge(X,Y)."
        ^ String.concat ""
            (List.map (fun (a, b) -> Printf.sprintf " edge(n%d,n%d)." a b) edges)
      in
      (* direct transitive closure *)
      let reach = Hashtbl.create 64 in
      List.iter (fun (a, b) -> Hashtbl.replace reach (a, b) ()) edges;
      let changed = ref true in
      while !changed do
        changed := false;
        Hashtbl.iter
          (fun (a, b) () ->
            List.iter
              (fun (c, d) ->
                if b = c && not (Hashtbl.mem reach (a, d)) then begin
                  Hashtbl.replace reach (a, d) ();
                  changed := true
                end)
              edges)
          reach
      done;
      let expected =
        Hashtbl.fold
          (fun (a, b) () acc -> Printf.sprintf "path(n%d,n%d)" a b :: acc)
          reach []
        |> List.sort compare
      in
      match edges with
      | [] -> true
      | _ ->
          let e = engine_of src in
          let got =
            query_strings e "path(X,Y)" |> List.sort compare
          in
          got = expected)

(* --- SCC completion ------------------------------------------------------ *)

module Guard = Prax_guard.Guard
module Datalog = Prax_bottomup.Datalog

(* An answer reaches [q] by broadcast after [q]'s producer finished:
   [q] consumes [p], which is still open and whose later answers flow
   through [q]'s suspended body into new [q] answers, which in turn
   extend [p].  [q] completes only with [p], its SCC's leader; closing
   it when its own clauses run out drops [p]'s consumer on [q], which
   loses [p(b)], [p(c)] and [q(c)]. *)
let late_broadcast_src =
  "p(X) :- q(X).\np(a).\nq(X) :- p(Y), e(Y, X).\ne(a, b). e(b, c)."

let test_late_broadcast () =
  List.iter
    (fun mode ->
      let e = engine_of ~mode late_broadcast_src in
      Alcotest.(check (list string)) "p answers"
        [ "p(a)"; "p(b)"; "p(c)" ]
        (List.sort compare (query_strings e "p(X)"));
      Alcotest.(check (list string)) "q answers, replayed from its table"
        [ "q(b)"; "q(c)" ]
        (List.sort compare (query_strings e "q(X)"));
      Alcotest.(check bool) "every entry closed, no consumer left" true
        (Engine.tables_consistent e))
    [ Database.Dynamic; Database.Compiled ]

(* A call to a complete table replays its answers and suspends nothing:
   the second query registers no consumer, yet counts its deliveries. *)
let test_closed_replay () =
  let e = engine_of left_rec_path in
  let first = query_strings e "path(a, Y)" in
  let resumptions = (Engine.stats e).Engine.resumptions in
  let suspensions () =
    Prax_metrics.Metrics.counter_value "engine.consumer_suspensions"
  in
  let s0 = suspensions () in
  Alcotest.(check (list string)) "same answers" first
    (query_strings e "path(a, Y)");
  Alcotest.(check int) "no suspension on a closed table" s0 (suspensions ());
  Alcotest.(check int) "every replayed answer is a resumption"
    (resumptions + List.length first)
    (Engine.stats e).Engine.resumptions;
  Alcotest.(check bool) "tables consistent" true (Engine.tables_consistent e)

(* Generated recursive Datalog: [n] intensional predicates of arity 1
   or 2 over 2-3 constants and one binary base relation.  Every body
   atom is drawn from all predicates, so recursion is left, right and
   mutual, and SCCs nest inside SCCs.  Rules are range-restricted, so
   semi-naive bottom-up evaluation computes the same model. *)

(* [g_pred] is a predicate index ([-1] is the base relation [e/2]); an
   argument is a variable [0..3] or a constant [-1 - c] *)
type gen_atom = { g_pred : int; g_args : int list }

type gen_prog = {
  arities : int array;
  consts : int;
  base : (int * int) list;
  facts : (bool * int * int list) list;
      (** [true]: listed after the rules, so its answer arrives while
          the rules' producers are suspended, by broadcast *)
  rules : (gen_atom * gen_atom list) list;
}

let gen_prog =
  let open QCheck2.Gen in
  let* n = int_range 3 6 in
  let* consts = int_range 2 3 in
  let* arities = array_repeat n (int_range 1 2) in
  let arity p = if p < 0 then 2 else arities.(p) in
  let const = map (fun c -> -1 - c) (int_range 0 (consts - 1)) in
  let constant = int_range 0 (consts - 1) in
  let* base = list_size (int_range 1 5) (pair constant constant) in
  let* facts =
    list_size (int_range 1 4)
      (let* late = bool in
       let* p = int_range 0 (n - 1) in
       let+ args = list_repeat (arity p) const in
       (late, p, args))
  in
  let body_atom =
    let* p = int_range (-1) (n - 1) in
    let+ args =
      list_repeat (arity p) (frequency [ (4, int_range 0 3); (1, const) ])
    in
    { g_pred = p; g_args = args }
  in
  let rule p =
    let* body = list_size (int_range 1 3) body_atom in
    let* left = bool in
    (* left recursion: the head's own predicate first *)
    let* self_args = list_repeat (arity p) (int_range 0 3) in
    let body =
      if left then { g_pred = p; g_args = self_args } :: body else body
    in
    let bound =
      List.sort_uniq compare
        (List.concat_map
           (fun a -> List.filter (fun x -> x >= 0) a.g_args)
           body)
    in
    let head_arg =
      match bound with
      | [] -> const
      | vs -> frequency [ (4, oneofl vs); (1, const) ]
    in
    let+ head_args = list_repeat (arity p) head_arg in
    ({ g_pred = p; g_args = head_args }, body)
  in
  let* rules =
    flatten_l (List.init n (fun p -> list_size (int_range 1 3) (rule p)))
  in
  return { arities; consts; base; facts; rules = List.concat rules }

let pred_name p = if p < 0 then "e" else Printf.sprintf "p%d" p
let const_name c = Printf.sprintf "c%d" c

let arg_src x = if x >= 0 then Printf.sprintf "X%d" x else const_name (-1 - x)

let atom_src a =
  Printf.sprintf "%s(%s)" (pred_name a.g_pred)
    (String.concat "," (List.map arg_src a.g_args))

let prog_src g =
  let facts late =
    List.filter_map
      (fun (l, p, args) ->
        if l = late then Some (atom_src { g_pred = p; g_args = args } ^ ".")
        else None)
      g.facts
  in
  String.concat "\n"
    (List.map
       (fun (a, b) ->
         Printf.sprintf "e(%s,%s)." (const_name a) (const_name b))
       g.base
    @ facts false
    @ List.map
        (fun (h, body) ->
          Printf.sprintf "%s :- %s." (atom_src h)
            (String.concat ", " (List.map atom_src body)))
        g.rules
    @ facts true)

(* the same program as Datalog rules; variable [x] of a rule is
   [Term.var x], fresh per rule since rules are matched, not resolved *)
let datalog_rules g =
  let term x =
    if x >= 0 then Term.var x else Term.atom (const_name (-1 - x))
  in
  let atom a =
    {
      Datalog.pred = (pred_name a.g_pred, List.length a.g_args);
      args = Array.of_list (List.map term a.g_args);
    }
  in
  let fact p args =
    { Datalog.head = atom { g_pred = p; g_args = args }; body = [] }
  in
  List.map (fun (a, b) -> fact (-1) [ -1 - a; -1 - b ]) g.base
  @ List.map (fun (_, p, args) -> fact p args) g.facts
  @ List.map
      (fun (h, body) -> { Datalog.head = atom h; body = List.map atom body })
      g.rules

(* Every predicate queried open, then with each constant as its first
   argument, in one engine, so later queries hit complete tables. *)
let scc_queries g =
  List.concat
    (List.init (Array.length g.arities) (fun p ->
         let rest = if g.arities.(p) = 2 then ",Y)" else ")" in
         Printf.sprintf "%s(X%s" (pred_name p) rest
         :: List.init g.consts (fun c ->
                Printf.sprintf "%s(%s%s" (pred_name p) (const_name c) rest)))

let prop_scc_shapes =
  QCheck2.Test.make ~name:"tabled = semi-naive on generated SCC shapes"
    ~count:150 ~print:prog_src gen_prog (fun g ->
      let intensional, db = Datalog.load (datalog_rules g) in
      ignore (Datalog.seminaive intensional db);
      let expected q =
        let goal = parse q in
        let pred = Option.get (Term.functor_of goal) in
        Datalog.tuples_of db pred
        |> List.filter_map (fun tuple ->
               let fact = Term.mk (fst pred) tuple in
               match Unify.unify Subst.empty goal fact with
               | Some _ -> Some (show fact)
               | None -> None)
        |> List.sort_uniq compare
      in
      List.for_all
        (fun (mode, mode_name) ->
          let db = Database.create ~mode () in
          ignore (Database.load_string db (prog_src g));
          let guard = Guard.create ~max_steps:200_000 () in
          let e = Engine.create ~guard db in
          List.for_all
            (fun q ->
              let got, status = Engine.query_status e (parse q) in
              let got = List.map show got |> List.sort compare in
              (not (Guard.is_partial status))
              && (got = expected q
                 || QCheck2.Test.fail_reportf
                      "%s (%s): tabled {%s}, semi-naive {%s}" q mode_name
                      (String.concat " " got)
                      (String.concat " " (expected q)))
              && Engine.tables_consistent e)
            (scc_queries g))
        [ (Database.Dynamic, "dynamic"); (Database.Compiled, "compiled") ])

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_reachability; prop_scc_shapes ]

(* --- per-predicate table reads ---------------------------------------- *)

module Inject = Prax_guard.Inject
module Registry = Prax_benchdata.Registry

(* [calls_for]/[answers_for] read one predicate's subtrie of the call
   table; the reference reads the whole table ([calls], [export_tables])
   and filters by functor. *)
let check_reads label e extra =
  let same what expected got =
    Alcotest.(check (list string)) (label ^ ": " ^ what)
      (List.map show expected) (List.map show got)
  in
  let of_pred p t = Term.functor_of t = Some p in
  let preds =
    List.sort_uniq compare
      (List.filter_map Term.functor_of (Engine.calls e) @ extra)
  in
  Alcotest.(check bool) (label ^ ": tables nonempty") true (preds <> []);
  List.iter
    (fun ((name, arity) as p) ->
      let what = Printf.sprintf "%s/%d" name arity in
      same (what ^ " calls")
        (List.filter (of_pred p) (Engine.calls e))
        (Engine.calls_for e p);
      same (what ^ " answers")
        (Engine.export_tables e
        |> List.filter (fun x -> of_pred p x.Engine.ex_call)
        |> List.concat_map (fun x -> x.Engine.ex_answers)
        |> List.sort Term.compare)
        (Engine.answers_for e p))
    preds

(* a budget for every run below: none comes near it *)
let read_budget () = Guard.create ~max_steps:1_000_000 ()

(* nullary predicates, and one name at two arities *)
let ground_src =
  "go :- p(X), q.\nq.\nr :- r.\np(X) :- p(X, a).\np(a, b).\n\
   p(f(X), Y) :- p(X, Y)."

let ground_engine ?(guard = read_budget ()) src =
  let module A = Prax_ground.Analyze in
  let abstract, preds, e =
    A.prepare ~mode:Database.Dynamic ~guard (Parser.parse_clauses src)
  in
  (abstract, List.map A.open_goal preds, e)

let run_goals e goals =
  List.fold_left
    (fun acc g -> Guard.combine acc (Engine.run_status e g (fun _ -> ())))
    Guard.Complete goals

let test_reads_groundness () =
  let _, goals, e = ground_engine ground_src in
  Alcotest.(check bool) "complete" false
    (Guard.is_partial (run_goals e goals));
  let prefixed n = Prax_ground.Transform.prefix ^ n in
  Alcotest.(check int) "go/0 answered" 1
    (List.length (Engine.answers_for e (prefixed "go", 0)));
  check_reads "groundness" e
    [ (prefixed "missing", 0); (prefixed "p", 3); ("go", 0) ]

let test_reads_strictness_settled () =
  let module A = Prax_strict.Analyze in
  let prog =
    Prax_fp.Check.parse_and_check
      (Option.get (Registry.find_fp "mergesort")).Registry.source
  in
  List.iter
    (fun supplementary ->
      let rules, e =
        A.prepare ~mode:Database.Dynamic ~supplementary
          ~guard:(read_budget ()) prog
      in
      (* run_tabled settles a complete run, rebuilding the call trie *)
      let status, _ =
        Prax_incr.Incr.run_tabled ~engine:e ~clauses:rules
          ~goals:(A.demand_goals (Prax_fp.Ast.functions prog))
          ()
      in
      Alcotest.(check bool) "complete" false (Guard.is_partial status);
      check_reads
        (Printf.sprintf "strictness (supplementary=%b)" supplementary)
        e [])
    [ true; false ]

let test_reads_depthk () =
  let module A = Prax_depthk.Analyze in
  let clauses =
    Parser.parse_clauses
      (Option.get (Registry.find_logic "queens")).Registry.source
  in
  let db = Database.create () in
  Database.load_clauses db clauses;
  let e =
    Engine.create ~hooks:(Prax_depthk.Domain.hooks ~k:2)
      ~guard:(read_budget ()) db
  in
  A.register_builtins e;
  let goals =
    List.filter_map (fun c -> Term.functor_of c.Parser.head) clauses
    |> List.sort_uniq compare
    |> List.map (fun (n, a) ->
           Term.mk n (Array.init a (fun _ -> Term.fresh_var ())))
  in
  Alcotest.(check bool) "complete" false
    (Guard.is_partial (run_goals e goals));
  check_reads "depthk" e []

(* a step budget trips mid-run: open entries are force-completed *)
let test_reads_budget_partial () =
  let src = (Option.get (Registry.find_logic "read")).Registry.source in
  let _, goals, e = ground_engine ~guard:(Guard.create ~max_steps:400 ()) src in
  Alcotest.(check bool) "partial" true (Guard.is_partial (run_goals e goals));
  Alcotest.(check bool) "some entry forced" true
    ((Engine.stats e).Engine.forced > 0);
  check_reads "budget partial" e []

(* a non-budget exception discards the open entries and rebuilds the
   call trie from the survivors *)
let test_reads_after_error () =
  let src = (Option.get (Registry.find_logic "qsort")).Registry.source in
  let events =
    Inject.events_of (fun guard ->
        let _, goals, e = ground_engine ~guard src in
        ignore (run_goals e goals))
  in
  List.iter
    (fun n ->
      let _, goals, e = ground_engine ~guard:(Inject.raise_at n Exit) src in
      (match run_goals e goals with
      | _ -> Alcotest.failf "event %d: expected the injected raise" n
      | exception Exit -> ());
      check_reads (Printf.sprintf "recovered at event %d" n) e [])
    [ events / 3; events / 2; events - 1 ]

let () =
  Alcotest.run "prax_tabling"
    [
      ( "termination",
        [
          Alcotest.test_case "left recursion" `Quick test_left_recursion;
          Alcotest.test_case "right recursion agrees" `Quick
            test_right_recursion_same_answers;
          Alcotest.test_case "cyclic graph" `Quick test_cyclic_termination;
          Alcotest.test_case "answerless loop" `Quick
            test_no_answer_loop_terminates;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
        ] );
      ( "tables",
        [
          Alcotest.test_case "variant call sharing" `Quick test_variant_tables;
          Alcotest.test_case "duplicate answers" `Quick
            test_duplicate_answers_filtered;
          Alcotest.test_case "call table = input modes" `Quick
            test_call_table_records_input_modes;
          Alcotest.test_case "answers_for" `Quick test_answers_for;
          Alcotest.test_case "nonground answers" `Quick test_nonground_answers;
          Alcotest.test_case "table space" `Quick test_table_space_positive;
          Alcotest.test_case "reset" `Quick test_reset_tables;
        ] );
      ( "engine",
        [
          Alcotest.test_case "agreement with SLD" `Quick test_agreement_with_sld;
          Alcotest.test_case "builtin registration" `Quick
            test_builtin_registration;
          Alcotest.test_case "nontabled predicates" `Quick
            test_nontabled_predicates;
          Alcotest.test_case "open-call strategy" `Quick
            test_open_call_strategy;
        ] );
      ( "completion",
        [
          Alcotest.test_case "answer by broadcast after the producer ends"
            `Quick test_late_broadcast;
          Alcotest.test_case "closed table replays without suspending"
            `Quick test_closed_replay;
        ] );
      ( "pred reads",
        [
          Alcotest.test_case "groundness, nullary predicates" `Quick
            test_reads_groundness;
          Alcotest.test_case "strictness after settle" `Quick
            test_reads_strictness_settled;
          Alcotest.test_case "depthk" `Quick test_reads_depthk;
          Alcotest.test_case "budget partial" `Quick test_reads_budget_partial;
          Alcotest.test_case "after error recovery" `Quick
            test_reads_after_error;
        ] );
      ("properties", qsuite);
    ]

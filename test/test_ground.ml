(* Tests for Prop-domain groundness analysis (Figure 1 / Table 1).
   Includes the paper's running example: the success set of gp_ap is the
   truth table of (X1 ∧ X2) ↔ X3. *)

open Prax_logic
open Prax_prop
open Prax_ground

let result_for rep p =
  List.find (fun r -> r.Analyze.pred = p) rep.Analyze.results

let analyze = Analyze.analyze

let check_definite msg rep p expected =
  let r = result_for rep p in
  let got =
    String.concat ""
      (Array.to_list (Array.map (fun b -> if b then "g" else "?") r.Analyze.definite))
  in
  Alcotest.(check string) msg expected got

(* --- the paper's Figure 2 example --------------------------------------- *)

let ap_src = "ap([], Ys, Ys). ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs)."

let test_ap_success_set () =
  let rep = analyze ap_src in
  let r = result_for rep ("ap", 3) in
  (* rows of (X1 ∧ X2) ↔ X3: ttt, tff, ftf, fff *)
  let expected =
    Bf.of_tuples 3
      [
        [ Some true; Some true; Some true ];
        [ Some true; Some false; Some false ];
        [ Some false; Some true; Some false ];
        [ Some false; Some false; Some false ];
      ]
  in
  Alcotest.(check bool) "success set = (X1&X2)<->X3" true
    (Bf.equal r.Analyze.success expected)

let test_ap_definite () =
  (* no argument of ap is ground in all answers *)
  check_definite "ap definite" (analyze ap_src) ("ap", 3) "???"

let test_ap_formula_rendering () =
  let rep = analyze ap_src in
  let r = result_for rep ("ap", 3) in
  let s = Qm.to_string ~names:(fun i -> [ "X"; "Y"; "Z" ] |> fun l -> List.nth l i) r.Analyze.success in
  (* minimal SOP of (X∧Y)↔Z; exact form depends on cover choice, but it
     must mention all three variables and contain 3 cubes *)
  Alcotest.(check bool) "formula nonempty" true (String.length s > 5)

(* --- definite groundness propagation ------------------------------------ *)

let test_facts_ground () =
  let rep = analyze "p(a, b). p(c, d)." in
  check_definite "ground facts" rep ("p", 2) "gg"

let test_mixed_facts () =
  let rep = analyze "p(a, X). p(c, d)." in
  check_definite "second arg open" rep ("p", 2) "g?"

let test_propagation_through_calls () =
  let rep =
    analyze
      "base(a). wrap(f(X)) :- base(X). pair(X, Y) :- wrap(X), wrap(Y)."
  in
  check_definite "wrap grounds" rep ("wrap", 1) "g";
  check_definite "pair grounds both" rep ("pair", 2) "gg"

let test_unification_grounds () =
  let rep = analyze "p(X, Y) :- X = f(Y), Y = a." in
  check_definite "chained =" rep ("p", 2) "gg"

let test_arithmetic_grounds () =
  let rep = analyze "inc(X, Y) :- Y is X + 1." in
  check_definite "is/2 grounds" rep ("inc", 2) "gg"

let test_comparison_grounds () =
  let rep = analyze "lt(X, Y) :- X < Y." in
  check_definite "</2 grounds" rep ("lt", 2) "gg"

let test_never_succeeds () =
  let rep = analyze "p(X) :- fail. q(X) :- a = b." in
  Alcotest.(check bool) "fail detected" true
    (result_for rep ("p", 1)).Analyze.never_succeeds;
  Alcotest.(check bool) "static clash detected" true
    (result_for rep ("q", 1)).Analyze.never_succeeds

let test_recursive_never_ground () =
  (* s(X) keeps X's groundness open through infinite data *)
  let rep = analyze "stream(X) :- stream(X)." in
  Alcotest.(check bool) "empty success set" true
    (result_for rep ("stream", 1)).Analyze.never_succeeds

let test_disjunction () =
  let rep = analyze "p(X) :- (X = a ; X = f(Y))." in
  let r = result_for rep ("p", 1) in
  (* X ground in first branch, open in second: both rows present *)
  Alcotest.(check bool) "both groundness values" true
    (Bf.equal r.Analyze.success (Bf.top 1))

let test_if_then_else_sound () =
  let rep = analyze "p(X, Y) :- (X = a -> Y = b ; Y = c)." in
  check_definite "both branches ground Y" rep ("p", 2) "?g"

let test_negation_sound () =
  let rep = analyze "p(X) :- \\+ q(X). q(a)." in
  let r = result_for rep ("p", 1) in
  Alcotest.(check bool) "naf binds nothing" true
    (Bf.equal r.Analyze.success (Bf.top 1))

let test_var_test_binds_nothing () =
  let rep = analyze "p(X) :- var(X)." in
  Alcotest.(check bool) "var/1 top" true
    (Bf.equal (result_for rep ("p", 1)).Analyze.success (Bf.top 1))

let test_type_test_grounds () =
  let rep = analyze "p(X) :- atom(X)." in
  check_definite "atom/1 grounds" rep ("p", 1) "g"

let test_cut_ignored () =
  let rep = analyze "max(X, Y, X) :- X >= Y, !. max(X, Y, Y)." in
  (* sound over-approximation: both clauses contribute *)
  let r = result_for rep ("max", 3) in
  (* clause 1 contributes (t,t,t); clause 2 shares Y across args 2,3 and
     contributes (x,y,y) for all x,y *)
  let expected =
    Bf.of_tuples 3
      [
        [ Some true; Some true; Some true ];
        [ Some true; Some false; Some false ];
        [ Some false; Some true; Some true ];
        [ Some false; Some false; Some false ];
      ]
  in
  Alcotest.(check bool) "success set" true (Bf.equal r.Analyze.success expected);
  check_definite "no definite args across both clauses" rep ("max", 3) "???"

(* --- input modes (call patterns) ---------------------------------------- *)

let test_call_patterns () =
  let rep =
    analyze "main(Y) :- helper(a, Y).\nhelper(X, f(X))."
  in
  let r = result_for rep ("helper", 2) in
  (* called from main with first arg ground: pattern g? plus the open
     pattern ?? from the driver's open query *)
  Alcotest.(check (list string)) "input modes" [ "??"; "g?" ]
    (List.sort compare r.Analyze.call_patterns)

(* --- phases and metadata ------------------------------------------------ *)

let test_phases_positive () =
  let rep = analyze ap_src in
  Alcotest.(check bool) "preproc >= 0" true (rep.Analyze.phases.Analyze.preproc >= 0.);
  Alcotest.(check bool) "total > 0" true (Analyze.total rep.Analyze.phases > 0.);
  Alcotest.(check bool) "table space > 0" true (rep.Analyze.table_bytes > 0)

let test_modes_agree () =
  let src =
    "rev([], A, A). rev([H|T], A, R) :- rev(T, [H|A], R).\n\
     top(X) :- rev([a,b,c], [], X)."
  in
  let r1 = analyze ~mode:Database.Dynamic src in
  let r2 = analyze ~mode:Database.Compiled src in
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s agree" (fst a.Analyze.pred))
        true
        (Bf.equal a.Analyze.success b.Analyze.success))
    r1.Analyze.results r2.Analyze.results

(* soundness property: definite groundness claims hold on concrete runs *)
let prop_soundness_src =
  [
    ("ap([],Y,Y). ap([H|T],Y,[H|Z]) :- ap(T,Y,Z).", "ap([1,2],[3],R)", "ap");
    ( "rev([],A,A). rev([H|T],A,R) :- rev(T,[H|A],R).",
      "rev([a,b],[],R)",
      "rev" );
    ( "len([],0). len([_|T],N) :- len(T,M), N is M + 1.",
      "len([a,b,c],N)",
      "len" );
  ]

let test_soundness_on_concrete_runs () =
  List.iter
    (fun (src, query, pname) ->
      let rep = analyze src in
      let db = Database.create () in
      ignore (Database.load_string db src);
      let goal = Parser.parse_term query in
      let arity = Array.length (Term.args_of goal) in
      let r = result_for rep (pname, arity) in
      let sols = Sld.solutions db goal in
      List.iter
        (fun s ->
          Array.iteri
            (fun i arg ->
              if r.Analyze.definite.(i) then
                Alcotest.(check bool)
                  (Printf.sprintf "%s arg %d ground" pname (i + 1))
                  true
                  (Subst.is_ground_under s arg))
            (Term.args_of goal))
        sols)
    prop_soundness_src

(* --- def domain (mode=def) ---------------------------------------------- *)

module Guard = Prax_guard.Guard

(* def cannot express disjunctive groundness, so its success sets must
   contain the Prop ones — never the other way round *)
let def_over_approx_srcs =
  [
    ap_src;
    "p(X) :- (X = a ; X = f(Y)).";
    "max(X, Y, X) :- X >= Y, !. max(X, Y, Y).";
    "base(a). wrap(f(X)) :- base(X). pair(X, Y) :- wrap(X), wrap(Y).";
    "or(X, Y) :- (X = a ; Y = b).";
    "rev([], A, A). rev([H|T], A, R) :- rev(T, [H|A], R).";
  ]

let test_def_over_approximates () =
  List.iter
    (fun src ->
      let dyn = analyze src and def = Def.analyze src in
      List.iter2
        (fun d f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d: dynamic implies def" (fst d.Analyze.pred)
               (snd d.Analyze.pred))
            true
            (Bf.implies d.Analyze.success f.Analyze.success))
        dyn.Analyze.results def.Analyze.results)
    def_over_approx_srcs

(* on programs whose Prop success set is itself a definite function, the
   two modes agree exactly — ap's (X1&X2)<->X3 is the paper's example *)
let test_def_agrees_when_definite () =
  List.iter
    (fun src ->
      let dyn = analyze src and def = Def.analyze src in
      List.iter2
        (fun d f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d: modes agree" (fst d.Analyze.pred)
               (snd d.Analyze.pred))
            true
            (Bf.equal d.Analyze.success f.Analyze.success))
        dyn.Analyze.results def.Analyze.results)
    [
      ap_src;
      "p(a, b). p(c, d).";
      "p(X, Y) :- X = f(Y), Y = a.";
      "inc(X, Y) :- Y is X + 1.";
      "base(a). wrap(f(X)) :- base(X). pair(X, Y) :- wrap(X), wrap(Y).";
    ]

let test_def_definite_and_failure () =
  let rep = Def.analyze "p(a, b). p(c, d)." in
  check_definite "def ground facts" rep ("p", 2) "gg";
  let rep = Def.analyze "p(X) :- fail. q(X) :- a = b." in
  Alcotest.(check bool) "def fail detected" true
    (result_for rep ("p", 1)).Analyze.never_succeeds;
  Alcotest.(check bool) "def static clash detected" true
    (result_for rep ("q", 1)).Analyze.never_succeeds;
  Alcotest.(check bool) "def is goal-independent" true
    ((result_for rep ("p", 1)).Analyze.call_patterns = [])

(* the Genaim–Howe–Codish shape: 2^n distinct answer variants for the
   tabled Prop evaluation, a two-element implication store for def.
   Under the same step budget dynamic degrades to Partial while def
   completes — the property examples/stress/ turns into benchmarks. *)
let worst_case n =
  let args = List.init n (fun i -> Printf.sprintf "X%d" (i + 1)) in
  Printf.sprintf "gen(a).\ngen(_).\np(%s) :- %s.\n"
    (String.concat ", " args)
    (String.concat ", " (List.map (fun a -> "gen(" ^ a ^ ")") args))

let test_def_immune_to_worst_case () =
  let src = worst_case 12 in
  let dyn = analyze ~guard:(Guard.create ~max_steps:20000 ()) src in
  let def = Def.analyze ~guard:(Guard.create ~max_steps:20000 ()) src in
  Alcotest.(check bool) "dynamic trips the budget" true
    (Guard.is_partial dyn.Analyze.status);
  Alcotest.(check bool) "def completes" true
    (def.Analyze.status = Guard.Complete);
  (* and still lands the right answer: p's success set is top *)
  Alcotest.(check bool) "def success = top" true
    (Bf.equal (result_for def ("p", 12)).Analyze.success (Bf.top 12))

let test_def_partial_is_top () =
  (* a tripped def run must widen every value to top, not report the
     intermediate under-approximation *)
  let def = Def.analyze ~guard:(Guard.create ~max_steps:1 ()) ap_src in
  Alcotest.(check bool) "partial" true (Guard.is_partial def.Analyze.status);
  List.iter
    (fun r ->
      let arity = snd r.Analyze.pred in
      Alcotest.(check bool)
        (Printf.sprintf "%s widened to top" (fst r.Analyze.pred))
        true
        (Bf.equal r.Analyze.success (Bf.top arity)))
    def.Analyze.results

(* --- static unification of the tabled path ----------------------------- *)

(* [Transform.fold_clause] on one hand-written abstract clause, printed
   with variables renamed A, B, … in order of first occurrence. *)
let folded src =
  let c = List.hd (Parser.parse_clauses src) in
  let c = Transform.fold_clause c in
  let names = Hashtbl.create 8 in
  let rename =
    Term.map_vars (fun v ->
        match Hashtbl.find_opt names v with
        | Some t -> t
        | None ->
            let t = Term.var (Hashtbl.length names) in
            Hashtbl.add names v t;
            t)
  in
  let head = rename c.Parser.head in
  Pretty.clause_to_string
    { Parser.head; body = List.map rename c.Parser.body }

let test_fold_keeps_late_check () =
  (* the head must not see a binding made after a runtime goal *)
  Alcotest.(check string) "check stays after q" "p(A) :- q(B), A = true."
    (folded "p(X) :- q(Y), X = true.")

let test_fold_head_aliases () =
  Alcotest.(check string) "head bindings before any goal"
    "p(A,true,A) :- q(A)."
    (folded "p(A1, A2, A3) :- A1 = X, A2 = true, A3 = X, q(X).")

let test_fold_alias_chain () =
  Alcotest.(check string) "fresh aliases vanish" "p(A) :- q(A), r(A,true)."
    (folded "p(X) :- q(X), B1 = C, C = X, B2 = true, r(B1, B2).")

(* Inside a disjunction each branch folds under a substitution of its
   own, binding only variables nothing outside the branch can see. *)
let test_fold_branch_local () =
  Alcotest.(check string) "local alias folds, head check stays"
    "p(A) :- q(A), (r(A) ; A = true)."
    (folded "p(X) :- q(X), (B = X, r(B) ; X = true).");
  Alcotest.(check string) "identical sides drop inside a branch"
    "p(A) :- q(A), (r(A) ; s(A))."
    (folded "p(X) :- q(X), (true = true, r(X) ; B = true, s(X)).");
  (* both branches start from the same bindings, so a variable only the
     two branches see folds in each, to a different value if need be *)
  Alcotest.(check string) "variable both branches bind folds in each"
    "p(A) :- q(A), (r(A,true) ; r(A,A))."
    (folded "p(X) :- q(X), (B = true, r(X, B) ; B = X, r(X, B)).");
  Alcotest.(check string) "variable one branch binds, the other reads"
    "p(A) :- q(A), (r(A) ; s(B))."
    (folded "p(X) :- q(X), (B = X, r(B) ; s(B)).")

let test_fold_branch_visible () =
  List.iter
    (fun (what, expected, src) ->
      Alcotest.(check string) what expected (folded src))
    [
      ( "variable in the head",
        "p(A,B) :- q(A), (B = A, r(B) ; s(A)).",
        "p(X, B) :- q(X), (B = X, r(B) ; s(X))." );
      ( "variable in a goal before the disjunction",
        "p(A) :- q(A,B), (B = A, r(B) ; s(A)).",
        "p(X) :- q(X, B), (B = X, r(B) ; s(X))." );
      ( "variable after the disjunction",
        "p(A) :- q(A), (B = A, r(B) ; s(A)), t(B).",
        "p(X) :- q(X), (B = X, r(B) ; s(X)), t(B)." );
      ( "variable in an earlier goal of its branch",
        "p(A) :- q(A), (r(B), B = A ; s(A)).",
        "p(X) :- q(X), (r(B), B = X ; s(X))." );
    ]

let test_fold_nested_disjunction () =
  Alcotest.(check string) "each level binds its own locals"
    "p(A) :- q(A), ((r(A) ; s(A)) ; A = true)."
    (folded "p(X) :- q(X), (C = X, (B = C, r(B) ; s(C)) ; X = true).");
  Alcotest.(check string) "an inner branch sees its outer branch's goals"
    "p(A) :- q(A), ((B = A, r(B) ; s(A)), t(B) ; u(A))."
    (folded "p(X) :- q(X), ((B = X, r(B) ; s(X)), t(B) ; u(X)).")

(* The clause printer parenthesizes [;] goals, so every abstract clause
   of the corpus, unfolded and folded, reads back as itself. *)
let test_print_parse_abstract () =
  let as_term (c : Parser.clause) =
    Canon.of_term (Term.mk ":-" [| c.Parser.head; Term.conj c.Parser.body |])
  in
  let round_trip what c =
    let printed = Pretty.clause_to_string c in
    match Parser.parse_clauses printed with
    | [ c' ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" what printed)
          true
          (Term.equal (as_term c) (as_term c'))
    | _ -> Alcotest.failf "%s: %s does not read back as one clause" what printed
  in
  round_trip "example"
    (List.hd (Parser.parse_clauses "p(X) :- q(X), (X = a ; r(X))."));
  List.iter
    (fun (b : Prax_benchdata.Registry.logic_bench) ->
      let abstract, _, _ =
        Transform.program (Parser.parse_clauses b.Prax_benchdata.Registry.source)
      in
      List.iter
        (fun c ->
          round_trip b.Prax_benchdata.Registry.name c;
          round_trip b.Prax_benchdata.Registry.name (Transform.fold_clause c))
        abstract)
    Prax_benchdata.Registry.logic_benchmarks

let () =
  Alcotest.run "prax_ground"
    [
      ( "paper example",
        [
          Alcotest.test_case "ap success set" `Quick test_ap_success_set;
          Alcotest.test_case "ap definite" `Quick test_ap_definite;
          Alcotest.test_case "ap formula" `Quick test_ap_formula_rendering;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "ground facts" `Quick test_facts_ground;
          Alcotest.test_case "mixed facts" `Quick test_mixed_facts;
          Alcotest.test_case "through calls" `Quick test_propagation_through_calls;
          Alcotest.test_case "unification" `Quick test_unification_grounds;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_grounds;
          Alcotest.test_case "comparison" `Quick test_comparison_grounds;
          Alcotest.test_case "never succeeds" `Quick test_never_succeeds;
          Alcotest.test_case "recursive empty" `Quick test_recursive_never_ground;
          Alcotest.test_case "disjunction" `Quick test_disjunction;
          Alcotest.test_case "if-then-else" `Quick test_if_then_else_sound;
          Alcotest.test_case "negation" `Quick test_negation_sound;
          Alcotest.test_case "var test" `Quick test_var_test_binds_nothing;
          Alcotest.test_case "type test" `Quick test_type_test_grounds;
          Alcotest.test_case "cut ignored" `Quick test_cut_ignored;
        ] );
      ( "input modes",
        [ Alcotest.test_case "call patterns" `Quick test_call_patterns ] );
      ( "static unification",
        [
          Alcotest.test_case "check after a call stays" `Quick
            test_fold_keeps_late_check;
          Alcotest.test_case "head aliases fold into the head" `Quick
            test_fold_head_aliases;
          Alcotest.test_case "alias chain folds into call args" `Quick
            test_fold_alias_chain;
          Alcotest.test_case "local alias folds in its branch" `Quick
            test_fold_branch_local;
          Alcotest.test_case "variable seen outside its branch is kept"
            `Quick test_fold_branch_visible;
          Alcotest.test_case "nested disjunction folds per branch" `Quick
            test_fold_nested_disjunction;
          Alcotest.test_case "abstract clauses print and read back" `Quick
            test_print_parse_abstract;
        ] );
      ( "driver",
        [
          Alcotest.test_case "phases" `Quick test_phases_positive;
          Alcotest.test_case "modes agree" `Quick test_modes_agree;
          Alcotest.test_case "soundness on concrete runs" `Quick
            test_soundness_on_concrete_runs;
        ] );
      ( "def domain",
        [
          Alcotest.test_case "over-approximates Prop" `Quick
            test_def_over_approximates;
          Alcotest.test_case "agrees on definite programs" `Quick
            test_def_agrees_when_definite;
          Alcotest.test_case "definite args and failure" `Quick
            test_def_definite_and_failure;
          Alcotest.test_case "immune to worst case" `Quick
            test_def_immune_to_worst_case;
          Alcotest.test_case "partial widens to top" `Quick
            test_def_partial_is_top;
        ] );
    ]

(* Unit and property tests for the logic substrate: terms, substitutions,
   unification, canonicalization, the reader, and the SLD engine. *)

open Prax_logic

let parse = Parser.parse_term
let show t = Pretty.term_to_string t

let check_term msg expected actual =
  Alcotest.(check string) msg expected (show actual)

(* --- terms ------------------------------------------------------------- *)

let test_term_basics () =
  let t = parse "f(a, g(X, Y), X)" in
  Alcotest.(check int) "size" 6 (Term.size t);
  Alcotest.(check int) "depth" 3 (Term.depth t);
  Alcotest.(check int) "distinct vars" 2 (List.length (Term.vars t));
  Alcotest.(check bool) "not ground" false (Term.is_ground t);
  Alcotest.(check bool) "ground" true (Term.is_ground (parse "f(a,b,1)"))

let test_term_equal () =
  Alcotest.(check bool) "equal" true
    (Term.equal (parse "f(a,1)") (parse "f(a,1)"));
  Alcotest.(check bool) "different functor" false
    (Term.equal (parse "f(a)") (parse "g(a)"));
  Alcotest.(check bool) "different arity" false
    (Term.equal (parse "f(a)") (parse "f(a,b)"))

let test_conjuncts () =
  let t = parse "(a, b, c)" in
  Alcotest.(check int) "three conjuncts" 3 (List.length (Term.conjuncts t));
  let back = Term.conj (Term.conjuncts t) in
  check_term "roundtrip" "a, b, c" back

let test_list_elements () =
  (match Term.list_elements (parse "[1,2,3]") with
  | Some es -> Alcotest.(check int) "3 elements" 3 (List.length es)
  | None -> Alcotest.fail "proper list not recognized");
  (match Term.list_elements (parse "[1|X]") with
  | Some _ -> Alcotest.fail "partial list must not be proper"
  | None -> ())

(* --- parser ------------------------------------------------------------ *)

let test_parse_operators () =
  check_term "precedence" "a + b * c" (parse "a+b*c");
  check_term "left assoc" "a - b - c" (parse "a-b-c");
  Alcotest.(check bool) "yfx shape" true
    (Term.equal (parse "a-b-c") (parse "(a-b)-c"));
  Alcotest.(check bool) "xfy comma" true
    (Term.equal (parse "(a,b,c)") (parse "(a,(b,c))"));
  check_term "unary minus" "- a" (parse "-a");
  (match parse "-3" with
  | Term.Int -3 -> ()
  | t -> Alcotest.failf "negative literal, got %s" (show t))

let test_parse_clause_shapes () =
  match Parser.parse_program "p(X) :- q(X), r(X). p(a). :- entry(p)." with
  | [ Parser.Clause c1; Parser.Clause c2; Parser.Directive d ] ->
      Alcotest.(check int) "rule body" 2 (List.length c1.Parser.body);
      Alcotest.(check int) "fact body" 0 (List.length c2.Parser.body);
      check_term "directive" "entry(p)" d
  | items -> Alcotest.failf "expected 3 items, got %d" (List.length items)

let test_parse_lists () =
  check_term "proper list" "[1,2,3]" (parse "[1, 2, 3]");
  check_term "tail" "[1|A]" (Canon.of_term (parse "[1|Xs]"));
  check_term "nested" "[[a],[b,c]]" (parse "[[a],[b,c]]");
  check_term "empty" "[]" (parse "[]")

let test_parse_quoted_and_codes () =
  check_term "quoted atom" "'Hello world'" (parse "'Hello world'");
  (match parse "0'a" with
  | Term.Int 97 -> ()
  | t -> Alcotest.failf "char code, got %s" (show t));
  (match Term.list_elements (parse "\"ab\"") with
  | Some [ Term.Int 97; Term.Int 98 ] -> ()
  | _ -> Alcotest.fail "string as code list")

let test_parse_var_scoping () =
  match Parser.parse_clauses "p(X,X,Y). q(X)." with
  | [ c1; c2 ] -> (
      match (Term.args_of c1.Parser.head, Term.args_of c2.Parser.head) with
      | [| Term.Var a; Term.Var b; Term.Var c |], [| Term.Var d |] ->
          Alcotest.(check bool) "same var shared" true (a = b);
          Alcotest.(check bool) "distinct vars differ" true (a <> c);
          Alcotest.(check bool) "clause scopes separate" true (a <> d)
      | _ -> Alcotest.fail "unexpected head shapes")
  | _ -> Alcotest.fail "expected two clauses"

let test_parse_underscore () =
  match Parser.parse_clauses "p(_, _)." with
  | [ c ] -> (
      match Term.args_of c.Parser.head with
      | [| Term.Var a; Term.Var b |] ->
          Alcotest.(check bool) "underscores distinct" true (a <> b)
      | _ -> Alcotest.fail "unexpected head")
  | _ -> Alcotest.fail "expected one clause"

let test_parse_if_then_else () =
  let t = parse "(a -> b ; c)" in
  match t with
  | Term.Struct (";", [| Term.Struct ("->", _, _); Term.Atom "c" |], _) -> ()
  | _ -> Alcotest.failf "if-then-else shape, got %s" (show t)

let test_parse_op_directive () =
  let items = Parser.parse_program ":- op(700, xfx, ===). a === b." in
  match items with
  | [ Parser.Directive _; Parser.Clause c ] -> (
      match c.Parser.head with
      | Term.Struct ("===", [| _; _ |], _) -> ()
      | t -> Alcotest.failf "custom op, got %s" (show t))
  | _ -> Alcotest.fail "expected directive + clause"

let test_pretty_roundtrip_examples () =
  List.iter
    (fun src ->
      let t1 = parse src in
      let t2 = parse (show t1) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" src)
        true
        (Term.equal (Canon.of_term t1) (Canon.of_term t2)))
    [
      "f(X, g(Y), [1,2|T])";
      "a :- b, c ; d";
      "X is Y + Z * 2 - 1";
      "\\+ p(X)";
      "[a-1, b-2]";
      "p('hello world', -42)";
    ]

(* --- unification ------------------------------------------------------- *)

let test_unify_basic () =
  let t1 = parse "f(X, b)" and t2 = parse "f(a, Y)" in
  match Unify.unify Subst.empty t1 t2 with
  | Some s ->
      check_term "t1 instance" "f(a,b)" (Subst.resolve s t1);
      check_term "t2 instance" "f(a,b)" (Subst.resolve s t2)
  | None -> Alcotest.fail "should unify"

let test_unify_failure () =
  Alcotest.(check bool) "clash" false (Unify.unifiable (parse "f(a)") (parse "f(b)"));
  Alcotest.(check bool) "arity" false (Unify.unifiable (parse "f(a)") (parse "f(a,b)"))

let test_unify_occur_check () =
  let x = Term.var 1 in
  let fx = Term.mk "f" [| x |] in
  Alcotest.(check bool) "no occur-check binds" true
    (Option.is_some (Unify.unify Subst.empty x fx));
  Alcotest.(check bool) "occur-check rejects" false
    (Option.is_some (Unify.unify_oc Subst.empty x fx))

let test_unify_chains () =
  (* X=Y, Y=Z, Z=a must make all three a *)
  let x = Term.var 101 and y = Term.var 102 and z = Term.var 103 in
  let s = Subst.empty in
  let s = Option.get (Unify.unify s x y) in
  let s = Option.get (Unify.unify s y z) in
  let s = Option.get (Unify.unify s z (Term.atom "a")) in
  check_term "x" "a" (Subst.resolve s x);
  check_term "y" "a" (Subst.resolve s y)

(* --- canonicalization / variants --------------------------------------- *)

let test_variants () =
  let t1 = parse "f(X, Y, X)" and t2 = parse "f(A, B, A)" in
  let t3 = parse "f(A, B, B)" in
  Alcotest.(check bool) "variant" true (Canon.variant t1 t2);
  Alcotest.(check bool) "not variant" false (Canon.variant t1 t3)

let test_canonical_idempotent () =
  let t = parse "g(X, f(Y, X), Z)" in
  let c = Canon.of_term t in
  Alcotest.(check bool) "idempotent" true (Term.equal c (Canon.of_term c))

(* --- properties -------------------------------------------------------- *)

let gen_term =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun i -> Term.var (i mod 4)) small_nat;
            map (fun i -> Term.int i) small_int;
            oneofl [ Term.atom "a"; Term.atom "b"; Term.atom "c" ];
          ]
      else
        frequency
          [
            (2, map (fun i -> Term.var (i mod 4)) small_nat);
            (1, oneofl [ Term.atom "a"; Term.atom "b" ]);
            ( 3,
              map2
                (fun f args -> Term.mkl f args)
                (oneofl [ "f"; "g"; "h" ])
                (list_size (int_range 1 3) (self (n / 2))) );
          ])

let prop_unify_reflexive =
  QCheck2.Test.make ~name:"unify t t succeeds" ~count:200 gen_term (fun t ->
      Unify.unifiable t t)

(* rename the right-hand term apart: without occur-check, terms sharing
   variables can create cyclic bindings that diverge on [resolve] — the
   same behaviour as standard Prolog unification *)
let prop_unify_symmetric =
  QCheck2.Test.make ~name:"unifiability is symmetric" ~count:200
    (QCheck2.Gen.pair gen_term gen_term) (fun (t1, t2) ->
      let t2 = Term.rename t2 in
      Unify.unifiable t1 t2 = Unify.unifiable t2 t1)

(* renaming apart is not enough here: [t1] alone can repeat a variable
   (f(X, X) against f(Y, g(Y))), and unification without the occur check
   then binds a cycle that [resolve] never leaves.  The property is only
   claimed where the occur check passes. *)
let prop_mgu_is_unifier =
  QCheck2.Test.make ~name:"mgu equalizes both sides" ~count:200
    (QCheck2.Gen.pair gen_term gen_term) (fun (t1, t2) ->
      let t2 = Term.rename t2 in
      match Unify.unify_oc Subst.empty t1 t2 with
      | None -> true
      | Some _ -> (
          match Unify.unify Subst.empty t1 t2 with
          | None -> false
          | Some s -> Term.equal (Subst.resolve s t1) (Subst.resolve s t2)))

let prop_rename_variant =
  QCheck2.Test.make ~name:"rename produces a variant" ~count:200 gen_term
    (fun t -> Canon.variant t (Term.rename t))

let prop_canonical_stable =
  QCheck2.Test.make ~name:"canonicalization stable under renaming" ~count:200
    gen_term (fun t ->
      Term.equal (Canon.of_term t) (Canon.of_term (Term.rename t)))

let prop_pretty_parse_roundtrip =
  QCheck2.Test.make ~name:"pretty/parse roundtrip (ground)" ~count:200
    gen_term (fun t ->
      let t = Subst.resolve Subst.empty t in
      let printed = Pretty.term_to_string t in
      match Parser.parse_term printed with
      | t' -> Term.equal (Canon.of_term t) (Canon.of_term t')
      | exception _ -> false)

(* --- SLD engine --------------------------------------------------------- *)

let db_of src =
  let db = Database.create () in
  ignore (Database.load_string db src);
  db

(* parse goal and answer template together so they share variable scope *)
let answers db q tmpl =
  match parse (Printf.sprintf "(%s) - (%s)" q tmpl) with
  | Term.Struct ("-", [| g; t |], _) ->
      Sld.all_answers db g t |> List.map (fun a -> show (Canon.of_term a))
  | _ -> assert false

let test_sld_facts () =
  let db = db_of "p(a). p(b). p(c)." in
  Alcotest.(check (list string)) "facts" [ "a"; "b"; "c" ]
    (answers db "p(X)" "X")

let test_sld_append () =
  let db = db_of "app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z)." in
  Alcotest.(check (list string)) "append" [ "[1,2,3,4]" ]
    (answers db "app([1,2],[3,4],R)" "R");
  Alcotest.(check int) "split enumeration" 4
    (List.length (answers db "app(X,Y,[1,2,3])" "X-Y"))

let test_sld_cut () =
  let db = db_of "max(X,Y,X) :- X >= Y, !. max(_,Y,Y). first(X, [X|_]) :- !." in
  Alcotest.(check (list string)) "cut commits" [ "3" ] (answers db "max(3,2,M)" "M");
  Alcotest.(check (list string)) "cut fallthrough" [ "5" ]
    (answers db "max(2,5,M)" "M")

let test_sld_negation () =
  let db = db_of "p(a). q(X) :- \\+ p(X)." in
  Alcotest.(check bool) "naf fails" false (Sld.has_solution db (parse "q(a)"));
  Alcotest.(check bool) "naf succeeds" true (Sld.has_solution db (parse "q(b)"))

let test_sld_arith () =
  let db = db_of "fact(0, 1). fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G." in
  Alcotest.(check (list string)) "6!" [ "720" ] (answers db "fact(6,F)" "F")

let test_sld_if_then_else () =
  let db = db_of "sign(X, pos) :- (X > 0 -> true ; fail). classify(X, R) :- (X > 0 -> R = pos ; R = nonpos)." in
  Alcotest.(check (list string)) "then" [ "pos" ] (answers db "classify(3,R)" "R");
  Alcotest.(check (list string)) "else" [ "nonpos" ] (answers db "classify(-1,R)" "R")

let test_sld_findall () =
  let db = db_of "p(1). p(2). p(3)." in
  Alcotest.(check (list string)) "findall" [ "[1,2,3]" ]
    (answers db "findall(X, p(X), L)" "L")

let test_sld_univ_functor () =
  let db = db_of "dummy." in
  Alcotest.(check (list string)) "univ" [ "[f,a,b]" ]
    (answers db "f(a,b) =.. L" "L");
  Alcotest.(check (list string)) "functor" [ "f / 2" ]
    (answers db "functor(f(a,b), F, A)" "F/A");
  Alcotest.(check (list string)) "arg" [ "b" ] (answers db "arg(2, f(a,b), X)" "X")

let test_sld_existence_error () =
  let db = db_of "p(a)." in
  Alcotest.check_raises "unknown predicate"
    (Sld.Existence_error ("q", 1))
    (fun () -> ignore (Sld.has_solution db (parse "q(a)")))

let test_sld_compiled_mode_agrees () =
  let src =
    "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n\
     app([], Y, Y). app([H|T], Y, [H|Z]) :- app(T, Y, Z)."
  in
  let db1 = Database.create ~mode:Database.Dynamic () in
  ignore (Database.load_string db1 src);
  let db2 = Database.create ~mode:Database.Compiled () in
  ignore (Database.load_string db2 src);
  let q = "nrev([1,2,3,4,5], R)" in
  Alcotest.(check (list string))
    "same answers"
    (answers db1 q "R") (answers db2 q "R")

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_unify_reflexive;
      prop_unify_symmetric;
      prop_mgu_is_unifier;
      prop_rename_variant;
      prop_canonical_stable;
      prop_pretty_parse_roundtrip;
    ]

let () =
  Alcotest.run "prax_logic"
    [
      ( "term",
        [
          Alcotest.test_case "basics" `Quick test_term_basics;
          Alcotest.test_case "equality" `Quick test_term_equal;
          Alcotest.test_case "conjuncts" `Quick test_conjuncts;
          Alcotest.test_case "list elements" `Quick test_list_elements;
        ] );
      ( "parser",
        [
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "clause shapes" `Quick test_parse_clause_shapes;
          Alcotest.test_case "lists" `Quick test_parse_lists;
          Alcotest.test_case "quoted atoms & codes" `Quick test_parse_quoted_and_codes;
          Alcotest.test_case "variable scoping" `Quick test_parse_var_scoping;
          Alcotest.test_case "underscore" `Quick test_parse_underscore;
          Alcotest.test_case "if-then-else" `Quick test_parse_if_then_else;
          Alcotest.test_case "op directive" `Quick test_parse_op_directive;
          Alcotest.test_case "pretty roundtrip" `Quick test_pretty_roundtrip_examples;
        ] );
      ( "unify",
        [
          Alcotest.test_case "basic" `Quick test_unify_basic;
          Alcotest.test_case "failure" `Quick test_unify_failure;
          Alcotest.test_case "occur-check" `Quick test_unify_occur_check;
          Alcotest.test_case "chains" `Quick test_unify_chains;
        ] );
      ( "canon",
        [
          Alcotest.test_case "variants" `Quick test_variants;
          Alcotest.test_case "idempotent" `Quick test_canonical_idempotent;
        ] );
      ( "sld",
        [
          Alcotest.test_case "facts" `Quick test_sld_facts;
          Alcotest.test_case "append" `Quick test_sld_append;
          Alcotest.test_case "cut" `Quick test_sld_cut;
          Alcotest.test_case "negation" `Quick test_sld_negation;
          Alcotest.test_case "arithmetic" `Quick test_sld_arith;
          Alcotest.test_case "if-then-else" `Quick test_sld_if_then_else;
          Alcotest.test_case "findall" `Quick test_sld_findall;
          Alcotest.test_case "univ/functor/arg" `Quick test_sld_univ_functor;
          Alcotest.test_case "existence error" `Quick test_sld_existence_error;
          Alcotest.test_case "compiled mode agrees" `Quick test_sld_compiled_mode_agrees;
        ] );
      ("properties", qsuite);
    ]

(* Tests for the Prop domain: truth-table boolean functions, the iff
   relation/builtin, Quine-McCluskey rendering, and the ROBDD package,
   including cross-checks between the two representations. *)

open Prax_prop
open Prax_bdd

(* --- Bf ------------------------------------------------------------------ *)

let test_bf_top_bottom () =
  Alcotest.(check int) "top rows" 8 (Bf.count (Bf.top 3));
  Alcotest.(check int) "bottom rows" 0 (Bf.count (Bf.bottom 3));
  Alcotest.(check bool) "bottom empty" true (Bf.is_empty (Bf.bottom 3));
  Alcotest.(check bool) "top not empty" false (Bf.is_empty (Bf.top 0));
  Alcotest.(check int) "arity 0 top" 1 (Bf.count (Bf.top 0))

let test_bf_ops () =
  let x = Bf.var 2 0 and y = Bf.var 2 1 in
  Alcotest.(check int) "x rows" 2 (Bf.count x);
  Alcotest.(check int) "x&y rows" 1 (Bf.count (Bf.conj x y));
  Alcotest.(check int) "x|y rows" 3 (Bf.count (Bf.disj x y));
  Alcotest.(check int) "~x rows" 2 (Bf.count (Bf.neg x));
  Alcotest.(check bool) "x&~x empty" true (Bf.is_empty (Bf.conj x (Bf.neg x)));
  Alcotest.(check bool) "x|~x top" true (Bf.equal (Bf.disj x (Bf.neg x)) (Bf.top 2))

let test_bf_iff () =
  (* x0 <-> x1 & x2 *)
  let f = Bf.iff 3 0 [ 1; 2 ] in
  Alcotest.(check int) "iff rows" 4 (Bf.count f);
  Alcotest.(check bool) "row ttt" true (Bf.mem f 0b111);
  Alcotest.(check bool) "row t-lhs only rejected" false (Bf.mem f 0b001);
  Alcotest.(check bool) "row fft ok" true (Bf.mem f 0b010);
  (* iff with empty set is just the variable *)
  Alcotest.(check bool) "iff empty set" true
    (Bf.equal (Bf.iff 2 1 []) (Bf.var 2 1))

let test_bf_restrict_exists () =
  let f = Bf.iff 2 0 [ 1 ] in
  (* x0 <-> x1: restrict x1=true gives rows where x0=true *)
  let r = Bf.restrict f 1 true in
  Alcotest.(check (list int)) "restricted" [ 0b11 ] (Bf.rows r);
  let e = Bf.exists f 1 in
  Alcotest.(check int) "exists drops constraint" 4 (Bf.count e)

let test_bf_project_extend () =
  let f = Bf.iff 3 0 [ 1; 2 ] in
  let p = Bf.project f [ 0 ] in
  Alcotest.(check int) "projection arity" 1 (Bf.arity p);
  Alcotest.(check int) "projection total" 2 (Bf.count p);
  (* project respecting duplicates: positions [1;1] *)
  let p2 = Bf.project f [ 1; 1 ] in
  Alcotest.(check bool) "dup projection: only equal pairs" true
    (List.for_all (fun r -> r = 0b00 || r = 0b11) (Bf.rows p2));
  (* extend then project roundtrips *)
  let x = Bf.var 1 0 in
  let ext = Bf.extend x [ 2 ] 3 in
  Alcotest.(check bool) "extend embeds" true
    (Bf.equal (Bf.project ext [ 2 ]) x)

let test_bf_definite () =
  let f =
    Bf.of_tuples 3
      [
        [ Some true; Some true; Some false ]; [ Some true; Some false; Some false ];
      ]
  in
  Alcotest.(check (array bool)) "definite" [| true; false; false |] (Bf.definite f)

let test_bf_of_tuples_none_expands () =
  let f = Bf.of_tuples 2 [ [ Some true; None ] ] in
  Alcotest.(check int) "None both values" 2 (Bf.count f)

let test_bf_implies () =
  let xy = Bf.conj (Bf.var 2 0) (Bf.var 2 1) in
  Alcotest.(check bool) "x&y => x" true (Bf.implies xy (Bf.var 2 0));
  Alcotest.(check bool) "x !=> x&y" false (Bf.implies (Bf.var 2 0) xy)

(* --- Qm ------------------------------------------------------------------ *)

let names i = [| "a"; "b"; "c"; "d" |].(i)

let test_qm_simple () =
  Alcotest.(check string) "false" "false" (Qm.to_string ~names (Bf.bottom 2));
  Alcotest.(check string) "true" "true" (Qm.to_string ~names (Bf.top 2));
  Alcotest.(check string) "single var" "a" (Qm.to_string ~names (Bf.var 2 0))

let test_qm_covers_function () =
  (* the minimized formula must cover exactly the original rows *)
  let check_roundtrip f =
    let cubes = Qm.minimize f in
    let rows = Bf.rows f in
    List.iter
      (fun r ->
        Alcotest.(check bool) "row covered" true
          (List.exists (fun c -> Qm.covers c r) cubes))
      rows;
    for r = 0 to (1 lsl Bf.arity f) - 1 do
      if not (Bf.mem f r) then
        Alcotest.(check bool) "non-row not covered" false
          (List.exists (fun c -> Qm.covers c r) cubes)
    done
  in
  check_roundtrip (Bf.iff 3 0 [ 1; 2 ]);
  check_roundtrip (Bf.var 3 1);
  check_roundtrip (Bf.disj (Bf.var 3 0) (Bf.conj (Bf.var 3 1) (Bf.var 3 2)))

let prop_qm_cover =
  QCheck2.Test.make ~name:"QM cover is exact" ~count:100
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 15))
    (fun rows ->
      let f = Bf.of_rows 4 rows in
      let cubes = Qm.minimize f in
      let covered r = List.exists (fun c -> Qm.covers c r) cubes in
      List.for_all (fun r -> Bf.mem f r = covered r) (List.init 16 Fun.id))

(* --- BDD ------------------------------------------------------------------ *)

let test_bdd_basics () =
  Alcotest.(check bool) "x & ~x = 0" true
    (Bdd.is_false (Bdd.conj (Bdd.var 0) (Bdd.nvar 0)));
  Alcotest.(check bool) "x | ~x = 1" true
    (Bdd.is_true (Bdd.disj (Bdd.var 0) (Bdd.nvar 0)));
  Alcotest.(check bool) "hash-consing: same node" true
    (Bdd.equal (Bdd.conj (Bdd.var 0) (Bdd.var 1)) (Bdd.conj (Bdd.var 1) (Bdd.var 0)))

let test_bdd_iff () =
  let f = Bdd.iff 0 [ 1; 2 ] in
  Alcotest.(check int) "sat count" 4 (Bdd.sat_count ~nvars:3 f);
  Alcotest.(check (list int)) "same rows as Bf" (Bf.rows (Bf.iff 3 0 [ 1; 2 ]))
    (Bdd.sat_rows ~nvars:3 f)

let test_bdd_definite () =
  let f = Bdd.conj (Bdd.var 0) (Bdd.disj (Bdd.var 1) (Bdd.nvar 1)) in
  Alcotest.(check bool) "x definite" true (Bdd.definite_at f 0);
  Alcotest.(check bool) "y not definite" false (Bdd.definite_at f 1)

let test_bdd_exists () =
  let f = Bdd.conj (Bdd.var 0) (Bdd.var 1) in
  Alcotest.(check bool) "exists y (x&y) = x" true
    (Bdd.equal (Bdd.exists f 1) (Bdd.var 0))

(* BDD state lives for one run: a gaia run leaves no node behind, and
   ids keep growing across a reset, so a stale node can never share an
   id (hence a memo key) with a new one. *)
let test_bdd_run_scoped () =
  let before = Bdd.id (Bdd.conj (Bdd.var 40) (Bdd.var 41)) in
  let src =
    (Option.get (Prax_benchdata.Registry.find_logic "qsort"))
      .Prax_benchdata.Registry.source
  in
  ignore (Prax_gaia.Analyze.analyze_bdd src);
  Alcotest.(check int) "no node outlives the gaia run" 0 (Bdd.node_count ());
  let after = Bdd.id (Bdd.conj (Bdd.var 40) (Bdd.var 41)) in
  Alcotest.(check bool) "ids stay monotone across the reset" true
    (after > before);
  Bdd.reset ();
  Alcotest.(check int) "reset empties the table" 0 (Bdd.node_count ())

(* random cross-check Bf vs Bdd through all shared operations *)
let gen_bf =
  QCheck2.Gen.(list_size (int_range 0 10) (int_range 0 15))
  |> QCheck2.Gen.map (fun rows -> Bf.of_rows 4 rows)

let bdd_of_bf f = Bdd.of_rows ~nvars:4 (Bf.rows f)

let prop_bdd_bf_conj =
  QCheck2.Test.make ~name:"Bdd/Bf agree on conj" ~count:150
    (QCheck2.Gen.pair gen_bf gen_bf) (fun (f, g) ->
      Bf.rows (Bf.conj f g)
      = Bdd.sat_rows ~nvars:4 (Bdd.conj (bdd_of_bf f) (bdd_of_bf g)))

let prop_bdd_bf_disj =
  QCheck2.Test.make ~name:"Bdd/Bf agree on disj" ~count:150
    (QCheck2.Gen.pair gen_bf gen_bf) (fun (f, g) ->
      Bf.rows (Bf.disj f g)
      = Bdd.sat_rows ~nvars:4 (Bdd.disj (bdd_of_bf f) (bdd_of_bf g)))

let prop_bdd_bf_neg =
  QCheck2.Test.make ~name:"Bdd/Bf agree on neg" ~count:150 gen_bf (fun f ->
      (* negation within the 4-var universe *)
      let expected = Bf.rows (Bf.neg f) in
      let bddneg = Bdd.neg (bdd_of_bf f) in
      expected = Bdd.sat_rows ~nvars:4 bddneg)

let prop_bdd_bf_definite =
  QCheck2.Test.make ~name:"Bdd/Bf agree on definite" ~count:150 gen_bf
    (fun f ->
      let bf = Bf.definite f in
      let bd = Array.init 4 (fun v -> Bdd.definite_at (bdd_of_bf f) v) in
      (* definite is only meaningful on satisfiable functions; on the empty
         function Bf says all-true and Bdd agrees (f & ~v is empty) *)
      bf = bd)

(* --- iff builtin ----------------------------------------------------------- *)

open Prax_logic

let iff_solutions args_src =
  let t = Parser.parse_term args_src in
  let args = Term.args_of t in
  let out = ref [] in
  Iff.solve Unify.unify Subst.empty args (fun s ->
      out := Subst.resolve s t :: !out);
  List.map Pretty.term_to_string (List.sort Term.compare !out)

let test_iff_builtin_open () =
  Alcotest.(check (list string)) "open iff/3"
    [
      "iff(false,false,false)"; "iff(false,false,true)";
      "iff(false,true,false)"; "iff(true,true,true)";
    ]
    (iff_solutions "iff(A, B, C)")

let test_iff_builtin_bound () =
  Alcotest.(check (list string)) "lhs true forces rhs"
    [ "iff(true,true,true)" ]
    (iff_solutions "iff(true, B, C)");
  Alcotest.(check (list string)) "contradiction fails" []
    (iff_solutions "iff(true, false, C)")

let test_iff_builtin_shared_vars () =
  Alcotest.(check (list string)) "shared var"
    [ "iff(false,false,false)"; "iff(true,true,true)" ]
    (iff_solutions "iff(A, B, B)")

let test_iff_builtin_nonbool () =
  Alcotest.(check (list string)) "non-boolean arg fails" []
    (iff_solutions "iff(A, foo, B)")

let test_iff_extension () =
  (* the ground extension used by the bottom-up engine matches the builtin *)
  Alcotest.(check int) "extension size k=2" 4
    (List.length (Iff.extension 2));
  List.iter
    (fun row ->
      match row with
      | a :: bs ->
          Alcotest.(check bool) "row satisfies" true
            (a = List.for_all Fun.id bs)
      | [] -> Alcotest.fail "empty row")
    (Iff.extension 3)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_qm_cover; prop_bdd_bf_conj; prop_bdd_bf_disj; prop_bdd_bf_neg;
      prop_bdd_bf_definite;
    ]

let () =
  Alcotest.run "prax_prop"
    [
      ( "bf",
        [
          Alcotest.test_case "top/bottom" `Quick test_bf_top_bottom;
          Alcotest.test_case "boolean ops" `Quick test_bf_ops;
          Alcotest.test_case "iff" `Quick test_bf_iff;
          Alcotest.test_case "restrict/exists" `Quick test_bf_restrict_exists;
          Alcotest.test_case "project/extend" `Quick test_bf_project_extend;
          Alcotest.test_case "definite" `Quick test_bf_definite;
          Alcotest.test_case "of_tuples None" `Quick test_bf_of_tuples_none_expands;
          Alcotest.test_case "implies" `Quick test_bf_implies;
        ] );
      ( "qm",
        [
          Alcotest.test_case "simple forms" `Quick test_qm_simple;
          Alcotest.test_case "cover exactness" `Quick test_qm_covers_function;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "basics" `Quick test_bdd_basics;
          Alcotest.test_case "iff" `Quick test_bdd_iff;
          Alcotest.test_case "definite" `Quick test_bdd_definite;
          Alcotest.test_case "exists" `Quick test_bdd_exists;
          Alcotest.test_case "run-scoped state" `Quick test_bdd_run_scoped;
        ] );
      ( "iff builtin",
        [
          Alcotest.test_case "open call" `Quick test_iff_builtin_open;
          Alcotest.test_case "bound lhs" `Quick test_iff_builtin_bound;
          Alcotest.test_case "shared vars" `Quick test_iff_builtin_shared_vars;
          Alcotest.test_case "non-boolean" `Quick test_iff_builtin_nonbool;
          Alcotest.test_case "ground extension" `Quick test_iff_extension;
        ] );
      ("properties", qsuite);
    ]

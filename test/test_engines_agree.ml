(* Cross-engine agreement: the four evaluation routes — tabled top-down
   (the XSB substitute), the GAIA-style abstract interpreter in both
   back-ends, and bottom-up semi-naive Datalog — implement the same Prop
   analysis and must produce identical success sets, per the paper's
   Table 2 remark ("the results obtained on the two systems are
   identical").  Also checks supplementary tabling preserves the minimal
   model on the tabled route. *)

open Prax_logic
open Prax_prop

let tabled_success src : (string * int, Bf.t) Hashtbl.t =
  let rep = Prax_ground.Analyze.analyze src in
  let out = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace out r.Prax_ground.Analyze.pred
        r.Prax_ground.Analyze.success)
    rep.Prax_ground.Analyze.results;
  out

let gaia_bitset_success src =
  let clauses = Parser.parse_clauses src in
  let abstract, _, _ = Prax_ground.Transform.program clauses in
  let abstract = Prax_tabling.Supplement.fold_program ~threshold:2 abstract in
  let out = Hashtbl.create 16 in
  List.iter
    (fun (r : Prax_gaia.Analyze.Bitset.result) ->
      let name, arity = r.Prax_gaia.Analyze.Bitset.pred in
      (* skip the supplementary helper predicates *)
      if String.length name > 3 && String.equal (String.sub name 0 3) "gp_"
      then
        Hashtbl.replace out
          (String.sub name 3 (String.length name - 3), arity)
          r.Prax_gaia.Analyze.Bitset.success)
    (Prax_gaia.Analyze.Bitset.analyze abstract);
  out

let gaia_bdd_success src =
  let clauses = Parser.parse_clauses src in
  let abstract, _, _ = Prax_ground.Transform.program clauses in
  let out = Hashtbl.create 16 in
  List.iter
    (fun (r : Prax_gaia.Analyze.Bdd_backend.result) ->
      let name, arity = r.Prax_gaia.Analyze.Bdd_backend.pred in
      if String.length name > 3 && String.equal (String.sub name 0 3) "gp_"
      then
        let rows =
          Prax_bdd.Bdd.sat_rows ~nvars:arity
            r.Prax_gaia.Analyze.Bdd_backend.success.Prax_gaia.Backend_bdd.f
        in
        Hashtbl.replace out
          (String.sub name 3 (String.length name - 3), arity)
          (Bf.of_rows arity rows))
    (Prax_gaia.Analyze.Bdd_backend.analyze abstract);
  out

let bottomup_success src =
  let clauses = Parser.parse_clauses src in
  let abstract, preds, _ = Prax_ground.Transform.program clauses in
  let rules =
    Prax_bottomup.From_prop.convert ~domain:Prax_bottomup.From_prop.bool_domain
      abstract
  in
  let intensional, db = Prax_bottomup.Datalog.load rules in
  ignore (Prax_bottomup.Datalog.seminaive intensional db);
  let out = Hashtbl.create 16 in
  List.iter
    (fun (name, arity) ->
      let tuples =
        Prax_bottomup.Datalog.tuples_of db
          (Prax_ground.Transform.prefix ^ name, arity)
      in
      let f = Bf.bottom arity in
      List.iter
        (fun tup ->
          let row = ref 0 in
          Array.iteri
            (fun i t -> if Term.equal t Term.true_ then row := !row lor (1 lsl i))
            tup;
          Bf.add f !row)
        tuples;
      Hashtbl.replace out (name, arity) f)
    preds;
  out

let check_tables_equal msg (a : (string * int, Bf.t) Hashtbl.t) b =
  Hashtbl.iter
    (fun pred fa ->
      match Hashtbl.find_opt b pred with
      | Some fb ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%d" msg (fst pred) (snd pred))
            true (Bf.equal fa fb)
      | None ->
          Alcotest.failf "%s: missing predicate %s/%d" msg (fst pred) (snd pred))
    a

let programs =
  [
    ("append", "ap([], Ys, Ys). ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).");
    ( "rev-acc",
      "rev([],A,A). rev([H|T],A,R) :- rev(T,[H|A],R). top(X) :- rev([a,b],[],X)."
    );
    ( "mixed",
      "p(a, Y). p(X, b) :- q(X). q(c). q(f(Z)) :- p(Z, Z).\n\
       r(X, Y) :- p(X, Y), q(X)." );
    ( "disjunctive",
      "s(X) :- (X = a ; t(X)). t(f(Y)) :- s(Y)." );
    ( "arith",
      "len([],0). len([_|T],N) :- len(T,M), N is M + 1.\n\
       pair(L, N, N2) :- len(L, N), N2 is N * 2." );
  ]

let test_routes_agree (name, src) () =
  let t = tabled_success src in
  check_tables_equal (name ^ " tabled=gaia-bitset") t (gaia_bitset_success src);
  check_tables_equal (name ^ " tabled=gaia-bdd") t (gaia_bdd_success src);
  check_tables_equal (name ^ " tabled=bottomup") t (bottomup_success src)

(* supplementary tabling preserves the tabled route's results *)
let test_supplement_preserves_model () =
  List.iter
    (fun (name, src) ->
      let clauses = Parser.parse_clauses src in
      let rep1 = Prax_ground.Analyze.analyze_clauses clauses in
      let abstract, preds, maxiff = Prax_ground.Transform.program clauses in
      let folded = Prax_tabling.Supplement.fold_program ~threshold:1 abstract in
      let db = Database.create () in
      Database.load_clauses db folded;
      let e = Prax_tabling.Engine.create db in
      Iff.register e ~max_arity:maxiff;
      List.iter
        (fun (pname, arity) ->
          let goal =
            Term.mk
              (Prax_ground.Transform.prefix ^ pname)
              (Array.init arity (fun _ -> Term.fresh_var ()))
          in
          let expected =
            (List.find
               (fun r -> r.Prax_ground.Analyze.pred = (pname, arity))
               rep1.Prax_ground.Analyze.results)
              .Prax_ground.Analyze.success
          in
          let answers = ref [] in
          Prax_tabling.Engine.run e goal (fun s ->
              answers := Canon.canonical s goal :: !answers);
          (* sharing-respecting row expansion, as the analyzer does *)
          let seen = Prax_ground.Analyze.bf_of_answers arity !answers in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%d folded = unfolded" name pname arity)
            true (Bf.equal seen expected))
        preds)
    programs

(* Static unification preserves the tables: the engine Analyze.prepare
   loads ([=] goals solved at transform time) and one loaded with
   Transform.program's raw output derive byte-identical call/answer
   tables and equal engine counters, complete or cut by a table-space
   budget (deterministic, unlike a step budget: the folded program runs
   fewer goals). *)
let evaluate ~clauses ~preds e =
  let status, _ =
    Prax_incr.Incr.run_tabled ~engine:e ~clauses
      ~goals:(List.map Prax_ground.Analyze.open_goal preds)
      ()
  in
  let module E = Prax_tabling.Engine in
  let st = E.stats e in
  ( Prax_guard.Guard.status_to_string status,
    E.dump_tables e,
    Printf.sprintf
      "calls=%d entries=%d answers=%d duplicates=%d resumptions=%d forced=%d"
      st.E.calls st.E.table_entries st.E.answers st.E.duplicates
      st.E.resumptions st.E.forced,
    E.table_space_bytes e )

let raw_engine ~mode ~guard clauses =
  let abstract, preds, maxiff = Prax_ground.Transform.program clauses in
  let db = Database.create ~mode () in
  Database.load_clauses db abstract;
  let e = Prax_tabling.Engine.create ~guard db in
  Iff.register e ~max_arity:maxiff;
  evaluate ~clauses:abstract ~preds e

let folded_engine ~mode ~guard clauses =
  let abstract, preds, e = Prax_ground.Analyze.prepare ~mode ~guard clauses in
  evaluate ~clauses:abstract ~preds e

let check_fold_preserves_tables name src =
  let clauses = Parser.parse_clauses src in
  List.iter
    (fun (mode_name, mode) ->
      let _, _, _, full_bytes =
        raw_engine ~mode ~guard:Prax_guard.Guard.unlimited clauses
      in
      List.iter
        (fun (budget_name, max_table_bytes) ->
          let guard () = Prax_guard.Guard.create ~max_table_bytes () in
          let st_r, dump_r, stats_r, bytes_r =
            raw_engine ~mode ~guard:(guard ()) clauses
          in
          let st_f, dump_f, stats_f, bytes_f =
            folded_engine ~mode ~guard:(guard ()) clauses
          in
          let msg what =
            Printf.sprintf "%s %s %s: %s" name mode_name budget_name what
          in
          Alcotest.(check string) (msg "status") st_r st_f;
          Alcotest.(check string) (msg "dump_tables") dump_r dump_f;
          Alcotest.(check string) (msg "engine stats") stats_r stats_f;
          Alcotest.(check int) (msg "table bytes") bytes_r bytes_f)
        [ ("full", 4 * full_bytes + 4096); ("half", full_bytes / 2) ])
    [ ("dynamic", Database.Dynamic); ("compiled", Database.Compiled) ]

(* Nested disjunctions whose branches alias call arguments, share
   variables with their siblings and with later goals: the branch-local
   fold must keep every variable another branch or goal can see. *)
let nested_disjunctions =
  {|
e(a). e(b). e(f(a)).
p(X, Y) :- ( Z = X, e(Z), Y = Z ; W = f(X), e(W) ; ( V = Y, e(V) ; X = Y ) ).
q(X, Y) :- e(X), ( A = X, p(A, B), Y = B ; A = Y, p(X, A) ), e(Y).
r(X) :- ( p(X, Y) ; q(X, Y) ), ( Y = a ; e(Y), ( Z = Y, q(Z, X) ; true ) ).
s(L) :- ( L = [] ; L = [H|T], ( G = H, e(G) ; r(H) ), s(T) ).
t(X) :- ( Z = X ; e(X) ), e(Z).
|}

(* The corpus programs with the most disjunctions in their abstract
   program (4 to 7 each) also run under more edits. *)
let disjunction_heavy = [ "disj"; "kalah"; "press1"; "press2"; "read" ]

let test_fold_preserves_tables () =
  List.iter (fun (name, src) -> check_fold_preserves_tables name src) programs;
  check_fold_preserves_tables "nested disjunctions" nested_disjunctions;
  List.iter
    (fun (b : Prax_benchdata.Registry.logic_bench) ->
      let name = b.Prax_benchdata.Registry.name in
      let src = b.Prax_benchdata.Registry.source in
      check_fold_preserves_tables name src;
      List.iter
        (fun seed ->
          match Prax_incr.Mutate.mutate_pl ~seed src with
          | Some src' ->
              check_fold_preserves_tables
                (Printf.sprintf "%s~%d" name seed)
                src'
          | None -> ())
        (if List.mem name disjunction_heavy then List.init 8 (fun i -> i + 1)
         else [ 1; 2; 3 ]))
    Prax_benchdata.Registry.logic_benchmarks

(* the full corpus through tabled vs gaia-bdd (the Table 2 pairing) *)
let test_corpus_tabled_vs_gaia () =
  List.iter
    (fun (b : Prax_benchdata.Registry.logic_bench) ->
      let src = b.Prax_benchdata.Registry.source in
      let t = tabled_success src in
      check_tables_equal
        (b.Prax_benchdata.Registry.name ^ " tabled=gaia-bdd")
        t (gaia_bdd_success src))
    Prax_benchdata.Registry.logic_benchmarks

let () =
  Alcotest.run "prax_engines_agree"
    [
      ( "small programs",
        List.map
          (fun (name, src) ->
            Alcotest.test_case name `Quick (test_routes_agree (name, src)))
          programs );
      ( "transformations",
        [
          Alcotest.test_case "supplementary fold preserves model" `Quick
            test_supplement_preserves_model;
          Alcotest.test_case "static unification preserves tables" `Quick
            test_fold_preserves_tables;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "tabled vs gaia-bdd on all 12" `Slow
            test_corpus_tabled_vs_gaia;
        ] );
    ]

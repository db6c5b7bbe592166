(* Term-trie (discrimination tree) tests: the trie index behind the
   engine's call/answer tables must agree with the hash-table path it
   replaced (a [Canon.Tbl] keyed by canonical term) on variant
   equivalence, duplicate suppression, and iteration content, and the
   node-based table-space accounting must still trip the guard's
   [--max-table-bytes] budget soundly.

   The agreement property runs ≥10k generated call/answer pairs through
   both implementations side by side. *)

open Prax_logic
open Prax_tabling
open Prax_guard

let parse = Parser.parse_term
let show t = Pretty.term_to_string t

(* --- generators --------------------------------------------------------- *)

let gen_term =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map (fun i -> Term.var (i mod 6)) small_nat;
               map (fun i -> Term.int (i mod 40)) small_nat;
               oneofl
                 [
                   Term.atom "a"; Term.atom "b"; Term.atom "true";
                   Term.atom "false";
                 ];
             ]
         else
           frequency
             [
               (2, map (fun i -> Term.var (i mod 6)) small_nat);
               (1, oneofl [ Term.atom "a"; Term.atom "b" ]);
               ( 4,
                 map2
                   (fun f args -> Term.mkl f args)
                   (oneofl [ "f"; "g"; "h"; "p"; "." ])
                   (list_size (int_range 1 3) (self (n / 2))) );
             ])

(* Consistent renaming with an offset: a variant by construction, and
   (for non-ground terms) a physically different key that must land on
   the same canonical trie path. *)
let rename_by n t = Term.map_vars (fun i -> Term.var (i + n)) t

let prop name count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- trie vs hash table, side by side ----------------------------------- *)

(* The old engine path: a Canon.Tbl plus an insertion-order vector.
   Feed the same canonical keys to both; every observable — dedup
   verdict, membership, cardinality, insertion order — must agree. *)
let agreement =
  prop "trie agrees with the Canon.Tbl path (dedup, membership, order)"
    2500
    QCheck2.Gen.(list_size (int_range 1 8) gen_term)
    (fun terms ->
      let tbl = Canon.Tbl.create 16 in
      let tbl_order = ref [] in
      let trie = Trie.create () in
      let trie_order = ref [] in
      List.iter
        (fun t ->
          (* insert both the term and a renamed variant: the variant
             must dedup against the original on both paths *)
          List.iter
            (fun key ->
              let hash_new =
                if Canon.Tbl.mem tbl key then false
                else begin
                  Canon.Tbl.add tbl key ();
                  tbl_order := key :: !tbl_order;
                  true
                end
              in
              let trie_new, fresh =
                match Trie.find_or_add trie key (fun () -> ()) with
                | Trie.Existing () -> (false, 0)
                | Trie.Added ((), fresh) ->
                    trie_order := key :: !trie_order;
                    (true, fresh)
              in
              if hash_new <> trie_new then
                QCheck2.Test.fail_reportf "dedup disagrees on %s" (show key);
              if fresh > Term.size key then
                QCheck2.Test.fail_reportf
                  "insert of %s allocated %d nodes > term size %d" (show key)
                  fresh (Term.size key))
            [ Canon.of_term t; Canon.of_term (rename_by 100 t) ])
        terms;
      (* cardinality, membership, and iteration content agree *)
      if Trie.cardinal trie <> Canon.Tbl.length tbl then
        QCheck2.Test.fail_reportf "cardinal %d <> table length %d"
          (Trie.cardinal trie) (Canon.Tbl.length tbl);
      List.iter
        (fun key ->
          if not (Trie.mem trie key) then
            QCheck2.Test.fail_reportf "trie lost %s" (show key);
          if Trie.find_opt trie key = None then
            QCheck2.Test.fail_reportf "find_opt misses %s" (show key))
        !tbl_order;
      if !trie_order <> !tbl_order then
        QCheck2.Test.fail_reportf "insertion order diverged";
      let trie_keys =
        Trie.fold (fun k () acc -> k :: acc) trie [] |> List.sort Term.compare
      in
      let tbl_keys =
        Canon.Tbl.fold (fun k () acc -> k :: acc) tbl []
        |> List.sort Term.compare
      in
      List.length trie_keys = List.length tbl_keys
      && List.for_all2 Term.equal trie_keys tbl_keys)

(* Variants are one key; non-variants are distinct keys. *)
let variant_semantics =
  prop "variant hits, non-variant misses" 2500
    QCheck2.Gen.(pair gen_term gen_term)
    (fun (t1, t2) ->
      let k1 = Canon.of_term t1 and k2 = Canon.of_term t2 in
      let trie = Trie.create () in
      ignore (Trie.find_or_add trie k1 (fun () -> 1));
      (* a renamed variant of t1 canonicalizes onto the same key *)
      let k1' = Canon.of_term (rename_by 7 t1) in
      (match Trie.find_or_add trie k1' (fun () -> 2) with
      | Trie.Existing 1 -> ()
      | _ -> QCheck2.Test.fail_reportf "variant of %s missed" (show t1));
      (* a different canonical term must get its own slot *)
      let expect_hit = Term.equal k1 k2 in
      match Trie.find_or_add trie k2 (fun () -> 3) with
      | Trie.Existing 1 ->
          expect_hit
          || QCheck2.Test.fail_reportf "%s collided with %s" (show k2) (show k1)
      | Trie.Added (3, _) ->
          (not expect_hit)
          || QCheck2.Test.fail_reportf "duplicate %s not deduped" (show k2)
      | _ -> false)

(* --- lookups of live terms under a substitution -------------------------- *)

(* [hide coins t]: a live query for [t] — its variables renamed to live
   ones and some subterms moved behind substitution bindings, as
   the engine sees a goal part-way through a clause body.  Each coin
   picks what happens at one node: keep it; replace it by a fresh
   variable bound to it (directly, or through a chain of two or three
   variables); or, at a variable, alias it to a later live variable,
   which merges two of the key's variables. *)
let hide coins t =
  let coins = ref coins in
  let coin () =
    match !coins with
    | c :: rest ->
        coins := rest;
        c
    | [] -> 0
  in
  let s = ref Subst.empty in
  (* globally fresh ids, so no renaming elsewhere can collide with them;
     [live] is increasing, and aliasing only ever points to a later
     live variable, so the bindings stay acyclic *)
  let fresh = Term.fresh_id in
  let live = Array.init 10 (fun _ -> fresh ()) in
  let unbound v = Subst.walk !s (Term.var v) == Term.var v in
  let behind t =
    (* a chain of 1-3 variables ending at [t] *)
    let rec chain k t =
      let v = fresh () in
      s := Subst.bind !s v t;
      if k <= 1 then Term.var v else chain (k - 1) (Term.var v)
    in
    chain (1 + (coin () mod 3)) t
  in
  let rec go t =
    let t =
      match t with
      | Term.Var i ->
          let v = live.(i) in
          if coin () mod 5 = 0 && unbound v then begin
            let w = live.(i + 1 + (coin () mod 3)) in
            if unbound w then s := Subst.bind !s v (Term.var w)
          end;
          Term.var v
      | Term.Struct (_, args, _) -> Term.rebuild t (Array.map go args)
      | t -> t
    in
    if coin () mod 3 = 0 then behind t else t
  in
  let q = go t in
  (!s, q)

let gen_query keys =
  let open QCheck2.Gen in
  pair
    (oneof (gen_term :: List.map return keys))
    (list_size (int_range 0 40) small_nat)

(* [find_under] finds exactly what a lookup of the canonical
   form finds.  Keys share prefixes heavily (a tiny alphabet), include
   ground subterms and repeated variables, and most queries are hidden
   variants of a stored key, so hits, near misses (a key differing only
   in how its variables are shared) and misses are all common. *)
let find_under_agreement =
  prop "find_under = find_opt of the canonical form" 2500
    QCheck2.Gen.(
      list_size (int_range 1 8) gen_term >>= fun keys ->
      pair (return keys) (list_size (int_range 1 6) (gen_query keys)))
    (fun (keys, queries) ->
      let trie = Trie.create () in
      List.iteri
        (fun i k -> ignore (Trie.find_or_add trie (Canon.of_term k) (fun () -> i)))
        keys;
      List.for_all
        (fun (t, coins) ->
          let s, q = hide coins t in
          let key = Canon.canonical s q in
          let expect = Trie.find_opt trie key in
          Trie.find_under trie s q = expect
          || QCheck2.Test.fail_reportf "find_under disagrees on %s" (show key))
        queries)

(* The consumer's one-sided answer return yields the same instance of
   the goal as unifying with a renamed copy of the answer. *)
let answer_return_agreement =
  prop "unify_answer = unify with the renamed answer" 2500
    QCheck2.Gen.(triple gen_term gen_term (list_size (int_range 0 40) small_nat))
    (fun (g, a, coins) ->
      let s, goal = hide coins g in
      let ans = Canon.of_term a in
      let show_under s' = show (Canon.canonical s' goal) in
      let renamed = Term.rename ans in
      (* without the occur-check a unifier can be cyclic, and a cyclic
         instance has no finite canonical form to compare *)
      if
        Option.is_none (Unify.unify_oc s goal renamed)
        && Option.is_some (Unify.unify s goal renamed)
      then QCheck2.assume_fail ()
      else
      match (Unify.unify_answer s goal ans, Unify.unify s goal renamed) with
      | None, None -> true
      | Some s1, Some s2 ->
          Term.equal (Canon.canonical s1 goal) (Canon.canonical s2 goal)
          || QCheck2.Test.fail_reportf "instances differ: %s vs %s"
               (show_under s1) (show_under s2)
      | Some _, None | None, Some _ ->
          QCheck2.Test.fail_reportf "unifiability differs on %s = %s"
            (show (Canon.canonical s goal)) (show ans))

(* A table hit costs no garbage: after a warm-up (the renumbering
   buffer grows once) a hit of [find_under] — a call-table lookup or a
   duplicate answer — allocates 0 minor words. *)
let hits_allocate_nothing () =
  let trie = Trie.create () in
  List.iter
    (fun src -> ignore (Trie.find_or_add trie (Canon.of_term (parse src)) (fun () -> ())))
    [ "p(A,B,f(A),true)"; "p(A,A,g(B),false)"; "q(A,f(a,B),C)" ];
  (* p(X,Y,Z,true) with Z -> W -> f(X), and q(U,V,C) with V -> f(a,T):
     live variants of the first and the last key *)
  let x = Term.fresh_var () and y = Term.fresh_var () in
  let z = Term.fresh_id () and w = Term.fresh_id () in
  let s =
    Subst.bind
      (Subst.bind Subst.empty z (Term.var w))
      w
      (Term.mk "f" [| x |])
  in
  let q = Term.mk "p" [| x; y; Term.var z; Term.true_ |] in
  let v = Term.fresh_id () in
  let s' =
    Subst.bind Subst.empty v (Term.mk "f" [| Term.atom "a"; Term.fresh_var () |])
  in
  let q' = Term.mk "q" [| Term.fresh_var (); Term.var v; Term.fresh_var () |] in
  let words n f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    int_of_float (Gc.minor_words () -. w0)
  in
  let hit = ref true in
  let call_hit () = hit := !hit && Trie.find_under trie s q <> None in
  let dup_hit () =
    hit := !hit && Option.is_some (Trie.find_under trie s' q')
  in
  Alcotest.(check int) "call-table hit, words per 1000 lookups" 0
    (words 1000 call_hit);
  Alcotest.(check int) "duplicate answer, words per 1000 checks" 0
    (words 1000 dup_hit);
  Alcotest.(check bool) "both were hits" true !hit

(* live_nodes equals the sum of fresh-node counts, and clear resets. *)
let node_accounting () =
  let trie = Trie.create () in
  let total = ref 0 in
  let keys =
    [ "p(a,b,c)"; "p(a,b,d)"; "p(a,X,Y)"; "q"; "q(1)"; "p(a,b,c)" ]
  in
  List.iter
    (fun s ->
      match Trie.find_or_add trie (Canon.of_term (parse s)) (fun () -> ()) with
      | Trie.Added ((), fresh) -> total := !total + fresh
      | Trie.Existing () -> ())
    keys;
  Alcotest.(check int) "live nodes = sum of fresh" !total (Trie.live_nodes trie);
  Alcotest.(check int) "five distinct keys" 5 (Trie.cardinal trie);
  (* p(a,b,c) vs p(a,b,d) share the p/3, a, b prefix: the second insert
     allocates exactly one node *)
  let t2 = Trie.create () in
  let f1 =
    match Trie.find_or_add t2 (parse "p(a,b,c)") (fun () -> ()) with
    | Trie.Added ((), f) -> f
    | _ -> -1
  in
  let f2 =
    match Trie.find_or_add t2 (parse "p(a,b,d)") (fun () -> ()) with
    | Trie.Added ((), f) -> f
    | _ -> -1
  in
  Alcotest.(check int) "first insert allocates size nodes" 4 f1;
  Alcotest.(check int) "prefix-sharing insert allocates one node" 1 f2;
  Trie.clear t2;
  Alcotest.(check int) "clear drops keys" 0 (Trie.cardinal t2);
  Alcotest.(check int) "clear drops nodes" 0 (Trie.live_nodes t2)

(* A whole-term variant inserted as a key: atoms and bare leaves work. *)
let leaf_keys () =
  let trie = Trie.create () in
  List.iter
    (fun s -> ignore (Trie.find_or_add trie (parse s) (fun () -> s)))
    [ "a"; "b"; "42" ];
  Alcotest.(check int) "three leaves" 3 (Trie.cardinal trie);
  Alcotest.(check (option string)) "atom found" (Some "a")
    (Trie.find_opt trie (parse "a"));
  Alcotest.(check (option string)) "int found" (Some "42")
    (Trie.find_opt trie (parse "42"));
  Alcotest.(check (option string)) "missing leaf" None
    (Trie.find_opt trie (parse "c"))

(* --- the engine on trie tables ------------------------------------------ *)

let engine_of ?guard src =
  let db = Database.create () in
  ignore (Database.load_string db src);
  Engine.create ?guard db

let path_src =
  "edge(a,b). edge(b,c). edge(c,a). edge(b,d).\n\
   path(X,Y) :- edge(X,Y).\n\
   path(X,Y) :- edge(X,Z), path(Z,Y)."

(* Discovery order and table dumps are properties of the engine the
   store round-trip relies on; the trie must not perturb either. *)
let engine_deterministic () =
  let run () =
    let e = engine_of path_src in
    let sols = Engine.query e (parse "path(X,Y)") in
    (List.map show sols, Engine.dump_tables e, Engine.table_space_bytes e)
  in
  let sols1, dump1, bytes1 = run () in
  let sols2, dump2, bytes2 = run () in
  Alcotest.(check (list string)) "discovery order stable" sols1 sols2;
  Alcotest.(check string) "dump stable" dump1 dump2;
  Alcotest.(check int) "bytes stable" bytes1 bytes2;
  Alcotest.(check bool) "bytes positive" true (bytes1 > 0)

(* Prefix sharing must make the trie accounting no larger than the old
   per-term accounting (one word per term node + overheads). *)
let accounting_bounded () =
  let e = engine_of path_src in
  ignore (Engine.query e (parse "path(X,Y)"));
  let stats = Engine.stats e in
  let old_model_bytes =
    (* entry: size + 8 words; answer: size + 2 words — the pre-trie
       model, recomputed from the final tables *)
    8
    * (List.fold_left (fun acc c -> acc + Term.size c + 8) 0 (Engine.calls e)
      + List.fold_left
          (fun acc a -> acc + Term.size a + 2)
          0
          (Engine.answers_for e ("path", 2) @ Engine.answers_for e ("edge", 2)))
  in
  Alcotest.(check bool) "trie accounting <= per-term accounting" true
    (Engine.table_space_bytes e <= old_model_bytes);
  Alcotest.(check bool) "entries recorded" true (stats.Engine.table_entries > 0)

(* nat/1 diverges; only the table-space budget stops it.  The trip must
   surface as a sound partial with consistent, reusable tables. *)
let table_bytes_trip () =
  let e =
    engine_of ~guard:(Guard.create ~max_table_bytes:2048 ())
      "nat(0). nat(s(X)) :- nat(X)."
  in
  let delivered = ref 0 in
  let status = Engine.run_status e (parse "nat(X)") (fun _ -> incr delivered) in
  (match status with
  | Guard.Partial { reason = Guard.Table_space; exhausted_entries } ->
      Alcotest.(check bool) "entries widened" true (exhausted_entries >= 1)
  | Guard.Partial { reason; _ } ->
      Alcotest.failf "expected table-space trip, got %s"
        (Guard.reason_to_string reason)
  | Guard.Complete -> Alcotest.fail "nat/1 cannot complete");
  Alcotest.(check bool) "answers delivered before the trip" true
    (!delivered > 0);
  Alcotest.(check bool) "tables consistent after abort" true
    (Engine.tables_consistent ~after_abort:true e);
  (* the estimate only ever tripped at, not wildly past, the budget:
     the guard checks on every insert, so the overshoot is bounded by
     one insert's worth of words *)
  Alcotest.(check bool) "space accounted" true (Engine.table_space_bytes e > 0);
  (* the widened entry holds its most-general answer and the engine
     stays usable *)
  let widened = Engine.answers_for e ("nat", 1) in
  Alcotest.(check bool) "most-general answer present" true
    (List.exists (fun a -> Unify.unifiable a (parse "nat(anything)")) widened)

(* Error recovery rebuilds the call trie: stale entries vanish, space
   accounting matches a from-scratch recomputation, survivors answer. *)
let error_recovery_rebuild () =
  let db = Database.create () in
  ignore
    (Database.load_string db
       "good(1). good(2).\nbad(X) :- good(X), boom(X).\n");
  let e = Engine.create db in
  Engine.register_builtin e "boom" 1 (fun _ _ _ _ -> failwith "boom");
  (* ground facts first: a closed entry that must survive *)
  ignore (Engine.query e (parse "good(X)"));
  let bytes_before = Engine.table_space_bytes e in
  (match Engine.query e (parse "bad(X)") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the boom/1 builtin to raise");
  Alcotest.(check bool) "tables consistent after error" true
    (Engine.tables_consistent ~after_abort:true e);
  (* the surviving good/1 entry still answers, without recomputation *)
  let again = Engine.query e (parse "good(X)") in
  Alcotest.(check int) "good/1 survived" 2 (List.length again);
  Alcotest.(check int) "space restored to the surviving entry"
    bytes_before
    (Engine.table_space_bytes e)

(* Names compare by pointer: a term whose names were spelled in freshly
   allocated strings still reaches the trie entry keyed by the term built
   from literals, and answer matching accepts it, because building a
   term interns its names.  A name of the same length that differs
   misses. *)
let fresh_names_match () =
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  let key = Term.mk "edge" [| Term.atom "a"; Term.int 1 |] in
  let solo = Term.atom "solo" in
  let t = Trie.create () in
  ignore (Trie.find_or_add t key (fun () -> 1));
  ignore (Trie.find_or_add t solo (fun () -> 2));
  let name = fresh "edge" in
  Alcotest.(check bool) "the spelling is a new string" false (name == "edge");
  let probe = Term.mk name [| Term.atom (fresh "a"); Term.int 1 |] in
  Alcotest.(check (option int)) "struct key found" (Some 1) (Trie.find_opt t probe);
  Alcotest.(check (option int)) "atom key found" (Some 2)
    (Trie.find_opt t (Term.atom (fresh "solo")));
  Alcotest.(check (option int)) "another name misses" None
    (Trie.find_opt t (Term.mk (fresh "edgf") [| Term.atom "a"; Term.int 1 |]));
  Alcotest.(check (option int)) "another atom misses" None
    (Trie.find_opt t (Term.atom (fresh "sole")));
  let goal = Term.mk (fresh "edge") [| Term.var 0; Term.var 1 |] in
  Alcotest.(check bool) "answer matching accepts it" true
    (Option.is_some (Unify.unify_answer Subst.empty goal key));
  Alcotest.(check bool) "an atom answer matches a fresh-spelled atom" true
    (Option.is_some
       (Unify.unify_answer Subst.empty
          (Term.mk "p" [| Term.atom (fresh "a") |])
          (Term.mk "p" [| Term.atom "a" |])));
  Alcotest.(check bool) "a different atom clashes" false
    (Option.is_some
       (Unify.unify_answer Subst.empty
          (Term.mk "p" [| Term.atom (fresh "b") |])
          (Term.mk "p" [| Term.atom "a" |])))

let () =
  Alcotest.run "trie"
    [
      ( "agreement",
        [
          agreement;
          variant_semantics;
          find_under_agreement;
          answer_return_agreement;
        ] );
      ( "alloc",
        [ Alcotest.test_case "table hits allocate nothing" `Quick
            hits_allocate_nothing ] );
      ( "structure",
        [
          Alcotest.test_case "node accounting" `Quick node_accounting;
          Alcotest.test_case "leaf keys" `Quick leaf_keys;
          Alcotest.test_case "fresh name strings match interned keys" `Quick
            fresh_names_match;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic outcome" `Quick
            engine_deterministic;
          Alcotest.test_case "accounting bounded by old model" `Quick
            accounting_bounded;
          Alcotest.test_case "table-space budget trips" `Quick
            table_bytes_trip;
          Alcotest.test_case "error recovery rebuilds" `Quick
            error_recovery_rebuild;
        ] );
    ]

(* Tests of the serving benchmark's own machinery: order statistics,
   generator determinism, the correctness oracle and span self time.
   None of them starts a daemon. *)

open Servebench
module Metrics = Prax_metrics.Metrics
module Wire = Prax_daemon.Wire
module Analysis = Prax_analysis.Analysis

let close = Alcotest.float 1e-9

(* --- stats --------------------------------------------------------------------- *)

let test_percentile () =
  let xs = List.init 101 float_of_int in
  Alcotest.check close "p50 of 0..100" 50. (Stats.percentile xs 0.5);
  Alcotest.check close "p95 of 0..100" 95. (Stats.percentile xs 0.95);
  Alcotest.check close "p99 of 0..100" 99. (Stats.percentile xs 0.99);
  Alcotest.check close "interpolated median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single sample" 7. (Stats.percentile [ 7. ] 0.95);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [] 0.5))

let test_tail () =
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond 200 0.95);
  Alcotest.(check int) "beyond p95 of 199" 9 (Stats.beyond 199 0.95);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Stats.beyond 1000 0.99);
  Alcotest.(check int) "beyond p50 of 7" 3 (Stats.beyond 7 0.5)

let test_ratio () =
  Alcotest.check close "ratio" 0.25 (Stats.ratio 1. 4.);
  Alcotest.check close "zero base reads as none" 0. (Stats.ratio 3. 0.);
  Alcotest.check close "int ratio" 0.5 (Stats.ratio_int 2 4);
  Alcotest.check close "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

(* --- generator ------------------------------------------------------------------- *)

let take n f = List.init n (fun _ -> f ())
let sources items = List.map (fun (it : Gen.item) -> it.Gen.source) items

let test_tagged_deterministic () =
  let a = sources (take 60 (Gen.tagged_stream ~seed:7)) in
  let b = sources (take 60 (Gen.tagged_stream ~seed:7)) in
  let c = sources (take 60 (Gen.tagged_stream ~seed:8)) in
  Alcotest.(check (list string)) "same seed, same bytes" a b;
  Alcotest.(check bool) "other seed, other bytes" true (a <> c);
  Alcotest.(check int) "all distinct" 60 (List.length (List.sort_uniq compare a))

let test_rounds_cover_bases () =
  let n = Array.length Gen.bases in
  let names =
    List.map (fun (it : Gen.item) -> it.Gen.base.Gen.name) (take n (Gen.tagged_stream ~seed:3))
  in
  Alcotest.(check int) "one round holds every base once" n
    (List.length (List.sort_uniq compare names))

let test_tag_is_a_comment () =
  (* the tag must not change the analysis result *)
  List.iter
    (fun (it : Gen.item) ->
      let analysis = it.Gen.base.Gen.analysis in
      Alcotest.(check bool)
        (it.Gen.input ^ " analyzes like its base") true
        (Oracle.expected ~analysis it.Gen.source
        = Oracle.expected ~analysis it.Gen.base.Gen.text))
    (take (Array.length Gen.bases) (Gen.tagged_stream ~seed:11))

let test_edits () =
  let a = sources (take 40 (Gen.edit_stream ~seed:5)) in
  Alcotest.(check (list string)) "same seed, same edits" a
    (sources (take 40 (Gen.edit_stream ~seed:5)));
  Alcotest.(check int) "no edit repeats" 40 (List.length (List.sort_uniq compare a))

let test_invalid_rejected () =
  let base = Gen.bases.(Array.length Gen.bases - 1) in
  Alcotest.(check string) "last base is functional" ".eq" base.Gen.ext;
  (* a Prolog comment line is not valid in the functional language *)
  let bad = { Gen.base; input = "bad.eq"; source = base.Gen.text ^ "\n% not a comment here\n" } in
  match Gen.check bad with
  | _ -> Alcotest.fail "an unparsable source passed the generator's check"
  | exception Gen.Invalid_source (name, _) -> Alcotest.(check string) "named" "bad.eq" name

let test_working_set () =
  let ws = Gen.working_set ~seed:2 ~per_base:2 in
  Alcotest.(check int) "two per base" (2 * Array.length Gen.bases) (Array.length ws);
  Alcotest.(check int) "distinct" (Array.length ws)
    (List.length (List.sort_uniq compare (sources (Array.to_list ws))))

(* --- oracle ------------------------------------------------------------------------ *)

let prog = Gen.bases.(0)

let response ?(status = "complete") ?(id = Metrics.Int 1) report =
  Wire.response ~id ~status [ ("report", report) ]

let good_report () =
  let a = Option.get (Analysis.find prog.Gen.analysis) in
  Analysis.report_to_json (Analysis.run a prog.Gen.text)

let doctor field f = function
  | Metrics.Obj kvs -> Metrics.Obj (List.map (fun (k, v) -> if k = field then (k, f v) else (k, v)) kvs)
  | j -> j

let verdict ?(id = Metrics.Int 1) line =
  match Oracle.check_line ~id ~analysis:prog.Gen.analysis ~source:prog.Gen.text line with
  | Ok s -> "ok " ^ s
  | Error (Oracle.Protocol _) -> "protocol"
  | Error (Oracle.Status s) -> "status " ^ s
  | Error (Oracle.Mismatch _) -> "mismatch"

let test_oracle () =
  let r = good_report () in
  Alcotest.(check string) "true answer" "ok complete" (verdict (response r));
  Alcotest.(check string) "cached answer" "ok cached" (verdict (response ~status:"cached" r));
  let drop_last = function
    | Metrics.Arr (_ :: _ as xs) -> Metrics.Arr (List.rev (List.tl (List.rev xs)))
    | j -> j
  in
  Alcotest.(check string) "doctored result" "mismatch"
    (verdict (response (doctor "result" drop_last r)));
  Alcotest.(check string) "doctored text" "mismatch"
    (verdict (response (doctor "text" (function Metrics.Str s -> Metrics.Str (s ^ " ") | j -> j) r)));
  Alcotest.(check string) "wrong id" "protocol" (verdict ~id:(Metrics.Int 2) (response r));
  Alcotest.(check string) "crashed" "status crashed"
    (verdict (Wire.response ~id:(Metrics.Int 1) ~status:"crashed" []));
  Alcotest.(check string) "partial" "status partial" (verdict (response ~status:"partial" r));
  Alcotest.(check string) "not json" "protocol" (verdict "{\"wire\":");
  Alcotest.(check string) "no report" "protocol"
    (verdict (Wire.response ~id:(Metrics.Int 1) ~status:"complete" []))

let test_prefill () =
  let items = take 6 (Gen.tagged_stream ~seed:21) in
  let pairs = List.map (fun (it : Gen.item) -> (it.Gen.base.Gen.analysis, it.Gen.source)) items in
  Oracle.prefill pairs;
  List.iter
    (fun (analysis, source) ->
      let a = Option.get (Analysis.find analysis) in
      let direct = Oracle.fields_of_report (Analysis.report_to_json (Analysis.run a source)) in
      Alcotest.(check bool) "forked answer equals direct run" true
        (Some (Oracle.expected ~analysis source) = direct))
    pairs

(* --- trace ------------------------------------------------------------------------- *)

let test_self_time () =
  let tr = Trace.create () in
  let root = Trace.record tr ~req:1 "root" ~t0:0. ~t1:10. in
  ignore (Trace.record tr ~req:1 ~parent:root "a" ~t0:1. ~t1:4.);
  ignore (Trace.record tr ~req:1 ~parent:root "b" ~t0:5. ~t1:7.);
  Alcotest.(check (list close)) "root self = 10 - 3 - 2" [ 5. ] (Trace.self_of tr "root");
  Alcotest.(check (list close)) "leaf self = duration" [ 3. ] (Trace.self_of tr "a");
  let nested =
    Trace.span tr ~req:2 "outer" (fun id -> Trace.span tr ~req:2 ~parent:id "inner" (fun _ -> 42))
  in
  Alcotest.(check int) "span returns the value" 42 nested;
  Alcotest.(check bool) "outer covers inner" true
    (List.for_all (fun s -> s >= 0.) (Trace.self_of tr "outer"))

let () =
  Prax_analyses.Analyses.ensure ();
  Alcotest.run "servebench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentile;
          Alcotest.test_case "tail sample counts" `Quick test_tail;
          Alcotest.test_case "ratios" `Quick test_ratio;
        ] );
      ( "generator",
        [
          Alcotest.test_case "tagged sources are seeded" `Quick test_tagged_deterministic;
          Alcotest.test_case "rounds cover every base" `Quick test_rounds_cover_bases;
          Alcotest.test_case "tag is analysis-neutral" `Quick test_tag_is_a_comment;
          Alcotest.test_case "edits are seeded and distinct" `Quick test_edits;
          Alcotest.test_case "unparsable source rejected" `Quick test_invalid_rejected;
          Alcotest.test_case "working set" `Quick test_working_set;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "doctored reports caught" `Quick test_oracle;
          Alcotest.test_case "forked prefill equals direct runs" `Quick test_prefill;
        ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]

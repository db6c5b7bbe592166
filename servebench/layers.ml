(** The traced run's in-process layer replay.

    For each source a workload sent, the analysis pipeline is re-run in
    this process through the same public functions the daemon's worker
    reaches ({!Prax_analysis.Analysis.run} is
    read → prepare → evaluate → collect, then the worker encodes the
    report), each call wrapped in a {!Trace} span under one root span
    per request.  The replayed report must equal the oracle's, so the
    replay is known to do the worker's work and no other.  Around it
    the daemon's hot-path calls, the store, and the incremental planner
    are timed the same way. *)

module Metrics = Prax_metrics.Metrics
module Analysis = Prax_analysis.Analysis
module Guard = Prax_guard.Guard
module Engine = Prax_tabling.Engine
module Database = Prax_logic.Database
module Parser = Prax_logic.Parser
module G = Prax_ground.Analyze
module GD = Prax_ground.Analysis_def
module S = Prax_strict.Analyze
module SD = Prax_strict.Analysis_def
module Check = Prax_fp.Check
module Ast = Prax_fp.Ast
module Store = Prax_store.Store
module Depgraph = Prax_incr.Depgraph
module Wire = Prax_daemon.Wire
module Lru = Prax_daemon.Lru

let analysis_of (it : Gen.item) =
  match Analysis.find it.Gen.base.Gen.analysis with
  | Some a -> a
  | None -> invalid_arg "servebench: unregistered analysis"

(* Count the engine's work for this request at the same boundary. *)
let engine_counts tr ~req e =
  let st = Engine.stats e in
  Trace.count tr ~req "tabling.calls" (float_of_int st.Engine.calls);
  Trace.count tr ~req "tabling.answers" (float_of_int st.Engine.answers);
  Trace.count tr ~req "tabling.duplicates" (float_of_int st.Engine.duplicates);
  Trace.count tr ~req "tabling.resumptions" (float_of_int st.Engine.resumptions);
  Trace.count tr ~req "tabling.table_kb"
    (float_of_int (Engine.table_space_bytes e) /. 1024.)

(** Replay one request's analysis under spans; returns the encoded
    report payload (the bytes the worker would frame home) and the
    abstract program the engine evaluated. *)
let replay tr ~req (it : Gen.item) =
  let a = analysis_of it in
  let config = a.Analysis.defaults in
  let src = it.Gen.source in
  Trace.span tr ~req "request" @@ fun root ->
  let sp name f = Trace.span tr ~req ~parent:root name (fun _ -> f ()) in
  let timed name f =
    let t0 = Analysis.now () in
    let v = sp name f in
    (v, Analysis.now () -. t0)
  in
  let rep, abstract =
    if it.Gen.base.Gen.ext = ".pl" then begin
      let clauses, t_read =
        timed "logic.read" (fun () -> Parser.parse_clauses src)
      in
      let (abstract, preds, e), t_prep =
        timed "transform.prepare" (fun () ->
            G.prepare ~mode:Database.Dynamic ~guard:Guard.unlimited clauses)
      in
      let status, t_eval =
        timed "tabling.evaluate" (fun () ->
            List.fold_left
              (fun acc p ->
                Guard.combine acc
                  (Engine.run_status e (G.open_goal p) (fun _ -> ())))
              Guard.Complete preds)
      in
      let results, t_coll =
        timed "collect" (fun () -> G.collect_results e status preds)
      in
      engine_counts tr ~req e;
      ( GD.wrap ~config
          {
            G.results;
            phases =
              { Analysis.preproc = t_read +. t_prep; analysis = t_eval;
                collection = t_coll };
            table_bytes = Engine.table_space_bytes e;
            engine_stats = Engine.stats e;
            clause_count = List.length abstract;
            status;
          },
        abstract )
    end
    else begin
      let prog, t_read =
        timed "logic.read" (fun () -> Check.parse_and_check src)
      in
      let (rules, e), t_prep =
        timed "transform.prepare" (fun () ->
            S.prepare ~mode:Database.Dynamic
              ~supplementary:(Analysis.config_bool config "supplementary")
              ~guard:Guard.unlimited prog)
      in
      let funcs = Ast.functions prog in
      let status, t_eval =
        timed "tabling.evaluate" (fun () ->
            List.fold_left
              (fun acc goal ->
                Guard.combine acc (Engine.run_status e goal (fun _ -> ())))
              Guard.Complete (S.demand_goals funcs))
      in
      let results, t_coll =
        timed "collect" (fun () -> S.collect_results e status funcs)
      in
      engine_counts tr ~req e;
      ( SD.wrap ~config
          {
            S.results;
            phases =
              { Analysis.preproc = t_read +. t_prep; analysis = t_eval;
                collection = t_coll };
            table_bytes = Engine.table_space_bytes e;
            engine_stats = Engine.stats e;
            rule_count = List.length rules;
            source_lines = Check.line_count src;
            status;
          },
        rules )
    end
  in
  Trace.count tr ~req "transform.clauses" (float_of_int (List.length abstract));
  let json, payload =
    sp "analysis.encode" (fun () ->
        let j = Analysis.report_to_json ~input:it.Gen.input rep in
        (j, Metrics.json_to_string j))
  in
  Trace.count tr ~req "analysis.report_kb"
    (float_of_int (String.length payload) /. 1024.);
  (* the replay must be the worker's computation, not an approximation *)
  (match Oracle.fields_of_report json with
  | Some got
    when got = Oracle.expected ~analysis:it.Gen.base.Gen.analysis src -> ()
  | _ -> failwith ("servebench: layer replay disagrees with the oracle on " ^ it.Gen.input));
  (payload, abstract)

(* --- daemon hot path ------------------------------------------------------------- *)

(** Time the daemon's per-request hot-path calls on this request's own
    bytes: request parse, source digest, resident-cache lookup (against
    [lru], which replays the daemon's cache contents), response encode. *)
let hot_path tr ~req ~lru ~request_line ~payload (it : Gen.item) =
  let sp name f = Trace.span tr ~req name (fun _ -> f ()) in
  ignore (sp "daemon.parse" (fun () -> Wire.parse_request request_line));
  let digest = sp "daemon.digest" (fun () -> Store.digest_source it.Gen.source) in
  let key = it.Gen.base.Gen.analysis ^ "\x00" ^ digest in
  (match sp "daemon.lru" (fun () -> Lru.find lru key) with
  | Some _ -> ()
  | None -> Lru.put lru key payload);
  ignore
    (sp "daemon.respond" (fun () ->
         Wire.response ~id:(Metrics.Int req) ~status:"cached"
           [ ("report", Metrics.json_of_string payload) ]))

(* --- store ---------------------------------------------------------------------- *)

let store_roundtrip tr ~req ~store ~payload (it : Gen.item) =
  let a = analysis_of it in
  let key =
    {
      Store.analysis = a.Analysis.name;
      source_digest = Store.digest_source it.Gen.source;
      config = Analysis.config_to_string a.Analysis.defaults;
      schema_version = Analysis.report_schema_version;
    }
  in
  Trace.span tr ~req "store.save" (fun _ -> Store.save store key payload);
  match Trace.span tr ~req "store.load" (fun _ -> Store.load store key) with
  | Some p when String.equal p payload -> ()
  | _ -> failwith "servebench: store round trip lost the payload"

(* --- incremental planner -------------------------------------------------------- *)

type incr_base = {
  digests : (string, unit) Hashtbl.t;  (** the base's SCC closure digests *)
  cache : Analysis.cache;  (** fragments of the base (and later edits) *)
}

let closure_digests g =
  List.init (Depgraph.scc_count g) (Depgraph.closure_digest g)

let abstract_of (it : Gen.item) =
  let a = analysis_of it in
  let src = it.Gen.source in
  if it.Gen.base.Gen.ext = ".pl" then
    let abstract, _, _ = Prax_ground.Transform.program (Parser.parse_clauses src) in
    abstract
  else
    let rules = Prax_strict.Transform.program (Check.parse_and_check src) in
    if Analysis.config_bool a.Analysis.defaults "supplementary" then
      Prax_tabling.Supplement.fold_program ~threshold:2 rules
    else rules

(** Per base program: its closure digests and a fragment cache seeded
    by an incremental run of the base (what the daemon's store holds
    before the first edit). *)
let incr_bases : (string, incr_base) Hashtbl.t = Hashtbl.create 32

let incr_base (it : Gen.item) =
  let b = it.Gen.base in
  match Hashtbl.find_opt incr_bases b.Gen.name with
  | Some ib -> ib
  | None ->
      let base_item = { it with Gen.source = b.Gen.text } in
      let digests = Hashtbl.create 64 in
      List.iter
        (fun d -> Hashtbl.replace digests d ())
        (closure_digests (Depgraph.build (abstract_of base_item)));
      let cache = Analysis.memory_cache () in
      ignore (Analysis.run_incr (analysis_of it) ~cache b.Gen.text);
      let ib = { digests; cache } in
      Hashtbl.replace incr_bases b.Gen.name ib;
      ib

(** Plan (dependency graph over the request's [abstract] program), cone
    share against the base, a warm incremental run and a scratch run of
    the same source. *)
let incremental tr ~req ~abstract (it : Gen.item) =
  let a = analysis_of it in
  let ib = incr_base it in
  let g = Trace.span tr ~req "incr.plan" (fun _ -> Depgraph.build abstract) in
  let ds = closure_digests g in
  let missed = List.length (List.filter (fun d -> not (Hashtbl.mem ib.digests d)) ds) in
  Trace.count tr ~req "incr.cone_frac" (Stats.ratio_int missed (List.length ds));
  ignore
    (Trace.span tr ~req "incr.run" (fun _ ->
         Analysis.run_incr a ~cache:ib.cache it.Gen.source));
  ignore (Trace.span tr ~req "incr.scratch" (fun _ -> Analysis.run a it.Gen.source))

(** Registry entry for Prop groundness: adapts the typed {!Analyze}
    driver to the generic {!Prax_analysis.Analysis} interface (see
    docs/ANALYSES.md).  Registered by [Prax_analyses.Analyses]. *)

open Prax_logic
module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics
module Incr = Prax_incr.Incr

let result_json (r : Analyze.pred_result) : Metrics.json =
  let name, arity = r.Analyze.pred in
  Metrics.Obj
    [
      ("name", Metrics.Str name);
      ("arity", Metrics.Int arity);
      ("success", Metrics.Str r.Analyze.formula);
      ( "definite",
        Metrics.Str
          (String.concat ""
             (List.init arity (fun i ->
                  if r.Analyze.definite.(i) then "g" else "?"))) );
      ("never_succeeds", Metrics.Bool r.Analyze.never_succeeds);
      ( "calls",
        Metrics.Arr
          (List.map (fun p -> Metrics.Str p) r.Analyze.call_patterns) );
    ]

let wrap ~config (rep : Analyze.report) : Analysis.report =
  {
    Analysis.analysis = "groundness";
    config;
    phases = rep.Analyze.phases;
    status = rep.Analyze.status;
    table_bytes = rep.Analyze.table_bytes;
    clause_count = rep.Analyze.clause_count;
    source_lines = None;
    engine = Some rep.Analyze.engine_stats;
    payload_text = Analyze.report_to_string rep;
    payload_json = Metrics.Arr (List.map result_json rep.Analyze.results);
  }

let mode config =
  Analysis.config_enum config "mode" [ "dynamic"; "compiled"; "def" ]

(* Table-compatibility (docs/INCREMENTAL.md): dynamic and compiled run
   the same tabled fixpoint over different clause stores, so their
   fragments are interchangeable — one shared class "prop".  The def
   domain caches implication-set values, a different payload entirely. *)
let table_class config = if mode config = "def" then "def" else "prop"

let run ?cache ~config ~guard src : Analysis.report =
  let cache =
    Option.map
      (fun fragments -> { Incr.fragments; table_class = table_class config })
      cache
  in
  let rep =
    match mode config with
    | "def" ->
        (* def-domain fast path: bottom-up over definite Boolean
           functions, no tabled evaluation (docs/ANALYSES.md) *)
        Def.analyze ?cache ~guard src
    | mode_name ->
        let mode =
          if mode_name = "compiled" then Database.Compiled else Database.Dynamic
        in
        Analyze.analyze ?cache ~mode ~guard src
  in
  wrap ~config rep

let def : Analysis.t =
  {
    Analysis.name = "groundness";
    doc = "Prop-domain groundness analysis of a logic program (Figure 1)";
    kind = Analysis.Logic_program;
    extensions = [ ".pl" ];
    defaults = [ ("mode", "dynamic") ];
    run;
    table_class = Some table_class;
  }

(** Registry entry for depth-k groundness: adapts the typed {!Analyze}
    driver to the generic {!Prax_analysis.Analysis} interface (see
    docs/ANALYSES.md).  Registered by [Prax_analyses.Analyses]. *)

module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics

let counts (st : Prax_tabling.Engine.stats) : Analysis.engine_counts =
  {
    Analysis.calls = st.Prax_tabling.Engine.calls;
    table_entries = st.Prax_tabling.Engine.table_entries;
    answers = st.Prax_tabling.Engine.answers;
    duplicates = st.Prax_tabling.Engine.duplicates;
    resumptions = st.Prax_tabling.Engine.resumptions;
    forced = st.Prax_tabling.Engine.forced;
  }

let result_json (r : Analyze.pred_result) : Metrics.json =
  let name, arity = r.Analyze.pred in
  Metrics.Obj
    [
      ("name", Metrics.Str name);
      ("arity", Metrics.Int arity);
      ( "definite",
        Metrics.Str
          (if r.Analyze.never_succeeds then "-"
           else
             String.concat ""
               (List.init arity (fun i ->
                    if r.Analyze.definite.(i) then "g" else "?"))) );
      ("never_succeeds", Metrics.Bool r.Analyze.never_succeeds);
      ("patterns", Metrics.Int (List.length r.Analyze.answers));
    ]

let run ?cache:_ ~config ~guard src : Analysis.report =
  let k = Analysis.config_int config "k" in
  if k < 0 then
    raise (Analysis.Config_error "k expects a non-negative integer");
  let rep = Analyze.analyze ~guard ~k src in
  {
    Analysis.analysis = "depthk";
    config;
    phases = rep.Analyze.phases;
    status = rep.Analyze.status;
    table_bytes = rep.Analyze.table_bytes;
    clause_count = rep.Analyze.clause_count;
    source_lines = None;
    engine = Some (counts rep.Analyze.engine_stats);
    payload_text = Analyze.report_to_string rep;
    payload_json = Metrics.Arr (List.map result_json rep.Analyze.results);
  }

let def : Analysis.t =
  {
    Analysis.name = "depthk";
    doc = "Groundness analysis with depth-k term abstraction (Section 5)";
    kind = Analysis.Logic_program;
    extensions = [ ".pl" ];
    defaults = [ ("k", "2") ];
    run;
    table_class = None;
  }

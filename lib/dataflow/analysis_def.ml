(** Registry entry for demand-driven dataflow: adapts {!Analyze} to the
    generic {!Prax_analysis.Analysis} interface (see docs/ANALYSES.md).
    The source is the textual [.cfg] control-flow-graph format of
    {!Cfg.parse}.  Registered by [Prax_analyses.Analyses]. *)

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

let row_json (n, defs) : Metrics.json =
  Metrics.Obj
    [
      ("node", Metrics.Int n);
      ( "reaching",
        Metrics.Arr
          (List.map
             (fun (v, d) ->
               Metrics.Obj
                 [ ("var", Metrics.Str v); ("def", Metrics.Int d) ])
             defs) );
    ]

let run ?cache:_ ~config ~guard src : Analysis.report =
  let rep = Analyze.analyze_source ~guard src in
  {
    Analysis.analysis = "dataflow";
    config;
    phases = rep.Analyze.phases;
    status = rep.Analyze.status;
    table_bytes = rep.Analyze.table_bytes;
    clause_count = rep.Analyze.node_count;
    source_lines = None;
    engine = Some (counts rep.Analyze.engine_stats);
    payload_text = Analyze.report_to_string rep;
    payload_json = Metrics.Arr (List.map row_json rep.Analyze.rows);
  }

let def : Analysis.t =
  {
    Analysis.name = "dataflow";
    doc = "Demand-driven reaching-definitions over textual CFGs (Section 7)";
    kind = Analysis.Cfg_program;
    extensions = [ ".cfg" ];
    defaults = [];
    run;
    table_class = None;
  }

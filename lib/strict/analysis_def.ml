(** Registry entry for strictness: adapts the typed {!Analyze} driver
    to the generic {!Prax_analysis.Analysis} interface (see
    docs/ANALYSES.md).  Registered by [Prax_analyses.Analyses]. *)

module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics
module Incr = Prax_incr.Incr

let result_json (r : Analyze.func_result) : Metrics.json =
  Metrics.Obj
    [
      ("name", Metrics.Str r.Analyze.fname);
      ("arity", Metrics.Int r.Analyze.arity);
      ("e_demand", Metrics.Str (Analyze.demand_string r.Analyze.e_demands));
      ("d_demand", Metrics.Str (Analyze.demand_string r.Analyze.d_demands));
      ( "strict_args",
        Metrics.Arr
          (List.map
             (fun i -> Metrics.Int (i + 1))
             (Analyze.strict_args r)) );
    ]

let wrap ~config (rep : Analyze.report) : Analysis.report =
  {
    Analysis.analysis = "strictness";
    config;
    phases = rep.Analyze.phases;
    status = rep.Analyze.status;
    table_bytes = rep.Analyze.table_bytes;
    clause_count = rep.Analyze.rule_count;
    source_lines = Some rep.Analyze.source_lines;
    engine = Some rep.Analyze.engine_stats;
    payload_text = Analyze.report_to_string rep;
    payload_json = Metrics.Arr (List.map result_json rep.Analyze.results);
  }

(* Table-compatibility (docs/INCREMENTAL.md): supplementary folding
   changes the derived rule set, hence the table shape — the two
   settings must not share fragments.  Answer subsumption keeps only
   minimal answers, so fragments of the variant-tabled classes ("slg",
   "slg-nosupp") hold other tables and must never be spliced here. *)
let table_class config =
  if Analysis.config_bool config "supplementary" then "slg-sub"
  else "slg-sub-nosupp"

let run ?cache ~config ~guard src : Analysis.report =
  let supplementary = Analysis.config_bool config "supplementary" in
  let cache =
    Option.map
      (fun fragments -> { Incr.fragments; table_class = table_class config })
      cache
  in
  wrap ~config (Analyze.analyze ?cache ~supplementary ~guard src)

let def : Analysis.t =
  {
    Analysis.name = "strictness";
    doc = "Demand-based strictness analysis of a lazy functional program \
           (Figure 3)";
    kind = Analysis.Fp_program;
    extensions = [ ".eq" ];
    (* folding off: under answer subsumption its supp$ chains only add
       entries and resumptions, and reports are byte-identical
       (docs/ANALYSES.md) *)
    defaults = [ ("supplementary", "false") ];
    run;
    table_class = Some table_class;
  }

(** The registry's [supplementary] setting, for typed callers of
    {!Analyze.analyze} that want what [xanalyze analyze strictness] runs. *)
let default_supplementary =
  Analysis.config_bool def.Analysis.defaults "supplementary"

(** Registry entry for the GAIA-style comparator: adapts {!Analyze} to
    the generic {!Prax_analysis.Analysis} interface (see
    docs/ANALYSES.md).  GAIA runs to fixpoint in one sweep with no
    tabled engine behind it, so the guard is unused, the status is
    always [Complete], and there are no engine counts or table-space
    estimate.  Registered by [Prax_analyses.Analyses]. *)

module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

let result_to_string (r : Analyze.pred_result) : string =
  let name, arity = r.Analyze.pred in
  Printf.sprintf "%s/%d: definite=%s" name arity
    (if r.Analyze.never_succeeds then "-"
     else
       String.concat ""
         (List.init arity (fun i ->
              if r.Analyze.definite.(i) then "g" else "?")))

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
    ]

let run ?cache:_ ~config ~guard:_ src : Analysis.report =
  let backend = Analysis.config_enum config "backend" [ "bdd"; "bitset" ] in
  let rep =
    match backend with
    | "bitset" -> Analyze.analyze_bitset src
    | _ -> Analyze.analyze_bdd src
  in
  {
    Analysis.analysis = "gaia";
    config;
    phases = rep.Analyze.phases;
    status = Guard.Complete;
    table_bytes = 0;
    clause_count = rep.Analyze.clause_count;
    source_lines = None;
    engine = None;
    payload_text =
      String.concat "\n" (List.map result_to_string rep.Analyze.results);
    payload_json = Metrics.Arr (List.map result_json rep.Analyze.results);
  }

let def : Analysis.t =
  {
    Analysis.name = "gaia";
    doc = "GAIA-style bottom-up groundness comparator (Table 2 baseline)";
    kind = Analysis.Logic_program;
    extensions = [ ".pl" ];
    defaults = [ ("backend", "bdd") ];
    run;
    table_class = None;
  }

(** Strictness analysis driver.  Phases mirror Table 3's methodology:
    preprocess (parse + check + derive the sp/pm logic rules + load),
    analyze (tabled evaluation of [sp_f(e,…)] and [sp_f(d,…)] for every
    function), collect (per-argument glb over answers). *)

open Prax_logic
open Prax_tabling
open Prax_fp
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis

(* Phase timers mirroring the Table 3 columns (docs/METRICS.md). *)
let t_preprocess =
  Metrics.timer ~doc:"strictness: parse, check, derive sp/pm rules, load"
    "strict.preprocess"

let t_evaluate =
  Metrics.timer ~doc:"strictness: tabled evaluation of sp_f goals"
    "strict.evaluate"

let t_collect =
  Metrics.timer ~doc:"strictness: per-argument glb over answers"
    "strict.collect"

type func_result = {
  fname : string;
  arity : int;
  e_demands : Demand.t array option;
      (** per-argument guaranteed demand when the result is demanded to
          normal form; [None] if the function cannot be used under
          e-demand at all *)
  d_demands : Demand.t array option;
      (** same under head-normal-form demand — the standard notion of
          strictness *)
}

(* The shared Table-style phase record, re-exported so existing callers
   keep their [Analyze.phases] spelling (the definition now lives in
   prax.analysis, one copy for all drivers). *)
type phases = Analysis.phases = {
  preproc : float;
  analysis : float;
  collection : float;
}

let total = Analysis.total

type report = {
  results : func_result list;
  phases : phases;
  table_bytes : int;
  engine_stats : Engine.stats;
  rule_count : int;
  source_lines : int;
  status : Guard.status;
      (** [Partial] when a resource budget stopped evaluation; widened
          entries then report the weakest demand (sound: strictness
          claims only shrink) *)
}

(* monotonic, same clock as the Metrics timers (docs/ANALYSES.md) *)
let now = Analysis.now

(* glb across answers, per argument; an unbound position means no demand
   is guaranteed on that path *)
let demands_of_answers arity (answers : Term.t list) : Demand.t array option =
  match answers with
  | [] -> None
  | _ ->
      let out = Array.make arity Demand.E in
      List.iter
        (fun ans ->
          let args = Term.args_of ans in
          for i = 1 to arity do
            match Demand.of_term args.(i) with
            | Some d -> out.(i - 1) <- Demand.glb out.(i - 1) d
            | None -> out.(i - 1) <- Demand.N
          done)
        answers;
      Some out

(* Answer subsumption: every table keeps only the answers minimal under
   the pointwise demand order, each stored as its least instance.
   Collection takes the per-argument glb, which the minimal answers
   already determine, and every base relation is monotone in the order
   (test_strict checks it), so the demands are those of variant tabling
   (docs/ANALYSES.md). *)
let hooks =
  {
    Engine.concrete_hooks with
    abstract_answer = Demand.least_instance;
    answer_leq = Some Demand.answer_leq;
  }

(* Preprocessing: derive the sp/pm rules (optionally with
   supplementary folding) and load them. *)
let prepare ~mode ~supplementary ~guard p =
  let rules = Transform.program p in
  let rules =
    (* supplementary tabling (Section 4.2) folds long bodies into
       tabled chains.  Under variant tabling it was indispensable
       (mergesort took 40 s without it); with answer subsumption the
       chains only add entries and resumptions, so the registry default
       is off and [bench ablation_supp] keeps the comparison. *)
    if supplementary then Supplement.fold_program ~threshold:2 rules
    else rules
  in
  let db = Database.create ~mode () in
  Database.load_clauses db rules;
  (rules, Engine.create ~hooks ~guard db)

(* The evaluation-phase demand: [sp_f(e,…)] and [sp_f(d,…)] for every
   function, in function order. *)
let demand_goals funcs =
  List.concat_map
    (fun (f, arity) ->
      List.map
        (fun dem ->
          Term.mkl (Transform.sp_name f)
            (Demand.to_atom dem
            :: List.init arity (fun _ -> Term.fresh_var ())))
        [ Demand.E; Demand.D ])
    funcs

(* Collection: per-argument glb over answers. *)
let collect_results e status funcs =
  List.map
    (fun (f, arity) ->
      let p = (Transform.sp_name f, arity + 1) in
      let under dem t =
        match (Term.args_of t).(0) with
        | Term.Atom a -> String.equal a (String.make 1 (Demand.to_char dem))
        | _ -> false
      in
      (* answers across all call variants, filtered by demand below *)
      let answers = Engine.answers_for e p in
      let demands dem =
        if
          Guard.is_partial status
          && not (List.exists (under dem) (Engine.calls_for e p))
        then
          (* the budget tripped before the sp goal under this demand
             created its table entry: claim nothing (no demand
             guaranteed on any argument), not "unusable under demand" *)
          Some (Array.make arity Demand.N)
        else demands_of_answers arity (List.filter (under dem) answers)
      in
      {
        fname = f;
        arity;
        e_demands = demands Demand.E;
        d_demands = demands Demand.D;
      })
    funcs

(** Run the analysis on a checked program.  With a fragment [cache] the
    evaluation is edit-aware over the derived sp/pm rules — unchanged
    cones splice their tables back instead of recomputing
    (docs/INCREMENTAL.md) — and the report is byte-identical to a run
    without one.  [supplementary] has no default here: the registry
    entry ({!Analysis_def}) holds the only one. *)
let analyze_program ?cache ?(mode = Database.Dynamic) ~supplementary
    ?(guard = Guard.unlimited) ~source_lines (p : Ast.program) : report =
  let funcs = Ast.functions p in
  let phases, (rules, e), (status, _), results =
    Analysis.phased ~timers:(t_preprocess, t_evaluate, t_collect)
      ~pre:(fun () -> prepare ~mode ~supplementary ~guard p)
      ~eval:(fun (rules, e) ->
        Prax_incr.Incr.run_tabled ?cache ~engine:e ~clauses:rules
          ~goals:(demand_goals funcs) ())
      ~collect:(fun (_, e) (status, _) -> collect_results e status funcs)
      ()
  in
  {
    results;
    phases;
    table_bytes = Engine.table_space_bytes e;
    engine_stats = Engine.stats e;
    rule_count = List.length rules;
    source_lines;
    status;
  }

(** Full pipeline from source text. *)
let analyze ?cache ?(mode = Database.Dynamic) ~supplementary ?guard
    (src : string) : report =
  let prog, t_parse =
    Analysis.parsed t_preprocess (fun () -> Check.parse_and_check src)
  in
  let r =
    analyze_program ?cache ~mode ~supplementary ?guard
      ~source_lines:(Check.line_count src) prog
  in
  { r with phases = Analysis.add_preproc r.phases t_parse }

(** Plain "compilation" of a functional program: parse, check, and build
    the interpreter's equation index — the baseline against which the
    paper reports strictness-analysis overhead. *)
let compile_time (src : string) : float =
  let t0 = now () in
  let prog = Check.parse_and_check src in
  ignore (Eval.make prog);
  now () -. t0

(* --- queries on results --------------------------------------------------- *)

let result_for (rep : report) f =
  List.find_opt (fun r -> String.equal r.fname f) rep.results

(** Argument positions (0-based) that are strict in the standard sense:
    demanded whenever the result is demanded to head-normal form. *)
let strict_args (r : func_result) : int list =
  match r.d_demands with
  | None -> []
  | Some ds ->
      Array.to_list ds
      |> List.mapi (fun i d -> (i, d))
      |> List.filter_map (fun (i, d) ->
             if Demand.is_strict d then Some i else None)

let demand_string = function
  | None -> "-"
  | Some ds ->
      String.init (Array.length ds) (fun i -> Demand.to_char ds.(i))

let result_to_string (r : func_result) : string =
  Printf.sprintf "%s/%d: e-demand=%s d-demand=%s strict-args={%s}" r.fname
    r.arity
    (demand_string r.e_demands)
    (demand_string r.d_demands)
    (String.concat ","
       (List.map (fun i -> string_of_int (i + 1)) (strict_args r)))

let report_to_string (rep : report) : string =
  String.concat "\n" (List.map result_to_string rep.results)

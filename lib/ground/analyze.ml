(** Groundness analysis driver: preprocess (parse, transform, load),
    analyze (tabled evaluation of the abstract program), collect (fold the
    call/answer tables into per-predicate groundness results).

    The three phases and their timings mirror the paper's Table 1
    methodology exactly; total analysis time is their sum. *)

open Prax_logic
open Prax_tabling
open Prax_prop
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis

(* Phase timers mirroring the Table 1 columns (docs/METRICS.md).  The
   [phases] record carries the same breakdown per report; the timers
   accumulate process-wide for `--stats` output. *)
let t_preprocess =
  Metrics.timer ~doc:"groundness: parse, transform, load" "ground.preprocess"

let t_evaluate =
  Metrics.timer ~doc:"groundness: tabled evaluation of the abstract program"
    "ground.evaluate"

let t_collect =
  Metrics.timer ~doc:"groundness: fold call/answer tables into results"
    "ground.collect"

type pred_result = {
  pred : string * int;
  success : Bf.t;  (** output groundness as a boolean function *)
  definite : bool array;  (** argument ground in every answer *)
  never_succeeds : bool;
  call_patterns : string list;  (** input modes, e.g. ["gf"; "gg"] *)
  formula : string;
      (** [success] rendered over [A1..An] ("unreachable" when it never
          succeeds), computed once in the collect phase *)
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
  results : pred_result list;
  phases : phases;
  table_bytes : int;
  engine_stats : Engine.stats;
  clause_count : int;  (** size of the abstract program *)
  status : Guard.status;
      (** [Partial] when a resource budget stopped evaluation: the
          results are then a sound over-approximation (widened table
          entries answer their most general call) *)
}

(* monotonic, same clock as the Metrics timers (docs/ANALYSES.md) *)
let now = Analysis.now

(* Fold an answer's rows into [f].  Unbound variables in an answer range
   over both values, but sharing must be respected: gp_ap(true,A,A)
   contributes (t,t,t) and (t,f,f) only. *)
let add_answer_rows (f : Bf.t) (ans : Term.t) : unit =
  let args = Term.args_of ans in
  let vars = Term.vars ans in
  let rec assign env = function
    | [] ->
        let row = ref 0 in
        Array.iteri
          (fun i a ->
            let b =
              match a with
              | Term.Atom "true" -> true
              | Term.Atom "false" -> false
              | Term.Var v -> List.assoc v env
              | _ -> false
            in
            if b then row := !row lor (1 lsl i))
          args;
        Bf.add f !row
    | v :: rest ->
        assign ((v, true) :: env) rest;
        assign ((v, false) :: env) rest
  in
  assign [] vars

let bf_of_answers arity (answers : Term.t list) : Bf.t =
  let f = Bf.bottom arity in
  List.iter (add_answer_rows f) answers;
  f

let mode_char = function
  | Term.Atom "true" -> 'g'
  | Term.Atom "false" -> 'n'
  | _ -> '?'

let pattern_of_call (call : Term.t) : string =
  Term.args_of call |> Array.to_seq |> Seq.map mode_char |> String.of_seq

(* Preprocessing: transform, solve the [=] goals statically, load into
   the clause store.  Returns the clauses actually loaded. *)
let prepare ~mode ~guard clauses =
  let abstract, preds, max_iff = Transform.program clauses in
  let abstract = List.map Transform.fold_clause abstract in
  let db = Database.create ~mode () in
  Database.load_clauses db abstract;
  let e = Engine.create ~guard db in
  Iff.register e ~max_arity:max_iff;
  (abstract, preds, e)

(* The evaluation-phase demand: an open call on every abstracted
   predicate, in predicate order. *)
let open_goal (name, arity) =
  Term.mk (Transform.prefix ^ name)
    (Array.init arity (fun _ -> Term.fresh_var ()))

(* The rendered success formula of a result, shared with Def. *)
let formula_of ~never_succeeds success =
  if never_succeeds then "unreachable"
  else Qm.to_string ~names:(fun i -> Printf.sprintf "A%d" (i + 1)) success

(* Collection: combine answers per predicate. *)
let collect_results e status preds =
  List.map
    (fun (name, arity) ->
      let gp = (Transform.prefix ^ name, arity) in
      let unexplored =
        (* a partial run may have tripped before this predicate's
           open call even created a table entry; its answer table
           is then empty because nothing was derived, not because
           the predicate fails — degrade to top, not bottom *)
        Guard.is_partial status && Engine.calls_for e gp = []
      in
      let answers = Engine.answers_for e gp in
      let success =
        if unexplored then Bf.top arity else bf_of_answers arity answers
      in
      let never = Bf.is_empty success in
      let definite = Bf.definite success in
      let call_patterns =
        Engine.calls_for e gp |> List.map pattern_of_call
        |> List.sort_uniq compare
      in
      { pred = (name, arity); success; definite; never_succeeds = never;
        call_patterns; formula = formula_of ~never_succeeds:never success })
    preds

(** Run the analysis on already-parsed clauses (so callers can time
    parsing separately if they wish).  With a fragment [cache] the
    evaluation is edit-aware — unchanged cones splice their tables back
    instead of recomputing (docs/INCREMENTAL.md) — and the report is
    byte-identical to a run without one. *)
let analyze_clauses ?cache ?(mode = Database.Dynamic) ?(guard = Guard.unlimited)
    (clauses : Parser.clause list) : report =
  let phases, (abstract, _, e), (status, _), results =
    Analysis.phased ~timers:(t_preprocess, t_evaluate, t_collect)
      ~pre:(fun () -> prepare ~mode ~guard clauses)
      (* analysis: open call on every abstracted predicate *)
      ~eval:(fun (abstract, preds, e) ->
        Prax_incr.Incr.run_tabled ?cache ~engine:e ~clauses:abstract
          ~goals:(List.map open_goal preds)
          ())
      ~collect:(fun (_, preds, e) (status, _) -> collect_results e status preds)
      ()
  in
  {
    results;
    phases;
    table_bytes = Engine.table_space_bytes e;
    engine_stats = Engine.stats e;
    clause_count = List.length abstract;
    status;
  }

(** Full pipeline from source text; parse time is part of preprocessing,
    as in the paper. *)
let analyze ?cache ?(mode = Database.Dynamic) ?guard (src : string) : report =
  let clauses, t_parse =
    Analysis.parsed t_preprocess (fun () -> Parser.parse_clauses src)
  in
  let r = analyze_clauses ?cache ~mode ?guard clauses in
  { r with phases = Analysis.add_preproc r.phases t_parse }

(** Plain compilation time of the source (parse + load), the baseline for
    the paper's "compile time increase" column. *)
let compile_time ?(mode = Database.Compiled) (src : string) : float =
  let t0 = now () in
  let db = Database.create ~mode () in
  ignore (Database.load_string db src);
  now () -. t0

(* --- reporting ---------------------------------------------------------- *)

let result_to_string (r : pred_result) : string =
  let name, arity = r.pred in
  let definite =
    if r.never_succeeds then "-"
    else
      String.concat ""
        (List.init arity (fun i -> if r.definite.(i) then "g" else "?"))
  in
  Printf.sprintf "%s/%d: success=%s definite=%s calls={%s}" name arity
    r.formula definite
    (String.concat "," r.call_patterns)

let report_to_string (rep : report) : string =
  String.concat "\n" (List.map result_to_string rep.results)

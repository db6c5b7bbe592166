(** Driver for groundness analysis with depth-k term abstraction
    (Section 5, Table 4).

    Unlike the Prop route there is no program transformation: the
    *original* clauses are evaluated by the tabled engine under abstract
    unification, with calls and answers truncated to depth k.  Builtins
    are interpreted abstractly (arithmetic grounds its operands and
    result; type tests ground or pass; control binds nothing). *)

open Prax_logic
open Prax_tabling
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis

(* Phase timers mirroring the Table 4 columns (docs/METRICS.md). *)
let t_preprocess =
  Metrics.timer ~doc:"depth-k: parse and load the original clauses"
    "depthk.preprocess"

let t_evaluate =
  Metrics.timer ~doc:"depth-k: tabled evaluation under abstract unification"
    "depthk.evaluate"

let t_collect =
  Metrics.timer ~doc:"depth-k: fold answer tables into per-predicate results"
    "depthk.collect"

type pred_result = {
  pred : string * int;
  answers : Term.t list;  (** abstract success patterns *)
  definite : bool array;  (** argument abstractly ground in every answer *)
  never_succeeds : bool;
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
  k : int;
  clause_count : int;  (** size of the evaluated program *)
  status : Guard.status;
      (** [Partial] when a resource budget stopped evaluation: widened
          entries answer their most general call, so [definite] degrades
          to all-[?] for the affected predicates — a sound
          over-approximation *)
}

(* monotonic, same clock as the Metrics timers (docs/ANALYSES.md) *)
let now = Analysis.now

(* --- abstract builtins ----------------------------------------------------- *)

let ground_args_builtin idxs : Engine.builtin =
 fun _e s args sc ->
  let s' =
    List.fold_left (fun s i -> Domain.ground_term s args.(i)) s idxs
  in
  sc s'

let succeed_builtin : Engine.builtin = fun _e s _args sc -> sc s

(* is(X, E): success grounds E and the result.  The result is always
   widened to γ: computing concrete integers would make the abstract
   domain infinite (counters like [D1 is D + 1] in recursive predicates
   would generate unboundedly many call variants). *)
let is_builtin : Engine.builtin =
 fun _e s args sc ->
  let s = Domain.ground_term s args.(1) in
  match Domain.unify s args.(0) Domain.gamma with
  | Some s' -> sc s'
  | None -> ()

let register_builtins (e : Engine.t) =
  Engine.register_builtin e "is" 2 is_builtin;
  List.iter
    (fun name -> Engine.register_builtin e name 2 (ground_args_builtin [ 0; 1 ]))
    [ "=:="; "=\\="; "<"; ">"; "=<"; ">=" ];
  List.iter
    (fun name -> Engine.register_builtin e name 1 (ground_args_builtin [ 0 ]))
    [ "atom"; "atomic"; "number"; "integer"; "ground" ];
  List.iter
    (fun (name, arity) -> Engine.register_builtin e name arity succeed_builtin)
    [
      ("var", 1); ("nonvar", 1); ("compound", 1); ("write", 1); ("print", 1);
      ("tab", 1); ("nl", 0); ("\\=", 2); ("==", 2); ("\\==", 2); ("@<", 2);
      ("@>", 2); ("@=<", 2); ("@>=", 2);
    ];
  (* functor/arg/univ: ground nothing, succeed (coarse but sound) *)
  List.iter
    (fun (name, arity) -> Engine.register_builtin e name arity succeed_builtin)
    [ ("functor", 3); ("arg", 3); ("=..", 2); ("name", 2); ("length", 2);
      ("findall", 3); ("compare", 3) ]

(* --- driver ----------------------------------------------------------------- *)

let a_ground_arg (t : Term.t) = Domain.a_ground t

let analyze_clauses ?(mode = Database.Dynamic) ?(guard = Guard.unlimited) ~k
    (clauses : Parser.clause list) : report =
  let t0 = now () in
  let e, preds =
    Metrics.time t_preprocess (fun () ->
        let db = Database.create ~mode () in
        Database.load_clauses db clauses;
        let e = Engine.create ~hooks:(Domain.hooks ~k) ~guard db in
        register_builtins e;
        let preds =
          List.filter_map (fun c -> Term.functor_of c.Parser.head) clauses
          |> List.sort_uniq compare
        in
        (e, preds))
  in
  let t1 = now () in
  let status =
    Metrics.time t_evaluate (fun () ->
        List.fold_left
          (fun acc (name, arity) ->
            let goal =
              Term.mk name (Array.init arity (fun _ -> Term.fresh_var ()))
            in
            Guard.combine acc (Engine.run_status e goal (fun _ -> ())))
          Guard.Complete preds)
  in
  let t2 = now () in
  let results =
    Metrics.time t_collect @@ fun () ->
    List.map
      (fun (name, arity) ->
        let answers = Engine.answers_for e (name, arity) in
        if Guard.is_partial status && Engine.calls_for e (name, arity) = []
        then
          (* the budget tripped before this predicate's open call even
             created a table entry: its empty answer table means
             "unexplored", not "fails" — degrade to the no-claim result *)
          {
            pred = (name, arity);
            answers = [];
            definite = Array.make arity false;
            never_succeeds = false;
          }
        else begin
          let definite = Array.make arity true in
          List.iter
            (fun ans ->
              Array.iteri
                (fun i a -> if not (a_ground_arg a) then definite.(i) <- false)
                (Term.args_of ans))
            answers;
          {
            pred = (name, arity);
            answers;
            definite;
            never_succeeds = answers = [];
          }
        end)
      preds
  in
  let t3 = now () in
  {
    results;
    phases = { preproc = t1 -. t0; analysis = t2 -. t1; collection = t3 -. t2 };
    table_bytes = Engine.table_space_bytes e;
    engine_stats = Engine.stats e;
    k;
    clause_count = List.length clauses;
    status;
  }

let analyze ?(mode = Database.Dynamic) ?guard ?(k = 1) (src : string) : report
    =
  let t0 = now () in
  let clauses = Metrics.time t_preprocess (fun () -> Parser.parse_clauses src) in
  let t_parse = now () -. t0 in
  let r = analyze_clauses ~mode ?guard ~k clauses in
  { r with phases = Analysis.add_preproc r.phases t_parse }

let result_for (rep : report) p =
  List.find_opt (fun r -> r.pred = p) rep.results

let result_to_string (r : pred_result) : string =
  let name, arity = r.pred in
  let definite =
    if r.never_succeeds then "-"
    else
      String.concat ""
        (List.init arity (fun i -> if r.definite.(i) then "g" else "?"))
  in
  Printf.sprintf "%s/%d: definite=%s patterns=%d" name arity definite
    (List.length r.answers)

let report_to_string (rep : report) : string =
  String.concat "\n" (List.map result_to_string rep.results)

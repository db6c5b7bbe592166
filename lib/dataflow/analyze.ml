(** Demand-driven dataflow analysis on the tabled engine, plus a direct
    (non-logic-programming) reference implementation of reaching
    definitions used to validate the declarative route and to play the
    role of the special-purpose C analyzer of the Section 7 comparison. *)

open Prax_logic
open Prax_tabling
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis

(* Phase timers (docs/METRICS.md): encoding the CFG as clauses, and
   demand-driven query evaluation. *)
let t_encode =
  Metrics.timer ~doc:"dataflow: encode the CFG program as clauses"
    "dataflow.encode"

let t_query =
  Metrics.timer ~doc:"dataflow: tabled evaluation of demand queries"
    "dataflow.query"

type t = { engine : Engine.t; program : Cfg.program }

let make ?guard (p : Cfg.program) : t =
  Metrics.time t_encode (fun () ->
      let db = Database.create () in
      Database.load_clauses db (Encode.program p);
      { engine = Engine.create ?guard db; program = p })

let query t goal_src =
  Metrics.time t_query (fun () ->
      Engine.query t.engine (Parser.parse_term goal_src))

(** Does the definition of [var] at node [d] reach node [n]?  A single
    demand: tabled evaluation explores only what the query needs. *)
let reaches t ~var ~def ~node : bool =
  let goal =
    Term.mkl "reach" [ Encode.def_term var def; Term.int node ]
  in
  Metrics.time t_query (fun () -> Engine.query t.engine goal <> [])

(** All definitions reaching [node] — the exhaustive question. *)
let reaching_at t ~node : (string * int) list =
  let v = Term.fresh_var () and m = Term.fresh_var () in
  let goal = Term.mkl "reach" [ Term.mkl "def" [ v; m ]; Term.int node ] in
  let out = ref [] in
  Metrics.time t_query (fun () ->
      Engine.run t.engine goal (fun s ->
          match (Subst.walk s v, Subst.walk s m) with
          | Term.Atom var, Term.Int d -> out := (var, d) :: !out
          | _ -> ()));
  List.sort_uniq compare !out

let live_at t ~node : string list =
  let v = Term.fresh_var () in
  let goal = Term.mkl "livein" [ v; Term.int node ] in
  let out = ref [] in
  Metrics.time t_query (fun () ->
      Engine.run t.engine goal (fun s ->
          match Subst.walk s v with
          | Term.Atom var -> out := var :: !out
          | _ -> ()));
  List.sort_uniq compare !out

let def_use_chains t : ((string * int) * int) list =
  let v = Term.fresh_var () and m = Term.fresh_var () and u = Term.fresh_var () in
  let goal = Term.mkl "du" [ Term.mkl "def" [ v; m ]; u ] in
  let out = ref [] in
  Metrics.time t_query (fun () ->
      Engine.run t.engine goal (fun s ->
          match (Subst.walk s v, Subst.walk s m, Subst.walk s u) with
          | Term.Atom var, Term.Int d, Term.Int usenode ->
              out := ((var, d), usenode) :: !out
          | _ -> ()));
  List.sort_uniq compare !out

let stats t = Engine.stats t.engine

(* --- whole-program driver ------------------------------------------------- *)

let t_collect =
  Metrics.timer ~doc:"dataflow: fold reach answers into per-node rows"
    "dataflow.collect"

(* The shared Table-style phase record, re-exported like the other
   drivers (definition lives in prax.analysis). *)
type phases = Analysis.phases = {
  preproc : float;
  analysis : float;
  collection : float;
}

let total = Analysis.total

type report = {
  rows : (int * (string * int) list) list;
      (** per node, sorted by id: definitions [(var, def_node)] reaching
          its entry *)
  phases : phases;
  table_bytes : int;
  engine_stats : Engine.stats;
  node_count : int;
  proc_count : int;
  status : Guard.status;
      (** [Partial] when a resource budget stopped evaluation; the rows
          then under-report reachability for the unexplored demands *)
}

(** Exhaustive reaching-definitions over a whole program, demand by
    demand: one [reach(def(V,M), n)] query per node, evaluated on the
    tabled engine, then the answer tables folded into per-node rows —
    the same preprocess/evaluate/collect skeleton as the other
    analyses, so Section 7's comparison is like-for-like. *)
let analyze ?(guard = Guard.unlimited) (p : Cfg.program) : report =
  let phases, t, status, rows =
    Analysis.phased ~timers:(t_encode, t_query, t_collect)
      ~pre:(fun () ->
        let db = Database.create () in
        Database.load_clauses db (Encode.program p);
        { engine = Engine.create ~guard db; program = p })
      (* one demand per node: which definitions reach its entry?
         Budgets are sticky, so after an exhaustion the remaining
         demands degrade immediately. *)
      ~eval:(fun t ->
        List.fold_left
          (fun acc (pr : Cfg.proc) ->
            List.fold_left
              (fun acc (n : Cfg.node) ->
                let v = Term.fresh_var () and m = Term.fresh_var () in
                let goal =
                  Term.mkl "reach"
                    [ Term.mkl "def" [ v; m ]; Term.int n.Cfg.id ]
                in
                Guard.combine acc (Engine.run_status t.engine goal (fun _ -> ())))
              acc pr.Cfg.nodes)
          Guard.Complete p)
      (* collection: fold the reach/2 answer tables (across all call
         variants) into one row per node *)
      ~collect:(fun t _status ->
        let tbl : (int, (string * int) list) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun ans ->
            match Term.args_of ans with
            | [| dterm; Term.Int n |] -> (
                match
                  if Term.functor_of dterm = Some ("def", 2) then
                    Term.args_of dterm
                  else [||]
                with
                | [| Term.Atom v; Term.Int m |] ->
                    let cur =
                      Option.value (Hashtbl.find_opt tbl n) ~default:[]
                    in
                    if not (List.mem (v, m) cur) then
                      Hashtbl.replace tbl n ((v, m) :: cur)
                | _ -> ())
            | _ -> ())
          (Engine.answers_for t.engine ("reach", 2));
        List.concat_map
          (fun (pr : Cfg.proc) ->
            List.map
              (fun (n : Cfg.node) ->
                ( n.Cfg.id,
                  List.sort compare
                    (Option.value (Hashtbl.find_opt tbl n.Cfg.id) ~default:[])
                ))
              pr.Cfg.nodes)
          p
        |> List.sort compare)
      ()
  in
  {
    rows;
    phases;
    table_bytes = Engine.table_space_bytes t.engine;
    engine_stats = Engine.stats t.engine;
    node_count =
      List.fold_left (fun acc pr -> acc + List.length pr.Cfg.nodes) 0 p;
    proc_count = List.length p;
    status;
  }

(** Full pipeline from [.cfg] source text; parse time is billed to
    preprocessing like the other drivers. *)
let analyze_source ?guard (src : string) : report =
  let p, t_parse = Analysis.parsed t_encode (fun () -> Cfg.parse src) in
  let r = analyze ?guard p in
  { r with phases = Analysis.add_preproc r.phases t_parse }

let row_to_string (n, defs) =
  Printf.sprintf "node %d: reaching={%s}" n
    (String.concat ","
       (List.map (fun (v, d) -> Printf.sprintf "%s@%d" v d) defs))

let report_to_string (rep : report) : string =
  String.concat "\n" (List.map row_to_string rep.rows)

(* --- reference implementation ------------------------------------------- *)

(** Classic worklist reaching-definitions over the same graph (with the
    same interprocedural call/return edges), entirely outside the logic
    engine.  [reference_reaching_at p node] must agree with
    {!reaching_at}; the tests check this on random ladders. *)
let reference_reaching (p : Cfg.program) : (int, (string * int) list) Hashtbl.t
    =
  (* materialize nodes and edges exactly as the encoding does *)
  let nodes =
    List.concat_map (fun (pr : Cfg.proc) -> pr.Cfg.nodes) p
  in
  let edges = ref [] in
  List.iter
    (fun (pr : Cfg.proc) ->
      List.iter
        (fun (m, n) ->
          match (Cfg.node_of pr m).Cfg.stmt with
          | Cfg.Call callee -> (
              match Cfg.find_proc p callee with
              | Some target ->
                  edges := (m, target.Cfg.entry) :: (target.Cfg.exit, n) :: !edges
              | None -> edges := (m, n) :: !edges)
          | _ -> edges := (m, n) :: !edges)
        pr.Cfg.edges)
    p;
  let stmt_of = Hashtbl.create 64 in
  List.iter (fun (n : Cfg.node) -> Hashtbl.replace stmt_of n.Cfg.id n.Cfg.stmt) nodes;
  (* in[n] = defs reaching the *entry* of n; the logic encoding's
     reach(D, N) is exactly this *)
  let in_ : (int, (string * int) list) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (n : Cfg.node) -> Hashtbl.replace in_ n.Cfg.id []) nodes;
  let out_of id =
    let stmt = Hashtbl.find stmt_of id in
    let killed = Cfg.defs stmt in
    let survived =
      List.filter
        (fun (v, _) -> not (List.mem v killed))
        (Hashtbl.find in_ id)
    in
    List.map (fun v -> (v, id)) (Cfg.defs stmt) @ survived
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (m, n) ->
        let flow = out_of m in
        let cur = Hashtbl.find in_ n in
        let extra = List.filter (fun d -> not (List.mem d cur)) flow in
        if extra <> [] then begin
          Hashtbl.replace in_ n (extra @ cur);
          changed := true
        end)
      !edges
  done;
  in_

let reference_reaching_at (p : Cfg.program) ~node : (string * int) list =
  match Hashtbl.find_opt (reference_reaching p) node with
  | Some l -> List.sort_uniq compare l
  | None -> []

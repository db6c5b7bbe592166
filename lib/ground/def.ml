(** Def-domain groundness: the fast path over {e definite Boolean
    functions} (Howe & King).  Where the Prop domain enumerates models
    ([Bf] truth tables filled from the tabled engine's answer tables),
    [Def] represents an abstract value directly as a conjunction of
    definite implications [y <- x1 /\ ... /\ xk] ("y is ground whenever
    the xi are"), stored per head variable as a set of minimal
    antecedent bitmasks.

    The driver is a bottom-up Kleene fixpoint over the unfolded abstract
    program {!Transform.program} emits (the tabled path loads it with
    its [=] goals solved, {!Transform.fold_clause}): each clause
    body is flattened into disjunction-free paths, each path's literals
    ([=]/[iff]/abstract calls) become implications over clause-local
    variables, local variables are eliminated by Davis–Putnam
    resolution, and the projection joins into the predicate's current
    value until nothing changes.  Because implications cannot express
    disjunctive groundness ([x \/ y]), results over-approximate the
    Prop answers — the price for immunity to the worst-case programs
    that make model enumeration explode (examples/stress/, after
    Genaim–Howe–Codish).  Guard budgets are honoured: one event per
    path evaluation, table space from the retained implication store;
    on exhaustion every value degrades to top and the report is
    [Partial].

    Selected via the registry config [mode=def] (docs/ANALYSES.md). *)

open Prax_logic
open Prax_tabling
open Prax_prop
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Analysis = Prax_analysis.Analysis

let m_paths =
  Metrics.counter ~units:"paths"
    ~doc:"def mode: clause-body paths evaluated across all iterations"
    "ground.def.paths"

let m_iterations =
  Metrics.counter ~units:"rounds"
    ~doc:"def mode: Kleene iterations over the abstract program"
    "ground.def.iterations"

(* Local variables are bitmask positions, so one clause path is limited
   to an OCaml int's worth of them; paths needing more degrade to top
   (sound, and unheard of outside generated programs). *)
let max_width = Sys.int_size - 2

(* --- implication sets ---------------------------------------------------- *)

(* A definite Boolean function over [n] variables, or bottom.  [impl.(y)]
   holds antecedent bitmasks: mask [m] reads "y is ground whenever every
   variable in [m] is".  Mask [0] means y is definitely ground; an empty
   array row leaves y unconstrained.  Masks never contain their head
   (such implications are tautologies). *)
type value = Bot | F of int list array

(* Keep only minimal masks: drop any mask that is a (non-strict)
   superset of an earlier-kept one. *)
let minimize (ms : int list) : int list =
  let ms = List.sort_uniq compare ms in
  List.fold_left
    (fun kept m ->
      if List.exists (fun k -> k land m = k) kept then kept else m :: kept)
    [] ms
  |> List.rev

let same_masks a b = List.sort compare a = List.sort compare b

(* Forward chaining (unit propagation): the set of variables ground
   under assumptions [mask].  Decides entailment of a definite clause
   by a definite theory. *)
let chain (impl : int list array) (mask : int) : int =
  let s = ref mask in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun y ms ->
        if
          !s land (1 lsl y) = 0
          && List.exists (fun m -> m land !s = m) ms
        then begin
          s := !s lor (1 lsl y);
          changed := true
        end)
      impl
  done;
  !s

let entails impl y m = chain impl m land (1 lsl y) <> 0

(* [leq f1 f2]: f1 at least as strong as f2 (models(f1) subset of
   models(f2)); the domain order with Bot below everything. *)
let leq v1 v2 =
  match (v1, v2) with
  | Bot, _ -> true
  | F _, Bot -> false
  | F a, F b ->
      let ok = ref true in
      Array.iteri
        (fun y ms -> if !ok then ok := List.for_all (entails a y) ms)
        b;
      !ok

(* Resolution closure: saturate so every minimal entailed implication is
   syntactically present — canonical enough for a precise pairwise
   join.  [n] is small here (predicate arity), so the antichain stays
   tiny in practice. *)
let close n (impl : int list array) : int list array =
  let cur = Array.map minimize impl in
  let changed = ref true in
  while !changed do
    changed := false;
    for y = 0 to n - 1 do
      let extra = ref [] in
      List.iter
        (fun m ->
          for z = 0 to n - 1 do
            if m land (1 lsl z) <> 0 then
              List.iter
                (fun mz ->
                  let m' = m land lnot (1 lsl z) lor mz in
                  if m' land (1 lsl y) = 0 then extra := m' :: !extra)
                cur.(z)
          done)
        cur.(y);
      if !extra <> [] then begin
        let merged = minimize (cur.(y) @ !extra) in
        if not (same_masks merged cur.(y)) then begin
          cur.(y) <- merged;
          changed := true
        end
      end
    done
  done;
  cur

(* Join (least upper bound): an implication survives iff both sides
   entail it, i.e. pairwise antecedent unions over closed operands. *)
let join n v1 v2 =
  match (v1, v2) with
  | Bot, v | v, Bot -> v
  | F a, F b ->
      let a = close n a and b = close n b in
      F
        (Array.init n (fun y ->
             minimize
               (List.concat_map
                  (fun m1 -> List.map (fun m2 -> m1 lor m2) b.(y))
                  a.(y))))

(* Davis–Putnam elimination of local variable [z]: all resolvents on z,
   then every clause mentioning z is dropped.  Complete for the
   consequences over the remaining variables (definite clauses). *)
let eliminate (impl : int list array) (z : int) : unit =
  let defs = impl.(z) in
  let zbit = 1 lsl z in
  Array.iteri
    (fun y ms ->
      if y = z then impl.(y) <- []
      else begin
        let keep, with_z = List.partition (fun m -> m land zbit = 0) ms in
        let res =
          List.concat_map
            (fun m ->
              List.filter_map
                (fun mz ->
                  let m' = m land lnot zbit lor mz in
                  if m' land (1 lsl y) <> 0 then None else Some m')
                defs)
            with_z
        in
        impl.(y) <- minimize (keep @ res)
      end)
    impl

(* --- clause paths -------------------------------------------------------- *)

(* Flatten an abstract body into disjunction-free literal paths.  [;]
   multiplies; [,] concatenates (Transform emits nested conjunctions
   only inside disjunction branches). *)
let rec goal_paths (g : Term.t) : Term.t list list =
  match g with
  | Term.Struct (",", [| a; b |], _) ->
      List.concat_map
        (fun p -> List.map (fun q -> p @ q) (goal_paths b))
        (goal_paths a)
  | Term.Struct (";", [| a; b |], _) -> goal_paths a @ goal_paths b
  | Term.Atom "true" -> [ [] ]
  | t -> [ [ t ] ]

let body_paths (body : Term.t list) : Term.t list list =
  List.fold_left
    (fun acc g ->
      List.concat_map (fun p -> List.map (fun q -> p @ q) (goal_paths g)) acc)
    [ [] ] body

type pclause = {
  pc_pred : string * int;  (** abstract head predicate *)
  pc_head : int array;  (** head alpha variable ids *)
  pc_paths : Term.t list list;
}

let prepare (c : Parser.clause) : pclause =
  let name, args =
    match c.Parser.head with
    | Term.Atom a -> (a, [||])
    | Term.Struct (f, args, _) -> (f, args)
    | _ -> invalid_arg "Def.prepare: bad clause head"
  in
  let head =
    Array.map
      (function Term.Var v -> v | _ -> invalid_arg "Def.prepare: head alpha")
      args
  in
  {
    pc_pred = (name, Array.length args);
    pc_head = head;
    pc_paths = body_paths c.Parser.body;
  }

(* --- path evaluation ----------------------------------------------------- *)

exception Path_fails
exception Path_top  (* ran out of mask width: degrade to top, stay sound *)

type penv = {
  mutable nvars : int;
  mutable map : (int * int) list;  (** term var id -> local index *)
  mutable cons : (int * int) list;  (** (head index, antecedent mask) *)
}

let local env v =
  match List.assoc_opt v env.map with
  | Some i -> i
  | None ->
      if env.nvars >= max_width then raise Path_top;
      let i = env.nvars in
      env.nvars <- i + 1;
      env.map <- (v, i) :: env.map;
      i

let fresh_local env =
  if env.nvars >= max_width then raise Path_top;
  let i = env.nvars in
  env.nvars <- i + 1;
  i

let add env y mask = if mask land (1 lsl y) = 0 then env.cons <- (y, mask) :: env.cons

(* A groundness-value term in literal position. *)
type gv = V of int | Ground | Unknown

let gv_of env (t : Term.t) : gv =
  match t with
  | Term.Var v -> V (local env v)
  | Term.Atom "true" -> Ground
  | _ -> Unknown

let eval_literal lookup env (g : Term.t) : unit =
  match g with
  | Term.Atom ("fail" | "false") -> raise Path_fails
  | Term.Struct ("=", [| a; b |], _) -> (
      match (gv_of env a, gv_of env b) with
      | V x, V y ->
          add env x (1 lsl y);
          add env y (1 lsl x)
      | V x, Ground | Ground, V x -> add env x 0
      | _ -> ())
  | Term.Struct ("iff", args, _) when Array.length args >= 1 -> (
      match gv_of env args.(0) with
      | V alpha ->
          let mask = ref 0 in
          let precise = ref true in
          for i = 1 to Array.length args - 1 do
            match gv_of env args.(i) with
            | V x ->
                mask := !mask lor (1 lsl x);
                add env x (1 lsl alpha)
            | Ground -> ()
            | Unknown -> precise := false
          done;
          if !precise then add env alpha !mask
      | _ -> ())
  | Term.Atom name -> (
      (* nullary abstract call: Bot fails the path, anything else binds
         nothing *)
      match lookup (name, 0) with Some Bot -> raise Path_fails | _ -> ())
  | Term.Struct (name, args, _) -> (
      match lookup (name, Array.length args) with
      | None -> ()  (* not an abstract predicate: claim nothing *)
      | Some Bot -> raise Path_fails
      | Some (F impl) ->
          let locs =
            Array.map
              (fun a ->
                match gv_of env a with
                | V x -> x
                | Ground ->
                    let w = fresh_local env in
                    add env w 0;
                    w
                | Unknown -> fresh_local env)
              args
          in
          Array.iteri
            (fun j ms ->
              List.iter
                (fun m ->
                  let mask = ref 0 in
                  for i = 0 to Array.length locs - 1 do
                    if m land (1 lsl i) <> 0 then
                      mask := !mask lor (1 lsl locs.(i))
                  done;
                  add env locs.(j) !mask)
                ms)
            impl)
  | _ -> ()

(* Evaluate one path to its head projection: collect implications over
   clause-local variables, then eliminate everything but the head
   alphas. *)
let eval_path lookup (pc : pclause) (path : Term.t list) : value =
  let arity = snd pc.pc_pred in
  let env = { nvars = 0; map = []; cons = [] } in
  Array.iter (fun v -> ignore (local env v)) pc.pc_head;
  try
    List.iter (eval_literal lookup env) path;
    let impl = Array.make env.nvars [] in
    List.iter (fun (y, m) -> impl.(y) <- m :: impl.(y)) env.cons;
    Array.iteri (fun y ms -> impl.(y) <- minimize ms) impl;
    for z = arity to env.nvars - 1 do
      eliminate impl z
    done;
    F (Array.sub impl 0 arity)
  with
  | Path_fails -> Bot
  | Path_top -> F (Array.make arity [])

(* --- fixpoint ------------------------------------------------------------ *)

type store = (string * int, value) Hashtbl.t

(* Words retained by the implication store, the def-mode analogue of the
   engine's table-space estimate: one word per predicate entry plus one
   per mask (docs/METRICS.md "table_bytes"). *)
let store_words (store : store) : int =
  Hashtbl.fold
    (fun _ v acc ->
      acc + 1
      + match v with Bot -> 0 | F impl -> Array.fold_left (fun a ms -> a + List.length ms) 0 impl)
    store 0

type run_stats = { mutable iterations : int; mutable paths : int }

(* Chaotic iteration over [pcs] until no value grows: the one saturation
   loop behind both the global and the per-SCC fixpoint. *)
let saturate ~guard (store : store) (rs : run_stats) (pcs : pclause list) =
  let lookup p = Hashtbl.find_opt store p in
  let changed = ref true in
  while !changed do
    changed := false;
    rs.iterations <- rs.iterations + 1;
    Metrics.incr m_iterations;
    List.iter
      (fun pc ->
        let arity = snd pc.pc_pred in
        List.iter
          (fun path ->
            Guard.check guard;
            Metrics.incr m_paths;
            rs.paths <- rs.paths + 1;
            match eval_path lookup pc path with
            | Bot -> ()
            | contrib ->
                let old = Hashtbl.find store pc.pc_pred in
                let next = join arity old contrib in
                if not (leq next old) then begin
                  Hashtbl.replace store pc.pc_pred next;
                  Guard.note_space guard (8 * store_words store);
                  changed := true
                end)
          pc.pc_paths)
      pcs
  done

(* --- collection ---------------------------------------------------------- *)

(* gamma: a def value as a Bf truth table (rows closed under the
   implications), so reports read identically across modes. *)
let bf_of_value arity (v : value) : Bf.t =
  match v with
  | Bot -> Bf.bottom arity
  | F impl ->
      let f = Bf.bottom arity in
      for row = 0 to (1 lsl arity) - 1 do
        let ok = ref true in
        Array.iteri
          (fun y ms ->
            if !ok then
              ok :=
                List.for_all
                  (fun m -> m land row <> m || row land (1 lsl y) <> 0)
                  ms)
          impl;
        if !ok then Bf.add f row
      done;
      f

(* --- fragment values + per-SCC evaluation ---------------------------- *)

module Depgraph = Prax_incr.Depgraph
module Incr = Prax_incr.Incr

(* A def fragment in the shared fragment codec: one record per member
   predicate, its call the open call and its single answer the value —
   [bot], or [f] with one list of antecedent masks per argument. *)
let record_of_value ((name, arity) : string * int) (v : value) :
    Engine.exported =
  let answer =
    match v with
    | Bot -> Term.atom "bot"
    | F impl ->
        Term.mk "f"
          (Array.map (fun ms -> Term.of_list (List.map Term.int ms)) impl)
  in
  {
    Engine.ex_call = Term.mk name (Array.init arity Term.var);
    ex_answers = [ answer ];
    ex_subcalls = [];
  }

(* The strict inverse: a record whose value has the wrong arity, a mask
   that is not an integer over the other arguments, or whose predicate
   set is not exactly [members] makes the whole fragment a miss. *)
let values_of_records members (records : Engine.exported list) =
  let mask arity y (t : Term.t) =
    match t with
    | Term.Int m when m >= 0 && m lsr arity = 0 && m land (1 lsl y) = 0 -> m
    | _ -> raise Exit
  in
  let value (r : Engine.exported) =
    match (Term.functor_of r.ex_call, r.ex_answers, r.ex_subcalls) with
    | Some p, [ Term.Atom "bot" ], [] -> (p, Bot)
    | Some ((_, arity) as p), [ t ], [] -> (
        match Term.functor_of t with
        | Some ("f", n) when n = arity ->
            ( p,
              F
                (Array.mapi
                   (fun y l ->
                     match Term.list_elements l with
                     | Some ms -> List.map (mask arity y) ms
                     | None -> raise Exit)
                   (Term.args_of t)) )
        | _ -> raise Exit)
    | _ -> raise Exit
  in
  match List.map value records with
  | vs when List.sort compare (List.map fst vs) = members -> Some vs
  | _ -> None
  | exception Exit -> None

(* Per-SCC bottom-up evaluation in reverse topological order (callees
   first, so their values are final when a caller's paths read them) —
   the same least fixpoint as the global chaotic iteration, which is
   what makes the incremental report byte-equal to the scratch one.
   The plan, the fragment loads and the saves are [Incr]'s; SCCs whose
   fragment loads splice their values instead of iterating, and
   recomputed SCCs are saved at once (their values are final even if a
   later SCC trips a budget). *)
let saturate_sccs (c : Incr.cache) ~guard (abstract : Parser.clause list)
    (store : store) (rs : run_stats) (pcs : pclause list) =
  let plan = Incr.plan c ~is_call:(fun (name, _) -> name <> "iff") abstract in
  let g = Incr.graph plan in
  let n = Depgraph.scc_count g in
  let members =
    Array.init n (fun s ->
        List.filter (Hashtbl.mem store) (Depgraph.members g s))
  in
  let loaded = Incr.load plan ~want:(fun s -> members.(s) <> []) in
  let spliced = ref 0 in
  let invalidated = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Incr.record
        {
          Incr.sccs = n;
          invalidated = !invalidated;
          spliced = !spliced;
          spliced_entries = 0;
        })
  @@ fun () ->
  for s = 0 to n - 1 do
    match Option.bind loaded.(s) (values_of_records members.(s)) with
    | Some vs ->
        incr spliced;
        List.iter (fun (p, v) -> Hashtbl.replace store p v) vs
    | None when members.(s) = [] -> incr spliced  (* nothing to compute *)
    | None ->
        incr invalidated;
        saturate ~guard store rs
          (List.filter (fun pc -> List.mem pc.pc_pred members.(s)) pcs);
        Incr.save plan s
          (List.map
             (fun p -> record_of_value p (Hashtbl.find store p))
             members.(s))
  done

(* The least fixpoint over every abstracted predicate, all starting at
   bottom: one global iteration from scratch, per SCC against a
   fragment [cache]. *)
let fixpoint ?cache ~guard (abstract : Parser.clause list)
    (pcs : pclause list) (preds : (string * int) list) :
    store * Guard.status * run_stats =
  let store : store = Hashtbl.create 64 in
  List.iter
    (fun (name, arity) ->
      Hashtbl.replace store (Transform.prefix ^ name, arity) Bot)
    preds;
  let rs = { iterations = 0; paths = 0 } in
  let status =
    try
      (match cache with
      | None -> saturate ~guard store rs pcs
      | Some c -> saturate_sccs c ~guard abstract store rs pcs);
      Guard.Complete
    with Guard.Exhausted reason ->
      (* mid-iteration values under-approximate the fixpoint; widen
         everything to top so the partial report stays sound *)
      let n = Hashtbl.length store in
      Hashtbl.filter_map_inplace
        (fun p _ -> Some (F (Array.make (snd p) [])))
        store;
      Guard.Partial { reason; exhausted_entries = n }
  in
  (store, status, rs)

(* --- report assembly -------------------------------------------------------- *)

let timers = (Analyze.t_preprocess, Analyze.t_evaluate, Analyze.t_collect)

let collect_results store preds =
  List.map
    (fun (name, arity) ->
      let v =
        Option.value ~default:Bot
          (Hashtbl.find_opt store (Transform.prefix ^ name, arity))
      in
      let success = bf_of_value arity v in
      let never_succeeds = Bf.is_empty success in
      {
        Analyze.pred = (name, arity);
        success;
        definite = Bf.definite success;
        never_succeeds;
        call_patterns = [];  (* bottom-up: goal-independent *)
        formula = Analyze.formula_of ~never_succeeds success;
      })
    preds

let make_report abstract store status (rs : run_stats) phases results :
    Analyze.report =
  let answers =
    Hashtbl.fold
      (fun _ v acc ->
        acc
        + match v with Bot -> 0 | F impl -> Array.fold_left (fun a ms -> a + List.length ms) 0 impl)
      store 0
  in
  {
    Analyze.results;
    phases;
    table_bytes = 8 * store_words store;
    engine_stats =
      {
        Engine.calls = rs.paths;
        table_entries = Hashtbl.length store;
        answers;
        duplicates = 0;
        resumptions = rs.iterations;
        forced = 0;
      };
    clause_count = List.length abstract;
    status;
  }

(** Run the def fixpoint on already-parsed clauses.  With a fragment
    [cache] the evaluation is per SCC, splicing unchanged cones back
    (docs/INCREMENTAL.md); the report is byte-identical either way. *)
let analyze_clauses ?cache ?(guard = Guard.unlimited)
    (clauses : Parser.clause list) : Analyze.report =
  let phases, (abstract, _, _), (store, status, rs), results =
    Analysis.phased ~timers
      ~pre:(fun () ->
        let abstract, preds, _max_iff = Transform.program clauses in
        (abstract, preds, List.map prepare abstract))
      ~eval:(fun (abstract, preds, pcs) ->
        fixpoint ?cache ~guard abstract pcs preds)
      ~collect:(fun (_, preds, _) (store, _, _) -> collect_results store preds)
      ()
  in
  make_report abstract store status rs phases results

let analyze ?cache ?guard (src : string) : Analyze.report =
  let clauses, t_parse =
    Analysis.parsed Analyze.t_preprocess (fun () -> Parser.parse_clauses src)
  in
  let r = analyze_clauses ?cache ?guard clauses in
  { r with Analyze.phases = Analysis.add_preproc r.Analyze.phases t_parse }

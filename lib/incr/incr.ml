(** Incremental re-analysis machinery: fragment codec, splice loop,
    store binding, [incr.*] metrics.  See incr.mli and
    docs/INCREMENTAL.md. *)

open Prax_logic
module Engine = Prax_tabling.Engine
module Guard = Prax_guard.Guard
module Metrics = Prax_metrics.Metrics
module Analysis = Prax_analysis.Analysis
module Store = Prax_store.Store

(* --- metrics (docs/METRICS.md, schema v6) -------------------------------- *)

let m_sccs =
  Metrics.counter ~units:"sccs"
    ~doc:"incremental: condensation SCCs across incremental runs"
    "incr.sccs"

let m_invalidated =
  Metrics.counter ~units:"sccs"
    ~doc:"incremental: SCCs recomputed because their closure digest missed \
          the fragment cache"
    "incr.invalidated"

let m_spliced =
  Metrics.counter ~units:"sccs"
    ~doc:"incremental: SCCs restored from cached fragments"
    "incr.spliced"

let g_cone_frac =
  Metrics.gauge ~units:"permille"
    ~doc:"incremental: invalidated/sccs of the last incremental run, in \
          permille (1000 = full recompute)"
    "incr.cone_frac"

(* Phase timers: where an incremental run spends its time.  The sum is
   the driver's evaluate phase minus the actual engine evaluation — the
   overhead the splice must amortize (docs/INCREMENTAL.md). *)
let t_plan =
  Metrics.timer ~doc:"incremental: dependency graph + closure digests"
    "incr.plan"

let t_load =
  Metrics.timer ~doc:"incremental: fragment cache probes + decode"
    "incr.load"

let t_replay =
  Metrics.timer ~doc:"incremental: demand-edge replay through spliced cones"
    "incr.replay"

let t_persist =
  Metrics.timer ~doc:"incremental: fragment export + save"
    "incr.persist"

type outcome = {
  sccs : int;
  invalidated : int;
  spliced : int;
  spliced_entries : int;
}

let record o =
  Metrics.add m_sccs o.sccs;
  Metrics.add m_invalidated o.invalidated;
  Metrics.add m_spliced o.spliced;
  Metrics.set g_cone_frac
    (if o.sccs = 0 then 0 else o.invalidated * 1000 / o.sccs)

(* --- cache keys ----------------------------------------------------------- *)

let fragment_key ~table_class digest = table_class ^ ":" ^ digest

(* --- fragment codec -------------------------------------------------------- *)

(* One SCC's call-table slice, one canonical term per line:
     prax.incr.fragment 2
     e <term>          -- opens a record (the call variant)
     a <term>          -- sorted answers, as exported
     s <term>          -- demand edges to replay on splice
   Terms are encoded in a preorder form with length-prefixed names —
     v<id>  i<int>  a<len>:<bytes>  f<len>:<bytes>/<arity> <arg> ...
     r<idx>            -- back-reference to an earlier node
   — because decode speed bounds how fast a warm run can get: v1 used
   the Prolog reader and fragment decode dominated the whole splice
   (incr.load).  Atom and struct definitions are numbered in postorder
   across the whole fragment, and any repeat is emitted as [r<idx>]:
   analysis answer sets share enormous sub-structure (the terms are
   hash-consed in memory for the same reason), so sharing shrinks both
   the payload and the number of nodes to rebuild.  The exported terms
   are already canonical and the encoding preserves variable ids, so
   the decoded terms are canonical by construction.  Anything malformed
   degrades the whole fragment to a cache miss, never to wrong
   answers. *)
let fragment_magic = "prax.incr.fragment 2"

module TTbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

(* encoder state: postorder index of every atom/struct node emitted *)
type enc = { memo : int TTbl.t; mutable next : int; buf : Buffer.t }

let rec enc_term e (t : Term.t) =
  let b = e.buf in
  match t with
  | Term.Var i ->
      Buffer.add_char b 'v';
      Buffer.add_string b (string_of_int i)
  | Term.Int i ->
      Buffer.add_char b 'i';
      Buffer.add_string b (string_of_int i)
  | Term.Atom a -> (
      match TTbl.find_opt e.memo t with
      | Some idx ->
          Buffer.add_char b 'r';
          Buffer.add_string b (string_of_int idx)
      | None ->
          Buffer.add_char b 'a';
          Buffer.add_string b (string_of_int (String.length a));
          Buffer.add_char b ':';
          Buffer.add_string b a;
          TTbl.add e.memo t e.next;
          e.next <- e.next + 1)
  | Term.Struct (f, args, _) -> (
      match TTbl.find_opt e.memo t with
      | Some idx ->
          Buffer.add_char b 'r';
          Buffer.add_string b (string_of_int idx)
      | None ->
          Buffer.add_char b 'f';
          Buffer.add_string b (string_of_int (String.length f));
          Buffer.add_char b ':';
          Buffer.add_string b f;
          Buffer.add_char b '/';
          Buffer.add_string b (string_of_int (Array.length args));
          Array.iter
            (fun x ->
              Buffer.add_char b ' ';
              enc_term e x)
            args;
          (* postorder: the arguments' definitions took their indices
             first, so encoder and decoder number nodes identically *)
          TTbl.add e.memo t e.next;
          e.next <- e.next + 1)

exception Bad

(* decoder state: the defined nodes, in the encoder's postorder *)
type nodes = { mutable arr : Term.t array; mutable len : int }

let nodes_push ns t =
  if ns.len = Array.length ns.arr then begin
    let bigger = Array.make (max 64 (2 * ns.len)) t in
    Array.blit ns.arr 0 bigger 0 ns.len;
    ns.arr <- bigger
  end;
  ns.arr.(ns.len) <- t;
  ns.len <- ns.len + 1

let dec_uint s pos limit =
  let start = !pos in
  let v = ref 0 in
  while
    !pos < limit
    &&
    let c = s.[!pos] in
    c >= '0' && c <= '9'
  do
    v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
    incr pos
  done;
  if !pos = start then raise Bad;
  !v

let dec_int s pos limit =
  if !pos < limit && s.[!pos] = '-' then begin
    incr pos;
    -dec_uint s pos limit
  end
  else dec_uint s pos limit

let dec_name s pos limit =
  let len = dec_uint s pos limit in
  if !pos >= limit || s.[!pos] <> ':' then raise Bad;
  incr pos;
  if len < 0 || !pos + len > limit then raise Bad;
  let name = String.sub s !pos len in
  pos := !pos + len;
  name

let rec dec_term ns s pos limit =
  if !pos >= limit then raise Bad;
  let tag = s.[!pos] in
  incr pos;
  match tag with
  | 'v' -> Term.var (dec_int s pos limit)
  | 'i' -> Term.int (dec_int s pos limit)
  | 'r' ->
      let idx = dec_uint s pos limit in
      if idx >= ns.len then raise Bad;
      ns.arr.(idx)
  | 'a' ->
      let t = Term.atom (dec_name s pos limit) in
      nodes_push ns t;
      t
  | 'f' ->
      let f = dec_name s pos limit in
      if !pos >= limit || s.[!pos] <> '/' then raise Bad;
      incr pos;
      let arity = dec_uint s pos limit in
      if arity = 0 then raise Bad;
      let args = Array.make arity (Term.int 0) in
      for i = 0 to arity - 1 do
        if !pos >= limit || s.[!pos] <> ' ' then raise Bad;
        incr pos;
        args.(i) <- dec_term ns s pos limit
      done;
      let t = Term.mk f args in
      nodes_push ns t;
      t
  | _ -> raise Bad

let fragment_to_string (records : Engine.exported list) : string =
  let e = { memo = TTbl.create 1024; next = 0; buf = Buffer.create 1024 } in
  let b = e.buf in
  Buffer.add_string b fragment_magic;
  Buffer.add_char b '\n';
  List.iter
    (fun (r : Engine.exported) ->
      Buffer.add_string b "e ";
      enc_term e r.Engine.ex_call;
      Buffer.add_char b '\n';
      List.iter
        (fun a ->
          Buffer.add_string b "a ";
          enc_term e a;
          Buffer.add_char b '\n')
        r.Engine.ex_answers;
      List.iter
        (fun s ->
          Buffer.add_string b "s ";
          enc_term e s;
          Buffer.add_char b '\n')
        r.Engine.ex_subcalls)
    (List.sort
       (fun (a : Engine.exported) b -> Term.compare a.ex_call b.ex_call)
       records);
  Buffer.contents b

let fragment_of_string (s : string) : Engine.exported list option =
  let n = String.length s in
  let mlen = String.length fragment_magic in
  if
    n < mlen + 1
    || (not (String.equal (String.sub s 0 mlen) fragment_magic))
    || s.[mlen] <> '\n'
  then None
  else
    try
      let pos = ref (mlen + 1) in
      let ns = { arr = Array.make 64 (Term.int 0); len = 0 } in
      let cur = ref None in
      let acc = ref [] in
      let flush () =
        match !cur with
        | None -> ()
        | Some (call, answers, subs) ->
            acc :=
              {
                Engine.ex_call = call;
                ex_answers = List.rev answers;
                ex_subcalls = List.rev subs;
              }
              :: !acc
      in
      while !pos < n do
        if !pos + 2 > n || s.[!pos + 1] <> ' ' then raise Bad;
        let tag = s.[!pos] in
        pos := !pos + 2;
        let t = dec_term ns s pos n in
        if !pos < n then
          if s.[!pos] = '\n' then incr pos else raise Bad;
        match (tag, !cur) with
        | 'e', _ ->
            flush ();
            cur := Some (t, [], [])
        | 'a', Some (c, ans, subs) -> cur := Some (c, t :: ans, subs)
        | 's', Some (c, ans, subs) -> cur := Some (c, ans, t :: subs)
        | _ -> raise Bad
      done;
      flush ();
      Some (List.rev !acc)
    with Bad | Invalid_argument _ -> None

(* --- the evaluation phase ------------------------------------------------ *)

type cache = { fragments : Analysis.cache; table_class : string }

(* The drivers' goal fold: every goal in order under the engine's guard.
   Budgets are sticky, so after an exhaustion the remaining goals
   degrade immediately instead of each burning a full budget. *)
let run_goals engine goals =
  List.fold_left
    (fun acc goal ->
      Guard.combine acc (Engine.run_status engine goal (fun _ -> ())))
    Guard.Complete goals

(* A complete run's call table, made independent of discovery order
   under answer subsumption ([Engine.settle]) before anything reads or
   persists it. *)
let settle engine status =
  if not (Guard.is_partial status) then Engine.settle engine

(* --- per-SCC fragments: plan, load, save ------------------------------ *)

(* The one per-SCC planner: the tabled splice below and the def domain's
   per-SCC fixpoint both go through it, so every edit-aware run moves
   the same timers and reads and writes the same fragment codec. *)
type plan = { cache : cache; graph : Depgraph.t; keys : string array }

let plan (cache : cache) ~is_call (clauses : Parser.clause list) : plan =
  Metrics.time t_plan @@ fun () ->
  let graph = Depgraph.build ~is_call clauses in
  let keys =
    Array.init (Depgraph.scc_count graph) (fun s ->
        fragment_key ~table_class:cache.table_class
          (Depgraph.closure_digest graph s))
  in
  { cache; graph; keys }

let graph p = p.graph

(* a missing or corrupt fragment is a miss *)
let load ?(want = fun _ -> true) (p : plan) :
    Engine.exported list option array =
  Metrics.time t_load @@ fun () ->
  Array.mapi
    (fun s key ->
      if want s then
        Option.bind (p.cache.fragments.Analysis.cache_load key)
          fragment_of_string
      else None)
    p.keys

let save (p : plan) s (records : Engine.exported list) =
  Metrics.time t_persist @@ fun () ->
  p.cache.fragments.Analysis.cache_save p.keys.(s) (fragment_to_string records)

(* --- the splice ------------------------------------------------------- *)

let splice (c : cache) ~(engine : Engine.t) ~(clauses : Parser.clause list)
    ~(goals : Term.t list) : Guard.status * outcome =
  let p =
    plan c ~is_call:(fun p -> not (Engine.is_builtin engine p)) clauses
  in
  let n = Depgraph.scc_count p.graph in
  (* load: one fragment per closure-digest cache hit, indexed by call
     variant ([load] nests in the same timer activation) *)
  let frag : (Term.t list * Term.t list) Canon.Tbl.t =
    Canon.Tbl.create 256
  in
  let loaded =
    Metrics.time t_load (fun () ->
        let loaded = load p in
        Array.iter
          (Option.iter
             (List.iter (fun (r : Engine.exported) ->
                  Canon.Tbl.replace frag r.ex_call
                    (r.ex_answers, r.ex_subcalls))))
          loaded;
        loaded)
  in
  (* splice: answer new table entries from the fragments, queueing their
     recorded demand edges for replay *)
  let pending : Term.t Queue.t = Queue.create () in
  let queued : unit Canon.Tbl.t = Canon.Tbl.create 256 in
  (* every table entry the fragments could not answer: a variant of an
     invalidated SCC, or one a cached fragment did not hold.  Zero
     misses on an all-hit run means the table is exactly the union of
     the fragments, so persist has nothing to do. *)
  let resolver_misses = ref 0 in
  Engine.set_resolver engine
    (Some
       (fun key ->
         match Canon.Tbl.find_opt frag key with
         | None ->
             incr resolver_misses;
             None
         | Some (answers, subs) ->
             List.iter
               (fun k ->
                 if not (Canon.Tbl.mem queued k) then begin
                   Canon.Tbl.replace queued k ();
                   Queue.add k pending
                 end)
               subs;
             Some answers));
  let finally () = Engine.set_resolver engine None in
  match
    let status = run_goals engine goals in
    (* drain: replaying a demand edge may splice further entries, which
       enqueue their own edges — loop to fixpoint.  Replay through clean
       cones reinstalls exactly the call variants the original producers
       demanded, which is what makes the restored call table (and so
       dump_tables, call_patterns, table_space_bytes) byte-identical to
       a from-scratch run.  [demand_status] creates the entry without
       consuming its answers — the table is the deliverable here, not
       the enumeration. *)
    Metrics.time t_replay (fun () ->
        let status = ref status in
        while not (Queue.is_empty pending) do
          let k = Queue.pop pending in
          status := Guard.combine !status (Engine.demand_status engine k)
        done;
        settle engine !status;
        !status)
  with
  | exception e ->
      finally ();
      raise e
  | status ->
      finally ();
      (* persist: only a complete run's tables are the fixpoint.  A run
         that hit on every SCC and spliced every entry it created has a
         table identical to the cached fragments — skip the export
         walk entirely (the common fully-warm case). *)
      let spliced =
        Array.fold_left
          (fun a l -> if Option.is_some l then a + 1 else a)
          0 loaded
      in
      if
        (not (Guard.is_partial status))
        && not (spliced = n && !resolver_misses = 0)
      then begin
        Metrics.time t_persist @@ fun () ->
        let buckets : Engine.exported list array = Array.make n [] in
        List.iter
          (fun (r : Engine.exported) ->
            match Term.functor_of r.ex_call with
            | None -> ()
            | Some pred -> (
                match Depgraph.scc_of p.graph pred with
                | Some s -> buckets.(s) <- r :: buckets.(s)
                | None -> ()))
          (Engine.export_tables engine);
        for s = 0 to n - 1 do
          let fresh = List.rev buckets.(s) in
          match loaded.(s) with
          | None -> if fresh <> [] then save p s fresh
          | Some old ->
              (* merge: keep every cached record (a spliced entry's
                 export has no demand edges, so it must not overwrite
                 the record that does), append variants this run
                 demanded afresh *)
              let old_calls : unit Canon.Tbl.t = Canon.Tbl.create 16 in
              List.iter
                (fun (r : Engine.exported) ->
                  Canon.Tbl.replace old_calls r.ex_call ())
                old;
              let added =
                List.filter
                  (fun (r : Engine.exported) ->
                    not (Canon.Tbl.mem old_calls r.ex_call))
                  fresh
              in
              if added <> [] then save p s (old @ added)
        done
      end;
      let o =
        {
          sccs = n;
          invalidated = n - spliced;
          spliced;
          spliced_entries = Engine.spliced_entries engine;
        }
      in
      record o;
      (status, o)

let run_tabled ?cache ~engine ~clauses ~goals () =
  match cache with
  | None ->
      let status = run_goals engine goals in
      settle engine status;
      (status, None)
  | Some c ->
      let status, o = splice c ~engine ~clauses ~goals in
      (status, Some o)

(* --- store binding ---------------------------------------------------------- *)

let cache_of_store store ~analysis ~table_class : Analysis.cache =
  let sub = Store.sub (Store.sub store "incr") analysis in
  let key digest =
    {
      Store.analysis;
      source_digest = digest;
      config = table_class;
      schema_version = Metrics.schema_version;
    }
  in
  {
    Analysis.cache_load = (fun d -> Store.load sub (key d));
    cache_save = (fun d payload -> Store.save sub (key d) payload);
  }

let store_cache store (a : Analysis.t) ~config =
  Option.map
    (fun table_class ->
      cache_of_store store ~analysis:a.Analysis.name ~table_class)
    (Analysis.table_class a ~config ())

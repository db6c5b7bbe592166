(** The resident analysis daemon — see daemon.mli for the contract. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Inject = Prax_guard.Inject
module Serve = Prax_serve.Serve
module Store = Prax_store.Store
module Analysis = Prax_analysis.Analysis

(* --- metrics (stats schema v5, docs/METRICS.md) -------------------------- *)

let m_accepted =
  Metrics.counter ~units:"connections" ~doc:"client connections accepted"
    "daemon.accepted"

let m_requests =
  Metrics.counter ~units:"requests" ~doc:"request lines received"
    "daemon.requests"

let m_shed_queue =
  Metrics.counter ~units:"requests"
    ~doc:"analyze requests shed because the job queue was full"
    "daemon.shed_queue"

let m_shed_rate =
  Metrics.counter ~units:"requests"
    ~doc:"analyze requests shed by a client's token bucket"
    "daemon.shed_rate"

let m_rejected =
  Metrics.counter ~units:"frames"
    ~doc:"malformed or oversized request frames rejected"
    "daemon.rejected_bad_frame"

let m_warm =
  Metrics.counter ~units:"requests"
    ~doc:"analyze requests answered from the resident result cache"
    "daemon.warm_hits"

let m_cold_ms =
  Metrics.counter ~units:"ms"
    ~doc:"cumulative wall-clock of fleet-computed (cold) answers"
    "daemon.cold_ms"

let m_warm_ms =
  Metrics.counter ~units:"ms"
    ~doc:"cumulative wall-clock of cache-answered (warm) requests"
    "daemon.warm_ms"

let m_drain_ms =
  Metrics.counter ~units:"ms" ~doc:"wall-clock spent in graceful drain"
    "daemon.drain_ms"

let m_degraded =
  Metrics.counter ~units:"requests"
    ~doc:"analyze requests admitted at a reduced pressure-tier budget"
    "daemon.degraded"

let m_evictions =
  Metrics.counter ~units:"entries"
    ~doc:"resident cache entries evicted by the LRU bound"
    "daemon.cache_evictions"

let m_chaos =
  Metrics.counter ~units:"faults"
    ~doc:"chaos-plan faults injected (PRAX_INJECT_DAEMON / --chaos)"
    "daemon.chaos_injected"

let g_queue =
  Metrics.gauge ~units:"jobs" ~doc:"analyze jobs queued for a worker slot"
    "daemon.queue_depth"

let g_inflight =
  Metrics.gauge ~units:"jobs" ~doc:"analyze jobs running in workers"
    "daemon.inflight"

let g_tier =
  Metrics.gauge ~units:"tier"
    ~doc:"pressure tier of the most recent admission (0 = full budget)"
    "daemon.tier"

(* the daemon's own heap, read from [Gc.quick_stat] when stats are built *)

let g_minor_words =
  Metrics.gauge ~units:"words"
    ~doc:"words the daemon allocated on its minor heap since it started"
    "daemon.gc_minor_words"

let g_major_words =
  Metrics.gauge ~units:"words"
    ~doc:
      "words the daemon allocated on its major heap since it started \
       (promoted or allocated there directly)"
    "daemon.gc_major_words"

let g_major_collections =
  Metrics.gauge ~units:"cycles"
    ~doc:"major collection cycles the daemon completed since it started"
    "daemon.gc_major_collections"

let g_heap_words =
  Metrics.gauge ~units:"words" ~doc:"the daemon's major heap size"
    "daemon.heap_words"

(* --- configuration ------------------------------------------------------- *)

type config = {
  socket_path : string;
  max_queue : int;
  rate : float;
  burst : float;
  max_request_bytes : int;
  drain_deadline : float;
  store_dir : string option;
  incremental : bool;
  cache_entries : int;
  cache_bytes : int;
  chaos : Inject.daemon_plan;
  serve : Serve.config;
}

let default_config ~socket_path =
  {
    socket_path;
    max_queue = 32;
    rate = 0.;
    burst = 8.;
    max_request_bytes = 8 * 1024 * 1024;
    drain_deadline = 5.;
    store_dir = None;
    incremental = false;
    cache_entries = 512;
    cache_bytes = 64 * 1024 * 1024;
    chaos = [];
    serve = Serve.default_config;
  }

(* --- state ---------------------------------------------------------------- *)

(* A connection reads into [c_in] and writes from [c_out], both reused
   for its whole life: a request line is parsed where it lies in [c_in],
   and a response is written into [c_out] where the socket takes it
   from. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Bytebuf.t;
  mutable c_scanned : int;
      (* the first [c_scanned] bytes of [c_in] hold no newline *)
  c_out : Bytebuf.t;  (* bytes not yet written *)
  mutable c_closing : bool;  (* close once c_out drains *)
  mutable c_dead : bool;
  mutable c_reset_armed : bool;
      (* chaos: truncate the next response mid-frame and close *)
}

(* an admitted analyze job waiting for (or running in) the fleet *)
type pending = {
  jb_conn : int;
  jb_reqid : Metrics.json;
  jb_cache_key : string;
  jb_store_key : Store.key;
  jb_started : float;
  jb_tier : Pressure.tier;  (* the admission tier; tags the response *)
}

(* what a worker needs to run a job, sent with every attempt: a worker
   forked before the job arrived cannot find it in its own copy of the
   daemon's heap *)
type job_request = {
  rq_analysis : string;  (* a registered name: the daemon resolved it *)
  rq_config : Analysis.config;
  rq_input : string;
  rq_source : string;
  rq_fault : Inject.worker_fault option;  (* chaos: planted on attempt 1 *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  store : Store.t option;
  admission : Admission.t;
  jobs : (string, pending) Hashtbl.t;
  cache : Lru.t;  (* resident complete results, entry+byte bounded *)
  parser : Wire.parser;  (* holds the latest request's decoded source *)
  mutable pool : job_request Serve.Pool.t option;
      (* built in [run] (needs self) *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable seq : int;
  mutable analyze_seq : int;  (* chaos-plan ordinal: analyze arrivals *)
  mutable draining : bool;
  mutable drain_started : float;
}

let socket_path d = d.config.socket_path
let pid_path d = d.config.socket_path ^ ".pid"

exception Already_running of string

(* --- startup: stale-socket and pidfile recovery --------------------------- *)

(* A SIGKILLed daemon leaves its socket and pidfile behind; binding
   would fail with EADDRINUSE forever.  A connect probe distinguishes
   the cases: a live daemon accepts, a stale socket refuses. *)
let probe path =
  if not (Sys.file_exists path) then `Absent
  else
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
        | exception Unix.Unix_error _ -> `Not_a_socket)

let listen (config : config) : t =
  let path = config.socket_path in
  (match probe path with
  | `Absent -> ()
  | `Live -> raise (Already_running path)
  | `Stale ->
      (* stale socket from a killed predecessor: sweep it and its
         pidfile *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (try Unix.unlink (path ^ ".pid") with Unix.Unix_error _ -> ())
  | `Not_a_socket ->
      raise (Sys_error (path ^ ": exists and is not a praxd socket")));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let oc = open_out (path ^ ".pid") in
  output_string oc (string_of_int (Unix.getpid ()) ^ "\n");
  close_out oc;
  {
    config;
    listen_fd = fd;
    store = Option.map Store.open_dir config.store_dir;
    admission = Admission.create ~rate:config.rate ~burst:config.burst;
    jobs = Hashtbl.create 64;
    cache =
      Lru.create
        ~on_evict:(fun ~key:_ -> Metrics.incr m_evictions)
        ~max_entries:config.cache_entries ~max_bytes:config.cache_bytes ();
    parser = Wire.create_parser ();
    pool = None;
    conns = [];
    next_conn = 0;
    seq = 0;
    analyze_seq = 0;
    draining = false;
    drain_started = 0.;
  }

(* --- responses ------------------------------------------------------------ *)

(* [write] appends one response line, without its newline, to the
   connection's output buffer *)
let send conn write =
  if not conn.c_dead then begin
    let out = conn.c_out in
    let before = Bytebuf.length out in
    write out;
    if conn.c_reset_armed then begin
      (* chaos conn-reset: the response was generated (the
         one-response-per-request invariant holds daemon-side) but only
         half its bytes reach the wire before the connection closes —
         the client must classify this as a protocol error, never as a
         result *)
      conn.c_reset_armed <- false;
      Metrics.incr m_chaos;
      Bytebuf.truncate out (before + ((Bytebuf.length out - before) / 2));
      conn.c_closing <- true
    end
    else Bytebuf.add_char out '\n'
  end

let respond conn ~id ~status extra =
  send conn (fun b -> Wire.add_response b ~id ~status extra)

let conn_by_id d cid = List.find_opt (fun c -> c.c_id = cid) d.conns

(* --- the warm result cache ------------------------------------------------ *)

(* Every report in the resident cache is canonical JSON, so an answer
   splices it without parsing it.  A worker's report entered as the
   bytes the worker printed, checked by {!Wire.worker_report}; a store
   snapshot was parsed and printed again when it was loaded, since
   another printer may have written it.  A store payload that does not
   parse is a miss: the job is recomputed and the good result
   overwrites it. *)

let cache_key (k : Store.key) =
  String.concat "\x00"
    [ k.Store.analysis; k.Store.source_digest; k.Store.config;
      string_of_int k.Store.schema_version ]

let warm_lookup d (p : string) (k : Store.key) =
  match Lru.find d.cache p with
  | Some payload -> Some payload
  | None -> (
      match
        Option.bind
          (Option.bind d.store (fun s -> Store.load s k))
          Wire.canonical_report
      with
      | Some report ->
          Lru.put d.cache p report;
          Some report
      | None -> None)

let cache_put d (p : string) (k : Store.key) report =
  Lru.put d.cache p report;
  Option.iter (fun s -> Store.save s k report) d.store

(* --- request handling ----------------------------------------------------- *)

let stats_json d =
  let gc = Gc.quick_stat () in
  Metrics.set g_minor_words (int_of_float gc.Gc.minor_words);
  Metrics.set g_major_words (int_of_float gc.Gc.major_words);
  Metrics.set g_major_collections gc.Gc.major_collections;
  Metrics.set g_heap_words gc.Gc.heap_words;
  Metrics.set g_queue
    (match d.pool with Some p -> Serve.Pool.pending p | None -> 0);
  Metrics.set g_inflight
    (match d.pool with Some p -> Serve.Pool.inflight p | None -> 0);
  Metrics.stats_doc ~tool:"praxd" ~analysis:"daemon"
    ~input:d.config.socket_path (Metrics.snapshot ())

let begin_drain d =
  if not d.draining then begin
    d.draining <- true;
    d.drain_started <- Unix.gettimeofday ();
    (* stop accepting at once: close and remove the socket so new
       connects fail fast instead of queueing in the backlog *)
    (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink d.config.socket_path with Unix.Unix_error _ -> ()
  end

let ms_of_seconds s = int_of_float (Float.ceil (s *. 1000.))

(* Chaos plan: fire the faults scheduled for this analyze arrival
   (1-based ordinal, counted before any admission decision so a plan
   replays identically against the same request sequence).  Returns the
   worker fault to plant on this request's job, if any. *)
let apply_chaos d conn : Inject.worker_fault option =
  match d.config.chaos with
  | [] -> None
  | plan ->
      let worker_fault = ref None in
      List.iter
        (fun (fault : Inject.daemon_fault) ->
          match fault with
          | Inject.Worker wf -> worker_fault := Some wf
          | Inject.Conn_reset ->
              (* fires (and is counted) in [send], on this request's
                 own response *)
              conn.c_reset_armed <- true
          | Inject.Store_write sf ->
              Metrics.incr m_chaos;
              Store.arm_write_fault
                (match sf with
                | Inject.Enospc -> Store.Fault_enospc
                | Inject.Short_write -> Store.Fault_short_write)
          | Inject.Drain_now ->
              Metrics.incr m_chaos;
              begin_drain d)
        (Inject.daemon_faults_at plan d.analyze_seq);
      !worker_fault

let handle_analyze d conn ~id ~client ~analysis ~input ~source ~config =
  d.analyze_seq <- d.analyze_seq + 1;
  let chaos_fault = apply_chaos d conn in
  if d.draining then
    respond conn ~id ~status:"draining"
      [ ("reason", Metrics.Str "daemon is draining") ]
  else
    let client =
      Option.value client ~default:(Printf.sprintf "conn-%d" conn.c_id)
    in
    let now = Unix.gettimeofday () in
    let pool = Option.get d.pool in
    if not (Admission.admit d.admission ~client ~now) then begin
      Metrics.incr m_shed_rate;
      respond conn ~id ~status:"overloaded"
        [
          ("reason", Metrics.Str "rate_limited");
          ("client", Metrics.Str client);
          ( "retry_after_ms",
            Metrics.Int
              (ms_of_seconds (Admission.retry_after d.admission ~client ~now))
          );
        ]
    end
    else
      (* pressure-tiered admission (docs/ROBUSTNESS.md): below the shed
         point the request is admitted at the occupancy tier's budget
         scale — degrade, don't drop *)
      match
        Pressure.decide ~max_queue:d.config.max_queue
          ~jobs:d.config.serve.Serve.jobs ~pending:(Serve.Pool.pending pool)
          ~inflight:(Serve.Pool.inflight pool)
      with
      | Pressure.Shed { retry_after_ms } ->
          Metrics.incr m_shed_queue;
          respond conn ~id ~status:"overloaded"
            [
              ("reason", Metrics.Str "queue_full");
              ("queue_depth", Metrics.Int (Serve.Pool.pending pool));
              ("max_queue", Metrics.Int d.config.max_queue);
              ("retry_after_ms", Metrics.Int retry_after_ms);
            ]
      | Pressure.Admit tier -> (
          Metrics.set g_tier tier.Pressure.level;
          match Analysis.find analysis with
          | None ->
              respond conn ~id ~status:"error"
                [
                  ( "reason",
                    Metrics.Str
                      (Printf.sprintf "unknown analysis %s (registered: %s)"
                         analysis
                         (String.concat ", " (Analysis.names ()))) );
                ]
          | Some a -> (
              match
                Analysis.merge_config ~defaults:a.Analysis.defaults config
              with
              | Error msg ->
                  respond conn ~id ~status:"error"
                    [ ("reason", Metrics.Str msg) ]
              | Ok cfg -> (
                  let store_key =
                    Prax_analyses.Analyses.store_key_of_digest a ~config:cfg
                      (Wire.source_digest source)
                  in
                  let ckey = cache_key store_key in
                  match warm_lookup d ckey store_key with
                  | Some report ->
                      Metrics.incr m_warm;
                      Metrics.add m_warm_ms
                        (int_of_float ((Unix.gettimeofday () -. now) *. 1000.));
                      send conn (fun b ->
                          Wire.add_response_with_report b ~id ~status:"cached"
                            [] ~report)
                  | None ->
                      if tier.Pressure.level > 0 then Metrics.incr m_degraded;
                      (match chaos_fault with
                      | Some _ -> Metrics.incr m_chaos
                      | None -> ());
                      d.seq <- d.seq + 1;
                      let job =
                        Printf.sprintf "%s:%s#%d" a.Analysis.name input d.seq
                      in
                      Hashtbl.replace d.jobs job
                        {
                          jb_conn = conn.c_id;
                          jb_reqid = id;
                          jb_cache_key = ckey;
                          jb_store_key = store_key;
                          jb_started = now;
                          jb_tier = tier;
                        };
                      Serve.Pool.submit pool
                        ~budget_scale:tier.Pressure.scale job
                        {
                          rq_analysis = a.Analysis.name;
                          rq_config = cfg;
                          rq_input = input;
                          rq_source = Wire.source_text source;
                          rq_fault = chaos_fault;
                        })))

let handle_line d conn b ~pos ~len =
  Metrics.incr m_requests;
  match Wire.parse_bytes d.parser b ~pos ~len with
  | Error reason ->
      Metrics.incr m_rejected;
      respond conn ~id:Metrics.Null ~status:"rejected"
        [ ("reason", Metrics.Str reason) ]
  | Ok { Wire.id; client; op } -> (
      match op with
      | Wire.Ping ->
          respond conn ~id ~status:"ok"
            [ ("pid", Metrics.Int (Unix.getpid ())) ]
      | Wire.Stats -> respond conn ~id ~status:"ok" [ ("stats", stats_json d) ]
      | Wire.Drain ->
          respond conn ~id ~status:"ok" [ ("draining", Metrics.Bool true) ];
          begin_drain d
      | Wire.Analyze { analysis; input; source; config } ->
          handle_analyze d conn ~id ~client ~analysis ~input ~source ~config)

let rec newline_at b i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else newline_at b (i + 1) stop

(* Handle the complete lines in a connection's input buffer, each where
   it lies; an over-limit line — terminated or not — is a framing
   violation: reject and close (the stream position can no longer be
   trusted). *)
let rec process_input d conn =
  let inb = conn.c_in in
  let start = inb.Bytebuf.start and stop = inb.Bytebuf.stop in
  let i = newline_at inb.Bytebuf.buf (start + conn.c_scanned) stop in
  if i >= 0 && i - start <= d.config.max_request_bytes then begin
    handle_line d conn inb.Bytebuf.buf ~pos:start ~len:(i - start);
    Bytebuf.consume inb (i + 1 - start);
    conn.c_scanned <- 0;
    process_input d conn
  end
  else if stop - start > d.config.max_request_bytes then begin
    Metrics.incr m_rejected;
    respond conn ~id:Metrics.Null ~status:"rejected"
      [
        ("reason", Metrics.Str "oversized frame");
        ("max_request_bytes", Metrics.Int d.config.max_request_bytes);
      ];
    conn.c_closing <- true;
    Bytebuf.clear inb;
    conn.c_scanned <- 0
  end
  else (* incomplete line: wait for more bytes *)
    conn.c_scanned <- stop - start

(* --- fleet results back to clients ---------------------------------------- *)

let finish_report d (r : Serve.report) =
  match Hashtbl.find_opt d.jobs r.Serve.job with
  | None -> ()
  | Some p -> (
      Hashtbl.remove d.jobs r.Serve.job;
      let id = p.jb_reqid in
      let reply write =
        match conn_by_id d p.jb_conn with
        | Some c when not c.c_dead -> send c write
        | _ -> ()  (* client went away; the result still warmed the cache *)
      in
      match r.Serve.outcome with
      | Serve.Done { status = Serve.Invalid_input diagnostic; _ } ->
          (* a deterministic input error: one attempt, never cached *)
          reply (fun b ->
              Wire.add_response b ~id ~status:"error"
                [
                  ("reason", Metrics.Str diagnostic);
                  ("attempts", Metrics.Int r.Serve.attempts);
                ])
      | Serve.Done { payload; status = worker_status; _ } ->
          let status, extra =
            match worker_status with
            | Serve.Partial_result reason ->
                ("partial", [ ("reason", Metrics.Str reason) ])
            | _ -> ("complete", [])
          in
          let tier_fields =
            if p.jb_tier.Pressure.level > 0 then
              [
                ("degraded", Metrics.Bool true);
                ("tier", Metrics.Int p.jb_tier.Pressure.level);
                ("tier_label", Metrics.Str p.jb_tier.Pressure.label);
              ]
            else []
          in
          let extra =
            extra @ tier_fields @ [ ("attempts", Metrics.Int r.Serve.attempts) ]
          in
          let report = Wire.worker_report payload in
          (match (worker_status, report) with
          | Serve.Complete, Some report ->
              cache_put d p.jb_cache_key p.jb_store_key report
          | _ -> ());
          Metrics.add m_cold_ms
            (int_of_float ((Unix.gettimeofday () -. p.jb_started) *. 1000.));
          reply (fun b ->
              Wire.add_worker_response b ~id ~status extra payload ~report)
      | Serve.Crashed { what; stderr; _ } ->
          reply (fun b ->
              Wire.add_response b ~id ~status:"crashed"
                ([
                   ("error", Metrics.Str what);
                   ("attempts", Metrics.Int r.Serve.attempts);
                 ]
                @
                if String.equal stderr "" then []
                else [ ("stderr", Metrics.Str stderr) ])))

(* --- the event loop ------------------------------------------------------- *)

(* what a connection's buffers start with; the first requests grow them
   to the connection's working size, and they stay there *)
let conn_buffer_bytes = 4096

(* How much of its nursery the daemon fills before it empties it: 32k
   words (256 KiB) of OCaml's default 256k.  A warm hit's garbage is
   small and dies young, so no major slice empties the nursery early,
   and a nursery filled to its end would keep all its 2 MiB resident.
   The loop empties it at this mark instead of resizing it with
   [Gc.set], which in OCaml 5.1 re-reserves the minor heap at a cost
   every daemon start would pay (bin/praxd.ml has the measurements). *)
let nursery_words = 32_768.

let accept_ready d =
  let rec loop () =
    match Unix.accept ~cloexec:true d.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        Metrics.incr m_accepted;
        d.next_conn <- d.next_conn + 1;
        d.conns <-
          {
            c_id = d.next_conn;
            c_fd = fd;
            c_in = Bytebuf.create conn_buffer_bytes;
            c_scanned = 0;
            c_out = Bytebuf.create conn_buffer_bytes;
            c_closing = false;
            c_dead = false;
            c_reset_armed = false;
          }
          :: d.conns;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

let read_conn d conn =
  let inb = conn.c_in in
  Bytebuf.reserve inb conn_buffer_bytes;
  let buf = inb.Bytebuf.buf and stop = inb.Bytebuf.stop in
  match Unix.read conn.c_fd buf stop (Bytes.length buf - stop) with
  | 0 -> conn.c_dead <- true
  | n ->
      Bytebuf.commit inb n;
      process_input d conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> conn.c_dead <- true

let write_conn conn =
  let out = conn.c_out in
  if (not conn.c_dead) && Bytebuf.length out > 0 then
    match
      Unix.single_write conn.c_fd out.Bytebuf.buf out.Bytebuf.start
        (Bytebuf.length out)
    with
    | n -> Bytebuf.consume out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> conn.c_dead <- true

let close_conn conn =
  conn.c_dead <- true;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let run ?on_ready (d : t) : unit =
  (* the worker body runs in a long-lived forked worker, once per
     attempt; the job itself arrives as [rq] *)
  let worker ~job ~attempt ~guard rq =
    (match Inject.worker_fault_of_env ~job ~attempt () with
    | Some fault -> Inject.apply_worker_fault fault
    | None -> ());
    (* chaos-plan worker faults fire on the first attempt only, so the
       pool's retry ladder absorbs them and the client still gets its
       one structured response *)
    if attempt = 1 then Option.iter Inject.apply_worker_fault rq.rq_fault;
    let a = Option.get (Analysis.find rq.rq_analysis) in
    (* edit-aware dispatch: under [incremental] with a store the worker
       consults the per-SCC fragment cache under [incr/<analysis>/] next
       to the warm result snapshots, splicing unchanged cones' tables
       back; every later attempt (or a cold CLI run) replays them.
       Without a store there is no cache at all: a memory cache would
       live only in one worker, which the next crash or recycle ends.
       The report is byte-identical either way, so the resident result
       cache and the store snapshots need no new key component. *)
    let cache =
      if d.config.incremental then
        Option.bind d.store (fun s ->
            Prax_incr.Incr.store_cache s a ~config:rq.rq_config)
      else None
    in
    Prax_analyses.Analyses.run_job ?cache a ~config:rq.rq_config ~guard
      ~input:rq.rq_input rq.rq_source
  in
  (* children must not hold the daemon's sockets open: a worker
     outliving a client would postpone that client's EOF *)
  let on_child () =
    (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
    List.iter
      (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
      d.conns
  in
  let pool = Serve.Pool.create ~config:d.config.serve ~on_child ~worker () in
  d.pool <- Some pool;
  let sig_requested = ref false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> sig_requested := true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> sig_requested := true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let restore () =
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally:restore (fun () ->
      (match on_ready with Some f -> f () | None -> ());
      let finished = ref false in
      let nursery_mark = ref (Gc.minor_words () +. nursery_words) in
      while not !finished do
        if !sig_requested then begin_drain d;
        let now = Unix.gettimeofday () in
        let pool_fds = Serve.Pool.fds pool in
        let read_fds =
          (if d.draining then [] else [ d.listen_fd ])
          @ List.filter_map
              (fun c ->
                if c.c_dead || c.c_closing then None else Some c.c_fd)
              d.conns
          @ pool_fds
        in
        let write_fds =
          List.filter_map
            (fun c ->
              if (not c.c_dead) && Bytebuf.length c.c_out > 0 then Some c.c_fd
              else None)
            d.conns
        in
        let wake =
          let candidates =
            (now +. 0.5)
            :: Option.to_list (Serve.Pool.next_wake pool)
            @
            if d.draining then [ d.drain_started +. d.config.drain_deadline ]
            else []
          in
          List.fold_left Float.min (List.hd candidates) (List.tl candidates)
        in
        (* no floor: the pool's wakes are all actionable, and a worker
           whose exit is one reap poll away must not wait out a tick *)
        let timeout = Float.max 0. (wake -. now) in
        let readable, writable, _ =
          match Unix.select read_fds write_fds [] timeout with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        if (not d.draining) && List.memq d.listen_fd readable then
          accept_ready d;
        List.iter
          (fun c ->
            if (not c.c_dead) && List.memq c.c_fd readable then read_conn d c)
          d.conns;
        let pool_readable = List.filter (fun fd -> List.mem fd pool_fds) readable in
        List.iter (finish_report d) (Serve.Pool.step pool ~readable:pool_readable);
        List.iter
          (fun c -> if List.memq c.c_fd writable then write_conn c)
          d.conns;
        (* opportunistic flush for responses generated this round *)
        List.iter write_conn d.conns;
        (* retire finished connections *)
        let gone, live =
          List.partition
            (fun c -> c.c_dead || (c.c_closing && Bytebuf.length c.c_out = 0))
            d.conns
        in
        List.iter close_conn gone;
        d.conns <- live;
        Metrics.set g_queue (Serve.Pool.pending pool);
        Metrics.set g_inflight (Serve.Pool.inflight pool);
        if Gc.minor_words () >= !nursery_mark then begin
          Gc.minor ();
          nursery_mark := Gc.minor_words () +. nursery_words
        end;
        if d.draining then
          if Serve.Pool.idle pool then finished := true
          else if
            Unix.gettimeofday () > d.drain_started +. d.config.drain_deadline
          then begin
            (* deadline: the stragglers are killed, their clients get a
               structured crash, and the daemon still exits cleanly *)
            let abandoned = Serve.Pool.kill_all pool in
            List.iter
              (fun job ->
                match Hashtbl.find_opt d.jobs job with
                | None -> ()
                | Some p -> (
                    Hashtbl.remove d.jobs job;
                    match conn_by_id d p.jb_conn with
                    | Some c when not c.c_dead ->
                        respond c ~id:p.jb_reqid ~status:"crashed"
                          [
                            ( "error",
                              Metrics.Str "killed by drain deadline" );
                          ]
                    | _ -> ()))
              abandoned;
            finished := true
          end
      done;
      (* drain epilogue: stop the idle workers, flush what we can, tear
         everything down *)
      ignore (Serve.Pool.kill_all pool);
      List.iter write_conn d.conns;
      List.iter close_conn d.conns;
      d.conns <- [];
      if not d.draining then begin
        (* natural exit without a drain request cleans up the same way *)
        try Unix.close d.listen_fd with Unix.Unix_error _ -> ()
      end;
      (try Unix.unlink d.config.socket_path with Unix.Unix_error _ -> ());
      (try Unix.unlink (pid_path d) with Unix.Unix_error _ -> ());
      if d.draining then
        Metrics.add m_drain_ms
          (int_of_float ((Unix.gettimeofday () -. d.drain_started) *. 1000.)))

(* servebench load generator: drives a real `praxd serve --jobs 2` over
   prax.wire and reports the serving metrics of one workload.

     loadgen.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of a built checkout (servebench/run.py builds and
   then execs this).  Human-readable lines go to stdout first; the last
   line is one JSON object {correct, attempted, failed, metrics}.  With
   --trace 0 the metrics are the end-to-end ones (servebench/README.md),
   with --trace 1 the per-layer ones from the traced run.  Exit 0 when
   every answer passed the oracle, 1 otherwise, 2 on usage errors. *)

open Servebench
module Metrics = Prax_metrics.Metrics
module Analysis = Prax_analysis.Analysis
module Wire = Prax_daemon.Wire
module Serve = Prax_serve.Serve
module Store = Prax_store.Store
module Incr = Prax_incr.Incr
module Lru = Prax_daemon.Lru

let now = Analysis.now

(* --- workloads -------------------------------------------------------------------- *)

type workload = Cold_mix | Warm_hits | Edit_single | Batch_stream

let workloads =
  [ ("cold_mix", Cold_mix); ("warm_hits", Warm_hits);
    ("edit_single", Edit_single); ("batch_stream", Batch_stream) ]

(* requests kept in flight on batch_stream's one connection: three
   times --jobs, under the daemon's 50% pressure occupancy (34 slots) *)
let batch_window = 6

(* tagged sources per base in warm_hits' working set (19 sources, far
   inside the daemon's 512-entry LRU) *)
let warm_per_base = 1

(* timed requests after which the daemon's peak RSS is read: five full
   rounds of the 19 bases.  On the workloads that send never-seen
   sources the footprint grows with every answer the LRU keeps, so a
   reading at the end of a fixed-time run would grow with throughput
   and with the share of stalled requests; read at a fixed count it is
   the footprint of the same work in every run.  warm_hits' working set
   is fixed and its footprint levels off, so it is read at the end. *)
let rss_after = function
  | Cold_mix | Edit_single | Batch_stream -> Some (5 * Array.length Gen.bases)
  | Warm_hits -> None

(* setups per run; setup_s is their median *)
let setups = 5

(* --- samples -------------------------------------------------------------------------- *)

type sample = {
  item : Gen.item;
  id : Metrics.json;
  request : string;  (* the request line sent *)
  latency : float;  (* seconds, write of the request → read of the response *)
  done_at : float;  (* when the response was read *)
  response : string;  (* interned: equal responses share one string *)
}

(* Equal response lines are stored once, so warm_hits' thousands of
   identical cached answers cost one string and one oracle check. *)
let interned : (string, string) Hashtbl.t = Hashtbl.create 1024

let intern s =
  match Hashtbl.find_opt interned s with
  | Some s' -> s'
  | None ->
      Hashtbl.replace interned s s;
      s

(* The id field of a response line, read without parsing the report:
   praxd writes the schema header, then "id". *)
let response_id line =
  let key = "\"id\":" in
  let lim = min (String.length line) 96 in
  let rec find i =
    if i + String.length key > lim then None
    else if String.sub line i (String.length key) = key then
      let j = ref (i + String.length key) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line (i + String.length key) (!j - i - String.length key))
    else find (i + 1)
  in
  find 0

(* The id of set-up pings sent on a pipelined connection: answers with
   it carry no analysis and are skipped. *)
let nudge_id = Metrics.Str "nudge"

let is_nudge_answer line =
  match Metrics.json_of_string line with
  | j -> Metrics.member "id" j = Some nudge_id
  | exception _ -> false

(* --- load loops ------------------------------------------------------------------------- *)

(* A closed loop over [conns] (1 or 2): each connection sends its next
   request only after its previous answer arrived; no new request
   starts after [deadline]. *)
let closed_loop conns ~next ~deadline ~on_sample =
  let out = Hashtbl.create 4 in
  let send c =
    match next () with
    | None -> ()
    | Some (item, id) ->
        let request = Conn.analyze_line ~id item in
        let t0 = now () in
        Conn.send c request;
        Hashtbl.replace out c.Conn.fd (c, item, id, request, t0)
  in
  List.iter send conns;
  while Hashtbl.length out > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) out [] in
    let readable =
      match fds with
      | [ _ ] -> fds
      | _ -> (
          match Unix.select fds [] [] (-1.) with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
    in
    List.iter
      (fun fd ->
        let c, item, id, request, t0 = Hashtbl.find out fd in
        Conn.fill c;
        match Conn.pop_line c with
        | None -> ()
        | Some line ->
            let t1 = now () in
            Hashtbl.remove out fd;
            on_sample
              { item; id; request; latency = t1 -. t0; done_at = t1; response = intern line };
            if now () < deadline then send c)
      readable
  done

(* Pipelined: up to [window] requests in flight on each connection,
   answers matched to requests by id; no new request starts after
   [deadline].  [idle], when given, runs whenever 20 ms pass without an
   answer. *)
let pipelined ?idle conns ~window ~next ~deadline ~on_sample =
  let out = Hashtbl.create 16 in
  let inflight = Hashtbl.create 4 in
  let count c = Option.value ~default:0 (Hashtbl.find_opt inflight c.Conn.fd) in
  let send c =
    match next () with
    | None -> ()
    | Some (item, id) ->
        let request = Conn.analyze_line ~id item in
        let t0 = now () in
        Conn.send c request;
        let key = match id with Metrics.Int n -> n | _ -> invalid_arg "pipelined: id" in
        Hashtbl.replace out key (item, id, request, t0);
        Hashtbl.replace inflight c.Conn.fd (count c + 1)
  in
  List.iter (fun c -> for _ = 1 to window do send c done) conns;
  while Hashtbl.length out > 0 do
    let busy = List.filter (fun c -> count c > 0) conns in
    let readable =
      match (busy, idle) with
      | [ c ], None -> [ c ]
      | _ -> (
          let fds = List.map (fun c -> c.Conn.fd) busy in
          let timeout = if idle = None then -1. else 0.02 in
          match Unix.select fds [] [] timeout with
          | [], _, _ ->
              Option.iter (fun f -> f ()) idle;
              []
          | r, _, _ -> List.filter (fun c -> List.mem c.Conn.fd r) busy
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
    in
    List.iter
      (fun c ->
        Conn.fill c;
        let t1 = now () in
        let rec drain () =
          match Conn.pop_line c with
          | None -> ()
          | Some line ->
              (match Option.bind (response_id line) (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt out k)) with
              | Some (key, (item, id, request, t0)) ->
                  Hashtbl.remove out key;
                  Hashtbl.replace inflight c.Conn.fd (count c - 1);
                  on_sample
                    { item; id; request; latency = t1 -. t0; done_at = t1;
                      response = intern line };
                  if now () < deadline then send c
              | None when is_nudge_answer line -> ()
              | None -> failwith "servebench: answer with an unknown id");
              drain ()
        in
        drain ())
      readable
  done

(* --- one run ------------------------------------------------------------------------------ *)

type setup = {
  daemon : Proc.t;
  conns : Conn.t list;
  fill : sample list;  (* warm_hits' fill answers, checked by the oracle too *)
  seconds : float;  (* daemon start → state ready *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let find_analysis name =
  match Analysis.find name with Some a -> a | None -> failwith ("no analysis " ^ name)

(* Seed the incremental fragment store with every base program through
   the function the worker itself calls. *)
let seed_store dir =
  let store = Store.open_dir dir in
  Array.iter
    (fun (b : Gen.base) ->
      let a = find_analysis b.Gen.analysis in
      let table_class = Option.get (Analysis.table_class a ()) in
      let cache = Incr.cache_of_store store ~analysis:a.Analysis.name ~table_class in
      ignore (Analysis.run_incr a ~cache b.Gen.text))
    Gen.bases

let setup_once wl ~dir ~k ~working_set =
  let store = Filename.concat dir (Printf.sprintf "store-%d" k) in
  let extra =
    match wl with
    | Edit_single -> [ "--incremental"; "--store"; store ]
    | _ -> []
  in
  let cpus =
    Proc.daemon_cpus
      (match wl with
      | Batch_stream -> `Shared
      (* a cached answer takes a third of a millisecond; waking the
         load generator on an idle second CPU can cost as much on a
         shared host, and how much swings between runs *)
      | Warm_hits -> `Together
      | Cold_mix | Edit_single -> `Apart)
  in
  let daemon = Proc.start ~dir ~extra ?cpus () in
  let c1 = Proc.connect_ready daemon in
  let conns, fill =
    match wl with
    | Cold_mix | Batch_stream -> ([ c1 ], [])
    | Edit_single ->
        seed_store store;
        ([ c1 ], [])
    | Warm_hits ->
        let c2 = Conn.connect daemon.Proc.socket in
        let fill = ref [] in
        let i = ref 0 in
        let next () =
          if !i >= Array.length working_set then None
          else begin
            incr i;
            Some (working_set.(!i - 1), Metrics.Int (!i - 1))
          end
        in
        (* pipelined over both connections at batch_stream's total
           window, so the fill stays full-tier.  A ping (answered
           in-line, skipped below) whenever 20 ms pass without an
           answer wakes the daemon's loop, so, like
           edit_single's seeding, set-up does not wait out the reap
           tick (the timed requests still do) *)
        let idle () = Conn.send c1 (Conn.control_line ~id:nudge_id Wire.Ping) in
        pipelined ~idle [ c1; c2 ] ~window:(batch_window / 2) ~next
          ~deadline:Float.infinity
          ~on_sample:(fun s -> fill := s :: !fill);
        (* a last ping fences off nudge answers still in flight *)
        let fence = Metrics.Str "fence" in
        Conn.send c1 (Conn.control_line ~id:fence Wire.Ping);
        while
          Metrics.member "id" (Metrics.json_of_string (Conn.read_line c1)) <> Some fence
        do () done;
        ([ c1; c2 ], !fill)
  in
  { daemon; conns; fill; seconds = now () -. daemon.Proc.started }

let teardown s =
  List.iter Conn.close s.conns;
  match Proc.drain s.daemon with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "servebench: praxd did not drain cleanly"

type phase = {
  samples : sample list;  (* in completion order *)
  started : float;  (* first send *)
  wall : float;  (* first send → last answer *)
  cpu : float;  (* daemon CPU seconds, workers included *)
  stats0 : Metrics.json;
  stats1 : Metrics.json;
}

(* The measured phase: [seconds] of load on a set-up daemon. *)
let measure wl s ~seconds ~next ~on_sample =
  (* stats travel on the first workload connection, idle before and
     after the loop: the load generator never holds more than two *)
  let ctl = List.hd s.conns in
  let stats0 = Conn.stats ctl in
  let samples = ref [] in
  let on_sample x =
    on_sample x;
    samples := x :: !samples
  in
  let cpu0 = Proc.cpu_seconds s.daemon.Proc.pid in
  let t0 = now () in
  let deadline = t0 +. seconds in
  (match wl with
  | Batch_stream ->
      pipelined s.conns ~window:batch_window ~next ~deadline ~on_sample
  | _ -> closed_loop s.conns ~next ~deadline ~on_sample);
  let wall = now () -. t0 in
  let cpu = Proc.cpu_seconds s.daemon.Proc.pid -. cpu0 in
  let stats1 = Conn.stats ctl in
  { samples = List.rev !samples; started = t0; wall; cpu; stats0; stats1 }

(* --- oracle over a run ------------------------------------------------------------------- *)

let verdicts : (string * string, (string, Oracle.failure) result) Hashtbl.t =
  Hashtbl.create 1024

let check (x : sample) =
  let key = (x.response, Metrics.json_to_string x.id) in
  match Hashtbl.find_opt verdicts key with
  | Some v -> v
  | None ->
      let v =
        Oracle.check_line ~id:x.id ~analysis:x.item.Gen.base.Gen.analysis
          ~source:x.item.Gen.source x.response
      in
      Hashtbl.replace verdicts key v;
      v

(* --- output ------------------------------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "servebench: non-finite metric"

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-26s %16.6f %s\n" name v unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let ms x = x *. 1000.

(* --- per-layer metrics of the traced run ----------------------------------------------------- *)

(* distinct sources replayed in-process per traced run *)
let replay_cap = 60

(* requests whose daemon hot path is replayed (warm_hits sends ~10^5) *)
let hot_path_cap = 20_000

(* no-op worker jobs pushed through Serve.run_batch *)
let noop_jobs = 12

(* a request whose residual reaches this waited out a select tick *)
let stall_threshold = 0.25

let worker_seconds (x : sample) =
  match Metrics.json_of_string x.response with
  | j -> (
      match
        ( Metrics.member "status" j,
          Option.bind (Metrics.member "report" j) (Metrics.member "phases") )
      with
      | Some (Metrics.Str ("complete" | "partial")), Some ph -> (
          match Metrics.member "total_seconds" ph with
          | Some (Metrics.Float f) -> f
          | Some (Metrics.Int i) -> float_of_int i
          | _ -> 0.)
      | _ -> 0.)
  | exception _ -> 0.

(* a request that waited out the daemon's select tick after its worker
   exited (the reap stall): its wall time less its in-worker time
   reaches the threshold.  Only a request that slow is parsed. *)
let stalled (x : sample) =
  x.latency >= stall_threshold && x.latency -. worker_seconds x >= stall_threshold

(* fork + frame + reap of workers that do nothing, through the batch
   supervisor (after the daemon has drained, so nothing competes) *)
let noop_job_ms () =
  Serve.run_batch
    ~config:{ Serve.default_config with Serve.jobs = 1 }
    ~worker:(fun ~job:_ ~attempt:_ ~guard:_ -> (Serve.Complete, ""))
    (List.init noop_jobs (Printf.sprintf "noop-%d"))
  |> List.map (fun (r : Serve.report) -> ms r.Serve.elapsed)

let traced_metrics ~dir ~(tr : Trace.t) ~noop ~(traced : phase) =
  let n = List.length traced.samples in
  let nf = float_of_int n in
  (* daemon residual: client wall minus the report's in-worker time *)
  let residuals =
    List.mapi
      (fun i (x : sample) ->
        let w = worker_seconds x in
        Trace.count tr ~req:(i + 1) "worker_ms" (ms w);
        x.latency -. w)
      traced.samples
  in
  let stalls = List.length (List.filter (fun r -> r >= stall_threshold) residuals) in
  let delta name =
    float_of_int (Conn.counter traced.stats1 name - Conn.counter traced.stats0 name)
  in
  (* in-process layer replay of the distinct sources sent *)
  let store = Store.open_dir (Filename.concat dir "layer-store") in
  let payloads = Hashtbl.create 256 in
  let lru = Lru.create ~max_entries:512 ~max_bytes:(64 * 1024 * 1024) () in
  List.iteri
    (fun i (x : sample) ->
      if i < hot_path_cap then begin
        let req = 100_000 + i in
        let src = x.item.Gen.source in
        let payload =
          match Hashtbl.find_opt payloads src with
          | Some p -> Some p
          | None when Hashtbl.length payloads < replay_cap ->
              let p, abstract = Layers.replay tr ~req x.item in
              Hashtbl.replace payloads src p;
              Layers.store_roundtrip tr ~req ~store ~payload:p x.item;
              Layers.incremental tr ~req ~abstract x.item;
              Some p
          | None -> None
        in
        Option.iter
          (fun payload ->
            Layers.hot_path tr ~req ~lru ~request_line:x.request ~payload x.item)
          payload
      end)
    traced.samples;
  (* requests alternate: odd ones carried a client span, even ones not *)
  let p50_where keep =
    Stats.median
      (List.concat
         (List.mapi (fun i (x : sample) -> if keep (i mod 2 = 0) then [ ms x.latency ] else [])
            traced.samples))
  in
  let traced_p50 = p50_where Fun.id and untraced_p50 = p50_where not in
  let self name = List.map ms (Trace.self_of tr name) in
  let med_ms name = Stats.median (self name) in
  let med_us name = 1000. *. med_ms name in
  let med_count name = Stats.median (Trace.counts_of tr name) in
  let sum name = List.fold_left ( +. ) 0. (Trace.counts_of tr name) in
  let incr_run = med_ms "incr.run" and incr_scratch = med_ms "incr.scratch" in
  Trace.write tr
    (Printf.sprintf ".servebench/trace-%s.jsonl" (Filename.basename dir));
  [
    ("logic.read_ms", med_ms "logic.read", "ms");
    ("transform.prepare_ms", med_ms "transform.prepare", "ms");
    ("transform.clauses", med_count "transform.clauses", "count");
    ("tabling.evaluate_ms", med_ms "tabling.evaluate", "ms");
    ("tabling.calls", med_count "tabling.calls", "count");
    ("tabling.answers", med_count "tabling.answers", "count");
    ("tabling.resumptions", med_count "tabling.resumptions", "count");
    ( "tabling.dedup_frac",
      Stats.ratio (sum "tabling.duplicates")
        (sum "tabling.answers" +. sum "tabling.duplicates"),
      "ratio" );
    ("tabling.table_kb", med_count "tabling.table_kb", "KiB");
    ("collect.ms", med_ms "collect", "ms");
    ("analysis.encode_ms", med_ms "analysis.encode", "ms");
    ("analysis.report_kb", med_count "analysis.report_kb", "KiB");
    ("replay.residual_ms", med_ms "request", "ms");
    ("daemon.parse_us", med_us "daemon.parse", "us");
    ("daemon.digest_us", med_us "daemon.digest", "us");
    ("daemon.lru_us", med_us "daemon.lru", "us");
    ("daemon.respond_us", med_us "daemon.respond", "us");
    ("daemon.hit_frac", Stats.ratio (delta "daemon.warm_hits") nf, "ratio");
    ("daemon.residual_ms", ms (Stats.median residuals), "ms");
    ("daemon.residual_p95_ms", ms (Stats.percentile residuals 0.95), "ms");
    ("daemon.stall_frac", Stats.ratio_int stalls n, "ratio");
    ("daemon.degraded_frac", Stats.ratio (delta "daemon.degraded") nf, "ratio");
    ( "daemon.shed_frac",
      Stats.ratio (delta "daemon.shed_queue" +. delta "daemon.shed_rate") nf,
      "ratio" );
    ("serve.spawn_per_req", Stats.ratio (delta "serve.workers_spawned") nf, "ratio");
    ("serve.noop_job_ms", Stats.median noop, "ms");
    ("serve.noop_job_p95_ms", Stats.percentile noop 0.95, "ms");
    ("store.save_ms", med_ms "store.save", "ms");
    ("store.load_ms", med_ms "store.load", "ms");
    ("incr.plan_ms", med_ms "incr.plan", "ms");
    ("incr.cone_frac", Stats.mean (Trace.counts_of tr "incr.cone_frac"), "ratio");
    ("incr.run_ms", incr_run, "ms");
    ("incr.scratch_ms", incr_scratch, "ms");
    ("incr.speedup", Stats.ratio incr_scratch incr_run, "ratio");
    ("trace.untraced_p50_ms", untraced_p50, "ms");
    ("trace.traced_p50_ms", traced_p50, "ms");
    ("trace.overhead_frac", Stats.ratio (traced_p50 -. untraced_p50) untraced_p50, "ratio");
  ]

(* --- the run ----------------------------------------------------------------------------- *)

(* p95 is taken in each of [slices] equal time slices of the measured
   phase and the median of those is reported: a burst of host
   preemption confined to one slice moves one slice's p95, not the
   result, while anything that recurs through the run (the reap stall
   among them) shows in every slice *)
let slices = 5

let sliced_p95 (ph : phase) ~seconds =
  let width = seconds /. float_of_int slices in
  let bucket = Array.make slices [] in
  List.iter
    (fun (x : sample) ->
      let i = min (slices - 1) (max 0 (truncate ((x.done_at -. ph.started) /. width))) in
      bucket.(i) <- ms x.latency :: bucket.(i))
    ph.samples;
  Stats.median
    (List.filter_map
       (function [] -> None | b -> Some (Stats.percentile b 0.95))
       (Array.to_list bucket))

let run ~wl ~name ~seed ~seconds ~trace ~dir =
  (* inputs: a pure function of the seed, each parsed in-process when
     drawn, before it is sent (outside the latency window) *)
  let working_set = Gen.working_set ~seed ~per_base:warm_per_base in
  let numbered g =
    let n = ref 0 in
    fun () ->
      incr n;
      Some (g (), Metrics.Int !n)
  in
  let next =
    match wl with
    | Cold_mix | Batch_stream -> numbered (Gen.tagged_stream ~seed)
    | Edit_single -> numbered (Gen.edit_stream ~seed)
    | Warm_hits ->
        let r = Gen.stream ~seed "warm-draws" in
        fun () ->
          let i = Gen.int r (Array.length working_set) in
          (* the id names the working-set entry, so equal requests get
             byte-equal answers *)
          Some (working_set.(i), Metrics.Int i)
  in
  (* set up several times; measure on the last *)
  let setup_times = ref [] in
  let rec setup k =
    let s = setup_once wl ~dir ~k ~working_set in
    setup_times := s.seconds :: !setup_times;
    if k < setups then begin
      teardown s;
      setup (k + 1)
    end
    else s
  in
  let s = setup 1 in
  let tr = Trace.create () in
  let req = ref 0 in
  let rss = ref None in
  let on_sample (x : sample) =
    incr req;
    if Some !req = rss_after wl then rss := Some (Proc.vm_hwm_mb s.daemon.Proc.pid);
    (* traced runs record a client span on every other request, so the
       p50s of the two halves give the tracing overhead *)
    if trace && !req mod 2 = 1 then begin
      let t1 = now () in
      ignore (Trace.record tr ~req:!req "client.request" ~t0:(t1 -. x.latency) ~t1)
    end
  in
  let measured = measure wl s ~seconds ~next ~on_sample in
  let rss =
    match !rss with
    | Some mb -> mb
    | None ->
        Option.iter
          (Printf.printf "run ended before %d requests: daemon_rss_mb read at its end\n")
          (rss_after wl);
        Proc.vm_hwm_mb s.daemon.Proc.pid
  in
  teardown s;
  let noop = if trace then noop_job_ms () else [] in
  let all_samples = measured.samples in
  (* the oracle, after the daemon is gone so it cannot perturb timing *)
  let failures = ref 0 in
  let mismatches = ref 0 in
  let judge (x : sample) =
    match check x with
    | Ok _ -> ()
    | Error f ->
        incr failures;
        (match f with Oracle.Mismatch _ -> incr mismatches | _ -> ());
        if !failures <= 5 then
          Printf.printf "FAIL %s (id %s): %s\n" x.item.Gen.input
            (Metrics.json_to_string x.id) (Oracle.failure_to_string f)
  in
  let pair (x : sample) = (x.item.Gen.base.Gen.analysis, x.item.Gen.source) in
  Oracle.prefill (List.sort_uniq compare (List.map pair (s.fill @ all_samples)));
  List.iter judge s.fill;
  List.iter judge all_samples;
  let attempted = List.length all_samples + List.length s.fill in
  let failed = !failures in
  let correct = failed = 0 in
  let lat = Stats.sorted (List.map (fun x -> ms x.latency) measured.samples) in
  let n = Array.length lat in
  let unstalled =
    Stats.sorted
      (List.filter_map
         (fun x -> if stalled x then None else Some (ms x.latency))
         measured.samples)
  in
  let stalls = n - Array.length unstalled in
  Printf.printf "servebench %s seed=%d seconds=%g trace=%b: %d answers in %.3f s, \
                 %d beyond p95, %d beyond p99, %.3f waited out the reap tick, \
                 fail_frac=%g (%d mismatches)\n"
    name seed seconds trace n measured.wall (Stats.beyond n 0.95) (Stats.beyond n 0.99)
    (Stats.ratio_int stalls n) (Stats.ratio_int failed attempted) !mismatches;
  (* the median of all requests, p99 and throughput are printed but
     not reported.  The share of requests that wait out the reap tick
     swings from a seventh to a third between runs, and more of them
     stall when the host runs slow.  Each one leaves the lower half, so
     the median of all requests moves with that share, and so does
     throughput, which on one connection is 1/mean latency.  Only
     warm_hits has the samples to carry p99, and there it tracks host
     scheduling hiccups *)
  Printf.printf "%-26s %16.6f %s (not reported)\n" "p50_ms" (Stats.percentile_sorted lat 0.5) "ms";
  Printf.printf "%-26s %16.6f %s (not reported)\n" "p99_ms" (Stats.percentile_sorted lat 0.99) "ms";
  Printf.printf "%-26s %16.6f %s (not reported)\n" "throughput_rps"
    (Stats.ratio (float_of_int n) measured.wall) "1/s";
  let metrics =
    if not trace then
      [
        ("p50_unstalled_ms", Stats.percentile_sorted unstalled 0.5, "ms");
        ("p95_ms", sliced_p95 measured ~seconds, "ms");
        ("cpu_ms_per_req", Stats.ratio (ms measured.cpu) (float_of_int n), "ms");
        ("daemon_rss_mb", rss, "MiB");
        ("setup_s", Stats.median !setup_times, "s");
      ]
    else traced_metrics ~dir ~tr ~noop ~traced:measured
  in
  emit ~correct ~attempted ~failed metrics;
  correct

let usage () =
  prerr_endline
    "usage: loadgen.exe --workload cold_mix|warm_hits|edit_single|batch_stream \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let name = get "--workload" in
  let wl = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let seed = match int_of_string_opt (get "--seed") with Some n -> n | None -> usage () in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Prax_analyses.Analyses.ensure ();
  let dir = Printf.sprintf ".servebench/run-%s-%d-%d" name seed (Unix.getpid ()) in
  rm_rf dir;
  mkdir_p dir;
  let correct =
    Fun.protect
      ~finally:(fun () ->
        Proc.kill_all ();
        rm_rf dir)
      (fun () -> run ~wl ~name ~seed ~seconds ~trace ~dir)
  in
  if not correct then exit 1

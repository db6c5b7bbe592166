(** Worker-pool supervisor — see serve.mli and docs/ROBUSTNESS.md.

    Single-threaded, [select]-based.  Each of the [jobs] slots holds one
    long-lived worker process, forked the first time the slot has work.
    An attempt travels to its worker over the worker's request pipe and
    is finished the moment its complete result frame has been read.  A
    worker that dies, overruns the watchdog or writes a bad frame is
    SIGKILLed if still alive and moved to the exiting list; its attempt
    is finalized once it has exited {e and} both its pipes are at EOF,
    so the crash record carries the exit status and all of its stderr.
    An exiting worker whose pipes are at EOF but whose exit the last
    [WNOHANG] missed (it was still inside [_exit]) is polled every
    [reap_poll] through [Pool.next_wake], so the host's select never
    sleeps on it. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

let m_jobs =
  Metrics.counter ~units:"jobs" ~doc:"batch jobs supervised" "serve.jobs"

let m_spawned =
  Metrics.counter ~units:"processes"
    ~doc:"worker processes forked (first use, crash replacement, recycle)"
    "serve.workers_spawned"

let m_recycled =
  Metrics.counter ~units:"processes"
    ~doc:"workers retired after a job grew their major heap past the bound"
    "serve.workers_recycled"

let m_worker_cpu_ms =
  Metrics.counter ~units:"ms"
    ~doc:"worker user+sys CPU of the attempts that delivered a frame"
    "serve.worker_cpu_ms"

let m_crashes =
  Metrics.counter ~units:"attempts"
    ~doc:"worker attempts that died without a valid result frame"
    "serve.crashes"

let m_kills =
  Metrics.counter ~units:"processes"
    ~doc:"hung workers SIGKILLed by the per-attempt watchdog"
    "serve.watchdog_kills"

let m_retries =
  Metrics.counter ~units:"attempts" ~doc:"crashed attempts re-executed"
    "serve.retries"

let m_backoff_ms =
  Metrics.counter ~units:"ms" ~doc:"total retry backoff waited"
    "serve.backoff_ms"

let m_bad_frames =
  Metrics.counter ~units:"frames"
    ~doc:"result frames rejected (magic/length/status/digest)"
    "serve.bad_frames"

let m_partials =
  Metrics.counter ~units:"jobs" ~doc:"jobs that completed with a partial result"
    "serve.partials"

let m_cache_answers =
  Metrics.counter ~units:"jobs" ~doc:"jobs answered from the cache hook"
    "serve.cache_answers"

type config = {
  jobs : int;
  retries : int;
  job_timeout : float option;
  budget : Guard.spec;
  backoff_base : float;
  max_frame_bytes : int;
}

let default_config =
  {
    jobs = 2;
    retries = 2;
    job_timeout = None;
    budget = Guard.no_limits;
    backoff_base = 0.05;
    max_frame_bytes = 256 * 1024 * 1024;
  }

type worker_status =
  | Complete
  | Partial_result of string
  | Invalid_input of string

type crash = { attempt : int; what : string; stderr : string }

type outcome =
  | Done of { payload : string; status : worker_status; from_cache : bool }
  | Crashed of crash

type report = {
  job : string;
  outcome : outcome;
  attempts : int;
  crashes : crash list;
  elapsed : float;
  backoff : float;
}

let outcome_class = function
  | Done { from_cache = true; _ } -> "cached"
  | Done { status = Complete; _ } -> "complete"
  | Done { status = Partial_result _; _ } -> "partial"
  | Done { status = Invalid_input _; _ } -> "invalid"
  | Crashed _ -> "crashed"

(* A worker retires after a job that has pushed its major heap's
   high-water mark more than this far above where the worker started.
   OCaml 5.1 never hands freed major heap back to the OS, so a worker
   that once ran a heavy job would otherwise keep that memory resident
   for good (213 MiB after [nq], with 1 MiB live).  The light corpus
   peaks near 22 MiB.  Measured from the worker's start because a
   worker forked from a large host inherits the host's heap. *)
let recycle_heap_bytes = 64 * 1024 * 1024

(* A worker's nursery: OCaml's default 256k words, whatever its host
   uses.  Measured in a reused worker on a 2-vCPU VM against the 8M-word
   nursery the CLI evaluates with (docs/PERFORMANCE.md): cold_mix p95
   better in 5/5 pairs, [event] and [nq] faster, worker RSS 30 against
   81 MiB; the larger nursery only wins the light-corpus median. *)
let worker_minor_heap_words = 262_144

(* --- result frames ------------------------------------------------------- *)

(* PXF1 | status byte | retire byte | 2B BE reason length | 4B BE payload
   length | 4B BE worker CPU µs | 16B MD5(payload) | reason | payload.
   The digest makes a worker that dies mid-write or scribbles on the
   pipe distinguishable from one that delivered: a frame either verifies
   completely or the attempt is a crash.  The retire byte is ['R'] when
   the worker exits after this frame (the recycle rule), ['-'] when it
   stays for the next attempt. *)
let frame_magic = "PXF1"
let frame_header_len = 4 + 1 + 1 + 2 + 4 + 4 + 16

(* captured worker stderr is capped: a crash report needs its tail of
   diagnostics, not megabytes of a runaway trace *)
let max_stderr_bytes = 64 * 1024

type frame_fault = Unknown_status | Digest_mismatch

let armed_frame_fault = ref None
let arm_frame_fault f = armed_frame_fault := Some f

let put_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

(* header fields are read where they lie in the result buffer *)
let get_u16 b i =
  (Char.code (Buffer.nth b i) lsl 8) lor Char.code (Buffer.nth b (i + 1))
let get_u32 b i = (get_u16 b i lsl 16) lor get_u16 b (i + 2)

let encode_frame ~cpu_us ~retire (status : worker_status) (payload : string) :
    string =
  let status_byte, reason =
    match status with
    | Complete -> ('C', "")
    | Partial_result r -> ('P', r)
    | Invalid_input d -> ('I', d)
  in
  let fault = !armed_frame_fault in
  armed_frame_fault := None;
  let b = Buffer.create (frame_header_len + String.length payload) in
  Buffer.add_string b frame_magic;
  Buffer.add_char b (if fault = Some Unknown_status then '?' else status_byte);
  Buffer.add_char b (if retire then 'R' else '-');
  let rlen = min (String.length reason) 0xffff in
  Buffer.add_char b (Char.chr (rlen lsr 8));
  Buffer.add_char b (Char.chr (rlen land 0xff));
  put_u32 b (String.length payload);
  put_u32 b (min cpu_us 0xffffffff);
  Buffer.add_string b
    (Digest.string
       (if fault = Some Digest_mismatch then payload ^ "#" else payload));
  Buffer.add_string b (String.sub reason 0 rlen);
  Buffer.add_string b payload;
  Buffer.contents b

(* How much of [buf] the frame at its start occupies, from the header
   alone: [`Partial] until the header and body are all in, [`Bad] as
   soon as the header can never verify. *)
let frame_extent ~max_frame_bytes (buf : Buffer.t) =
  let n = Buffer.length buf in
  let rec magic_ok i =
    i >= 4 || (Buffer.nth buf i = frame_magic.[i] && magic_ok (i + 1))
  in
  if n >= 4 && not (magic_ok 0) then `Bad "bad frame magic"
  else if n < frame_header_len then `Partial
  else
    let rlen = get_u16 buf 6 in
    let plen = get_u32 buf 8 in
    if plen > max_frame_bytes then `Bad "frame payload over limit"
    else
      let total = frame_header_len + rlen + plen in
      if n < total then `Partial
      else if n > total then `Bad "bytes after the frame"
      else `Complete

type frame = {
  f_status : worker_status;
  f_payload : string;
  f_cpu_us : int;
  f_retire : bool;
}

(* [raw] holds exactly one frame, as {!frame_extent} measured.  The
   payload is copied out of it once, into the string the host keeps. *)
let decode_frame (raw : Buffer.t) : (frame, string) result =
  let rlen = get_u16 raw 6 in
  let plen = get_u32 raw 8 in
  let digest = Buffer.sub raw 16 16 in
  let payload = Buffer.sub raw (frame_header_len + rlen) plen in
  if not (String.equal (Digest.string payload) digest) then
    Error "frame digest mismatch"
  else
    let frame status =
      Ok
        {
          f_status = status;
          f_payload = payload;
          f_cpu_us = get_u32 raw 12;
          f_retire = Buffer.nth raw 5 = 'R';
        }
    in
    let reason () = Buffer.sub raw frame_header_len rlen in
    match Buffer.nth raw 4 with
    | 'C' -> frame Complete
    | 'P' -> frame (Partial_result (reason ()))
    | 'I' -> frame (Invalid_input (reason ()))
    | c -> Error (Printf.sprintf "unknown frame status %C" c)

(* --- child side ---------------------------------------------------------- *)

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = restart_eintr (fun () -> Unix.write_substring fd s pos len) in
    write_all fd s (pos + n) (len - n)
  end

(* the budget rung of the degradation ladder: full budget for the first
   attempt and its first retry, then halved per further attempt so a job
   whose budget appetite is what kills it terminates degraded *)
let reduced_budget_factor = 0.5

let budget_scale attempt =
  if attempt <= 2 then 1.0
  else reduced_budget_factor ** float_of_int (attempt - 2)

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The worker's life: read an attempt from the request pipe, run it,
   write its frame, repeat.  EOF on the request pipe (the host closed it
   or died) ends the worker; so does a job that crossed the heap bound,
   after its frame.  An uncaught exception kills the worker with the
   exception on its stderr: the attempt is a crash, and no later job
   runs on state the exception may have left behind. *)
let child_main config ~worker ~req_fd ~result_fd : 'never =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
  let requests = Unix.in_channel_of_descr req_fd in
  let heap_base = (Gc.quick_stat ()).Gc.top_heap_words in
  let heap_bound = recycle_heap_bytes / (Sys.word_size / 8) in
  let rec serve () =
    match input_value requests with
    | exception _ -> Unix._exit 0
    | job, attempt, scale, req ->
        let cpu0 = cpu_seconds () in
        let status, payload =
          try
            (* the attempt ladder's scale composes with the host's
               per-job scale (the daemon's pressure tier)
               multiplicatively *)
            let guard =
              Guard.of_spec
                (Guard.scale_spec config.budget
                   (budget_scale attempt *. scale))
            in
            worker ~job ~attempt ~guard req
          with exn ->
            Printf.eprintf "worker(%s) attempt %d: uncaught exception %s\n%!"
              job attempt (Printexc.to_string exn);
            Unix._exit 2
        in
        let cpu_us = int_of_float ((cpu_seconds () -. cpu0) *. 1e6) in
        let retire =
          (Gc.quick_stat ()).Gc.top_heap_words - heap_base > heap_bound
        in
        let frame = encode_frame ~cpu_us ~retire status payload in
        (try write_all result_fd frame 0 (String.length frame)
         with _ -> Unix._exit 3);
        if retire then Unix._exit 0 else serve ()
  in
  serve ()

(* --- parent-side state --------------------------------------------------- *)

(* an attempt in flight on a worker; the job's history rides along *)
type 'a attempt = {
  a_job : string;
  a_attempt : int;
  a_req : 'a;
  a_scale : float;  (* host-supplied budget scale (pressure tier) *)
  a_deadline : float option;
  a_crashes : crash list;
  a_first_spawn : float;
  a_backoff : float;
}

type 'a waiting = {
  w_job : string;
  w_attempt : int;
  w_req : 'a;
  w_ready_at : float;
  w_crashes : crash list;
  w_first_spawn : float option;
  w_backoff : float;
  w_scale : float;
}

(* why an exiting worker's attempt, if any, failed *)
type ending =
  | Died  (** on its own: its exit status says how *)
  | Watchdog_killed
  | Frame_rejected of string
  | Request_failed of string

type 'a worker = {
  k_pid : int;
  mutable k_req_fd : Unix.file_descr option;  (* closed once exiting *)
  mutable k_result_fd : Unix.file_descr option;
  mutable k_stderr_fd : Unix.file_descr option;
  k_result_buf : Buffer.t;
  k_stderr_buf : Buffer.t;
  mutable k_stderr_dropped : bool;
  mutable k_attempt : 'a attempt option;
  mutable k_ending : ending;
  mutable k_killed : bool;  (* SIGKILL sent *)
  mutable k_exit : Unix.process_status option;
}

let signal_name =
  (* OCaml uses its own negative signal numbers; name the ones a worker
     plausibly dies of *)
  let names =
    [
      (Sys.sigkill, "SIGKILL"); (Sys.sigsegv, "SIGSEGV"); (Sys.sigterm, "SIGTERM");
      (Sys.sigint, "SIGINT"); (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS");
      (Sys.sigfpe, "SIGFPE"); (Sys.sigill, "SIGILL"); (Sys.sigpipe, "SIGPIPE");
      (Sys.sigxfsz, "SIGXFSZ"); (Sys.sigxcpu, "SIGXCPU");
    ]
  in
  fun sg ->
    match List.assoc_opt sg names with
    | Some n -> n
    | None -> Printf.sprintf "signal#%d" sg

let status_string frame_err = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d (%s)" n frame_err
  | Unix.WSIGNALED sg -> Printf.sprintf "%s (%s)" (signal_name sg) frame_err
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped by %s" (signal_name sg)

(* deterministic jitter in [-1,1] from (job, attempt): reproducible
   batches, decorrelated retry storms *)
let jitter_of job attempt =
  let h = Hashtbl.hash (job, attempt, "serve-jitter") in
  (float_of_int (h land 0xffff) /. 65535. *. 2.) -. 1.

let backoff_delay config ~job ~attempt =
  (* attempt is the one that just failed; first retry (attempt 1
     failed) waits base, then doubles, with a relative jitter of 0.25 *)
  let exp' = config.backoff_base *. (2.0 ** float_of_int (attempt - 1)) in
  let j = 1. +. (0.25 *. jitter_of job attempt) in
  Float.max 0. (exp' *. j)

(* worker CPU arrives in microseconds; the counter is in milliseconds,
   so the sub-millisecond remainder carries to the next frame *)
let worker_cpu_us = ref 0

let add_worker_cpu us =
  let before = !worker_cpu_us / 1000 in
  worker_cpu_us := !worker_cpu_us + us;
  Metrics.add m_worker_cpu_ms ((!worker_cpu_us / 1000) - before)

let close_opt fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* --- the incremental worker pool ----------------------------------------- *)

exception Interrupted of int

(* A worker closes its pipes on the way into [_exit], so its EOF can
   reach the parent a few microseconds before its exit status does.  A
   [WNOHANG] reap that loses that race is retried after this long rather
   than at the host's idle tick.  Polling, not a SIGCHLD handler: a
   process-wide handler would leak into every host of this module and
   interrupt its blocking calls. *)
let reap_poll = 0.001

module Pool = struct
  (* The supervisor's state machine, factored out of the batch loop so
     a long-lived host (the analysis daemon) can drive it from its own
     select loop: jobs are [submit]ted at any time, [step] advances
     every worker without blocking, and the host owns the select. *)

  type 'a t = {
    p_config : config;
    p_worker :
      job:string ->
      attempt:int ->
      guard:Guard.t ->
      'a ->
      worker_status * string;
    p_on_child : (unit -> unit) option;
    p_read_chunk : Bytes.t;
    mutable p_waiting : 'a waiting list;
    mutable p_workers : 'a worker list;  (* idle or running; ≤ jobs *)
    mutable p_exiting : 'a worker list;  (* awaiting EOF and reap *)
  }

  let create ?(config = default_config) ?on_child ~worker () =
    if config.jobs < 1 then invalid_arg "Serve.Pool.create: jobs < 1";
    if config.retries < 0 then invalid_arg "Serve.Pool.create: retries < 0";
    {
      p_config = config;
      p_worker = worker;
      p_on_child = on_child;
      p_read_chunk = Bytes.create 65536;
      p_waiting = [];
      p_workers = [];
      p_exiting = [];
    }

  let submit t ?(budget_scale = 1.0) job req =
    Metrics.incr m_jobs;
    t.p_waiting <-
      t.p_waiting
      @ [
          {
            w_job = job;
            w_attempt = 1;
            w_req = req;
            w_ready_at = 0.;
            w_crashes = [];
            w_first_spawn = None;
            w_backoff = 0.;
            w_scale = budget_scale;
          };
        ]

  let all_workers t = t.p_workers @ t.p_exiting

  let pending t = List.length t.p_waiting

  let inflight t =
    List.length (List.filter (fun k -> k.k_attempt <> None) (all_workers t))

  let idle t = t.p_waiting = [] && inflight t = 0

  let fds t =
    List.concat_map
      (fun k -> Option.to_list k.k_result_fd @ Option.to_list k.k_stderr_fd)
      (all_workers t)

  let idle_worker t = List.find_opt (fun k -> k.k_attempt = None) t.p_workers

  let slot_free t =
    idle_worker t <> None || List.length t.p_workers < t.p_config.jobs

  let next_wake t =
    let now = Unix.gettimeofday () in
    let reaps =
      List.filter_map
        (fun k ->
          if k.k_exit = None && k.k_result_fd = None && k.k_stderr_fd = None
          then Some (now +. reap_poll)
          else None)
        t.p_exiting
    in
    let deadlines =
      List.filter_map
        (fun k ->
          match k.k_attempt with
          | Some a when not k.k_killed -> a.a_deadline
          | _ -> None)
        (all_workers t)
    in
    (* a due retry with no free slot waits for a worker to finish, which
       the pipes and the reap poll already wake for *)
    let slot_free = slot_free t in
    let ready =
      List.filter_map
        (fun w ->
          if w.w_ready_at > 0. && (slot_free || w.w_ready_at > now) then
            Some w.w_ready_at
          else None)
        t.p_waiting
    in
    match reaps @ deadlines @ ready with
    | [] -> None
    | l -> Some (List.fold_left Float.min (List.hd l) (List.tl l))

  (* A worker leaves the slot it held: it will never be sent work
     again.  Without an attempt in flight nothing more is wanted from
     its pipes, so only its reap remains. *)
  let retire t k =
    Option.iter close_opt k.k_req_fd;
    k.k_req_fd <- None;
    if k.k_attempt = None then begin
      Option.iter close_opt k.k_result_fd;
      Option.iter close_opt k.k_stderr_fd;
      k.k_result_fd <- None;
      k.k_stderr_fd <- None
    end;
    if List.memq k t.p_workers then begin
      t.p_workers <- List.filter (fun k' -> k' != k) t.p_workers;
      t.p_exiting <- k :: t.p_exiting
    end

  let kill t k ending =
    if k.k_ending = Died then k.k_ending <- ending;
    if (not k.k_killed) && k.k_exit = None then begin
      k.k_killed <- true;
      try Unix.kill k.k_pid Sys.sigkill with Unix.Unix_error _ -> ()
    end;
    retire t k

  let spawn_worker t =
    (* buffered output written before the fork must not be re-flushed
       by the child *)
    flush stdout;
    flush stderr;
    let q_read, q_write = Unix.pipe ~cloexec:true () in
    let r_read, r_write = Unix.pipe ~cloexec:true () in
    let e_read, e_write = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        (* child: restore default signal dispositions (a host's drain
           handler must not leak into workers), drop every parent-side
           fd — the other workers' pipes inherited across fork (a
           sibling holding a request pipe open would keep that worker
           from ever seeing EOF, and one holding a result pipe would
           postpone its EOF past its death) and whatever sockets the
           host asks to close via on_child *)
        (try Sys.set_signal Sys.sigterm Sys.Signal_default
         with Sys_error _ | Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint Sys.Signal_default
         with Sys_error _ | Invalid_argument _ -> ());
        Unix.close q_write;
        Unix.close r_read;
        Unix.close e_read;
        List.iter close_opt
          (fds t @ List.filter_map (fun k -> k.k_req_fd) t.p_workers);
        (match t.p_on_child with
        | Some f -> ( try f () with _ -> ())
        | None -> ());
        Unix.dup2 ~cloexec:false e_write Unix.stderr;
        Unix.close e_write;
        child_main t.p_config ~worker:t.p_worker ~req_fd:q_read
          ~result_fd:r_write
    | pid ->
        Unix.close q_read;
        Unix.close r_write;
        Unix.close e_write;
        Metrics.incr m_spawned;
        let k =
          {
            k_pid = pid;
            k_req_fd = Some q_write;
            k_result_fd = Some r_read;
            k_stderr_fd = Some e_read;
            k_result_buf = Buffer.create 1024;
            k_stderr_buf = Buffer.create 256;
            k_stderr_dropped = false;
            k_attempt = None;
            k_ending = Died;
            k_killed = false;
            k_exit = None;
          }
        in
        t.p_workers <- k :: t.p_workers;
        k

  (* hand an attempt to an idle worker.  A worker that died since its
     last frame has closed its end of the request pipe: that is an EPIPE
     crash of this attempt, and SIGPIPE is ignored around the write so
     it can never kill a host that does not ignore it itself. *)
  let dispatch t now k (w : 'a waiting) =
    k.k_attempt <-
      Some
        {
          a_job = w.w_job;
          a_attempt = w.w_attempt;
          a_req = w.w_req;
          a_scale = w.w_scale;
          a_deadline =
            Option.map (fun tmo -> now +. tmo) t.p_config.job_timeout;
          a_crashes = w.w_crashes;
          a_first_spawn = Option.value w.w_first_spawn ~default:now;
          a_backoff = w.w_backoff;
        };
    Buffer.reset k.k_stderr_buf;
    k.k_stderr_dropped <- false;
    let msg =
      Marshal.to_string (w.w_job, w.w_attempt, w.w_scale, w.w_req) []
    in
    let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    match
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe)
        (fun () -> write_all (Option.get k.k_req_fd) msg 0 (String.length msg))
    with
    | () -> ()
    | exception Unix.Unix_error (err, _, _) ->
        kill t k (Request_failed ("request pipe: " ^ Unix.error_message err))

  let attempt_report (a : 'a attempt) now outcome ~crashes =
    {
      job = a.a_job;
      outcome;
      attempts = a.a_attempt;
      crashes;
      elapsed = now -. a.a_first_spawn;
      backoff = a.a_backoff;
    }

  (* the result pipe of a running worker has new bytes: a complete good
     frame finishes the attempt on the spot, a bad one kills the worker *)
  let check_frame t now k : report option =
    let reject err =
      Metrics.incr m_bad_frames;
      kill t k (Frame_rejected err);
      None
    in
    match k.k_attempt with
    | None -> reject "bytes outside an attempt"
    | Some a -> (
        match
          frame_extent ~max_frame_bytes:t.p_config.max_frame_bytes
            k.k_result_buf
        with
        | `Partial -> None
        | `Bad err -> reject err
        | `Complete -> (
            match decode_frame k.k_result_buf with
            | Error err -> reject err
            | Ok f ->
                k.k_attempt <- None;
                (* reset, not clear: a worker outlives its largest frame *)
                Buffer.reset k.k_result_buf;
                add_worker_cpu f.f_cpu_us;
                if f.f_retire then begin
                  Metrics.incr m_recycled;
                  retire t k
                end;
                (* every delivered frame is final: a partial result is
                   sound and an invalid input fails the same way on every
                   retry *)
                Some
                  (attempt_report a now
                     (Done
                        {
                          payload = f.f_payload;
                          status = f.f_status;
                          from_cache = false;
                        })
                     ~crashes:(List.rev a.a_crashes))))

  let drain t now k which : report option =
    let config = t.p_config in
    let fd_opt, buf =
      match which with
      | `Result -> (k.k_result_fd, k.k_result_buf)
      | `Stderr -> (k.k_stderr_fd, k.k_stderr_buf)
    in
    match fd_opt with
    | None -> None
    | Some fd -> (
        (* a read error ends the stream like EOF would *)
        match
          try restart_eintr (fun () -> Unix.read fd t.p_read_chunk 0 65536)
          with Unix.Unix_error _ -> 0
        with
        | 0 ->
            Unix.close fd;
            (match which with
            | `Result -> k.k_result_fd <- None
            | `Stderr -> k.k_stderr_fd <- None);
            (* EOF on a result pipe: the worker is gone or going *)
            if which = `Result then retire t k;
            None
        | n -> (
            match which with
            | `Result ->
                (* a live worker's frame is bounded by its header check;
                   a dying one's bytes only decide "truncated", so stop
                   buffering them at the cap but keep draining *)
                if
                  Buffer.length buf <= config.max_frame_bytes + frame_header_len
                then Buffer.add_subbytes buf t.p_read_chunk 0 n;
                if List.memq k t.p_workers then check_frame t now k else None
            | `Stderr ->
                let room = max_stderr_bytes - Buffer.length buf in
                if room >= n then Buffer.add_subbytes buf t.p_read_chunk 0 n
                else begin
                  if room > 0 then Buffer.add_subbytes buf t.p_read_chunk 0 room;
                  k.k_stderr_dropped <- true
                end;
                None))

  (* an exited worker with an attempt in flight either yields the job's
     report or re-enqueues the next attempt down the retry ladder *)
  let finalize_crash t now k (a : 'a attempt) : report option =
    let config = t.p_config in
    let exit_status = Option.get k.k_exit in
    let stderr_text =
      Buffer.contents k.k_stderr_buf
      ^ if k.k_stderr_dropped then "\n[stderr truncated]" else ""
    in
    let what =
      match k.k_ending with
      | Watchdog_killed ->
          Printf.sprintf "watchdog SIGKILL after %gs"
            (Option.value config.job_timeout ~default:0.)
      | Frame_rejected err -> "bad frame: " ^ err
      | Request_failed err -> status_string err exit_status
      | Died ->
          let got = Buffer.length k.k_result_buf in
          if got > 0 then Metrics.incr m_bad_frames;
          status_string
            (if got = 0 then "no result frame (worker wrote nothing)"
             else if got < frame_header_len then "truncated frame header"
             else "truncated frame")
            exit_status
    in
    let crash = { attempt = a.a_attempt; what; stderr = stderr_text } in
    Metrics.incr m_crashes;
    if a.a_attempt <= config.retries then begin
      let delay = backoff_delay config ~job:a.a_job ~attempt:a.a_attempt in
      Metrics.incr m_retries;
      Metrics.add m_backoff_ms (int_of_float (delay *. 1e3));
      t.p_waiting <-
        {
          w_job = a.a_job;
          w_attempt = a.a_attempt + 1;
          w_req = a.a_req;
          w_ready_at = now +. delay;
          w_crashes = crash :: a.a_crashes;
          w_first_spawn = Some a.a_first_spawn;
          w_backoff = a.a_backoff +. delay;
          w_scale = a.a_scale;
        }
        :: t.p_waiting;
      None
    end
    else
      Some
        (attempt_report a now (Crashed crash)
           ~crashes:(List.rev (crash :: a.a_crashes)))

  (* fill free slots with due work, earliest-ready first: an idle worker
     takes it, else a worker is forked into an empty slot *)
  let fill_slots t =
    if t.p_waiting <> [] then begin
      let now = Unix.gettimeofday () in
      let due, not_due =
        List.partition (fun w -> w.w_ready_at <= now) t.p_waiting
      in
      let due =
        List.stable_sort (fun a b -> compare a.w_ready_at b.w_ready_at) due
      in
      let rec place = function
        | [] -> []
        | w :: rest as due -> (
            match idle_worker t with
            | Some k ->
                dispatch t now k w;
                place rest
            | None when List.length t.p_workers < t.p_config.jobs ->
                dispatch t now (spawn_worker t) w;
                place rest
            | None -> due)
      in
      t.p_waiting <- not_due;
      let overflow = place due in
      t.p_waiting <- overflow @ t.p_waiting
    end

  let step t ~readable : report list =
    let now = Unix.gettimeofday () in
    (* drain whatever the host's select saw; a frame completed here
       finishes its attempt at once *)
    let delivered =
      if readable = [] then []
      else
        List.concat_map
          (fun k ->
            let from which fd_opt =
              match fd_opt with
              | Some fd when List.memq fd readable -> drain t now k which
              | _ -> None
            in
            let e = from `Stderr k.k_stderr_fd in
            let r = from `Result k.k_result_fd in
            Option.to_list e @ Option.to_list r)
          (all_workers t)
    in
    (* watchdog: SIGKILL attempts past their deadline *)
    List.iter
      (fun k ->
        match k.k_attempt with
        | Some { a_deadline = Some d; _ }
          when (not k.k_killed) && k.k_exit = None && now > d ->
            Metrics.incr m_kills;
            kill t k Watchdog_killed
        | _ -> ())
      (all_workers t);
    (* reap exiting workers without blocking *)
    List.iter
      (fun k ->
        if k.k_exit = None then
          match
            restart_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] k.k_pid)
          with
          | 0, _ -> ()
          | _, st -> k.k_exit <- Some st)
      t.p_exiting;
    (* finalize exited workers whose pipes are fully drained *)
    let gone, still =
      List.partition
        (fun k ->
          k.k_exit <> None && k.k_result_fd = None && k.k_stderr_fd = None)
        t.p_exiting
    in
    t.p_exiting <- still;
    let crashed =
      List.filter_map
        (fun k -> Option.bind k.k_attempt (finalize_crash t now k))
        gone
    in
    (* last, so a slot freed this round takes the next job now rather
       than at the host's next wake *)
    fill_slots t;
    delivered @ crashed

  let cancel_pending t =
    let cancelled = List.map (fun w -> w.w_job) t.p_waiting in
    t.p_waiting <- [];
    cancelled

  let kill_all t =
    let all = all_workers t in
    let killed =
      List.filter_map (fun k -> Option.map (fun a -> a.a_job) k.k_attempt) all
    in
    List.iter
      (fun k ->
        if k.k_exit = None then (
          try Unix.kill k.k_pid Sys.sigkill with Unix.Unix_error _ -> ());
        List.iter (Option.iter close_opt)
          [ k.k_req_fd; k.k_result_fd; k.k_stderr_fd ];
        (* SIGKILL cannot be caught, so a blocking reap terminates *)
        if k.k_exit = None then
          try ignore (restart_eintr (fun () -> Unix.waitpid [] k.k_pid))
          with Unix.Unix_error _ -> ())
      all;
    t.p_workers <- [];
    t.p_exiting <- [];
    killed @ cancel_pending t
end

(* --- the batch supervisor loop -------------------------------------------- *)

let run_batch ?(config = default_config) ?cached ?persist ?on_report ~worker
    (jobs : string list) : report list =
  let results : (string, report) Hashtbl.t = Hashtbl.create 16 in
  let finish_job (rep : report) =
    Hashtbl.replace results rep.job rep;
    (match rep.outcome with
    | Done { status = Partial_result _; _ } -> Metrics.incr m_partials
    | Done { payload; status = Complete; from_cache = false } -> (
        match persist with
        | Some p -> p ~job:rep.job ~payload
        | None -> ())
    | Done _ | Crashed _ -> ());
    match on_report with Some f -> f rep | None -> ()
  in
  let pool =
    Pool.create ~config ~worker:(fun ~job ~attempt ~guard () ->
        worker ~job ~attempt ~guard) ()
  in
  (* cache pass: answered jobs never fork *)
  List.iter
    (fun job ->
      match Option.bind cached (fun c -> c ~job) with
      | Some payload ->
          Metrics.incr m_jobs;
          Metrics.incr m_cache_answers;
          finish_job
            {
              job;
              outcome = Done { payload; status = Complete; from_cache = true };
              attempts = 0;
              crashes = [];
              elapsed = 0.;
              backoff = 0.;
            }
      | None -> Pool.submit pool job ())
    jobs;
  (* An interrupted batch must not strand workers: SIGTERM/SIGINT break
     the loop, SIGKILL and reap every worker, and surface as
     {!Interrupted} so the CLI can take its distinct exit path.  A batch
     that ends normally stops its idle workers the same way. *)
  let interrupted = ref None in
  let old_term =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle (fun sg -> interrupted := Some sg))
  in
  let old_int =
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun sg -> interrupted := Some sg))
  in
  let restore () =
    ignore (Pool.kill_all pool);
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int
  in
  Fun.protect ~finally:restore (fun () ->
      let readable = ref [] in
      while not (Pool.idle pool) do
        (match !interrupted with
        | Some sg ->
            ignore (Pool.kill_all pool);
            raise (Interrupted sg)
        | None -> ());
        List.iter finish_job (Pool.step pool ~readable:!readable);
        readable := [];
        if not (Pool.idle pool) then begin
          let now = Unix.gettimeofday () in
          let wake =
            match Pool.next_wake pool with
            | Some w -> Float.min w (now +. 0.5)
            | None -> now +. 0.5
          in
          (* no floor: {!Pool.next_wake} names only times a step can act
             on, and a reap poll is due in a millisecond *)
          let timeout = Float.max 0. (wake -. now) in
          match Pool.fds pool with
          | [] -> (
              try Unix.sleepf timeout
              with Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | fds -> (
              match Unix.select fds [] [] timeout with
              | r, _, _ -> readable := r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
        end
      done);
  List.filter_map (fun job -> Hashtbl.find_opt results job) jobs

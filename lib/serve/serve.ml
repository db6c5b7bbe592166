(** Worker-pool supervisor — see serve.mli and docs/ROBUSTNESS.md.

    Single-threaded, [select]-based.  The parent never blocks on a
    single worker: all result/stderr pipes are multiplexed, watchdog
    deadlines and retry backoffs are folded into the select timeout,
    and children are reaped with [WNOHANG].  A worker is finalized only
    when it has exited {e and} both its pipes have reached EOF, so a
    frame written just before death is never half-read.  A worker whose
    pipes are at EOF but whose exit the last [WNOHANG] missed (it was
    still inside [_exit]) is polled every [reap_poll] through
    [Pool.next_wake], so the host's select never sleeps on it. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

let m_jobs =
  Metrics.counter ~units:"jobs" ~doc:"batch jobs supervised" "serve.jobs"

let m_spawned =
  Metrics.counter ~units:"processes" ~doc:"worker processes forked"
    "serve.workers_spawned"

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
    ~doc:"result frames rejected (magic/length/digest)" "serve.bad_frames"

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
  reduced_budget_factor : float;
  backoff_base : float;
  backoff_factor : float;
  backoff_jitter : float;
  max_stderr_bytes : int;
  max_frame_bytes : int;
}

let default_config =
  {
    jobs = 2;
    retries = 2;
    job_timeout = None;
    budget = Guard.no_limits;
    reduced_budget_factor = 0.5;
    backoff_base = 0.05;
    backoff_factor = 2.0;
    backoff_jitter = 0.25;
    max_stderr_bytes = 64 * 1024;
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

(* --- result frames ------------------------------------------------------- *)

(* PXF1 | status byte | 2B BE reason length | 4B BE payload length |
   16B MD5(payload) | reason | payload.  The digest makes a worker that
   dies mid-write or scribbles on the pipe distinguishable from one
   that delivered: a frame either verifies completely or the attempt is
   a crash. *)
let frame_magic = "PXF1"
let frame_header_len = 4 + 1 + 2 + 4 + 16

let encode_frame (status : worker_status) (payload : string) : string =
  let status_byte, reason =
    match status with
    | Complete -> ('C', "")
    | Partial_result r -> ('P', r)
    | Invalid_input d -> ('I', d)
  in
  let b = Buffer.create (frame_header_len + String.length payload) in
  Buffer.add_string b frame_magic;
  Buffer.add_char b status_byte;
  let rlen = min (String.length reason) 0xffff in
  Buffer.add_char b (Char.chr (rlen lsr 8));
  Buffer.add_char b (Char.chr (rlen land 0xff));
  let plen = String.length payload in
  Buffer.add_char b (Char.chr ((plen lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((plen lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((plen lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (plen land 0xff));
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b (String.sub reason 0 rlen);
  Buffer.add_string b payload;
  Buffer.contents b

let decode_frame ~max_frame_bytes (raw : string) :
    (worker_status * string, string) result =
  let n = String.length raw in
  if n = 0 then Error "no result frame (worker wrote nothing)"
  else if n < frame_header_len then Error "truncated frame header"
  else if not (String.equal (String.sub raw 0 4) frame_magic) then
    Error "bad frame magic"
  else
    let status_byte = raw.[4] in
    let rlen = (Char.code raw.[5] lsl 8) lor Char.code raw.[6] in
    let plen =
      (Char.code raw.[7] lsl 24)
      lor (Char.code raw.[8] lsl 16)
      lor (Char.code raw.[9] lsl 8)
      lor Char.code raw.[10]
    in
    if plen > max_frame_bytes then Error "frame payload over limit"
    else if n <> frame_header_len + rlen + plen then
      Error
        (Printf.sprintf "frame length mismatch (have %d bytes, frame says %d)"
           n
           (frame_header_len + rlen + plen))
    else
      let digest = String.sub raw 11 16 in
      let reason = String.sub raw frame_header_len rlen in
      let payload = String.sub raw (frame_header_len + rlen) plen in
      if not (String.equal (Digest.string payload) digest) then
        Error "frame digest mismatch"
      else
        match status_byte with
        | 'C' -> Ok (Complete, payload)
        | 'P' -> Ok (Partial_result reason, payload)
        | 'I' -> Ok (Invalid_input reason, payload)
        | c -> Error (Printf.sprintf "unknown frame status %C" c)

(* --- child side ---------------------------------------------------------- *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

(* the budget rung of the degradation ladder: full budget for the first
   attempt and its first retry, then geometrically reduced so a job
   whose budget appetite is what kills it terminates degraded *)
let budget_scale config attempt =
  if attempt <= 2 then 1.0
  else config.reduced_budget_factor ** float_of_int (attempt - 2)

let child_run config ~scale ~worker ~job ~attempt result_fd : 'never =
  let finish code =
    (try Unix.close result_fd with Unix.Unix_error _ -> ());
    Unix._exit code
  in
  let status, payload =
    try
      (* the attempt ladder's scale composes with the host's per-job
         scale (the daemon's pressure tier) multiplicatively *)
      let guard =
        Guard.of_spec
          (Guard.scale_spec config.budget (budget_scale config attempt *. scale))
      in
      worker ~job ~attempt ~guard
    with exn ->
      Printf.eprintf "worker(%s) attempt %d: uncaught exception %s\n%!" job
        attempt (Printexc.to_string exn);
      finish 2
  in
  (try
     let frame = encode_frame status payload in
     write_all result_fd frame 0 (String.length frame)
   with _ -> finish 3);
  finish 0

(* --- parent-side state --------------------------------------------------- *)

type running = {
  r_job : string;
  r_attempt : int;
  r_pid : int;
  r_started : float;
  r_deadline : float option;
  mutable r_result_fd : Unix.file_descr option;
  mutable r_stderr_fd : Unix.file_descr option;
  r_result_buf : Buffer.t;
  r_stderr_buf : Buffer.t;
  mutable r_stderr_dropped : bool;
  mutable r_watchdog_killed : bool;
  mutable r_exit : Unix.process_status option;
  (* carried across attempts of the same job *)
  r_crashes : crash list;
  r_first_spawn : float;
  r_backoff : float;
  r_scale : float;
}

type waiting = {
  w_job : string;
  w_attempt : int;
  w_ready_at : float;
  w_crashes : crash list;
  w_first_spawn : float option;
  w_backoff : float;
  w_scale : float;  (* host-supplied budget scale (pressure tier) *)
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

let status_string ~killed ~timeout frame_err = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d (%s)" n frame_err
  | Unix.WSIGNALED _ when killed ->
      Printf.sprintf "watchdog SIGKILL after %gs"
        (Option.value timeout ~default:0.)
  | Unix.WSIGNALED sg -> Printf.sprintf "%s (%s)" (signal_name sg) frame_err
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped by %s" (signal_name sg)

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

(* deterministic jitter in [-1,1] from (job, attempt): reproducible
   batches, decorrelated retry storms *)
let jitter_of job attempt =
  let h = Hashtbl.hash (job, attempt, "serve-jitter") in
  (float_of_int (h land 0xffff) /. 65535. *. 2.) -. 1.

let backoff_delay config ~job ~attempt =
  (* attempt is the one that just failed; first retry (attempt 1
     failed) waits base, then geometric *)
  let exp' = config.backoff_base *. (config.backoff_factor ** float_of_int (attempt - 1)) in
  let j = 1. +. (config.backoff_jitter *. jitter_of job attempt) in
  Float.max 0. (exp' *. j)

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

  type t = {
    p_config : config;
    p_worker :
      job:string -> attempt:int -> guard:Guard.t -> worker_status * string;
    p_on_child : (unit -> unit) option;
    p_read_chunk : Bytes.t;
    mutable p_waiting : waiting list;
    mutable p_running : running list;
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
      p_running = [];
    }

  let submit t ?(budget_scale = 1.0) job =
    Metrics.incr m_jobs;
    t.p_waiting <-
      t.p_waiting
      @ [
          {
            w_job = job;
            w_attempt = 1;
            w_ready_at = 0.;
            w_crashes = [];
            w_first_spawn = None;
            w_backoff = 0.;
            w_scale = budget_scale;
          };
        ]

  let pending t = List.length t.p_waiting
  let inflight t = List.length t.p_running
  let idle t = t.p_waiting = [] && t.p_running = []

  let fds t =
    List.concat_map
      (fun r -> Option.to_list r.r_result_fd @ Option.to_list r.r_stderr_fd)
      t.p_running

  let next_wake t =
    let now = Unix.gettimeofday () in
    let running =
      List.filter_map
        (fun r ->
          if r.r_exit = None && r.r_result_fd = None && r.r_stderr_fd = None
          then Some (now +. reap_poll)
          else if r.r_watchdog_killed then None
          else r.r_deadline)
        t.p_running
    in
    (* a due retry with no free slot waits for a worker to finish, which
       the pipes and the reap poll already wake for *)
    let slot_free = List.length t.p_running < t.p_config.jobs in
    let ready =
      List.filter_map
        (fun w ->
          if w.w_ready_at > 0. && (slot_free || w.w_ready_at > now) then
            Some w.w_ready_at
          else None)
        t.p_waiting
    in
    match running @ ready with
    | [] -> None
    | l -> Some (List.fold_left Float.min (List.hd l) (List.tl l))

  let spawn t now (w : waiting) =
    let config = t.p_config in
    (* buffered output written before the fork must not be re-flushed
       by the child *)
    flush stdout;
    flush stderr;
    let r_read, r_write = Unix.pipe () in
    let e_read, e_write = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        (* child: restore default signal dispositions (a host's drain
           handler must not leak into workers), drop every parent-side
           fd — including other workers' pipes inherited across fork (a
           sibling holding a pipe open would postpone that worker's EOF
           past its own lifetime) and whatever sockets the host asks to
           close via on_child *)
        (try Sys.set_signal Sys.sigterm Sys.Signal_default
         with Sys_error _ | Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint Sys.Signal_default
         with Sys_error _ | Invalid_argument _ -> ());
        Unix.close r_read;
        Unix.close e_read;
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fds t);
        (match t.p_on_child with
        | Some f -> ( try f () with _ -> ())
        | None -> ());
        Unix.dup2 e_write Unix.stderr;
        Unix.close e_write;
        child_run config ~scale:w.w_scale ~worker:t.p_worker ~job:w.w_job
          ~attempt:w.w_attempt r_write
    | pid ->
        Unix.close r_write;
        Unix.close e_write;
        Metrics.incr m_spawned;
        t.p_running <-
          {
            r_job = w.w_job;
            r_attempt = w.w_attempt;
            r_pid = pid;
            r_started = now;
            r_deadline = Option.map (fun tmo -> now +. tmo) config.job_timeout;
            r_result_fd = Some r_read;
            r_stderr_fd = Some e_read;
            r_result_buf = Buffer.create 1024;
            r_stderr_buf = Buffer.create 256;
            r_stderr_dropped = false;
            r_watchdog_killed = false;
            r_exit = None;
            r_crashes = w.w_crashes;
            r_first_spawn = Option.value w.w_first_spawn ~default:now;
            r_backoff = w.w_backoff;
            r_scale = w.w_scale;
          }
          :: t.p_running

  let drain t (r : running) which =
    let config = t.p_config in
    let fd_opt, buf =
      match which with
      | `Result -> (r.r_result_fd, r.r_result_buf)
      | `Stderr -> (r.r_stderr_fd, r.r_stderr_buf)
    in
    match fd_opt with
    | None -> ()
    | Some fd -> (
        match
          restart_eintr (fun () -> Unix.read fd t.p_read_chunk 0 65536)
        with
        | 0 ->
            Unix.close fd;
            (match which with
            | `Result -> r.r_result_fd <- None
            | `Stderr -> r.r_stderr_fd <- None)
        | n -> (
            match which with
            | `Result ->
                (* a frame larger than the cap can never verify; stop
                   buffering but keep draining so the child is not
                   blocked on a full pipe before we kill it *)
                if
                  Buffer.length buf
                  <= config.max_frame_bytes + frame_header_len
                then Buffer.add_subbytes buf t.p_read_chunk 0 n
            | `Stderr ->
                let room = config.max_stderr_bytes - Buffer.length buf in
                if room >= n then Buffer.add_subbytes buf t.p_read_chunk 0 n
                else begin
                  if room > 0 then Buffer.add_subbytes buf t.p_read_chunk 0 room;
                  r.r_stderr_dropped <- true
                end))

  (* a finalized attempt either yields the job's report or re-enqueues
     the next attempt down the retry ladder *)
  let finalize t now (r : running) : report option =
    let config = t.p_config in
    let exit_status = Option.get r.r_exit in
    let stderr_text =
      Buffer.contents r.r_stderr_buf
      ^ if r.r_stderr_dropped then "\n[stderr truncated]" else ""
    in
    let attempt_result =
      match
        decode_frame ~max_frame_bytes:config.max_frame_bytes
          (Buffer.contents r.r_result_buf)
      with
      | Ok (status, payload) -> Ok (status, payload)
      | Error frame_err ->
          if
            (match exit_status with Unix.WEXITED 0 -> false | _ -> true)
            || Buffer.length r.r_result_buf > 0
          then Metrics.incr m_bad_frames;
          Error
            {
              attempt = r.r_attempt;
              what =
                status_string ~killed:r.r_watchdog_killed
                  ~timeout:config.job_timeout frame_err exit_status;
              stderr = stderr_text;
            }
    in
    match attempt_result with
    | Ok (status, payload) ->
        (* every delivered frame is final: a partial result is sound and
           an invalid input fails the same way on every retry *)
        Some
          {
            job = r.r_job;
            outcome = Done { payload; status; from_cache = false };
            attempts = r.r_attempt;
            crashes = List.rev r.r_crashes;
            elapsed = now -. r.r_first_spawn;
            backoff = r.r_backoff;
          }
    | Error crash ->
        Metrics.incr m_crashes;
        if r.r_attempt <= config.retries then begin
          let delay = backoff_delay config ~job:r.r_job ~attempt:r.r_attempt in
          Metrics.incr m_retries;
          Metrics.add m_backoff_ms (int_of_float (delay *. 1e3));
          t.p_waiting <-
            {
              w_job = r.r_job;
              w_attempt = r.r_attempt + 1;
              w_ready_at = now +. delay;
              w_crashes = crash :: r.r_crashes;
              w_first_spawn = Some r.r_first_spawn;
              w_backoff = r.r_backoff +. delay;
              w_scale = r.r_scale;
            }
            :: t.p_waiting;
          None
        end
        else
          Some
            {
              job = r.r_job;
              outcome = Crashed crash;
              attempts = r.r_attempt;
              crashes = List.rev (crash :: r.r_crashes);
              elapsed = now -. r.r_first_spawn;
              backoff = r.r_backoff;
            }

  (* fill free slots with due work, earliest-ready first *)
  let fill_slots t =
    let now = Unix.gettimeofday () in
    let due, not_due =
      List.partition (fun w -> w.w_ready_at <= now) t.p_waiting
    in
    let due = List.sort (fun a b -> compare a.w_ready_at b.w_ready_at) due in
    let free = t.p_config.jobs - List.length t.p_running in
    let to_spawn, overflow =
      if free >= List.length due then (due, [])
      else
        ( List.filteri (fun i _ -> i < free) due,
          List.filteri (fun i _ -> i >= free) due )
    in
    t.p_waiting <- overflow @ not_due;
    List.iter (spawn t now) to_spawn

  let step t ~readable : report list =
    let config = t.p_config in
    (* drain whatever the host's select saw *)
    List.iter
      (fun r ->
        (match r.r_result_fd with
        | Some fd when List.memq fd readable -> drain t r `Result
        | _ -> ());
        match r.r_stderr_fd with
        | Some fd when List.memq fd readable -> drain t r `Stderr
        | _ -> ())
      t.p_running;
    let now = Unix.gettimeofday () in
    (* watchdog: SIGKILL attempts past their deadline *)
    List.iter
      (fun r ->
        match r.r_deadline with
        | Some d when (not r.r_watchdog_killed) && r.r_exit = None && now > d
          ->
            r.r_watchdog_killed <- true;
            Metrics.incr m_kills;
            (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      t.p_running;
    (* frame-overflow protection: a worker streaming an over-limit
       frame is killed like a hang *)
    List.iter
      (fun r ->
        if
          (not r.r_watchdog_killed)
          && r.r_exit = None
          && Buffer.length r.r_result_buf
             > config.max_frame_bytes + frame_header_len
        then begin
          r.r_watchdog_killed <- true;
          Metrics.incr m_kills;
          try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      t.p_running;
    (* reap exits without blocking *)
    List.iter
      (fun r ->
        if r.r_exit = None then
          match
            restart_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] r.r_pid)
          with
          | 0, _ -> ()
          | _, st -> r.r_exit <- Some st)
      t.p_running;
    (* finalize workers that exited and whose pipes are fully drained *)
    let done_, still =
      List.partition
        (fun r ->
          r.r_exit <> None && r.r_result_fd = None && r.r_stderr_fd = None)
        t.p_running
    in
    t.p_running <- still;
    let reports = List.filter_map (finalize t now) done_ in
    (* last, so a slot freed by this round's reaps takes the next job
       now rather than at the host's next wake *)
    fill_slots t;
    reports

  let cancel_pending t =
    let cancelled = List.map (fun w -> w.w_job) t.p_waiting in
    t.p_waiting <- [];
    cancelled

  let kill_all t =
    let killed = List.map (fun r -> r.r_job) t.p_running in
    List.iter
      (fun r ->
        (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (match r.r_result_fd with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ());
        (match r.r_stderr_fd with
        | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ());
        (* SIGKILL cannot be caught, so a blocking reap terminates *)
        if r.r_exit = None then
          try ignore (restart_eintr (fun () -> Unix.waitpid [] r.r_pid))
          with Unix.Unix_error _ -> ())
      t.p_running;
    t.p_running <- [];
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
  let pool = Pool.create ~config ~worker () in
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
      | None -> Pool.submit pool job)
    jobs;
  (* An interrupted batch must not strand workers: SIGTERM/SIGINT break
     the loop, SIGKILL and reap every in-flight worker, and surface as
     {!Interrupted} so the CLI can take its distinct exit path. *)
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

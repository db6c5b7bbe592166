(** Supervised batch evaluation: a worker-pool supervisor with
    OS-process isolation.

    The paper's evaluation is a batch over a 22-program corpus; one bad
    input — a transform that diverges past every budget, a term that
    blows the table, a plain bug that segfaults the runtime — must not
    invalidate the whole run.  {!Prax_guard} gives {e in-process}
    isolation (budgets, sound partial results); this module adds the
    next rung, {e OS-process} isolation: every analysis job runs in a
    forked worker, so a crash, hang, or OOM kill in one job cannot take
    down the batch, and the batch always terminates with a complete
    per-job report.

    {2 Supervision protocol}

    - Workers outlive attempts.  Each of the [jobs] slots holds one
      long-lived worker, forked the first time the slot has work
      ([serve.workers_spawned] counts worker starts: first use, crash
      replacement, recycle).  An attempt (job id, attempt number,
      budget scale and the host's request value) travels to the worker
      over its request pipe; the result comes back over its result pipe
      as one length-prefixed, MD5-digest-checked frame, and the attempt
      is finished the moment that frame is complete.
    - A bad frame — unknown status byte, digest mismatch, a length over
      [max_frame_bytes], stray bytes — kills its worker
      ([serve.bad_frames]) and crashes only the attempt in flight; so
      does a worker that dies mid-write (truncated frame).  A bad frame
      is never taken for a result.
    - Recycling: a worker exits after any job that pushed its major
      heap's high-water mark more than {!recycle_heap_bytes} above
      where it started ([serve.workers_recycled]); OCaml does not hand
      freed heap back to the OS, so this bounds what a long-lived
      worker holds.  The next attempt forks a fresh one.
    - Each frame carries the worker's user+sys CPU for that job, summed
      in [serve.worker_cpu_ms] (a live worker's CPU is invisible to its
      host's [times] until it is reaped).
    - Worker stderr is captured over a second pipe (bounded, cleared
      when an attempt is dispatched) and attached to crash records.
    - A per-attempt wall-clock watchdog [SIGKILL]s hung workers
      ([serve.watchdog_kills]).
    - Writing an attempt to a worker that has just died is an EPIPE
      crash of that attempt; [SIGPIPE] is ignored around the write, so
      a host that does not ignore it is never killed by it.
    - Crashed attempts are retried up to [retries] times with
      exponential backoff plus deterministic jitter
      ([serve.retries], [serve.backoff_ms]), each on a fresh worker (the
      crashed one is gone).  A worker that rejects its input delivers
      the diagnostic in its frame ([Invalid_input]); that is a result,
      not a crash, so it costs one attempt.
    - The degradation ladder (docs/ROBUSTNESS.md): attempt at full
      budget → retry at full budget → retries at a reduced
      {!Prax_guard.Guard.spec} budget (so a job that dies {e because}
      of its budget appetite completes degraded instead of crashing
      forever) → a worker that completes under budget exhaustion
      reports [Partial] → only when every attempt died is the job
      recorded [Crashed], with the last exit status and captured
      stderr.
    - A worker exits by itself when its request pipe reaches EOF, so a
      host that dies leaves no idle workers behind.

    The supervisor is single-threaded ([select]-based) and generic in
    the worker function; the analysis wiring lives in [bin/xanalyze.ml]
    (the [batch] command), the daemon and the bench harness. *)

module Guard = Prax_guard.Guard

type config = {
  jobs : int;  (** concurrent workers (≥ 1) *)
  retries : int;  (** re-executions after the first attempt (≥ 0) *)
  job_timeout : float option;
      (** watchdog: seconds of wall clock per attempt before SIGKILL *)
  budget : Guard.spec;
      (** in-worker evaluation budget for attempt 1 (and 2); minted
          fresh per attempt, halved per extra attempt from attempt 3 on
          (the "retry at reduced budget" rung) *)
  backoff_base : float;
      (** seconds before the first retry; the delay doubles per further
          retry, with a ±25% jitter deterministic per (job, attempt) so
          runs are reproducible *)
  max_frame_bytes : int;  (** cap on a result frame's payload *)
}

val default_config : config
(** [jobs=2; retries=2; job_timeout=None; budget=no_limits;
    backoff_base=0.05; max_frame_bytes=256M].  Captured worker stderr
    is capped at 64 KiB. *)

val recycle_heap_bytes : int
(** 64 MiB: the growth of a worker's major-heap high-water mark, since
    the worker started, past which it exits after its current job. *)

(** What a worker reports about its own evaluation. *)
type worker_status =
  | Complete
  | Partial_result of string  (** sound degraded result; the reason *)
  | Invalid_input of string
      (** the input was rejected (reader, type checker, config); the
          rendered diagnostic.  Deterministic, so never retried. *)

(** A failed attempt, as observed by the supervisor. *)
type crash = {
  attempt : int;  (** 1-based *)
  what : string;
      (** ["signal -7"], ["exit 70"], ["watchdog SIGKILL after 2.0s"],
          ["bad frame: ..."] *)
  stderr : string;  (** captured worker stderr (bounded) *)
}

type outcome =
  | Done of {
      payload : string;  (** the worker's result frame *)
      status : worker_status;  (** what the worker said of its result *)
      from_cache : bool;  (** answered by [cached] without forking *)
    }
  | Crashed of crash  (** the last attempt; earlier ones in [crashes] *)

type report = {
  job : string;
  outcome : outcome;
  attempts : int;  (** 0 when answered from cache *)
  crashes : crash list;  (** every failed attempt, oldest first *)
  elapsed : float;  (** seconds, spawn of first attempt → outcome *)
  backoff : float;  (** seconds spent waiting between attempts *)
}

val outcome_class : outcome -> string
(** ["complete"], ["partial"], ["invalid"], ["crashed"], or ["cached"]
    — the batch report / exit-code classification. *)

exception Interrupted of int
(** Raised by {!run_batch} when SIGTERM or SIGINT arrives mid-batch,
    {e after} every in-flight worker has been SIGKILLed and reaped (no
    orphans) and pending work discarded.  Carries the OCaml signal
    number ([Sys.sigterm] / [Sys.sigint]) so the CLI can exit
    [128+signal] like a shell would. *)

(** The supervisor's state machine as an incremental API, for hosts
    that own their own event loop (the analysis daemon).  Jobs are
    {!Pool.submit}ted at any time with a request value of the host's
    choosing, which is marshalled to the worker with the attempt (so a
    worker forked before the job was submitted still sees it);
    {!Pool.step} advances every worker without blocking and returns
    finished reports; the host selects on {!Pool.fds} with a timeout
    bounded by {!Pool.next_wake}.  {!run_batch} is a thin driver over
    this module. *)
module Pool : sig
  type 'a t

  val create :
    ?config:config ->
    ?on_child:(unit -> unit) ->
    worker:
      (job:string ->
      attempt:int ->
      guard:Guard.t ->
      'a ->
      worker_status * string) ->
    unit ->
    'a t
  (** [worker] runs in the long-lived worker process, once per attempt,
      with the request value the job was submitted with.  [on_child]
      runs in each worker when it is forked; hosts use it to close
      inherited fds (listen sockets, client connections) the pool
      cannot know about.  Workers also reset SIGTERM/SIGINT to their
      default dispositions so a host's drain handler never leaks into
      children, and close every other worker's pipes. *)

  val submit : 'a t -> ?budget_scale:float -> string -> 'a -> unit
  (** Enqueue a job (counted in [serve.jobs]) with its request value,
      which must be marshalable (no closures); it is dispatched on a
      later {!step} when a slot is free.  [budget_scale] (default 1.0)
      multiplies the config's guard budget for every attempt of this
      job — the daemon's pressure-tier degradation hook
      (docs/ROBUSTNESS.md); it composes with the per-attempt
      reduced-budget ladder. *)

  val pending : 'a t -> int
  (** Jobs submitted (or awaiting retry) but not currently running. *)

  val inflight : 'a t -> int
  (** Attempts dispatched to a worker and not yet finished. *)

  val idle : 'a t -> bool
  (** No pending and no in-flight work (idle workers may remain). *)

  val fds : 'a t -> Unix.file_descr list
  (** Every open worker pipe fd — the host's select read set. *)

  val next_wake : 'a t -> float option
  (** Earliest absolute time ({!Unix.gettimeofday} clock) at which the
      pool needs a {!step} even without fd activity: the nearest
      watchdog deadline, retry-backoff expiry (while a slot is free), or
      — for an exiting worker whose pipes are at EOF but whose exit a
      [WNOHANG] reap has not yet seen — a reap poll one millisecond
      away.  [None] when only fd activity matters.  Hosts select for at
      most [wake - now] with no floor: every time returned is one a
      {!step} can act on, so this never spins. *)

  val step : 'a t -> readable:Unix.file_descr list -> report list
  (** One non-blocking supervision round: drain [readable] pipes
      (finishing every attempt whose frame is now complete, killing the
      worker of a bad frame), SIGKILL watchdog-expired workers, reap
      exiting ones, finalize their attempts, then dispatch due work to
      idle workers, forking into empty slots.  Crashed attempts with
      retries left are re-enqueued internally; the returned reports are
      final.  Call with [readable:[]] to run timers only. *)

  val cancel_pending : 'a t -> string list
  (** Drop all pending (never-dispatched this attempt) jobs, returning
      their ids. *)

  val kill_all : 'a t -> string list
  (** SIGKILL and synchronously reap every worker, busy or idle, then
      drop pending work; returns the abandoned job ids (attempts in
      flight, then pending).  The pool is idle and holds no process
      afterwards; hosts call it when they finish.  Safe against
      already-dead workers. *)
end

(** Fault injection for the frame check.  Armed in a worker (from
    inside the worker function), it corrupts the next frame that worker
    writes; the supervisor must reject it as a bad frame. *)
type frame_fault =
  | Unknown_status  (** a status byte no decoder knows *)
  | Digest_mismatch  (** an MD5 that does not match the payload *)

val arm_frame_fault : frame_fault -> unit

val run_batch :
  ?config:config ->
  ?cached:(job:string -> string option) ->
  ?persist:(job:string -> payload:string -> unit) ->
  ?on_report:(report -> unit) ->
  worker:(job:string -> attempt:int -> guard:Guard.t -> worker_status * string) ->
  string list ->
  report list
(** [run_batch ~worker jobs] supervises the jobs on at most
    [config.jobs] worker processes at a time and returns a report per
    job, in input order; the workers are gone when it returns.  [worker] runs {e in a forked
    worker}, which sees the caller's heap as it was when the worker was
    forked (after [run_batch] was called): it receives the 1-based
    attempt number and the attempt's guard (already scaled down the
    ladder) and returns its status and result payload; anything it
    raises is printed to (captured) stderr and classified as a crash.

    [cached] is consulted before the first spawn of each job; a [Some]
    answers the job without forking ([from_cache = true]) — the
    warm-start hook for {!Prax_store}.  [persist] is called in the
    supervisor on every {e complete} (not partial, not cached) result —
    the store-write hook.  [on_report] streams each job's final report
    as it is reached (progress display).

    Counters (docs/METRICS.md): [serve.jobs], [serve.workers_spawned],
    [serve.workers_recycled], [serve.worker_cpu_ms], [serve.crashes],
    [serve.watchdog_kills], [serve.retries], [serve.backoff_ms],
    [serve.bad_frames], [serve.partials], [serve.cache_answers]. *)

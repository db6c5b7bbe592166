(** praxd — the resident analysis daemon.

    The batch surface ([xanalyze batch]) pays a cold process per
    invocation: registry construction, symbol interning, store opens.
    This module keeps all of that resident in one long-lived process — a
    Unix-domain-socket server that parses requests off the {!Wire}
    protocol, admits them through {!Admission} plus queue-depth
    backpressure, dispatches them onto the {!Prax_serve.Serve.Pool}
    worker fleet (jobs run in long-lived forked workers, one per slot,
    so a crashing analysis can never take the daemon down; each job is
    sent to its worker whole, because a worker forked before the job
    arrived cannot see it in its copy of the daemon's heap), and
    answers repeats from a resident result cache backed by the optional
    {!Prax_store.Store}.

    {2 Admission ladder}

    An [analyze] request passes, in order (docs/ROBUSTNESS.md):

    + {b drain check} — a draining daemon answers ["draining"];
    + {b rate limit} — the client's token bucket ([rate]/[burst]);
      empty answers ["overloaded"/"rate_limited"] with a
      [retry_after_ms] refill hint ([daemon.shed_rate]);
    + {b pressure tier} — {!Pressure.decide} on pool occupancy: backlog
      at [max_queue] sheds with ["overloaded"/"queue_full"] and a
      [retry_after_ms] hint ([daemon.shed_queue]); below that the
      request is {e admitted} at the tier's guard-budget scale
      (full ×1.0 under 50% occupancy, reduced ×0.5 under 75%, minimal
      ×0.25 above) — degrade, don't drop.  A reduced-tier admission
      bumps [daemon.degraded] and its eventual result carries
      [degraded]/[tier]/[tier_label] fields;
    + {b registry validation} — unknown analysis or config key answers
      ["error"] (the caller's fault, not load); so does a source the
      worker rejects, after that one attempt, with its diagnostic;
    + {b warm cache} — a resident (or stored) complete result for the
      same (analysis, source bytes, config, schema) answers ["cached"]
      without reaching a worker ([daemon.warm_hits]).  The resident cache is
      LRU-bounded by [cache_entries]/[cache_bytes]
      ([daemon.cache_evictions]);
    + otherwise the job joins the fleet; its budget is the [serve]
      config's guard spec scaled by the admission tier, so a
      budget-tripped job degrades to ["partial"] instead of being shed.

    Malformed frames answer ["rejected"] and poison only themselves;
    an oversized frame loses framing, so it also closes its connection
    ([daemon.rejected_bad_frame]).  Either way the accept loop is
    untouched.

    {2 Lifecycle}

    {!listen} refuses to start over a live daemon (socket probe), and
    sweeps a stale socket + pidfile left by a SIGKILLed predecessor.
    SIGTERM/SIGINT (or a [drain] request) begin graceful drain: stop
    accepting, answer queued requests ["draining"], let in-flight jobs
    finish until [drain_deadline], then SIGKILL-and-reap the rest;
    finally the socket and pidfile are removed and [daemon.drain_ms]
    records the drain.  {!run} then returns — the process exits 0.

    {2 Chaos harness}

    [config.chaos] is a deterministic fault plan
    ({!Prax_guard.Inject.daemon_plan}, from [praxd serve --chaos] or
    [PRAX_INJECT_DAEMON]): each fault fires when the Nth [analyze]
    request arrives (1-based, counted before admission).  Worker faults
    (crash/exit/hang) are planted on that request's job for attempt 1
    only, so the pool's retry ladder absorbs them; [conn-reset] flushes
    half the response line and closes; [store-enospc]/
    [store-short-write] arm a one-shot contained {!Prax_store.Store}
    write fault; [drain] begins graceful drain mid-load.  The invariant
    under any plan: every request gets exactly one structured response
    and the daemon exits clean ([daemon.chaos_injected] counts firings).

    Counters/gauges (stats schema v5, docs/METRICS.md):
    [daemon.accepted], [daemon.requests], [daemon.shed_queue],
    [daemon.shed_rate], [daemon.rejected_bad_frame], [daemon.warm_hits],
    [daemon.cold_ms], [daemon.warm_ms], [daemon.drain_ms],
    [daemon.degraded], [daemon.cache_evictions], [daemon.chaos_injected],
    [daemon.queue_depth], [daemon.inflight], [daemon.tier], and the
    daemon's own heap read from [Gc.quick_stat] when stats are built:
    [daemon.gc_minor_words], [daemon.gc_major_words],
    [daemon.gc_major_collections], [daemon.heap_words]. *)

module Serve = Prax_serve.Serve
module Inject = Prax_guard.Inject

type config = {
  socket_path : string;
  max_queue : int;  (** pool backlog bound before queue_full shedding *)
  rate : float;  (** per-client tokens/second; ≤ 0 disables *)
  burst : float;  (** per-client bucket ceiling *)
  max_request_bytes : int;  (** request-line cap *)
  drain_deadline : float;  (** seconds granted to in-flight jobs on drain *)
  store_dir : string option;  (** persistent backing for the warm cache *)
  incremental : bool;
      (** edit-aware workers (docs/INCREMENTAL.md): consult the per-SCC
          fragment cache and splice unchanged cones back instead of
          recomputing; reports stay byte-identical to full runs.
          Fragment reuse across requests requires [store_dir] (a
          memory-backed cache would live in one worker only, and die
          with its next crash or recycle). *)
  cache_entries : int;  (** resident-cache LRU entry cap (≥ 1) *)
  cache_bytes : int;  (** resident-cache LRU byte cap (≥ 1) *)
  chaos : Inject.daemon_plan;  (** deterministic fault schedule; [[]] = off *)
  serve : Serve.config;
      (** the worker fleet: [serve.jobs] is the in-flight cap, its
          budget/retry/watchdog knobs apply per job *)
}

val default_config : socket_path:string -> config
(** [max_queue=32; rate=0 (off); burst=8; max_request_bytes=8M;
    drain_deadline=5s; store_dir=None; incremental=false;
    cache_entries=512; cache_bytes=64M; chaos=[];
    serve=Serve.default_config]. *)

type t

exception Already_running of string
(** Raised by {!listen} when a live daemon answers on the socket (the
    message names the path). *)

val listen : config -> t
(** Claim the socket: probe-and-sweep a stale one, bind, listen, write
    the pidfile ([<socket>.pid]).
    @raise Already_running when a live daemon holds the socket.
    @raise Unix.Unix_error on bind/permission failures. *)

val run : ?on_ready:(unit -> unit) -> t -> unit
(** Serve until drained.  Installs SIGTERM/SIGINT handlers (restored on
    return) that trigger graceful drain; ignores SIGPIPE for the
    duration (a client gone mid-response must not kill the daemon).
    [on_ready] fires once the loop is about to accept — startup
    synchronization for scripts and tests. *)

val socket_path : t -> string
val pid_path : t -> string

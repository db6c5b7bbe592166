(** Composable resource budgets for the evaluation engines.

    An analysis embedded in a compiler pipeline must never hang or crash
    its host: the tabled engine's termination guarantee holds only when
    calls and answers range over a finite domain, and depth-k with a
    large [k], [widen = None] configurations, or arbitrary user programs
    can blow past any reasonable time/space envelope.  A guard is the
    tripwire — the analogue of XSB's table-space limits and timed call
    interrupts: a bundle of budgets (wall-clock deadline on the
    monotonic clock, derivation-step count, table-space bytes) checked
    cheaply at the engines' existing event sites.

    On exhaustion the engine does not return garbage: it stops
    producing, force-completes unfinished table entries by widening them
    to their most general answer (a sound over-approximation), and
    reports a {!status} of [Partial] — see [docs/ROBUSTNESS.md] for the
    soundness argument and {!Prax_tabling.Engine.run_status} for the
    engine side.

    Guards also carry the fault-injection hook ({!Inject}) used to prove
    the abort-anywhere property: at any event the engine can be torn
    down and the partial result is still sound and the engine still
    usable. *)

(** Why a budget tripped. *)
type reason =
  | Deadline  (** wall-clock deadline passed *)
  | Steps  (** derivation-step budget exhausted *)
  | Table_space  (** table-space byte budget exhausted *)
  | Fault of string  (** injected fault ({!Inject}) *)

val reason_to_string : reason -> string

(** Outcome of a governed evaluation.  [Partial] flags a sound
    over-approximation: [exhausted_entries] is the number of table
    entries that had to be force-completed by widening. *)
type status = Complete | Partial of { reason : reason; exhausted_entries : int }

val status_to_string : status -> string
(** ["complete"], or ["partial(<reason>, widened=<n>)"]. *)

val is_partial : status -> bool

val combine : status -> status -> status
(** Fold statuses of successive governed runs: [Complete] is the unit;
    two [Partial]s keep the first reason and sum the widened-entry
    counts. *)

exception Exhausted of reason
(** Raised by {!check} / {!note_space} when a budget is exhausted.  The
    engines catch it at their public entry points; it should never
    escape to a CLI user. *)

type t

val unlimited : t
(** The no-op guard: every check is a single load-and-branch. *)

val create :
  ?timeout:float ->
  ?max_steps:int ->
  ?max_table_bytes:int ->
  ?on_event:(int -> unit) ->
  unit ->
  t
(** [create ()] makes a guard.  [timeout] is seconds of wall clock from
    now (monotonic); [max_steps] bounds derivation steps (engine events);
    [max_table_bytes] bounds the engine's table-space estimate.
    [on_event] is invoked with the running event count on every check —
    the fault-injection hook ({!Inject}); it may raise.

    Deadline and step budgets are {e sticky}: once tripped, every later
    {!check} trips again immediately, so a driver issuing several
    governed runs degrades each of them instead of hanging on the
    first.  Injected faults are one-shot. *)

val counting : unit -> t
(** An active guard with no limits: counts events (see {!steps}) without
    ever tripping.  Used to measure a run's event span before a
    fault-injection sweep. *)

val active : t -> bool
(** [false] exactly for {!unlimited}. *)

val check : t -> unit
(** Count one engine event and verify the budgets.  Cost: one branch
    for {!unlimited}; otherwise an increment and two compares — the
    monotonic clock is read only every 256th event
    (counted by the [guard.deadline_checks] metric).
    @raise Exhausted when a budget is exhausted. *)

val note_space : t -> int -> unit
(** [note_space g bytes] verifies the table-space budget against the
    engine's current estimate.  Called by the engine whenever the
    estimate grows.
    @raise Exhausted when over budget. *)

val steps : t -> int
(** Events counted so far. *)

val tripped : t -> reason option
(** The first budget that tripped, if any. *)

val timeout_seconds : t -> float option
val max_steps : t -> int option
val max_table_bytes : t -> int option

val duration_of_string : string -> float option
(** Parse a human duration: ["100ms"], ["2s"], ["1.5s"], ["90us"],
    ["2m"], or a bare number meaning seconds.  [None] on junk. *)

(** {1 Budget specifications}

    A {!t} is a live object — its deadline is absolute from creation —
    so it cannot be stored, shipped to a worker process, or scaled for
    a retry.  A [spec] is the inert description: the supervisor
    ({!Prax_serve}) keeps a [spec] per batch, scales it down the
    degradation ladder, and mints a fresh guard from it at the start of
    every attempt. *)

type spec = {
  timeout : float option;  (** seconds of wall clock per attempt *)
  max_steps : int option;
  max_table_bytes : int option;
}

val no_limits : spec

val spec :
  ?timeout:float -> ?max_steps:int -> ?max_table_bytes:int -> unit -> spec

val spec_is_unlimited : spec -> bool

val scale_spec : spec -> float -> spec
(** [scale_spec s f] multiplies every finite budget by [f] (floors at 1
    step / 1 byte / 1ms so a scaled budget still trips rather than
    degenerating to zero-which-means-unlimited). *)

val of_spec : spec -> t
(** A fresh guard honoring [spec]; {!unlimited} when nothing is set
    (the deadline clock starts now). *)

val budget_json_fields : t -> (string * Prax_metrics.Metrics.json) list
(** [("budget", {...})] fields for a prax.stats document (empty list for
    {!unlimited}); see docs/METRICS.md. *)

val status_json_fields : status -> (string * Prax_metrics.Metrics.json) list
(** [("status", ...)] and, when partial, [("partial_reason", ...)],
    [("widened_entries", ...)] fields for a prax.stats document. *)

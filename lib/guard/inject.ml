(** Fault-injection harness: guards that abort or raise at the Nth
    engine event.

    The point is to make the abort-anywhere property testable: for a
    deterministic engine run, event [n] identifies a unique program
    point, so [abort_at n] tears the evaluation down exactly there.
    Sweeping [n] over a run's event span (measured with
    {!Guard.counting}) and asserting after every abort that

    - the reported answers are a sound over-approximation restricted to
      completed-or-widened table entries, and
    - the same engine instance completes a fresh query afterwards

    proves that no engine event leaves the tables in a state the
    degradation machinery cannot repair.  [test/test_guard.ml] runs this
    sweep. *)

(** [abort_at n] trips a {!Guard.Fault} exactly at event [n] (one-shot:
    the engine stays usable afterwards without swapping guards). *)
let abort_at ?timeout ?max_steps ?max_table_bytes n : Guard.t =
  Guard.create ?timeout ?max_steps ?max_table_bytes
    ~on_event:(fun k ->
      if k = n then raise (Guard.Exhausted (Guard.Fault "injected-abort")))
    ()

(** [raise_at n exn] raises an arbitrary exception at event [n] —
    modelling a crashing user builtin rather than a budget trip.  The
    engine must recover its table invariants (discarding entries whose
    producers were interrupted) rather than degrade to a partial
    result. *)
let raise_at n exn : Guard.t =
  Guard.create ~on_event:(fun k -> if k = n then raise exn) ()

(** Event span of a deterministic run: execute [f] under a counting
    guard and return how many events it saw.  The sweep range for
    {!abort_at}. *)
let events_of (f : Guard.t -> unit) : int =
  let g = Guard.counting () in
  f g;
  Guard.steps g

(** {1 Worker-process faults}

    The in-process harness above proves abort-anywhere for one engine;
    the supervisor ({!Prax_serve}) additionally promises that a worker
    {e process} dying arbitrarily — SIGKILL, OOM-kill, a hang — cannot
    take down a batch.  That promise is exercised by planting faults in
    the worker via an environment variable, because the fault must
    occur in the forked child, beyond any in-process control flow the
    supervisor could see.

    Grammar of [PRAX_INJECT_WORKER] (comma-separated directives):

    {v kind:job[:attempt]     kind ∈ {crash, exit, hang}
crash:kalah:1          SIGKILL itself on kalah's first attempt
exit:*:2               exit(70) on every job's second attempt
hang:qsort             sleep forever on every qsort attempt v}

    [job] is the job id ["*"] for any; [attempt] is 1-based, omitted
    for any.  Faults are planted before the analysis starts, so a
    crashed attempt has produced no result frame — exactly the
    worker-death shape the retry ladder must absorb. *)

type worker_fault =
  | Kill_self  (** SIGKILL own pid: the mid-job `kill -9` drill *)
  | Exit_nonzero  (** exit(70): a crashing worker that dies politely *)
  | Hang  (** sleep past any watchdog: exercises the SIGKILL path *)

let inject_worker_var = "PRAX_INJECT_WORKER"

let worker_fault_of_string ~job ~attempt (value : string) :
    worker_fault option =
  let directive d =
    let d = String.trim d in
    match String.index_opt d ':' with
    | None -> None
    | Some i -> (
        let kind = String.sub d 0 i in
        let rest = String.sub d (i + 1) (String.length d - i - 1) in
        (* job names may themselves contain ':' (batch job ids are
           "analysis:input"), so the attempt selector is only the
           *last* segment, and only when it parses as an integer *)
        let job, attempt =
          match String.rindex_opt rest ':' with
          | None -> (rest, None)
          | Some j -> (
              let tail =
                String.sub rest (j + 1) (String.length rest - j - 1)
              in
              match int_of_string_opt tail with
              | Some n -> (String.sub rest 0 j, Some n)
              | None ->
                  if String.equal tail "" then (String.sub rest 0 j, None)
                  else (rest, None))
        in
        if String.equal job "" then None else Some (kind, job, attempt))
  in
  let matches (kind, j, a) =
    (String.equal j "*" || String.equal j job)
    && (match a with None -> true | Some n -> n = attempt)
    &&
    match kind with "crash" | "exit" | "hang" -> true | _ -> false
  in
  String.split_on_char ',' value
  |> List.filter_map directive
  |> List.find_opt matches
  |> Option.map (fun (kind, _, _) ->
         match kind with
         | "crash" -> Kill_self
         | "exit" -> Exit_nonzero
         | _ -> Hang)

(** The fault planted for [job]'s [attempt], read from
    [PRAX_INJECT_WORKER] (unset / no match: [None]). *)
let worker_fault_of_env ~job ~attempt () : worker_fault option =
  match Sys.getenv_opt inject_worker_var with
  | None | Some "" -> None
  | Some v -> worker_fault_of_string ~job ~attempt v

(** Execute a planted fault inside the worker process.  Does not
    return (kills, exits, or sleeps far past any sane watchdog). *)
let apply_worker_fault : worker_fault -> unit = function
  | Kill_self -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Exit_nonzero -> exit 70
  | Hang ->
      (* long enough that only the watchdog ends it; loop in case a
         stray signal interrupts the sleep *)
      while true do
        Unix.sleepf 3600.
      done

(** {1 Daemon chaos plans}

    The worker faults above are keyed by job; a resident daemon has
    failure modes no job selector can reach — a client connection reset
    mid-response, the snapshot store hitting [ENOSPC], a drain arriving
    under load.  A {e chaos plan} schedules such faults at scripted
    points: each entry fires when the daemon admits its Nth [analyze]
    request (1-based, counted at arrival, before any admission
    decision), so a plan replays identically against the same request
    sequence.  The invariant the harness asserts around every plan:
    {e every request gets exactly one structured response} (the
    scripted reset victim's response is deliberately truncated — that
    {e is} the fault — but the daemon still generated it once) {e and
    the daemon exits clean}.

    Grammar of [praxd serve --chaos PLAN] and of [PRAX_INJECT_DAEMON]
    (comma-separated [kind\@N]; several faults may share an [N]):

    {v crash@1,reset@3,enospc@4,drain@6

kind ∈ crash | exit | hang   worker fault on request N's job
       reset                 truncate request N's response mid-frame
                             and close its connection
       enospc | shortwrite   fail the next store write (N's snapshot)
       drain                 begin graceful drain when request N arrives v}

    Each kind also has a long name: [worker-crash], [worker-exit],
    [worker-hang], [conn-reset], [store-enospc], [store-short-write]. *)

type store_fault = Enospc | Short_write

type daemon_fault =
  | Worker of worker_fault
  | Conn_reset
  | Store_write of store_fault
  | Drain_now

(** Fire points are 1-based analyze-request ordinals; multiple faults
    may share an ordinal. *)
type daemon_plan = (int * daemon_fault) list

let inject_daemon_var = "PRAX_INJECT_DAEMON"

let daemon_fault_of_name = function
  | "crash" | "worker-crash" -> Some (Worker Kill_self)
  | "exit" | "worker-exit" -> Some (Worker Exit_nonzero)
  | "hang" | "worker-hang" -> Some (Worker Hang)
  | "reset" | "conn-reset" -> Some Conn_reset
  | "enospc" | "store-enospc" -> Some (Store_write Enospc)
  | "shortwrite" | "store-short-write" -> Some (Store_write Short_write)
  | "drain" -> Some Drain_now
  | _ -> None

let daemon_fault_name = function
  | Worker Kill_self -> "worker-crash"
  | Worker Exit_nonzero -> "worker-exit"
  | Worker Hang -> "worker-hang"
  | Conn_reset -> "conn-reset"
  | Store_write Enospc -> "store-enospc"
  | Store_write Short_write -> "store-short-write"
  | Drain_now -> "drain"

(** Parse the compact [kind\@N] grammar.  Errors name the bad
    directive — a misspelled chaos plan must fail loudly at startup,
    never silently run a different drill. *)
let daemon_plan_of_string (value : string) : (daemon_plan, string) result =
  let directive d =
    let d = String.trim d in
    match String.index_opt d '@' with
    | None -> Error (Printf.sprintf "bad chaos directive %S (want kind@N)" d)
    | Some i -> (
        let kind = String.sub d 0 i in
        let at_s = String.sub d (i + 1) (String.length d - i - 1) in
        match (daemon_fault_of_name kind, int_of_string_opt at_s) with
        | Some fault, Some at when at >= 1 -> Ok (at, fault)
        | None, _ -> Error (Printf.sprintf "unknown chaos fault %S" kind)
        | _, _ ->
            Error
              (Printf.sprintf "bad chaos fire point %S (want an ordinal >= 1)"
                 at_s))
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
        match directive d with
        | Ok entry -> all (entry :: acc) rest
        | Error _ as e -> e)
  in
  String.split_on_char ',' value
  |> List.filter (fun s -> String.trim s <> "")
  |> all []

let daemon_plan_of_env () : (daemon_plan, string) result =
  match Sys.getenv_opt inject_daemon_var with
  | None | Some "" -> Ok []
  | Some v -> daemon_plan_of_string v

(** The faults scheduled for analyze-request ordinal [n]. *)
let daemon_faults_at (plan : daemon_plan) n : daemon_fault list =
  List.filter_map (fun (at, f) -> if at = n then Some f else None) plan

(** Composable resource budgets: wall-clock deadline (monotonic clock),
    derivation-step count, table-space bytes — checked at the engines'
    event sites.  See guard.mli and docs/ROBUSTNESS.md. *)

module Metrics = Prax_metrics.Metrics

let m_deadline_checks =
  Metrics.counter ~units:"reads"
    ~doc:"monotonic-clock reads performed by guard deadline checks"
    "guard.deadline_checks"

let m_trips =
  Metrics.counter ~units:"trips" ~doc:"budget exhaustions signalled by guards"
    "guard.trips"

type reason = Deadline | Steps | Table_space | Fault of string

let reason_to_string = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Table_space -> "table-space"
  | Fault what -> Printf.sprintf "fault:%s" what

type status = Complete | Partial of { reason : reason; exhausted_entries : int }

let status_to_string = function
  | Complete -> "complete"
  | Partial { reason; exhausted_entries } ->
      Printf.sprintf "partial(%s, widened=%d)" (reason_to_string reason)
        exhausted_entries

let is_partial = function Partial _ -> true | Complete -> false

let combine a b =
  match (a, b) with
  | Complete, s | s, Complete -> s
  | Partial p, Partial q ->
      Partial
        {
          reason = p.reason;
          exhausted_entries = p.exhausted_entries + q.exhausted_entries;
        }

exception Exhausted of reason

type t = {
  deadline : int64 option;  (** absolute monotonic-clock nanoseconds *)
  limit_steps : int;  (** [max_int] when unbounded *)
  limit_bytes : int;  (** [max_int] when unbounded *)
  timeout_s : float option;
  max_steps_opt : int option;
  max_bytes_opt : int option;
  on_event : (int -> unit) option;
  mutable steps : int;
  mutable tripped : reason option;
  active : bool;
}

let unlimited =
  {
    deadline = None;
    limit_steps = max_int;
    limit_bytes = max_int;
    timeout_s = None;
    max_steps_opt = None;
    max_bytes_opt = None;
    on_event = None;
    steps = 0;
    tripped = None;
    active = false;
  }

let now_ns () = Monotonic_clock.now ()

let create ?timeout ?max_steps ?max_table_bytes ?on_event () =
  let deadline =
    Option.map
      (fun s -> Int64.add (now_ns ()) (Int64.of_float (s *. 1e9)))
      timeout
  in
  {
    deadline;
    limit_steps = Option.value max_steps ~default:max_int;
    limit_bytes = Option.value max_table_bytes ~default:max_int;
    timeout_s = timeout;
    max_steps_opt = max_steps;
    max_bytes_opt = max_table_bytes;
    on_event;
    steps = 0;
    tripped = None;
    active = true;
  }

let counting () = create ()

let active g = g.active

let trip g r =
  g.tripped <- Some r;
  Metrics.incr m_trips;
  raise (Exhausted r)

(* The deadline reads the clock only on every 256th event so the check
   stays cheap enough for the innermost engine loops.  256 steps take
   well under a millisecond, so a timeout is honored within a tight
   tolerance of the configured budget. *)
let deadline_mask = 255

let check g =
  if g.active then begin
    (* sticky budgets re-trip immediately: a driver running several
       governed queries after exhaustion degrades each one instead of
       burning another full budget.  Injected faults are one-shot. *)
    (match g.tripped with
    | Some ((Deadline | Steps | Table_space) as r) -> trip g r
    | Some (Fault _) | None -> ());
    let n = g.steps + 1 in
    g.steps <- n;
    (match g.on_event with Some f -> f n | None -> ());
    if n > g.limit_steps then trip g Steps;
    match g.deadline with
    | Some d when n land deadline_mask = 0 ->
        Metrics.incr m_deadline_checks;
        if Int64.compare (now_ns ()) d > 0 then trip g Deadline
    | _ -> ()
  end

let note_space g bytes =
  if g.active && bytes > g.limit_bytes then trip g Table_space

let steps g = g.steps
let tripped g = g.tripped
let timeout_seconds g = g.timeout_s
let max_steps g = g.max_steps_opt
let max_table_bytes g = g.max_bytes_opt

let duration_of_string s =
  let s = String.trim s in
  let num_and_unit =
    let n = String.length s in
    let rec split i =
      if i >= n then (s, "")
      else
        match s.[i] with
        | '0' .. '9' | '.' | '-' | '+' -> split (i + 1)
        | _ -> (String.sub s 0 i, String.sub s i (n - i))
    in
    split 0
  in
  let num, unit_ = num_and_unit in
  match float_of_string_opt num with
  | None -> None
  | Some v when v < 0. -> None
  | Some v -> (
      match String.lowercase_ascii unit_ with
      | "" | "s" -> Some v
      | "ms" -> Some (v /. 1e3)
      | "us" -> Some (v /. 1e6)
      | "ns" -> Some (v /. 1e9)
      | "m" | "min" -> Some (v *. 60.)
      | _ -> None)

(* --- budget specifications ---------------------------------------------- *)

type spec = {
  timeout : float option;
  max_steps : int option;
  max_table_bytes : int option;
}

let no_limits = { timeout = None; max_steps = None; max_table_bytes = None }

let spec ?timeout ?max_steps ?max_table_bytes () =
  { timeout; max_steps; max_table_bytes }

let spec_is_unlimited = function
  | { timeout = None; max_steps = None; max_table_bytes = None } -> true
  | _ -> false

let scale_spec s f =
  {
    (* floors keep a deeply-scaled budget trippable: a 0 step budget
       would read as max_int and a 0s timeout as "instant", both wrong *)
    timeout = Option.map (fun t -> Float.max 1e-3 (t *. f)) s.timeout;
    max_steps = Option.map (fun n -> max 1 (int_of_float (float_of_int n *. f))) s.max_steps;
    max_table_bytes =
      Option.map (fun n -> max 1 (int_of_float (float_of_int n *. f))) s.max_table_bytes;
  }

let of_spec s =
  if spec_is_unlimited s then unlimited
  else
    create ?timeout:s.timeout ?max_steps:s.max_steps
      ?max_table_bytes:s.max_table_bytes ()

let budget_json_fields g =
  let open Metrics in
  if not g.active then []
  else
    [
      ( "budget",
        Obj
          [
            ( "timeout_seconds",
              match g.timeout_s with None -> Null | Some s -> Float s );
            ( "max_steps",
              match g.max_steps_opt with None -> Null | Some n -> Int n );
            ( "max_table_bytes",
              match g.max_bytes_opt with None -> Null | Some n -> Int n );
          ] );
    ]

let status_json_fields st =
  let open Metrics in
  match st with
  | Complete -> [ ("status", Str "complete") ]
  | Partial { reason; exhausted_entries } ->
      [
        ("status", Str "partial");
        ("partial_reason", Str (reason_to_string reason));
        ("widened_entries", Int exhausted_entries);
      ]

(** Engine observability: process-wide counters, gauges, and hierarchical
    phase timers, with machine-readable snapshots.

    See docs/METRICS.md for the full metric catalogue and the output
    schema.  Design constraints, in order:

    - near-zero overhead on hot paths: a counter bump is one load of the
      enable flag plus one unboxed integer store; timers read the
      monotonic clock only at the outermost entry/exit of a phase;
    - a single process-wide registry, so the CLIs and the bench harness
      can snapshot "everything that happened" without threading handles
      through every layer (per-engine figures stay available through
      [Engine.stats]);
    - a versioned, documented serialization ({!stats_doc}) that a
      benchmark harness can consume without scraping human output. *)

let schema_name = "prax.stats"

(* v2 (additive over v1): evaluation [status] / [partial_reason] /
   [widened_entries] and the [budget] object on governed runs, plus the
   guard.* / engine.aborts / engine.forced_completions / datalog.aborts
   counters.  v1 documents remain valid v2 prefixes.

   v3 (additive over v2): the term-representation counters
   intern.symbols, hashcons.hits, hashcons.misses introduced with
   interned symbols and hash-consed terms.  No field changed shape; v2
   consumers that ignore unknown counters keep working.

   v4 (additive over v3): the supervised-batch counters — serve.jobs,
   serve.workers_spawned, serve.crashes, serve.watchdog_kills,
   serve.retries, serve.backoff_ms, serve.bad_frames, serve.partials,
   serve.cache_answers — and the persistent-store counters store.hits,
   store.misses, store.writes, store.corrupt_detected,
   store.version_skew.  The batch surface also emits per-batch
   documents with analysis="batch".  No field changed shape.

   v5 (additive over v4): the analysis-daemon family — daemon.accepted,
   daemon.requests, daemon.shed_queue, daemon.shed_rate,
   daemon.rejected_bad_frame, daemon.warm_hits, daemon.drain_ms and the
   gauges daemon.queue_depth / daemon.inflight — plus store.tmp_swept
   (orphaned write-temp files removed at store open).  No field changed
   shape.

   v6 (additive over v5): the incremental re-analysis family — the
   counters incr.sccs, incr.invalidated, incr.spliced (condensation
   SCCs seen / recomputed / restored from cached fragments) and the
   gauge incr.cone_frac (invalidated share of the condensation, in
   permille: 1000 = full recompute).  The bump also versions the
   per-SCC fragment cache: stored fragments carry the stats schema
   version in their store key, so a v5 store never feeds a v6 reader.
   No field changed shape. *)
let schema_version = 6
let min_supported_schema_version = 1

let schema_version_supported v =
  v >= min_supported_schema_version && v <= schema_version

(* --- registry ----------------------------------------------------------- *)

type cell = {
  c_name : string;
  c_units : string;
  c_doc : string;
  mutable c_value : int;
}

type counter = cell
type gauge = cell

type timer = {
  t_name : string;
  t_doc : string;
  mutable t_ns : int64;  (** cumulative nanoseconds, outermost activations *)
  mutable t_count : int;  (** completed outermost activations *)
  mutable t_depth : int;  (** reentrancy guard *)
  mutable t_start : int64;  (** start stamp of the running activation *)
  mutable t_parent : string option;
      (** innermost timer running when this one first started *)
}

let counters_tbl : (string, cell) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, cell) Hashtbl.t = Hashtbl.create 16
let timers_tbl : (string, timer) Hashtbl.t = Hashtbl.create 32

(* innermost running timers, for parent attribution *)
let running : timer list ref = ref []

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add tbl name c;
      c

let counter ?(units = "events") ?(doc = "") name : counter =
  find_or_add counters_tbl name (fun () ->
      { c_name = name; c_units = units; c_doc = doc; c_value = 0 })

let gauge ?(units = "") ?(doc = "") name : gauge =
  find_or_add gauges_tbl name (fun () ->
      { c_name = name; c_units = units; c_doc = doc; c_value = 0 })

let timer ?(doc = "") name : timer =
  find_or_add timers_tbl name (fun () ->
      {
        t_name = name;
        t_doc = doc;
        t_ns = 0L;
        t_count = 0;
        t_depth = 0;
        t_start = 0L;
        t_parent = None;
      })

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let set g v = g.c_value <- v

let now_ns () = Monotonic_clock.now ()

let time t f =
  if t.t_depth = 0 then begin
    (match !running with
    | outer :: _ when t.t_parent = None && outer != t ->
        t.t_parent <- Some outer.t_name
    | _ -> ());
    t.t_start <- now_ns ()
  end;
  t.t_depth <- t.t_depth + 1;
  running := t :: !running;
  let leave () =
    (match !running with _ :: rest -> running := rest | [] -> ());
    t.t_depth <- t.t_depth - 1;
    if t.t_depth = 0 then begin
      t.t_ns <- Int64.add t.t_ns (Int64.sub (now_ns ()) t.t_start);
      t.t_count <- t.t_count + 1
    end
  in
  match f () with
  | x ->
      leave ();
      x
  | exception e ->
      leave ();
      raise e

let seconds t = Int64.to_float t.t_ns /. 1e9

let counter_value name =
  match Hashtbl.find_opt counters_tbl name with Some c -> c.c_value | None -> 0

let timer_seconds name =
  match Hashtbl.find_opt timers_tbl name with Some t -> seconds t | None -> 0.

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters_tbl;
  Hashtbl.iter (fun _ c -> c.c_value <- 0) gauges_tbl;
  Hashtbl.iter
    (fun _ t ->
      t.t_ns <- 0L;
      t.t_count <- 0)
    timers_tbl

(* --- snapshots ---------------------------------------------------------- *)

type sample = { name : string; value : int; units : string; doc : string }

type timing = {
  timer_name : string;
  timer_seconds : float;
  activations : int;
  parent : string option;
  timer_doc : string;
}

type snapshot = {
  counters : sample list;
  gauges : sample list;
  timers : timing list;
}

let sorted_samples tbl =
  Hashtbl.fold
    (fun _ c acc ->
      { name = c.c_name; value = c.c_value; units = c.c_units; doc = c.c_doc }
      :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.name b.name)

let snapshot () : snapshot =
  {
    counters = sorted_samples counters_tbl;
    gauges = sorted_samples gauges_tbl;
    timers =
      Hashtbl.fold
        (fun _ t acc ->
          {
            timer_name = t.t_name;
            timer_seconds = seconds t;
            activations = t.t_count;
            parent = t.t_parent;
            timer_doc = t.t_doc;
          }
          :: acc)
        timers_tbl []
      |> List.sort (fun a b -> String.compare a.timer_name b.timer_name);
  }

(* --- JSON --------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let float_repr f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_to_string (j : json) : string =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s -> escape_string b s
    | Arr els ->
        Buffer.add_char b '[';
        List.iteri
          (fun i e ->
            if i > 0 then Buffer.add_char b ',';
            go e)
          els;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

exception Json_error of string

(* A minimal strict JSON reader, enough to round-trip {!json_to_string}
   output in tests and small harnesses.  Not a streaming parser. *)
let json_of_string (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = s.[!pos] in
      Stdlib.incr pos;
      c
    end
  in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      Stdlib.incr pos
    done
  in
  let expect c =
    if next () <> c then fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next ()) in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      Stdlib.incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        Stdlib.incr pos;
        skip_ws ();
        if peek () = Some '}' then (Stdlib.incr pos; Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> fields ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        Stdlib.incr pos;
        skip_ws ();
        if peek () = Some ']' then (Stdlib.incr pos; Arr [])
        else
          let rec els acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> els (v :: acc)
            | ']' -> Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          els []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- serialization of snapshots ----------------------------------------- *)

let snapshot_to_json (snap : snapshot) : json =
  Obj
    [
      ("counters", Obj (List.map (fun s -> (s.name, Int s.value)) snap.counters));
      ("gauges", Obj (List.map (fun s -> (s.name, Int s.value)) snap.gauges));
      ( "timers",
        Obj
          (List.map
             (fun t ->
               ( t.timer_name,
                 Obj
                   [
                     ("seconds", Float t.timer_seconds);
                     ("count", Int t.activations);
                     ( "parent",
                       match t.parent with None -> Null | Some p -> Str p );
                   ] ))
             snap.timers) );
    ]

let stats_doc ~tool ~analysis ~input ?(phases = []) ?(extra = [])
    (snap : snapshot) : json =
  let header =
    [
      ("schema", Str schema_name);
      ("schema_version", Int schema_version);
      ("tool", Str tool);
      ("analysis", Str analysis);
      ("input", Str input);
    ]
  in
  let phase_fields =
    match phases with
    | [] -> []
    | _ ->
        let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. phases in
        [
          ("phases", Obj (List.map (fun (n, s) -> (n, Float s)) phases));
          ("total_seconds", Float total);
        ]
  in
  match snapshot_to_json snap with
  | Obj body -> Obj (header @ phase_fields @ extra @ body)
  | _ -> assert false

let snapshot_to_csv (snap : snapshot) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "kind,name,value,unit\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "counter,%s,%d,%s\n" s.name s.value s.units))
    snap.counters;
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "gauge,%s,%d,%s\n" s.name s.value s.units))
    snap.gauges;
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "timer,%s,%s,seconds\n" t.timer_name
           (float_repr t.timer_seconds));
      Buffer.add_string b
        (Printf.sprintf "timer_count,%s,%d,activations\n" t.timer_name
           t.activations))
    snap.timers;
  Buffer.contents b

let snapshot_to_human (snap : snapshot) : string =
  let b = Buffer.create 1024 in
  let rule title = Buffer.add_string b (title ^ ":\n") in
  if snap.counters <> [] then begin
    rule "counters";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %12d %s\n" s.name s.value s.units))
      snap.counters
  end;
  if snap.gauges <> [] then begin
    rule "gauges";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %12d %s\n" s.name s.value s.units))
      snap.gauges
  end;
  if snap.timers <> [] then begin
    rule "timers";
    List.iter
      (fun t ->
        Buffer.add_string b
          (Printf.sprintf "  %-34s %12.6f s  x%d%s\n" t.timer_name
             t.timer_seconds t.activations
             (match t.parent with
             | None -> ""
             | Some p -> "  (under " ^ p ^ ")")))
      snap.timers
  end;
  if snap.counters = [] && snap.gauges = [] && snap.timers = [] then
    Buffer.add_string b "(metrics disabled or empty)\n";
  Buffer.contents b

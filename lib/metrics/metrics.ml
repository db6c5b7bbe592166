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

let hex_chars = "0123456789abcdef"

(* The runs between characters that need escaping are copied whole. *)
let escape_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b hex_chars.[Char.code c lsr 4];
          Buffer.add_char b hex_chars.[Char.code c land 15]);
      run := i + 1
    end
  done;
  Buffer.add_substring b s !run (n - !run);
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

(* --- lexical scanners --------------------------------------------------- *)

(* Shared by the reader and {!json_valid}, so both accept the same
   language: a number is read only where [float_lit_ok] or [int_lit_ok]
   holds.  Each takes the index where its token starts in [s] (of
   length [n]) and returns the index just past it, or -1 where the
   token is malformed.  None allocates. *)

let rec skip_ws s n i =
  if i < n then
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws s n (i + 1)
    | _ -> i
  else i

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The code point of the four bytes at [i], [i + 3] < [n], read as
   [int_of_string ("0x" ^ hex)] reads them (a hex digit, then hex digits
   or '_'); -1 when they are not hex or name a UTF-16 surrogate, which
   is no scalar value. *)
let rec u_digits s i k acc =
  if k = 4 then if acc >= 0xD800 && acc <= 0xDFFF then -1 else acc
  else
    match s.[i + k] with
    | '_' when k > 0 -> u_digits s i (k + 1) acc
    | c ->
        let d = hex_digit c in
        if d < 0 then -1 else u_digits s i (k + 1) ((acc * 16) + d)

let u_escape s i = u_digits s i 0 0

(* past the closing quote of a string whose body starts at [i] *)
let rec string_end s n i =
  if i >= n then -1
  else
    match String.unsafe_get s i with
    | '"' -> i + 1
    | '\\' -> (
        if i + 1 >= n then -1
        else
          match String.unsafe_get s (i + 1) with
          | '"' | '\\' | '/' | 'n' | 'r' | 't' | 'b' | 'f' ->
              string_end s n (i + 2)
          | 'u' ->
              if i + 6 > n || u_escape s (i + 2) < 0 then -1
              else string_end s n (i + 6)
          | _ -> -1)
    | _ -> string_end s n (i + 1)

let rec digits_end s e i =
  if i < e && match String.unsafe_get s i with '0' .. '9' -> true | _ -> false
  then digits_end s e (i + 1)
  else i

let rec num_end s n i =
  if
    i < n
    &&
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  then num_end s n (i + 1)
  else i

let sign_end s e i =
  if i < e && (s.[i] = '-' || s.[i] = '+') then i + 1 else i

(* whether [s.[i..e-1]] holds '.', 'e' or 'E': then it is read as a
   float, otherwise as an int *)
let rec is_float_lit s e i =
  i < e
  && match s.[i] with '.' | 'e' | 'E' -> true | _ -> is_float_lit s e (i + 1)

(* what [float_of_string] accepts among number characters (the strtod
   decimal grammar): sign? (digits (. digits?)? | . digits) exponent? *)
let float_lit_ok s i e =
  let m = sign_end s e i in
  let d = digits_end s e m in
  let f, frac =
    if d < e && s.[d] = '.' then
      let f = digits_end s e (d + 1) in
      (f, f - d - 1)
    else (d, 0)
  in
  d - m + frac > 0
  && (f = e
     || (s.[f] = 'e' || s.[f] = 'E')
        &&
        let x = sign_end s e (f + 1) in
        let k = digits_end s e x in
        k > x && k = e)

(* the decimal magnitudes of [max_int] and [min_int] *)
let max_int_digits = string_of_int max_int
let min_int_digits =
  let m = string_of_int min_int in
  String.sub m 1 (String.length m - 1)

let rec zeros_end s e j =
  if j < e - 1 && s.[j] = '0' then zeros_end s e (j + 1) else j

(* [s.[z..]] <= [lim], both of [lim]'s length, compared from digit [k] *)
let rec digits_le s z lim k =
  k = String.length lim
  || s.[z + k] < lim.[k]
  || (s.[z + k] = lim.[k] && digits_le s z lim (k + 1))

(* what [int_of_string] accepts among number characters without '.',
   'e' or 'E': sign? digits, within [min_int, max_int] *)
let int_lit_ok s i e =
  let m = sign_end s e i in
  m < e
  && digits_end s e m = e
  &&
  let lim = if s.[i] = '-' then min_int_digits else max_int_digits in
  let z = zeros_end s e m in
  e - z < String.length lim
  || (e - z = String.length lim && digits_le s z lim 0)

let rec word_at s n i word k =
  k = String.length word
  || (i + k < n && s.[i + k] = word.[k] && word_at s n i word (k + 1))

let lit_end s n i word =
  if word_at s n i word 0 then i + String.length word else -1

(* A minimal strict JSON reader, enough to round-trip {!json_to_string}
   output in tests and small harnesses.  Not a streaming parser.  It
   reads [s.[start..stop-1]] where it lies; error offsets count from
   [start].  A string without escapes is one [String.sub]; one with
   escapes is decoded in one pass into bytes of its encoded length,
   which always suffice: an escape never decodes to more bytes than it
   takes.  With [defer = (name, room)], the first member of a top-level
   object named [name] whose value is a string is decoded into
   [room n] instead of built, and its decoded length is returned. *)
let json_read ?defer (s : string) start stop : json * int =
  let n = stop in
  let pos = ref start in
  let fail msg =
    raise (Json_error (Printf.sprintf "%s at offset %d" msg (!pos - start)))
  in
  let deferred = ref (-1) and defer_seen = ref (Option.is_none defer) in
  let next () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = s.[!pos] in
      Stdlib.incr pos;
      c
    end
  in
  let skip_ws () = pos := skip_ws s n !pos in
  let expect c =
    if next () <> c then fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  (* the run of [s] from [!pos] up to the next quote or backslash *)
  let rec run_end i =
    if i >= n then i
    else
      match String.unsafe_get s i with
      | '"' | '\\' -> i
      | _ -> run_end (i + 1)
  in
  (* the run from [i] copied to [dst] from [j] (blitted whole: runs
     between escapes are short, and a per-byte copy costs more than the
     call); [pos] is left at its end, and the result is the end in
     [dst] *)
  let copy_run dst i j =
    let k = run_end i in
    Bytes.blit_string s i dst j (k - i);
    pos := k;
    j + (k - i)
  in
  (* a string body from [i], decoded to [dst] from [j] and read past its
     closing quote; the result is the decoded end *)
  let rec decode_into dst i j =
    let j = copy_run dst i j in
    match next () with
    | '"' -> j
    | _ (* a backslash *) -> (
        match next () with
        | 'u' ->
            if !pos + 4 > n then (pos := n; fail "unexpected end of input");
            let code = u_escape s !pos in
            pos := !pos + 4;
            if code < 0 then fail "bad \\u escape";
            decode_into dst !pos
              (j + Bytes.set_utf_8_uchar dst j (Uchar.of_int code))
        | c ->
            Bytes.set dst j
              (match c with
              | '"' -> '"'
              | '\\' -> '\\'
              | '/' -> '/'
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 't' -> '\t'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | _ -> fail "bad escape");
            decode_into dst !pos (j + 1))
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = run_end start in
    if i < n && s.[i] = '"' then begin
      pos := i + 1;
      String.sub s start (i - start)
    end
    else
      (* a malformed body fails inside [decode_into], whose bytes then
         need the rest of the input at most *)
      let e = string_end s n start in
      let dst = Bytes.create (if e < 0 then n - start else e - start) in
      let len = decode_into dst start 0 in
      Bytes.sub_string dst 0 len
  in
  let parse_number () =
    let start = !pos in
    let e = num_end s n start in
    pos := e;
    if is_float_lit s e start then
      if float_lit_ok s start e then
        Float (float_of_string (String.sub s start (e - start)))
      else fail "bad number"
    else if int_lit_ok s start e then begin
      (* accumulated negatively, so [min_int] does not overflow *)
      let acc = ref 0 in
      for k = sign_end s e start to e - 1 do
        acc := (!acc * 10) - (Char.code s.[k] - 48)
      done;
      Int (if s.[start] = '-' then !acc else - !acc)
    end
    else fail "bad number"
  in
  (* the deferred member's value, decoded into the caller's bytes *)
  let deferred_value k =
    match defer with
    | Some (name, room) when (not !defer_seen) && String.equal k name ->
        defer_seen := true;
        skip_ws ();
        if !pos < n && s.[!pos] = '"' then begin
          Stdlib.incr pos;
          deferred := decode_into (room (n - !pos)) !pos 0;
          Some Null
        end
        else None
    | _ -> None
  in
  let rec parse_value top =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | '"' -> Str (parse_string ())
      | '{' ->
          Stdlib.incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = '}' then (Stdlib.incr pos; Obj [])
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v =
                match if top then deferred_value k else None with
                | Some v -> v
                | None -> parse_value false
              in
              skip_ws ();
              match next () with
              | ',' -> fields ((k, v) :: acc)
              | '}' -> Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
      | '[' ->
          Stdlib.incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = ']' then (Stdlib.incr pos; Arr [])
          else
            let rec els acc =
              let v = parse_value false in
              skip_ws ();
              match next () with
              | ',' -> els (v :: acc)
              | ']' -> Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            els []
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
  in
  let v = parse_value (Option.is_some defer) in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  (v, !deferred)

let json_of_string s = fst (json_read s 0 (String.length s))

let json_of_substring ?defer s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Metrics.json_of_substring";
  json_read ?defer s pos (pos + len)

(* [json_of_string]'s grammar without building anything: each function
   returns the index past its value, or -1 where the reader raises. *)
let rec value_end s n i =
  let i = skip_ws s n i in
  if i >= n then -1
  else
    match String.unsafe_get s i with
    | '"' -> string_end s n (i + 1)
    | '{' ->
        let i = skip_ws s n (i + 1) in
        if i < n && s.[i] = '}' then i + 1 else fields_end s n i
    | '[' ->
        let i = skip_ws s n (i + 1) in
        if i < n && s.[i] = ']' then i + 1 else elems_end s n i
    | 't' -> lit_end s n i "true"
    | 'f' -> lit_end s n i "false"
    | 'n' -> lit_end s n i "null"
    | _ ->
        let e = num_end s n i in
        if (if is_float_lit s e i then float_lit_ok s i e else int_lit_ok s i e)
        then e
        else -1

and fields_end s n i =
  let i = skip_ws s n i in
  if i >= n || s.[i] <> '"' then -1
  else
    let i = string_end s n (i + 1) in
    if i < 0 then -1
    else
      let i = skip_ws s n i in
      if i >= n || s.[i] <> ':' then -1
      else
        let i = value_end s n (i + 1) in
        if i < 0 then -1
        else
          let i = skip_ws s n i in
          if i >= n then -1
          else
            match s.[i] with
            | ',' -> fields_end s n (i + 1)
            | '}' -> i + 1
            | _ -> -1

and elems_end s n i =
  let i = value_end s n i in
  if i < 0 then -1
  else
    let i = skip_ws s n i in
    if i >= n then -1
    else
      match s.[i] with
      | ',' -> elems_end s n (i + 1)
      | ']' -> i + 1
      | _ -> -1

let json_valid s =
  let n = String.length s in
  let i = value_end s n 0 in
  i >= 0 && skip_ws s n i = n

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

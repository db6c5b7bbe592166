(* The observability layer: counter invariants on a real analysis run,
   timer nesting/reentrancy/exception safety, the serialized schema
   (JSON round-trip, CSV shape), and the JSON codec against a
   per-character reference printer and reader. *)

module M = Prax_metrics.Metrics

let small_program =
  "app([], L, L).\n\
   app([H|T], L, [H|R]) :- app(T, L, R).\n\
   rev([], []).\n\
   rev([H|T], R) :- rev(T, RT), app(RT, [H], R)."

(* --- counter invariants -------------------------------------------------- *)

let test_engine_invariants () =
  M.reset ();
  let rep = Prax_ground.Analyze.analyze small_program in
  let c = M.counter_value in
  let lookups = c "engine.call_lookups" in
  Alcotest.(check bool) "analysis exercises the engine" true (lookups > 0);
  Alcotest.(check int) "lookups = hits + misses" lookups
    (c "engine.call_hits" + c "engine.call_misses");
  Alcotest.(check int) "offered = inserted + deduped"
    (c "engine.answers_offered")
    (c "engine.answers_inserted" + c "engine.answers_deduped");
  (* a miss is exactly a new call-table entry; one engine ran, so the
     global counter must equal its per-engine figure *)
  Alcotest.(check int) "misses = table entries"
    rep.Prax_ground.Analyze.engine_stats.Prax_tabling.Engine.table_entries
    (c "engine.call_misses");
  Alcotest.(check int) "resumptions agree with the per-engine stats"
    rep.Prax_ground.Analyze.engine_stats.Prax_tabling.Engine.resumptions
    (c "engine.consumer_resumptions");
  Alcotest.(check bool) "unification was counted" true (c "unify.attempts" > 0)

let test_phase_timers () =
  M.reset ();
  ignore (Prax_ground.Analyze.analyze small_program);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " advanced") true (M.timer_seconds name > 0.))
    [ "ground.preprocess"; "ground.evaluate"; "ground.collect" ]

(* --- timers -------------------------------------------------------------- *)

let spin () =
  (* enough work for a monotonic-clock delta on any platform *)
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  !x

let timing_of name =
  let snap = M.snapshot () in
  List.find (fun t -> String.equal t.M.timer_name name) snap.M.timers

let test_timer_nesting () =
  let outer = M.timer "test.outer" in
  let inner = M.timer "test.inner" in
  M.reset ();
  let r =
    M.time outer (fun () ->
        ignore (spin ());
        M.time inner spin)
  in
  Alcotest.(check bool) "time returns the body's result" true (r > 0);
  Alcotest.(check bool) "inner <= outer" true
    (M.seconds inner <= M.seconds outer);
  Alcotest.(check bool) "both advanced" true (M.seconds inner > 0.);
  let t = timing_of "test.inner" in
  Alcotest.(check (option string)) "dynamic parent attribution"
    (Some "test.outer") t.M.parent;
  Alcotest.(check int) "one activation" 1 t.M.activations

let test_timer_reentrancy () =
  let t = M.timer "test.reentrant" in
  M.reset ();
  let rec go n = M.time t (fun () -> if n > 0 then go (n - 1) else spin ()) in
  ignore (go 3);
  let tg = timing_of "test.reentrant" in
  Alcotest.(check int) "nested self-activations count once" 1 tg.M.activations;
  Alcotest.(check bool) "clock charged once, not per level" true
    (tg.M.timer_seconds > 0.)

let test_timer_exception_safety () =
  let t = M.timer "test.raising" in
  M.reset ();
  (try M.time t (fun () -> ignore (spin ()); raise Exit) with Exit -> ());
  let tg = timing_of "test.raising" in
  Alcotest.(check int) "activation recorded despite the raise" 1
    tg.M.activations;
  Alcotest.(check bool) "elapsed time recorded despite the raise" true
    (tg.M.timer_seconds > 0.);
  (* the timer must be reusable afterwards: depth guard back to zero *)
  ignore (M.time t spin);
  Alcotest.(check int) "timer usable after the raise" 2
    (timing_of "test.raising").M.activations

(* --- serialization ------------------------------------------------------- *)

let test_json_roundtrip () =
  M.reset ();
  let c = M.counter ~units:"events" "test.json_counter" in
  M.add c 7;
  let g = M.gauge ~units:"bytes" "test.json_gauge" in
  M.set g 4096;
  ignore (M.time (M.timer "test.json_timer") spin);
  let doc =
    M.stats_doc ~tool:"test" ~analysis:"roundtrip" ~input:"-"
      ~phases:[ ("preprocess", 0.25); ("evaluate", 0.5) ]
      ~extra:[ ("note", M.Str "a \"quoted\"\nvalue") ]
      (M.snapshot ())
  in
  let reparsed = M.json_of_string (M.json_to_string doc) in
  Alcotest.(check bool) "document round-trips structurally" true
    (reparsed = doc);
  Alcotest.(check bool) "schema version present" true
    (M.member "schema_version" reparsed = Some (M.Int M.schema_version));
  Alcotest.(check bool) "schema name present" true
    (M.member "schema" reparsed = Some (M.Str M.schema_name));
  (* total_seconds is the exact sum of the phases *)
  Alcotest.(check bool) "total_seconds = sum of phases" true
    (M.member "total_seconds" reparsed = Some (M.Float 0.75))

let test_json_values () =
  List.iter
    (fun j ->
      Alcotest.(check bool) "value round-trips" true
        (M.json_of_string (M.json_to_string j) = j))
    [
      M.Null;
      M.Bool true;
      M.Int (-42);
      M.Float 0.1;
      M.Float 1.0;
      M.Float (-3.25e-7);
      M.Str "plain";
      M.Str "esc \\ \" \n \t \001";
      M.Arr [ M.Int 1; M.Str "two"; M.Arr []; M.Obj [] ];
      M.Obj [ ("a", M.Null); ("b", M.Arr [ M.Bool false ]) ];
    ];
  Alcotest.check_raises "trailing garbage rejected"
    (M.Json_error "trailing input at offset 2") (fun () ->
      ignore (M.json_of_string "1 x"))

(* --- the codec against the per-character reference ----------------------- *)

(* The printer and reader as they were before runs were copied whole:
   one [Buffer.add_char] per byte.  The one departure: a [\u] escape
   that names a UTF-16 surrogate raised [Invalid_argument] from
   [Uchar.of_int]; here, as in the codec, it is a [Json_error]. *)
module Ref = struct
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

  let float_repr f =
    if not (Float.is_finite f) then "0"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

  let to_string (j : M.json) : string =
    let b = Buffer.create 1024 in
    let rec go = function
      | M.Null -> Buffer.add_string b "null"
      | M.Bool true -> Buffer.add_string b "true"
      | M.Bool false -> Buffer.add_string b "false"
      | M.Int i -> Buffer.add_string b (string_of_int i)
      | M.Float f -> Buffer.add_string b (float_repr f)
      | M.Str s -> escape_string b s
      | M.Arr els ->
          Buffer.add_char b '[';
          List.iteri
            (fun i e ->
              if i > 0 then Buffer.add_char b ',';
              go e)
            els;
          Buffer.add_char b ']'
      | M.Obj fields ->
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

  let of_string (s : string) : M.json =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (M.Json_error (Printf.sprintf "%s at offset %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let next () =
      if !pos >= n then fail "unexpected end of input"
      else begin
        let c = s.[!pos] in
        incr pos;
        c
      end
    in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
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
                if code >= 0xD800 && code <= 0xDFFF then fail "bad \\u escape";
                Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
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
        incr pos
      done;
      let lit = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
        match float_of_string_opt lit with
        | Some f -> M.Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt lit with
        | Some i -> M.Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> M.Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then (
            incr pos;
            M.Obj [])
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
              | '}' -> M.Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then (
            incr pos;
            M.Arr [])
          else
            let rec els acc =
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> els (v :: acc)
              | ']' -> M.Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            els []
      | Some 't' -> literal "true" (M.Bool true)
      | Some 'f' -> literal "false" (M.Bool false)
      | Some 'n' -> literal "null" M.Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
end

(* A read's outcome: the value (with its printed form, so -0.0 and 0.0
   differ), the [Json_error] message, or any other exception. *)
let outcome read s =
  match read s with
  | v -> Ok (v, Ref.to_string v)
  | exception M.Json_error msg -> Error msg
  | exception e -> Error ("raised " ^ Printexc.to_string e)

(* The codec and the reference agree on [s]: same value or same error,
   and [json_valid] holds exactly when the reader accepts. *)
let agrees s =
  let o = outcome M.json_of_string s in
  o = outcome Ref.of_string s && M.json_valid s = Result.is_ok o

(* strings full of what the printer escapes and the reader decodes *)
let gen_string =
  let open QCheck2.Gen in
  map (String.concat "")
    (list_size (int_range 0 12)
       (frequency
          [
            (4, oneofl [ "a"; "plain"; " "; "0"; "{"; "]"; ":"; "," ]);
            (2, oneofl [ "\""; "\\"; "/"; "\\u"; "\\n" ]);
            (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
            ( 2,
              oneofl [ "\xc3\xa9"; "\xe2\x98\x83"; "\xf0\x9d\x84\x9e"; "\x7f" ]
            );
            (1, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 255));
          ]))

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ 0.; -0.; 1.; -1.5; 0.1; 1e15; -1e15; 1e-7; 1e300; 5e-324;
            Float.nan; Float.infinity; Float.neg_infinity; 123456789.125 ];
        float;
      ])

let gen_json =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return M.Null;
               map (fun b -> M.Bool b) bool;
               map (fun i -> M.Int i)
                 (oneof
                    [ int; small_signed_int; oneofl [ max_int; min_int; 0 ] ]);
               map (fun f -> M.Float f) gen_float;
               map (fun s -> M.Str s) gen_string;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun l -> M.Arr l)
                   (list_size (int_range 0 4) (self (n / 3))) );
               ( 1,
                 map (fun l -> M.Obj l)
                   (list_size (int_range 0 4)
                      (pair gen_string (self (n / 3)))) );
             ])

(* number literals at the edges of what [int_of_string] and
   [float_of_string] accept *)
let odd_numbers =
  [ "-0"; "+5"; "007"; ".5"; "5."; "1.e3"; "1E+2"; "1e-400"; "1e400";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "00000000000000000000004611686018427387903";
    "4611686018427387902"; "4611686018427387913"; "-4611686018427387894";
    "4611686018427387999"; "-4611686018427387903";
    "99999999999999999999"; "1e"; "1e+"; ".e1"; "--1"; "1-2"; "."; "+"; "-";
    "1.5.2"; "0x10"; "+-1"; "-.5e-3"; "1__0" ]

(* [v] printed as an arbitrary writer might: whitespace between tokens,
   [\u] escapes (upper or lower case, '_' digits, surrogates) and [\/]
   in strings, odd number literals *)
let noisy_print rs (v : M.json) =
  let b = Buffer.create 256 in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let ws () = Buffer.add_string b (pick [ ""; ""; ""; " "; "\n"; "\t \r\n" ]) in
  let hex c =
    let h = Printf.sprintf "%04x" c in
    "\\u" ^ if Random.State.bool rs then String.uppercase_ascii h else h
  in
  (* [c] as the reference printer escapes it, or not *)
  let plain c =
    let q = Ref.to_string (M.Str (String.make 1 c)) in
    String.sub q 1 (String.length q - 2)
  in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match Random.State.int rs 8 with
        | 0 -> Buffer.add_string b (hex (Char.code c))
        | 1 ->
            Buffer.add_string b
              (pick [ "\\/"; "\\b"; "\\f"; "\\u0_4a"; "\\ud83d"; "\\u00e9" ]);
            Buffer.add_string b (plain c)
        | _ -> Buffer.add_string b (plain c))
      s;
    Buffer.add_char b '"'
  in
  let rec go v =
    ws ();
    (match v with
    | M.Str s -> str s
    | M.Int _ when Random.State.int rs 4 = 0 ->
        Buffer.add_string b (pick odd_numbers)
    | M.Int i -> Buffer.add_string b (pick [ ""; ""; "+" ] ^ string_of_int i)
    | M.Float f when Random.State.int rs 3 = 0 ->
        Buffer.add_string b
          (pick
             [
               Printf.sprintf "%.3e" f;
               Printf.sprintf "%g" f;
               Printf.sprintf "%.1f" f;
             ])
    | M.Arr els ->
        Buffer.add_char b '[';
        List.iteri
          (fun i e ->
            if i > 0 then (ws (); Buffer.add_char b ',');
            go e)
          els;
        ws ();
        Buffer.add_char b ']'
    | M.Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, e) ->
            if i > 0 then (ws (); Buffer.add_char b ',');
            ws ();
            str k;
            ws ();
            Buffer.add_char b ':';
            go e)
          fields;
        ws ();
        Buffer.add_char b '}'
    | v -> Buffer.add_string b (Ref.to_string v));
    ws ()
  in
  go v;
  Buffer.contents b

(* [s] cut at [k], with byte [k] replaced, with a byte inserted, and
   with byte [k] or the bytes [k..j-1] deleted *)
let mutations rs s =
  let n = String.length s in
  if n = 0 then [ " "; "\x00" ]
  else
    let k = Random.State.int rs n in
    let j = k + Random.State.int rs (n - k + 1) in
    let byte () = Char.chr (Random.State.int rs 256) in
    [
      String.sub s 0 k;
      String.mapi (fun i c -> if i = k then byte () else c) s;
      String.sub s 0 k ^ String.make 1 (byte ()) ^ String.sub s k (n - k);
      String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1);
      String.sub s 0 k ^ String.sub s j (n - j);
    ]

let prop name count gen f =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
    (QCheck2.Test.make ~name ~count gen f)

let prop_print_identical =
  prop "printer = reference" 3000 gen_json (fun v ->
      M.json_to_string v = Ref.to_string v)

let prop_read_agrees =
  prop "reader and validator = reference" 3000
    QCheck2.Gen.(pair gen_json int)
    (fun (v, seed) ->
      let rs = Random.State.make [| seed |] in
      let text = noisy_print rs v in
      List.for_all agrees
        ((Ref.to_string v :: text :: mutations rs text)
        @ mutations rs (Ref.to_string v)))

(* [json_of_substring] with a deferred "source" member, reading [m]
   where it lies inside padding, agrees with the reference on [m]: both
   reject it, or the reader gives the reference's value with the first
   top-level "source" member read as [Null] when it is a string, and
   that string's bytes decoded into the caller's buffer. *)
let deferred_agrees m =
  let room_buf = ref Bytes.empty in
  let room k =
    if Bytes.length !room_buf < k then room_buf := Bytes.create k;
    !room_buf
  in
  let padded = "[\"" ^ m ^ "\"]" in
  let mine =
    match M.json_of_substring ~defer:("source", room) padded ~pos:2
            ~len:(String.length m)
    with
    | r -> Some r
    | exception M.Json_error _ -> None
  in
  let reference = try Some (Ref.of_string m) with M.Json_error _ -> None in
  match (mine, reference) with
  | None, None -> true
  | Some (j, k), Some r -> (
      let first_source =
        match r with
        | M.Obj fields -> List.assoc_opt "source" fields
        | _ -> None
      in
      match (r, first_source) with
      | M.Obj fields, Some (M.Str src) ->
          let rec blank = function
            | ("source", _) :: rest -> ("source", M.Null) :: rest
            | f :: rest -> f :: blank rest
            | [] -> []
          in
          k = String.length src
          && Bytes.sub_string !room_buf 0 k = src
          && Ref.to_string j = Ref.to_string (M.Obj (blank fields))
      | _ -> k = -1 && Ref.to_string j = Ref.to_string r)
  | _ -> false

let prop_deferred_read =
  prop "deferred source read in place = reference" 2000
    QCheck2.Gen.(triple gen_json gen_string int)
    (fun (v, src, seed) ->
      let rs = Random.State.make [| seed |] in
      let doc = M.Obj [ ("a", v); ("source", M.Str src); ("b", v) ] in
      let text = noisy_print rs doc in
      List.for_all deferred_agrees
        ((Ref.to_string doc :: text :: mutations rs text)
        @ [ noisy_print rs v; noisy_print rs (M.Obj [ ("source", v) ]) ]))

(* Every light-corpus report and analyze request line: printed and read
   as the reference does, valid, and in agreement with it when cut short
   or mutated at 64 places each (fixed seed). *)
let test_corpus_lines () =
  let rs = Random.State.make [| 29 |] in
  List.iter
    (fun (analysis, input, source) ->
      let a = Option.get (Prax_analysis.Analysis.find analysis) in
      let report =
        Prax_analysis.Analysis.report_to_json ~input
          (Prax_analysis.Analysis.run a source)
      in
      let request =
        Prax_daemon.Wire.request_to_string
          {
            Prax_daemon.Wire.id = M.Int 3;
            client = Some "oracle";
            op =
              Prax_daemon.Wire.Analyze
                { analysis; input; source; config = [ ("mode", "compiled") ] };
          }
      in
      let line = M.json_to_string report in
      Alcotest.(check string)
        (input ^ ": report bytes")
        (Ref.to_string report) line;
      List.iter
        (fun (what, s) ->
          let name = input ^ ": " ^ what in
          Alcotest.(check bool) (name ^ " valid") true (M.json_valid s);
          Alcotest.(check bool) (name ^ " reads as the reference") true
            (agrees s);
          for _ = 1 to 64 do
            List.iter
              (fun m ->
                if not (agrees m) then
                  Alcotest.failf "%s: %s mutant disagrees: %S" input what m)
              (mutations rs s)
          done)
        [ ("report", line); ("request", request) ])
    Prax_benchdata.Registry.light_corpus

let test_csv () =
  M.reset ();
  let c = M.counter "test.csv_counter" in
  M.incr c;
  M.incr c;
  let csv = M.snapshot_to_csv (M.snapshot ()) in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header row" "kind,name,value,unit" (List.hd lines);
  Alcotest.(check bool) "counter row present" true
    (List.mem "counter,test.csv_counter,2,events" lines);
  (* every data row has exactly the four header fields *)
  List.iter
    (fun l ->
      if l <> "" then
        Alcotest.(check int)
          ("four fields: " ^ l)
          4
          (List.length (String.split_on_char ',' l)))
    lines

let () =
  Prax_analyses.Analyses.ensure ();
  Alcotest.run "metrics"
    [
      ( "counters",
        [
          Alcotest.test_case "engine invariants" `Quick test_engine_invariants;
          Alcotest.test_case "phase timers advance" `Quick test_phase_timers;
        ] );
      ( "timers",
        [
          Alcotest.test_case "nesting" `Quick test_timer_nesting;
          Alcotest.test_case "reentrancy" `Quick test_timer_reentrancy;
          Alcotest.test_case "exception safety" `Quick
            test_timer_exception_safety;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "stats_doc round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json values" `Quick test_json_values;
          Alcotest.test_case "csv shape" `Quick test_csv;
        ] );
      ( "codec",
        [
          prop_print_identical;
          prop_read_agrees;
          prop_deferred_read;
          Alcotest.test_case "corpus lines = reference" `Quick
            test_corpus_lines;
        ] );
    ]

(* The resident analysis daemon (docs/ROBUSTNESS.md "serving under
   load").  In-process: token-bucket refill timing and the prax.wire
   grammar.  End-to-end against a live praxd: analyze round trips, the
   warm cache, queue-full and rate-limit shedding, malformed/oversized
   frame rejection, drain with in-flight jobs, stale-socket recovery
   after SIGKILL, and refusal to double-serve a live socket. *)

module Metrics = Prax_metrics.Metrics
module Wire = Prax_daemon.Wire
module Bytebuf = Prax_daemon.Bytebuf
module Admission = Prax_daemon.Admission
module Pressure = Prax_daemon.Pressure
module Lru = Prax_daemon.Lru
module Client = Prax_daemon.Client
module Inject = Prax_guard.Inject
module Analysis = Prax_analysis.Analysis
module Store = Prax_store.Store
module Registry = Prax_benchdata.Registry

let bin name =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    name

let praxd = bin "praxd.exe"
let xanalyze = bin "xanalyze.exe"

(* --- admission: token buckets (deterministic, clock injected) ----------- *)

let test_token_bucket_refill () =
  let a = Admission.create ~rate:2.0 ~burst:2.0 in
  (* a fresh client starts with a full burst *)
  Alcotest.(check bool) "burst 1" true (Admission.admit a ~client:"c" ~now:0.);
  Alcotest.(check bool) "burst 2" true (Admission.admit a ~client:"c" ~now:0.);
  Alcotest.(check bool) "empty" false (Admission.admit a ~client:"c" ~now:0.);
  (* refill at 2 tokens/s: 0.4s -> 0.8 tokens, still short *)
  Alcotest.(check bool) "0.4s: not yet" false
    (Admission.admit a ~client:"c" ~now:0.4);
  (* 0.55s from empty: >= 1 token (0.4s refill left the 0.8 in place) *)
  Alcotest.(check bool) "0.55s: one token back" true
    (Admission.admit a ~client:"c" ~now:0.55);
  Alcotest.(check bool) "and spent again" false
    (Admission.admit a ~client:"c" ~now:0.55);
  (* a long idle caps at burst, not unbounded accumulation *)
  Alcotest.(check bool) "cap 1" true (Admission.admit a ~client:"c" ~now:60.);
  Alcotest.(check bool) "cap 2" true (Admission.admit a ~client:"c" ~now:60.);
  Alcotest.(check bool) "capped at burst" false
    (Admission.admit a ~client:"c" ~now:60.);
  (* time running backwards refills nothing and does not raise *)
  Alcotest.(check bool) "clock skew safe" false
    (Admission.admit a ~client:"c" ~now:59.);
  (* clients are independent *)
  Alcotest.(check bool) "other client unaffected" true
    (Admission.admit a ~client:"d" ~now:60.);
  Alcotest.(check int) "two clients tracked" 2 (Admission.clients a)

let test_token_bucket_disabled () =
  let a = Admission.create ~rate:0. ~burst:1.0 in
  for i = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "rate 0 admits (%d)" i)
      true
      (Admission.admit a ~client:"c" ~now:0.)
  done

(* --- pressure tiers (pure arithmetic, no daemon) -------------------------- *)

let test_pressure_tiers () =
  let decide pending inflight =
    Pressure.decide ~max_queue:4 ~jobs:4 ~pending ~inflight
  in
  let tier_of pending inflight =
    match decide pending inflight with
    | Pressure.Admit t -> t.Pressure.level
    | Pressure.Shed _ -> Alcotest.failf "unexpected shed at %d+%d" pending inflight
  in
  (* capacity 8: occupancy < 1/2 is full budget *)
  Alcotest.(check int) "idle is tier 0" 0 (tier_of 0 0);
  Alcotest.(check int) "3/8 is tier 0" 0 (tier_of 1 2);
  (* the 1/2 boundary enters the reduced tier *)
  Alcotest.(check int) "4/8 is tier 1" 1 (tier_of 2 2);
  Alcotest.(check int) "5/8 is tier 1" 1 (tier_of 1 4);
  (* the 3/4 boundary enters the minimal tier *)
  Alcotest.(check int) "6/8 is tier 2" 2 (tier_of 2 4);
  Alcotest.(check int) "7/8 is tier 2" 2 (tier_of 3 4);
  (* the shed point is unchanged: pending at max_queue sheds, inflight
     alone never does *)
  (match decide 4 0 with
  | Pressure.Shed { retry_after_ms } ->
      Alcotest.(check bool) "shed hint in range" true
        (retry_after_ms >= 50 && retry_after_ms <= 5000)
  | Pressure.Admit _ -> Alcotest.fail "full queue must shed");
  Alcotest.(check int) "full slots alone admit (minimal)" 2 (tier_of 3 4);
  (* tier scales are the documented ladder *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "ladder scales"
    [ (0, 1.0); (1, 0.5); (2, 0.25) ]
    (List.map (fun t -> (t.Pressure.level, t.Pressure.scale)) Pressure.tiers);
  (* the retry hint scales with backlog per worker slot and clamps *)
  Alcotest.(check int) "hint floors at 50ms" 50
    (Pressure.retry_after_ms ~jobs:8 ~pending:0 ~inflight:0);
  Alcotest.(check int) "300ms for 5 backlogged over 2 slots" 300
    (Pressure.retry_after_ms ~jobs:2 ~pending:3 ~inflight:2);
  Alcotest.(check int) "hint caps at 5s" 5000
    (Pressure.retry_after_ms ~jobs:1 ~pending:1000 ~inflight:1)

(* --- the client's deterministic backoff ----------------------------------- *)

let test_backoff_deterministic () =
  let d1 =
    Client.backoff_delay ~key:"k" ~attempt:2 ~base:0.2 ~cap:10.
      ~retry_after_ms:None
  in
  let d2 =
    Client.backoff_delay ~key:"k" ~attempt:2 ~base:0.2 ~cap:10.
      ~retry_after_ms:None
  in
  Alcotest.(check (float 0.)) "same key+attempt is reproducible" d1 d2;
  (* capped exponential: attempt n is within [0.75, 1.25] x base*2^(n-1),
     and never exceeds the cap *)
  for attempt = 1 to 10 do
    let d =
      Client.backoff_delay ~key:"k" ~attempt ~base:0.1 ~cap:2.
        ~retry_after_ms:None
    in
    let expo = Float.min 2. (0.1 *. (2. ** float_of_int (attempt - 1))) in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in jitter band" attempt)
      true
      (d >= (0.75 *. expo) -. 1e-9 && d <= 2.0 +. 1e-9);
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d capped" attempt)
      true (d <= 2.0 +. 1e-9)
  done;
  (* the server's retry_after_ms hint floors the delay *)
  let floored =
    Client.backoff_delay ~key:"k" ~attempt:1 ~base:0.1 ~cap:10.
      ~retry_after_ms:(Some 3000)
  in
  Alcotest.(check bool) "hint floors the delay" true (floored >= 3.0);
  (* no thundering herd: distinct clients spread across the jitter band
     instead of colliding on one instant *)
  let delays =
    List.init 32 (fun i ->
        Client.backoff_delay
          ~key:(Printf.sprintf "client-%d" i)
          ~attempt:1 ~base:1.0 ~cap:10. ~retry_after_ms:None)
  in
  let distinct = List.sort_uniq compare delays in
  Alcotest.(check bool) "32 clients spread over > 16 instants" true
    (List.length distinct > 16);
  List.iter
    (fun d ->
      Alcotest.(check bool) "every delay inside the band" true
        (d >= 0.75 && d <= 1.25))
    delays

(* --- the LRU bound on the resident cache ---------------------------------- *)

let test_lru_bounds () =
  let evictions = ref [] in
  let t =
    Lru.create
      ~on_evict:(fun ~key -> evictions := key :: !evictions)
      ~max_entries:3 ~max_bytes:1000 ()
  in
  Lru.put t "a" "1";
  Lru.put t "b" "2";
  Lru.put t "c" "3";
  Alcotest.(check int) "three live" 3 (Lru.length t);
  (* touching "a" makes "b" the LRU victim of the next insert *)
  Alcotest.(check (option string)) "find a" (Some "1") (Lru.find t "a");
  Lru.put t "d" "4";
  Alcotest.(check int) "entry cap holds" 3 (Lru.length t);
  Alcotest.(check (list string)) "lru victim was b" [ "b" ] !evictions;
  Alcotest.(check (option string)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option string)) "a survived (recency)" (Some "1")
    (Lru.find t "a");
  (* byte cap: a large value evicts until bytes fit *)
  evictions := [];
  let big = Lru.create ~max_entries:100 ~max_bytes:20 () in
  Lru.put big "k1" "0123456789";  (* 12 bytes *)
  Lru.put big "k2" "0123";  (* 6 bytes; total 18 *)
  Lru.put big "k3" "0123456789";  (* would be 30: evicts k1 then fits 18 *)
  Alcotest.(check int) "byte cap holds" 2 (Lru.length big);
  Alcotest.(check bool) "bytes within cap" true (Lru.bytes big <= 20);
  Alcotest.(check (option string)) "oldest evicted" None (Lru.find big "k1");
  (* a value larger than the whole cache is refused outright *)
  Lru.put big "k4" (String.make 50 'x');
  Alcotest.(check (option string)) "oversized refused" None (Lru.find big "k4");
  Alcotest.(check bool) "cache not flushed for it" true (Lru.length big >= 1);
  (* replace refreshes bytes accounting *)
  let r = Lru.create ~max_entries:10 ~max_bytes:100 () in
  Lru.put r "k" "aaaa";
  Lru.put r "k" "bb";
  Alcotest.(check int) "replace keeps one entry" 1 (Lru.length r);
  Alcotest.(check int) "replace recounts bytes" 3 (Lru.bytes r);
  Lru.remove r "k";
  Alcotest.(check int) "remove empties" 0 (Lru.length r);
  Alcotest.(check int) "remove zeroes bytes" 0 (Lru.bytes r)

(* --- the chaos-plan grammar ----------------------------------------------- *)

let test_chaos_plan_grammar () =
  (* the env grammar: kind@N, short and long fault names *)
  (match Inject.daemon_plan_of_string "crash@1, conn-reset@3,drain@5" with
  | Ok plan ->
      Alcotest.(check int) "three directives" 3 (List.length plan);
      Alcotest.(check (list string)) "fault at 1"
        [ "worker-crash" ]
        (List.map Inject.daemon_fault_name (Inject.daemon_faults_at plan 1));
      Alcotest.(check (list string)) "fault at 3"
        [ "conn-reset" ]
        (List.map Inject.daemon_fault_name (Inject.daemon_faults_at plan 3));
      Alcotest.(check (list string)) "nothing at 2" []
        (List.map Inject.daemon_fault_name (Inject.daemon_faults_at plan 2))
  | Error e -> Alcotest.failf "good plan rejected: %s" e);
  (* a bad plan fails loudly, never silently runs a different drill *)
  let reject what s =
    match Inject.daemon_plan_of_string s with
    | Ok _ -> Alcotest.failf "%s: accepted %S" what s
    | Error _ -> ()
  in
  reject "unknown fault" "meteor@1";
  reject "missing ordinal" "crash";
  reject "zero ordinal" "crash@0";
  reject "non-numeric ordinal" "crash@soon";
  reject "not a plan" "]junk[";
  reject "zero ordinal, long name" "drain@0";
  (* several faults may share an ordinal (praxd serve --chaos takes the
     same grammar) *)
  match Inject.daemon_plan_of_string "store-enospc@2,worker-hang@2" with
  | Ok plan ->
      Alcotest.(check (list string)) "two faults share ordinal 2"
        [ "store-enospc"; "worker-hang" ]
        (List.map Inject.daemon_fault_name (Inject.daemon_faults_at plan 2))
  | Error e -> Alcotest.failf "good plan rejected: %s" e

(* --- the wire grammar ---------------------------------------------------- *)

let test_wire_grammar () =
  let reject line what =
    match Wire.parse_request line with
    | Ok _ -> Alcotest.failf "%s: accepted %S" what line
    | Error _ -> ()
  in
  reject "not JSON" "]junk[";
  reject "wrong schema" {|{"wire":"other.wire","version":1,"op":"ping"}|};
  reject "future version" {|{"wire":"prax.wire","version":99,"op":"ping"}|};
  reject "unknown op" {|{"wire":"prax.wire","version":1,"op":"reboot"}|};
  reject "missing op" {|{"wire":"prax.wire","version":1}|};
  reject "analyze missing source"
    {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","input":"f"}|};
  reject "non-string config value"
    {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","input":"f","source":"s","config":{"k":2}}|};
  (* a well-formed analyze round-trips through the serializer *)
  let req =
    {
      Wire.id = Metrics.Int 7;
      client = Some "t";
      op =
        Wire.Analyze
          {
            analysis = "groundness";
            input = "x.pl";
            source = "p(a).";
            config = [ ("mode", "dynamic") ];
          };
    }
  in
  (match Wire.parse_request (Wire.request_to_string req) with
  | Error e -> Alcotest.failf "round trip: %s" e
  | Ok r -> (
      Alcotest.(check bool) "id survives" true (r.Wire.id = Metrics.Int 7);
      match r.Wire.op with
      | Wire.Analyze { analysis; config; _ } ->
          Alcotest.(check string) "analysis survives" "groundness" analysis;
          Alcotest.(check (list (pair string string)))
            "config survives"
            [ ("mode", "dynamic") ]
            config
      | _ -> Alcotest.fail "op changed"));
  (* response documents validate and carry their status *)
  let line = Wire.response ~id:(Metrics.Int 7) ~status:"overloaded" [] in
  match Wire.response_status (Metrics.json_of_string line) with
  | Ok s -> Alcotest.(check string) "status extracted" "overloaded" s
  | Error e -> Alcotest.failf "response rejected: %s" e

(* One reused parser reads each light-corpus request where it lies in a
   buffer, between other bytes: the fields are those the string parser
   gives, the source decodes to the text and digests to its store key,
   and a source view from an earlier request refuses to be read.  Bad
   lines are rejected with the string parser's reasons. *)
let test_wire_parse_in_place () =
  let p = Wire.create_parser () in
  let in_place line =
    let b = Bytes.of_string ("junk\n" ^ line ^ "\nmore") in
    Wire.parse_bytes p b ~pos:5 ~len:(String.length line)
  in
  let previous = ref None in
  List.iteri
    (fun i (analysis, input, source) ->
      let line =
        Wire.request_to_string
          {
            Wire.id = Metrics.Int i;
            client = Some "in-place";
            op =
              Wire.Analyze
                { analysis; input; source; config = [ ("mode", "compiled") ] };
          }
      in
      match in_place line with
      | Error e -> Alcotest.failf "%s: %s" input e
      | Ok { Wire.id; client; op = Wire.Analyze a } ->
          Alcotest.(check bool) (input ^ ": id") true (id = Metrics.Int i);
          Alcotest.(check (option string)) (input ^ ": client")
            (Some "in-place") client;
          Alcotest.(check string) (input ^ ": analysis") analysis a.analysis;
          Alcotest.(check string) (input ^ ": input") input a.input;
          Alcotest.(check (list (pair string string)))
            (input ^ ": config") [ ("mode", "compiled") ] a.config;
          Alcotest.(check string) (input ^ ": source text") source
            (Wire.source_text a.source);
          Alcotest.(check string) (input ^ ": source digest")
            (Store.digest_source source) (Wire.source_digest a.source);
          (match !previous with
          | Some old -> (
              match Wire.source_text old with
              | _ -> Alcotest.failf "%s: a stale source view was read" input
              | exception Invalid_argument _ -> ())
          | None -> ());
          previous := Some a.source
      | Ok _ -> Alcotest.failf "%s: not an analyze request" input)
    Registry.light_corpus;
  List.iter
    (fun line ->
      let reason = function Ok _ -> "accepted" | Error e -> e in
      Alcotest.(check string) line
        (reason (Wire.parse_request line))
        (reason (in_place line)))
    [
      "]junk[";
      {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","input":"f"}|};
      {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","input":"f","source":3}|};
      {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","input":"f","source":"s","config":{"k":2}}|};
      {|{"wire":"prax.wire","version":1,"op":"analyze","analysis":"g","source":"s\q"}|};
      {|{"wire":"prax.wire","version":1,"op":"ping","source":"s"} x|};
    ]

(* The request decoder never raises, whatever the bytes: every prefix of
   a corpus analyze line, byte flips and stray control bytes under a
   fixed seed, and 10,000-deep nesting each come back [Ok] or [Error],
   all within 2 s. *)
let test_wire_decoder_fuzz () =
  let t0 = Unix.gettimeofday () in
  let decode what line =
    match Wire.parse_request line with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "%s: parse_request raised %s on %S" what
          (Printexc.to_string e)
          (if String.length line > 80 then String.sub line 0 80 ^ "..."
           else line)
  in
  let _, input, source =
    List.find (fun (_, input, _) -> input = "read") Registry.light_corpus
  in
  let line =
    Wire.request_to_string
      {
        Wire.id = Metrics.Int 1;
        client = Some "fuzz";
        op =
          Wire.Analyze
            {
              analysis = "groundness";
              input;
              source;
              config = [ ("mode", "compiled") ];
            };
      }
  in
  (match Wire.parse_request line with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the corpus line is rejected: %s" e);
  for k = 0 to String.length line - 1 do
    decode "truncation" (String.sub line 0 k)
  done;
  let rng = Random.State.make [| 29 |] in
  let n = String.length line in
  let stray = {|\"{}[],:0u|} in
  for _ = 1 to 2000 do
    let b = Bytes.of_string line in
    for _ = 1 to 1 + Random.State.int rng 3 do
      let i = Random.State.int rng n in
      Bytes.set b i
        (match Random.State.int rng 3 with
        | 0 ->
            Char.chr
              (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8))
        | 1 -> Char.chr (Random.State.int rng 0x20)
        | _ -> stray.[Random.State.int rng (String.length stray)])
    done;
    decode "mutation" (Bytes.to_string b)
  done;
  let deep = 10_000 in
  decode "deep arrays" (String.make deep '[' ^ String.make deep ']');
  decode "deep unclosed arrays" (String.make deep '[');
  decode "deep objects"
    (String.concat "" (List.init deep (fun _ -> {|{"a":|})) ^ "1"
    ^ String.make deep '}');
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "finished in %.2f s (< 2 s)" elapsed)
    true (elapsed < 2.)

(* --- e2e plumbing --------------------------------------------------------- *)

let env_with extra =
  Array.append (Unix.environment ())
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) extra))

let fresh_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "praxd-t-%d-%d.sock" (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xfffff))

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0o600

(* spawn praxd serve with [args]; stdout/stderr to /dev/null *)
let spawn_praxd ?(env = []) ~socket args =
  let null = devnull () in
  let pid =
    Unix.create_process_env praxd
      (Array.of_list
         ([ praxd; "serve"; "--socket"; socket; "-q" ] @ args))
      (env_with env) null null null
  in
  Unix.close null;
  pid

let ping ?(timeout = 5.) socket =
  Client.request ~timeout ~socket
    { Wire.id = Metrics.Int 0; client = Some "test"; op = Wire.Ping }

let wait_ready socket =
  let rec loop n =
    if n = 0 then Alcotest.fail "praxd did not become ready"
    else
      match ping socket with
      | Ok ("ok", _) -> ()
      | _ ->
          Unix.sleepf 0.05;
          loop (n - 1)
  in
  loop 200

let reap ?(kill = true) pid =
  if kill then begin
    (* graceful first: SIGTERM lets the daemon drain and SIGKILL its own
       workers.  A bare SIGKILL here would orphan any hung worker, which
       inherits the test runner's stdout and deadlocks the harness
       waiting for pipe EOF. *)
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 8. in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            match Unix.waitpid [] pid with
            | _, st -> st
            | exception Unix.Unix_error _ -> Unix.WEXITED 255
          end
          else begin
            Unix.sleepf 0.02;
            poll ()
          end
      | _, st -> st
      | exception Unix.Unix_error _ -> Unix.WEXITED 255
    in
    poll ()
  end
  else
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error _ -> Unix.WEXITED 255

let with_daemon ?env ?(args = []) f =
  let socket = fresh_socket () in
  let pid = spawn_praxd ?env ~socket args in
  Fun.protect
    ~finally:(fun () ->
      ignore (reap pid);
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      try Unix.unlink (socket ^ ".pid") with Unix.Unix_error _ -> ())
    (fun () ->
      wait_ready socket;
      f ~socket ~pid)

let analyze_req ?(client = "test") ~input ~source () =
  {
    Wire.id = Metrics.Int 1;
    client = Some client;
    op =
      Wire.Analyze
        { analysis = "groundness"; input; source; config = [] };
  }

let request_status ?(timeout = 30.) socket req =
  match Client.request ~timeout ~socket req with
  | Ok (status, doc) -> (status, doc)
  | Error e -> Alcotest.failf "request failed: %s" (Client.error_to_string e)

(* raw-socket side of the protocol, for async sends and bad frames *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let raw_send fd s =
  let n = String.length s in
  let w = ref 0 in
  while !w < n do
    w := !w + Unix.write_substring fd s !w (n - !w)
  done

let raw_recv_line ?(timeout = 10.) fd =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1 in
  let rec loop () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.fail "timed out awaiting response line";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> loop ()
    | _ -> (
        match Unix.read fd chunk 0 1 with
        | 0 -> `Eof
        | _ ->
            if Bytes.get chunk 0 = '\n' then `Line (Buffer.contents buf)
            else begin
              Buffer.add_bytes buf chunk;
              loop ()
            end)
  in
  loop ()

let status_of_line line =
  match Wire.response_status (Metrics.json_of_string line) with
  | Ok s -> s
  | Error e -> Alcotest.failf "bad response %S: %s" line e

(* --- e2e: round trips, warm cache, lifecycle ------------------------------ *)

let test_analyze_and_warm_cache () =
  with_daemon (fun ~socket ~pid ->
      let req = analyze_req ~input:"t.pl" ~source:"p(a). q(X) :- p(X)." () in
      let status, doc = request_status socket req in
      Alcotest.(check string) "cold is complete" "complete" status;
      (match Metrics.member "report" doc with
      | Some _ -> ()
      | None -> Alcotest.fail "no report in response");
      (* the identical request is answered from the resident cache *)
      let status2, _ = request_status socket req in
      Alcotest.(check string) "repeat is cached" "cached" status2;
      (* a config change is a different key: cold again *)
      let status3, _ =
        request_status socket
          {
            (analyze_req ~input:"t.pl" ~source:"p(a). q(X) :- p(X)." ()) with
            Wire.op =
              Wire.Analyze
                {
                  analysis = "groundness";
                  input = "t.pl";
                  source = "p(a). q(X) :- p(X).";
                  config = [ ("mode", "compiled") ];
                };
          }
      in
      Alcotest.(check string) "distinct config misses" "complete" status3;
      (* unknown analysis: a structured error, daemon stays up *)
      let status4, _ =
        request_status socket
          {
            Wire.id = Metrics.Int 9;
            client = Some "test";
            op =
              Wire.Analyze
                { analysis = "no_such"; input = "x"; source = "p(a)."; config = [] };
          }
      in
      Alcotest.(check string) "unknown analysis errors" "error" status4;
      (* the stats verb reports the daemon.* family under schema v6 *)
      let status5, doc5 =
        request_status socket
          { Wire.id = Metrics.Int 2; client = Some "test"; op = Wire.Stats }
      in
      Alcotest.(check string) "stats ok" "ok" status5;
      (match Metrics.member "stats" doc5 with
      | Some stats -> (
          (match Metrics.member "schema_version" stats with
          | Some (Metrics.Int v) ->
              Alcotest.(check int) "stats schema v6" 6 v
          | _ -> Alcotest.fail "stats lacks schema_version");
          match Metrics.member "counters" stats with
          | Some (Metrics.Obj counters) ->
              (match List.assoc_opt "daemon.warm_hits" counters with
              | Some (Metrics.Int n) ->
                  Alcotest.(check bool) "warm hit counted" true (n >= 1)
              | _ -> Alcotest.fail "daemon.warm_hits missing");
              (match List.assoc_opt "daemon.cold_ms" counters with
              | Some (Metrics.Int n) ->
                  (* warm answers never touch cold_ms; two cold runs did *)
                  Alcotest.(check bool) "cold time accumulated" true (n >= 0)
              | _ -> Alcotest.fail "daemon.cold_ms missing")
          | _ -> Alcotest.fail "stats lacks counters")
      | None -> Alcotest.fail "no stats in response");
      (* graceful drain by request: daemon exits 0, socket + pidfile gone *)
      let status6, _ =
        request_status socket
          { Wire.id = Metrics.Int 3; client = Some "test"; op = Wire.Drain }
      in
      Alcotest.(check string) "drain acknowledged" "ok" status6;
      (match reap ~kill:false pid with
      | Unix.WEXITED 0 -> ()
      | st ->
          Alcotest.failf "daemon did not exit 0 after drain (%s)"
            (match st with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
      Alcotest.(check bool) "pidfile removed" false
        (Sys.file_exists (socket ^ ".pid")))

let test_worker_crash_absorbed () =
  (* a first-attempt SIGKILL in the worker is retried to completion:
     the client sees a complete result, never the crash *)
  with_daemon
    ~env:[ ("PRAX_INJECT_WORKER", "crash:*:1") ]
    ~args:[ "--retries"; "2" ]
    (fun ~socket ~pid:_ ->
      let status, doc =
        request_status socket
          (analyze_req ~input:"c.pl" ~source:"p(a). r(X) :- p(X)." ())
      in
      Alcotest.(check string) "retried to complete" "complete" status;
      match Metrics.member "attempts" doc with
      | Some (Metrics.Int n) ->
          Alcotest.(check bool) "took more than one attempt" true (n >= 2)
      | _ -> Alcotest.fail "no attempts field")

(* --- e2e: admission control ----------------------------------------------- *)

let test_queue_full_shed_and_drain_kill () =
  (* one worker slot, queue of one, every worker hangs: the third
     concurrent request must be shed with queue_full, and SIGTERM must
     drain by killing the stragglers — structured crashes, exit 0 *)
  with_daemon
    ~env:[ ("PRAX_INJECT_WORKER", "hang:*") ]
    ~args:[ "--jobs"; "1"; "--max-queue"; "1"; "--retries"; "0";
            "--drain-deadline"; "1s" ]
    (fun ~socket ~pid ->
      let send_analyze i =
        let fd = raw_connect socket in
        raw_send fd
          (Wire.request_to_string
             (analyze_req
                ~input:(Printf.sprintf "h%d.pl" i)
                ~source:(Printf.sprintf "p(a%d)." i)
                ())
          ^ "\n");
        fd
      in
      (* staggered sends: #1 occupies the slot, #2 the queue, #3 is shed *)
      let c1 = send_analyze 1 in
      Unix.sleepf 0.3;
      let c2 = send_analyze 2 in
      Unix.sleepf 0.3;
      let c3 = send_analyze 3 in
      (match raw_recv_line c3 with
      | `Line l ->
          Alcotest.(check string) "third is shed" "overloaded"
            (status_of_line l);
          Alcotest.(check bool) "names queue_full" true
            (let j = Metrics.json_of_string l in
             match Metrics.member "reason" j with
             | Some (Metrics.Str r) -> String.equal r "queue_full"
             | _ -> false)
      | `Eof -> Alcotest.fail "shed connection closed without response");
      (* now drain: the hung worker and its queued sibling are killed at
         the deadline and answered with structured crashes *)
      Unix.kill pid Sys.sigterm;
      (match raw_recv_line ~timeout:15. c1 with
      | `Line l ->
          Alcotest.(check string) "in-flight job crash-reported" "crashed"
            (status_of_line l)
      | `Eof -> Alcotest.fail "in-flight connection closed silently");
      (match raw_recv_line ~timeout:15. c2 with
      | `Line l ->
          Alcotest.(check string) "queued job crash-reported" "crashed"
            (status_of_line l)
      | `Eof -> Alcotest.fail "queued connection closed silently");
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ c1; c2; c3 ];
      (match reap ~kill:false pid with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit 0 after deadline drain");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket))

let test_rate_limit_shed () =
  (* burst 1, slow refill: the second request from the same client is
     shed before any work — even a cache-warm one *)
  with_daemon ~args:[ "--rate"; "0.05"; "--burst"; "1" ]
    (fun ~socket ~pid:_ ->
      let req = analyze_req ~client:"hammer" ~input:"r.pl" ~source:"p(a)." () in
      let status, _ = request_status socket req in
      Alcotest.(check string) "first admitted" "complete" status;
      let status2, doc2 = request_status socket req in
      Alcotest.(check string) "second shed" "overloaded" status2;
      (match Metrics.member "reason" doc2 with
      | Some (Metrics.Str r) ->
          Alcotest.(check string) "rate limited" "rate_limited" r
      | _ -> Alcotest.fail "no reason");
      (* a different client is admitted *)
      let status3, _ =
        request_status socket
          (analyze_req ~client:"other" ~input:"r.pl" ~source:"p(a)." ())
      in
      Alcotest.(check string) "other client cached" "cached" status3)

(* --- e2e: frame hygiene --------------------------------------------------- *)

let test_malformed_and_oversized_frames () =
  with_daemon ~args:[ "--max-request-bytes"; "256" ] (fun ~socket ~pid:_ ->
      (* malformed line: rejected, connection still usable *)
      let fd = raw_connect socket in
      raw_send fd "this is not json\n";
      (match raw_recv_line fd with
      | `Line l ->
          Alcotest.(check string) "malformed rejected" "rejected"
            (status_of_line l)
      | `Eof -> Alcotest.fail "connection closed on malformed frame");
      raw_send fd
        ({|{"wire":"prax.wire","version":1,"id":1,"op":"ping"}|} ^ "\n");
      (match raw_recv_line fd with
      | `Line l ->
          Alcotest.(check string) "connection not poisoned" "ok"
            (status_of_line l)
      | `Eof -> Alcotest.fail "connection dead after rejection");
      Unix.close fd;
      (* oversized frame: rejected and the connection is closed *)
      let fd = raw_connect socket in
      raw_send fd (String.make 1000 'x');
      (match raw_recv_line fd with
      | `Line l ->
          Alcotest.(check string) "oversize rejected" "rejected"
            (status_of_line l)
      | `Eof -> Alcotest.fail "no rejection for oversized frame");
      (match raw_recv_line fd with
      | `Eof -> ()
      | `Line l -> Alcotest.failf "expected close after oversize, got %S" l);
      Unix.close fd;
      (* the accept loop survived both *)
      match ping socket with
      | Ok ("ok", _) -> ()
      | _ -> Alcotest.fail "daemon unhealthy after bad frames")

(* --- e2e: lifecycle ------------------------------------------------------- *)

let test_stale_socket_recovery () =
  let socket = fresh_socket () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      try Unix.unlink (socket ^ ".pid") with Unix.Unix_error _ -> ())
    (fun () ->
      (* first daemon dies by SIGKILL: no cleanup, stale socket+pidfile *)
      let pid1 = spawn_praxd ~socket [] in
      wait_ready socket;
      Unix.kill pid1 Sys.sigkill;
      ignore (Unix.waitpid [] pid1);
      Alcotest.(check bool) "stale socket left behind" true
        (Sys.file_exists socket);
      (* a successor must sweep the stale socket and serve *)
      let pid2 = spawn_praxd ~socket [] in
      Fun.protect
        ~finally:(fun () -> ignore (reap pid2))
        (fun () ->
          wait_ready socket;
          (* but a live daemon must never be double-served *)
          let null = devnull () in
          let pid3 =
            Unix.create_process praxd
              [| praxd; "serve"; "--socket"; socket; "-q" |]
              null null null
          in
          Unix.close null;
          (match Unix.waitpid [] pid3 with
          | _, Unix.WEXITED 1 -> ()
          | _, Unix.WEXITED c ->
              Alcotest.failf "double-serve exited %d (expected 1)" c
          | _ -> Alcotest.fail "double-serve died abnormally");
          match ping socket with
          | Ok ("ok", _) -> ()
          | _ -> Alcotest.fail "original daemon disturbed by refused start"))

(* --- e2e: the xanalyze client exit codes ---------------------------------- *)

let test_client_exit_codes () =
  with_daemon (fun ~socket ~pid:_ ->
      let run_client args =
        let null = devnull () in
        let pid =
          Unix.create_process xanalyze
            (Array.of_list (xanalyze :: args))
            null null null
        in
        Unix.close null;
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _ -> 255
      in
      let code =
        run_client
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ]
      in
      Alcotest.(check int) "complete exits 0" 0 code;
      let code =
        run_client
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ]
      in
      Alcotest.(check int) "cached repeat exits 0" 0 code;
      let code =
        run_client
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ^ ".nope" ]
      in
      Alcotest.(check int) "unreachable daemon exits 6" 6 code;
      let code =
        run_client
          [ "client"; "analyze"; "groundness"; "no-such-file.pl";
            "--socket"; socket ]
      in
      Alcotest.(check int) "missing input file exits 1" 1 code)

let run_client_env env args =
  let null = devnull () in
  let pid =
    Unix.create_process_env xanalyze
      (Array.of_list (xanalyze :: args))
      (env_with env) null null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> 255

let counter_of doc name =
  match Metrics.member "stats" doc with
  | Some stats -> (
      match Metrics.member "counters" stats with
      | Some (Metrics.Obj counters) -> (
          match List.assoc_opt name counters with
          | Some (Metrics.Int n) -> n
          | _ -> 0)
      | _ -> 0)
  | None -> 0

let stats_counters socket =
  let _, doc =
    request_status socket
      { Wire.id = Metrics.Int 99; client = Some "stats"; op = Wire.Stats }
  in
  doc

(* --- e2e: invalid input and cached-report splicing ------------------------ *)

(* a source the reader rejects is answered from the first worker's
   diagnostic: one fork, no retry, status "error" *)
let test_invalid_source_one_fork () =
  with_daemon ~args:[ "--retries"; "2" ] (fun ~socket ~pid:_ ->
      let before = stats_counters socket in
      let status, doc =
        request_status socket
          {
            Wire.id = Metrics.Int 1;
            client = Some "test";
            op =
              Wire.Analyze
                {
                  analysis = "strictness";
                  input = "bad.eq";
                  source = "% a Prolog comment\nf x = x;\n";
                  config = [];
                };
          }
      in
      Alcotest.(check string) "invalid source errors" "error" status;
      (match Metrics.member "reason" doc with
      | Some (Metrics.Str r) ->
          Alcotest.(check bool)
            (Printf.sprintf "reason %S is the diagnostic" r)
            true
            (String.length r > 9 && String.sub r 0 9 = "bad.eq:1:")
      | _ -> Alcotest.fail "no reason");
      (match Metrics.member "attempts" doc with
      | Some (Metrics.Int n) -> Alcotest.(check int) "one attempt" 1 n
      | _ -> Alcotest.fail "no attempts field");
      let after = stats_counters socket in
      let delta name = counter_of after name - counter_of before name in
      Alcotest.(check int) "one worker forked" 1 (delta "serve.workers_spawned");
      Alcotest.(check int) "no retries" 0 (delta "serve.retries"))

(* The parse-and-print form of a response's report field: the payload
   parsed, or the payload as a JSON string when it is not JSON. *)
let report_field payload =
  match Metrics.json_of_string payload with
  | j -> [ ("report", j) ]
  | exception Metrics.Json_error _ -> [ ("report", Metrics.Str payload) ]

(* one response line, as {!Wire}'s writers put it into a buffer *)
let line_of write =
  let b = Bytebuf.create 16 in
  write b;
  Bytebuf.contents b

(* The daemon splices a report's bytes after the response header instead
   of re-parsing them: a worker's payload as the worker printed it, a
   cached one as the cache holds it.  On every light-corpus report the
   spliced line equals the parsing form byte for byte — alone, and as a
   warm hit written through one long-lived output buffer that other
   lines share and that the socket drains in uneven pieces. *)
let test_spliced_reports_identical () =
  let id = Metrics.Int 42 in
  let out = Bytebuf.create 64 in
  let drained = Buffer.create 4096 in
  let expected = ref [] in
  let rng = Random.State.make [| 31 |] in
  let drain_some () =
    let n = Random.State.int rng (Bytebuf.length out + 1) in
    Buffer.add_string drained
      (Bytes.sub_string out.Bytebuf.buf out.Bytebuf.start n);
    Bytebuf.consume out n
  in
  List.iter
    (fun (analysis, input, source) ->
      let a = Option.get (Analysis.find analysis) in
      let payload =
        Metrics.json_to_string
          (Analysis.report_to_json ~input (Analysis.run a source))
      in
      let report =
        match Wire.canonical_report payload with
        | Some r -> r
        | None -> Alcotest.failf "%s %s: report is not JSON" analysis input
      in
      Alcotest.(check string)
        (Printf.sprintf "%s %s: worker print is canonical" analysis input)
        report payload;
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: report cached as printed" analysis input)
        true
        (Wire.worker_report payload = Some payload);
      let check what ~status extra =
        let parsed = Wire.response ~id ~status (extra @ report_field payload) in
        Alcotest.(check string)
          (Printf.sprintf "%s %s: %s line" analysis input what)
          parsed
          (line_of (fun b ->
               Wire.add_response_with_report b ~id ~status extra ~report));
        Alcotest.(check string)
          (Printf.sprintf "%s %s: %s worker line" analysis input what)
          parsed
          (line_of (fun b ->
               Wire.add_worker_response b ~id ~status extra payload
                 ~report:(Some payload)))
      in
      check "cached" ~status:"cached" [];
      check "complete" ~status:"complete" [ ("attempts", Metrics.Int 1) ];
      check "degraded partial" ~status:"partial"
        [
          ("reason", Metrics.Str "steps");
          ("degraded", Metrics.Bool true);
          ("tier", Metrics.Int 1);
          ("tier_label", Metrics.Str "reduced");
          ("attempts", Metrics.Int 2);
        ];
      (* a warm hit behind a short answer in the shared buffer *)
      let pong = Wire.response ~id ~status:"ok" [ ("pid", Metrics.Int 7) ] in
      Wire.add_response out ~id ~status:"ok" [ ("pid", Metrics.Int 7) ];
      Bytebuf.add_char out '\n';
      Wire.add_response_with_report out ~id ~status:"cached" [] ~report;
      Bytebuf.add_char out '\n';
      expected :=
        Wire.response ~id ~status:"cached" (report_field payload)
        :: pong :: !expected;
      drain_some ())
    Registry.light_corpus;
  while Bytebuf.length out > 0 do
    drain_some ()
  done;
  Alcotest.(check (list string))
    "warm hits through the output buffer"
    (List.rev !expected)
    (List.filter (( <> ) "")
       (String.split_on_char '\n' (Buffer.contents drained)))

(* A worker payload that is not one JSON value (cut short, or not JSON
   at all) is never spliced or cached: the answer carries it as a string
   [report], exactly as the parsing form does. *)
let test_non_json_worker_payload () =
  let id = Metrics.Int 5 in
  let extra = [ ("attempts", Metrics.Int 1) ] in
  let analysis, _, source = List.hd Registry.light_corpus in
  let a = Option.get (Analysis.find analysis) in
  let report =
    Metrics.json_to_string
      (Analysis.report_to_json ~input:"t.pl" (Analysis.run a source))
  in
  List.iter
    (fun payload ->
      let cached = Wire.worker_report payload in
      let line =
        line_of (fun b ->
            Wire.add_worker_response b ~id ~status:"complete" extra payload
              ~report:cached)
      in
      Alcotest.(check bool) "not cached" true (cached = None);
      Alcotest.(check string) "the parsing form"
        (Wire.response ~id ~status:"complete" (extra @ report_field payload))
        line;
      Alcotest.(check string) "still complete" "complete" (status_of_line line);
      Alcotest.(check bool) "report is the payload string" true
        (Metrics.member "report" (Metrics.json_of_string line)
        = Some (Metrics.Str payload)))
    [
      "not json {";
      "";
      String.sub report 0 (String.length report / 2);
      report ^ "}";
      report ^ " " ^ report;
    ]

(* Through a live daemon, every light-corpus program's cold [complete]
   line is the parse-and-print form of itself: the worker's spliced
   report bytes are exactly what parsing and printing would give. *)
let test_cold_lines_parse_and_print () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          List.iteri
            (fun i (analysis, input, source) ->
              let req =
                {
                  Wire.id = Metrics.Int i;
                  client = Some "bytes";
                  op = Wire.Analyze { analysis; input; source; config = [] };
                }
              in
              raw_send fd (Wire.request_to_string req ^ "\n");
              match raw_recv_line fd with
              | `Eof -> Alcotest.fail "connection closed"
              | `Line line ->
                  Alcotest.(check string) (input ^ " is cold") "complete"
                    (status_of_line line);
                  Alcotest.(check string)
                    (input ^ ": line = parse and print")
                    (Metrics.json_to_string (Metrics.json_of_string line))
                    line)
            Registry.light_corpus))

(* a store snapshot whose payload is not JSON never reaches the wire: it
   is a miss, the job is recomputed, and the good result replaces it *)
let test_non_json_store_payload_misses () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "praxd-store-%d" (Unix.getpid ()))
  in
  let source = "p(a). q(X) :- p(X)." in
  let a = Option.get (Analysis.find "groundness") in
  let config =
    match Analysis.merge_config ~defaults:a.Analysis.defaults [] with
    | Ok c -> Analysis.config_to_string c
    | Error e -> Alcotest.fail e
  in
  let key =
    {
      Store.analysis = "groundness";
      source_digest = Store.digest_source source;
      config;
      schema_version = Analysis.report_schema_version;
    }
  in
  let store = Store.open_dir dir in
  Store.save store key "not json {";
  with_daemon ~args:[ "--store"; dir ] (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let id = Metrics.Int 7 in
          let req =
            Wire.request_to_string
              { (analyze_req ~input:"s.pl" ~source ()) with Wire.id }
            ^ "\n"
          in
          let line () =
            match raw_recv_line fd with
            | `Line l -> l
            | `Eof -> Alcotest.fail "connection closed"
          in
          raw_send fd req;
          let cold = line () in
          Alcotest.(check string) "bad snapshot is a miss" "complete"
            (status_of_line cold);
          raw_send fd req;
          let warm = line () in
          Alcotest.(check string) "recomputed result is cached" "cached"
            (status_of_line warm);
          let report =
            match Metrics.member "report" (Metrics.json_of_string cold) with
            | Some r -> Metrics.json_to_string r
            | None -> Alcotest.fail "no report in the cold answer"
          in
          Alcotest.(check string) "cached line is the parsing form"
            (Wire.response ~id ~status:"cached" (report_field report))
            warm;
          match Store.load store key with
          | Some p ->
              Alcotest.(check bool) "store holds the good result" true
                (Wire.canonical_report p <> None)
          | None -> Alcotest.fail "store entry missing"))

(* --- e2e: workers outlive requests ----------------------------------------- *)

(* stdout of a finished subprocess *)
let capture argv =
  let ic = Unix.open_process_args_in argv.(0) argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s failed" (String.concat " " (Array.to_list argv))

(* 38 cold light-corpus requests on a fresh two-slot daemon: each source
   twice, with distinct trailing comment tags so neither is a cache hit.
   Every answer's text equals `xanalyze analyze` on the same file, and
   no more than the two slots' workers were ever forked. *)
let test_workers_reused_across_requests () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "praxd-reuse-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  with_daemon ~args:[ "--jobs"; "2" ] (fun ~socket ~pid:_ ->
      let before = stats_counters socket in
      List.iter
        (fun tag ->
          List.iter
            (fun (analysis, input, source) ->
              let ext, comment =
                if analysis = "groundness" then (".pl", "% ") else (".eq", "-- ")
              in
              let file = Filename.concat dir (input ^ "-" ^ tag ^ ext) in
              let source = source ^ "\n" ^ comment ^ tag ^ "\n" in
              Out_channel.with_open_bin file (fun oc ->
                  output_string oc source);
              let status, doc =
                request_status socket
                  {
                    Wire.id = Metrics.Int 1;
                    client = Some "reuse";
                    op =
                      Wire.Analyze
                        { analysis; input = file; source; config = [] };
                  }
              in
              Alcotest.(check string) (file ^ " is cold") "complete" status;
              let text =
                match
                  Option.bind (Metrics.member "report" doc)
                    (Metrics.member "text")
                with
                | Some (Metrics.Str t) -> t
                | _ -> Alcotest.failf "%s: no report text" file
              in
              Alcotest.(check string)
                (file ^ ": daemon text == xanalyze analyze")
                (capture [| xanalyze; "analyze"; analysis; file |])
                (text ^ "\n");
              Sys.remove file)
            Registry.light_corpus)
        [ "tag-a"; "tag-b" ];
      let after = stats_counters socket in
      let spawned =
        counter_of after "serve.workers_spawned"
        - counter_of before "serve.workers_spawned"
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d workers forked for 38 requests, at most 2" spawned)
        true (spawned <= 2);
      Alcotest.(check bool) "worker CPU reported" true
        (counter_of after "serve.worker_cpu_ms" > 0));
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* --- e2e: pressure tiers under load --------------------------------------- *)

let test_degraded_tier_admission () =
  (* one worker slot, queue of four.  The chaos plan hangs request 1's
     worker (attempt 1, no retries, 1s watchdog), so requests 2-4 pile
     up behind it: request 4 arrives at occupancy 3/5 and must be
     admitted at the reduced tier — answered, tagged degraded — where
     the binary daemon would have given it a full-budget wait or,
     deeper in the band, a shed *)
  with_daemon
    ~env:[ ("PRAX_INJECT_DAEMON", "hang@1") ]
    ~args:[ "--jobs"; "1"; "--max-queue"; "4"; "--retries"; "0";
            "--job-timeout"; "1s" ]
    (fun ~socket ~pid:_ ->
      let send i =
        let fd = raw_connect socket in
        raw_send fd
          (Wire.request_to_string
             (analyze_req
                ~input:(Printf.sprintf "d%d.pl" i)
                ~source:(Printf.sprintf "p(b%d)." i)
                ())
          ^ "\n");
        fd
      in
      let c1 = send 1 in
      Unix.sleepf 0.3;
      let c2 = send 2 in
      Unix.sleepf 0.3;
      let c3 = send 3 in
      Unix.sleepf 0.3;
      let c4 = send 4 in
      let line fd what =
        match raw_recv_line ~timeout:30. fd with
        | `Line l -> Metrics.json_of_string l
        | `Eof -> Alcotest.failf "%s: connection closed without response" what
      in
      let status j = match Wire.response_status j with
        | Ok s -> s | Error e -> Alcotest.fail e
      in
      let degraded j =
        match Metrics.member "degraded" j with
        | Some (Metrics.Bool b) -> b
        | _ -> false
      in
      (* request 1 hung and the watchdog crashed it (retries 0) *)
      let j1 = line c1 "hung request" in
      Alcotest.(check string) "hung request crash-reported" "crashed"
        (status j1);
      (* requests 2 and 3 arrived under 1/2 occupancy: full budget *)
      let j2 = line c2 "request 2" in
      Alcotest.(check string) "request 2 complete" "complete" (status j2);
      Alcotest.(check bool) "request 2 not degraded" false (degraded j2);
      let j3 = line c3 "request 3" in
      Alcotest.(check string) "request 3 complete" "complete" (status j3);
      Alcotest.(check bool) "request 3 not degraded" false (degraded j3);
      (* request 4 arrived at 3/5 occupancy: reduced tier, still a
         sound complete answer on this tiny program *)
      let j4 = line c4 "request 4" in
      Alcotest.(check string) "request 4 answered" "complete" (status j4);
      Alcotest.(check bool) "request 4 tagged degraded" true (degraded j4);
      (match Metrics.member "tier" j4 with
      | Some (Metrics.Int t) ->
          Alcotest.(check bool) "tier is reduced or deeper" true (t >= 1)
      | _ -> Alcotest.fail "degraded response lacks tier");
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ c1; c2; c3; c4 ];
      (* the daemon counted the degraded admission *)
      let doc = stats_counters socket in
      Alcotest.(check bool) "daemon.degraded counted" true
        (counter_of doc "daemon.degraded" >= 1);
      Alcotest.(check bool) "chaos fault counted" true
        (counter_of doc "daemon.chaos_injected" >= 1))

let test_shed_retry_after_hint () =
  (* at the (unchanged) shed point the overloaded response now carries
     a retry_after_ms hint proportional to the backlog *)
  with_daemon
    ~env:[ ("PRAX_INJECT_WORKER", "hang:*") ]
    ~args:[ "--jobs"; "1"; "--max-queue"; "1"; "--retries"; "0";
            "--drain-deadline"; "1s" ]
    (fun ~socket ~pid ->
      let send i =
        let fd = raw_connect socket in
        raw_send fd
          (Wire.request_to_string
             (analyze_req
                ~input:(Printf.sprintf "s%d.pl" i)
                ~source:(Printf.sprintf "p(c%d)." i)
                ())
          ^ "\n");
        fd
      in
      let c1 = send 1 in
      Unix.sleepf 0.3;
      let c2 = send 2 in
      Unix.sleepf 0.3;
      let c3 = send 3 in
      (match raw_recv_line c3 with
      | `Line l ->
          let j = Metrics.json_of_string l in
          Alcotest.(check string) "third shed" "overloaded" (status_of_line l);
          (match Wire.retry_after_ms j with
          | Some ms ->
              Alcotest.(check bool) "hint in clamp range" true
                (ms >= 50 && ms <= 5000)
          | None -> Alcotest.fail "shed lacks retry_after_ms")
      | `Eof -> Alcotest.fail "shed connection closed without response");
      (* drain before leaving: the 1s deadline SIGKILLs the hung worker
         and answers the in-flight job with a structured crashed — do
         not rely on teardown to clean up a deliberately wedged pool *)
      Unix.kill pid Sys.sigterm;
      (match raw_recv_line ~timeout:15. c1 with
      | `Line l ->
          Alcotest.(check string) "hung job crashed on drain" "crashed"
            (status_of_line l)
      | `Eof -> Alcotest.fail "hung job got no response on drain");
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ c1; c2; c3 ];
      match reap ~kill:false pid with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit 0 after deadline drain")

(* --- e2e: retrying clients ------------------------------------------------- *)

let test_client_retries_converge () =
  (* burst 1, refill 1/s: the second immediate request is shed; with
     --retries the client backs off (honoring retry_after_ms) and
     converges to the cached answer instead of failing with exit 5 *)
  with_daemon ~args:[ "--rate"; "1"; "--burst"; "1" ] (fun ~socket ~pid:_ ->
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--client"; "hammer"; "--socket"; socket ]
      in
      Alcotest.(check int) "first request admitted" 0 code;
      (* without retries: immediate shed, exit 5 *)
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--client"; "hammer"; "--socket"; socket ]
      in
      Alcotest.(check int) "immediate repeat shed (exit 5)" 5 code;
      (* with retries: backoff past the refill and converge *)
      let t0 = Unix.gettimeofday () in
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--client"; "hammer"; "--retries"; "4"; "--backoff"; "200ms";
            "--socket"; socket ]
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "retrying client converges (exit 0)" 0 code;
      Alcotest.(check bool) "convergence actually waited for refill" true
        (elapsed >= 0.4))

let test_client_batch_streams_corpus () =
  with_daemon (fun ~socket ~pid:_ ->
      let code =
        run_client_env []
          [ "client"; "batch"; "qsort,pg,plan"; "--analysis"; "groundness";
            "--socket"; socket ]
      in
      Alcotest.(check int) "cold corpus batch exits 0" 0 code;
      (* the repeat is answered from the warm cache, still exit 0 *)
      let code =
        run_client_env []
          [ "client"; "batch"; "qsort,pg,plan"; "--analysis"; "groundness";
            "--socket"; socket ]
      in
      Alcotest.(check int) "warm corpus batch exits 0" 0 code;
      let doc = stats_counters socket in
      Alcotest.(check bool) "second pass hit the warm cache" true
        (counter_of doc "daemon.warm_hits" >= 3);
      (* an unknown benchmark in the spec is the caller's fault *)
      let code =
        run_client_env []
          [ "client"; "batch"; "no-such-bench"; "--analysis"; "groundness";
            "--socket"; socket ]
      in
      Alcotest.(check int) "unknown benchmark exits 1" 1 code)

(* --- e2e: protocol violations are exit 7 ----------------------------------- *)

(* a fake "daemon" that accepts one connection, reads one line, writes
   [reply] verbatim (no newline added), and closes — the client must
   classify whatever it got as a protocol violation, never a result *)
let with_fake_server reply f =
  let socket = fresh_socket () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 1;
  match Unix.fork () with
  | 0 ->
      (* child: serve exactly one connection *)
      let conn, _ = Unix.accept fd in
      let buf = Bytes.create 65536 in
      let rec read_line_then_reply () =
        match Unix.read conn buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            if Bytes.index_opt (Bytes.sub buf 0 n) '\n' <> None then begin
              let w = ref 0 in
              let len = String.length reply in
              while !w < len do
                w := !w + Unix.write_substring conn reply !w (len - !w)
              done
            end
            else read_line_then_reply ()
      in
      (try read_line_then_reply () with _ -> ());
      (try Unix.close conn with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close fd;
      Fun.protect
        ~finally:(fun () ->
          ignore (reap pid);
          try Unix.unlink socket with Unix.Unix_error _ -> ())
        (fun () -> f socket)

let test_client_protocol_error_exit () =
  (* a malformed (non-JSON) reply *)
  with_fake_server "this is not a prax.wire frame\n" (fun socket ->
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ]
      in
      Alcotest.(check int) "garbage reply exits 7" 7 code);
  (* a truncated reply: half a frame, then EOF — exactly what the
     chaos conn-reset fault produces *)
  with_fake_server {|{"wire":"prax.wire","version":1,"id":1,"sta|}
    (fun socket ->
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ]
      in
      Alcotest.(check int) "truncated reply exits 7" 7 code);
  (* a structurally valid JSON line with the wrong schema header *)
  with_fake_server ({|{"wire":"other.wire","version":1,"status":"ok"}|} ^ "\n")
    (fun socket ->
      let code =
        run_client_env []
          [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
            "--socket"; socket ]
      in
      Alcotest.(check int) "wrong schema exits 7" 7 code);
  (* no daemon at all stays exit 6: unreachable, not protocol *)
  let code =
    run_client_env []
      [ "client"; "analyze"; "groundness"; "qsort"; "--bench";
        "--socket"; "/nonexistent/prax.sock" ]
  in
  Alcotest.(check int) "unreachable stays exit 6" 6 code

(* the oversized-reply cap, in-process (a >64M fake reply would be
   slow): the reader must stop buffering at the cap and call it a
   protocol violation *)
let test_client_oversized_reply () =
  with_fake_server (String.make 4096 'x' ^ "\n") (fun socket ->
      match
        Client.request ~timeout:10. ~max_response_bytes:1024 ~socket
          (analyze_req ~input:"o.pl" ~source:"p(a)." ())
      with
      | Error (Client.Protocol_error msg) ->
          Alcotest.(check bool) "names the oversize" true
            (String.length msg > 0)
      | Error (Client.Connect_failed e) ->
          Alcotest.failf "wrong class: connect (%s)" e
      | Ok (status, _) -> Alcotest.failf "oversized reply accepted: %s" status)

(* --- e2e: drain under a hung worker leaves no orphans ---------------------- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* live PIDs (other than our own) whose environment carries [marker]:
   praxd workers inherit the daemon's environment, so any process still
   wearing the marker after the daemon exited is an orphan *)
let procs_with_env marker =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p ->
         p <> Unix.getpid ()
         &&
         match
           In_channel.with_open_bin
             (Printf.sprintf "/proc/%d/environ" p)
             In_channel.input_all
         with
         | s -> contains s marker
         | exception _ -> false)

let test_drain_hung_worker_no_orphans () =
  let marker = Printf.sprintf "praxd-orphan-probe-%d" (Unix.getpid ()) in
  with_daemon
    ~env:[ ("PRAX_INJECT_WORKER", "hang:*"); ("PRAX_ORPHAN_MARKER", marker) ]
    ~args:[ "--jobs"; "1"; "--retries"; "0"; "--drain-deadline"; "1s" ]
    (fun ~socket ~pid ->
      let fd = raw_connect socket in
      raw_send fd
        (Wire.request_to_string
           (analyze_req ~input:"hang.pl" ~source:"p(z)." ())
        ^ "\n");
      (* let the worker spawn and hang, then SIGTERM the daemon *)
      Unix.sleepf 0.5;
      Unix.kill pid Sys.sigterm;
      (* the hung worker is SIGKILLed at the 1s deadline and its client
         still gets a structured crash, not silence *)
      (match raw_recv_line ~timeout:15. fd with
      | `Line l ->
          Alcotest.(check string) "hung job crash-reported" "crashed"
            (status_of_line l)
      | `Eof -> Alcotest.fail "hung job's connection closed silently");
      Unix.close fd;
      (match reap ~kill:false pid with
      | Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit 0 after deadline drain");
      (* the orphan probe: nothing still wears the marker *)
      Alcotest.(check (list int)) "no orphan workers" []
        (procs_with_env marker))

(* --- e2e: the chaos harness ------------------------------------------------ *)

let test_chaos_plan_end_to_end () =
  (* a scripted drill across four faults; the invariant under every one
     of them: each request gets exactly one response attempt (a
     structured line, or the scripted mid-frame reset) and the daemon
     exits clean *)
  let plan = "worker-crash@1,store-enospc@2,conn-reset@3,drain@4" in
  let store_dir =
    let d = Filename.temp_file "prax-chaos-store" "" in
    Sys.remove d;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      try
        Sys.readdir store_dir
        |> Array.iter (fun f -> Sys.remove (Filename.concat store_dir f));
        Unix.rmdir store_dir
      with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () ->
      with_daemon
        ~args:[ "--chaos"; plan; "--retries"; "2"; "--store"; store_dir ]
        (fun ~socket ~pid ->
          let analyze i =
            analyze_req
              ~input:(Printf.sprintf "x%d.pl" i)
              ~source:(Printf.sprintf "p(e%d)." i)
              ()
          in
          (* 1: the worker crash is absorbed by the retry ladder *)
          let status, doc = request_status socket (analyze 1) in
          Alcotest.(check string) "crash absorbed: complete" "complete" status;
          (match Metrics.member "attempts" doc with
          | Some (Metrics.Int n) ->
              Alcotest.(check bool) "crash cost an attempt" true (n >= 2)
          | _ -> Alcotest.fail "no attempts field");
          (* 2: the store write fails (ENOSPC) — contained: the client
             still gets its complete answer *)
          let status, _ = request_status socket (analyze 2) in
          Alcotest.(check string) "enospc contained: complete" "complete"
            status;
          let doc = stats_counters socket in
          Alcotest.(check bool) "store.write_errors counted" true
            (counter_of doc "store.write_errors" >= 1);
          (* 3: the connection reset mid-frame — the response line is
             cut and the socket closed; a raw reader sees EOF, a real
             client classifies it as a protocol error (exit 7) *)
          let fd = raw_connect socket in
          raw_send fd (Wire.request_to_string (analyze 3) ^ "\n");
          (match raw_recv_line ~timeout:30. fd with
          | `Eof -> ()
          | `Line l ->
              Alcotest.failf "reset connection delivered a whole frame: %S" l);
          Unix.close fd;
          (* the daemon survived its own reset drill *)
          (match ping socket with
          | Ok ("ok", _) -> ()
          | _ -> Alcotest.fail "daemon unhealthy after conn-reset");
          (* 4: drain fires on arrival: the request is answered
             "draining" (its one structured response) and the daemon
             exits clean *)
          let status, _ = request_status socket (analyze 4) in
          Alcotest.(check string) "drain drill answers draining" "draining"
            status;
          (match reap ~kill:false pid with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED c ->
              Alcotest.failf "daemon exited %d after chaos drill" c
          | _ -> Alcotest.fail "daemon died abnormally after chaos drill");
          (* every fault the plan scripted was injected and counted *)
          Alcotest.(check bool) "socket removed after chaos drain" false
            (Sys.file_exists socket)))

let test_chaos_bad_plan_fails_startup () =
  (* a misspelled plan must refuse to serve, not silently run without
     faults — from the flag and from the environment alike *)
  List.iter
    (fun (what, args, env) ->
      let socket = fresh_socket () in
      let null = devnull () in
      let pid =
        Unix.create_process_env praxd
          (Array.of_list ([ praxd; "serve"; "--socket"; socket; "-q" ] @ args))
          (env_with env) null null null
      in
      Unix.close null;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 1 -> ()
      | _, Unix.WEXITED c ->
          Alcotest.failf "bad chaos plan (%s): praxd exited %d (expected 1)"
            what c
      | _ -> Alcotest.failf "bad chaos plan (%s): praxd died abnormally" what)
    [
      ("--chaos", [ "--chaos"; "meteor@1" ], []);
      ( Inject.inject_daemon_var,
        [],
        [ (Inject.inject_daemon_var, "meteor@1") ] );
    ]

(* --- e2e: connection framing ----------------------------------------------- *)

(* A buffered line reader over a raw socket: [`Line] without its
   newline, or [`Eof] (a partial last line is dropped). *)
let line_reader ?(timeout = 10.) fd =
  let b = Bytebuf.create 65536 in
  let rec newline i =
    if i >= b.Bytebuf.stop then -1
    else if Bytes.get b.Bytebuf.buf i = '\n' then i
    else newline (i + 1)
  in
  let deadline () = Unix.gettimeofday () +. timeout in
  let rec next until =
    let i = newline b.Bytebuf.start in
    if i >= 0 then begin
      let start = b.Bytebuf.start in
      let line = Bytes.sub_string b.Bytebuf.buf start (i - start) in
      Bytebuf.consume b (i + 1 - start);
      `Line line
    end
    else
      let left = until -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "timed out awaiting response line";
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> next until
      | _ -> (
          Bytebuf.reserve b 65536;
          let stop = b.Bytebuf.stop in
          match
            Unix.read fd b.Bytebuf.buf stop (Bytes.length b.Bytebuf.buf - stop)
          with
          | 0 -> `Eof
          | n ->
              Bytebuf.commit b n;
              next until)
  in
  fun () -> next (deadline ())

let expect_line what next =
  match next () with
  | `Line l -> l
  | `Eof -> Alcotest.failf "%s: connection closed" what

let id_of_line line =
  match Metrics.member "id" (Metrics.json_of_string line) with
  | Some id -> id
  | None -> Metrics.Null

let ping_line id =
  Wire.request_to_string { Wire.id = Metrics.Int id; client = None; op = Wire.Ping }
  ^ "\n"

let corpus_line ~id input =
  let analysis, input, source =
    List.find (fun (_, i, _) -> i = input) Registry.light_corpus
  in
  Wire.request_to_string
    {
      Wire.id = Metrics.Int id;
      client = Some "framing";
      op = Wire.Analyze { analysis; input; source; config = [] };
    }
  ^ "\n"

(* Several requests in one write get one answer each: the pings and a
   warm hit in order, a cold answer when its worker is done. *)
let test_frames_in_one_write () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader fd in
          let expect answers =
            List.iter
              (fun (id, status) ->
                let l = expect_line "batch" next in
                Alcotest.(check bool)
                  (Printf.sprintf "answer %d in order" id)
                  true
                  (id_of_line l = Metrics.Int id);
                Alcotest.(check string) "status" status (status_of_line l))
              answers
          in
          raw_send fd (ping_line 1 ^ corpus_line ~id:2 "qsort" ^ ping_line 3);
          expect [ (1, "ok"); (3, "ok"); (2, "complete") ];
          raw_send fd (ping_line 4 ^ corpus_line ~id:5 "qsort" ^ ping_line 6);
          expect [ (4, "ok"); (5, "cached"); (6, "ok") ]))

(* a request sent one byte per write is one request *)
let test_frame_one_byte_per_write () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader fd in
          let dribble line ~pause =
            String.iter
              (fun c ->
                raw_send fd (String.make 1 c);
                if pause then Unix.sleepf 0.001)
              line
          in
          dribble (ping_line 1) ~pause:true;
          let l = expect_line "dribbled ping" next in
          Alcotest.(check string) "ping answered" "ok" (status_of_line l);
          dribble (corpus_line ~id:2 "qsort") ~pause:false;
          let l = expect_line "dribbled analyze" next in
          Alcotest.(check string) "analyze answered" "complete"
            (status_of_line l);
          Alcotest.(check bool) "its id" true (id_of_line l = Metrics.Int 2)))

(* A line that arrives in two reads, the second past the input buffer's
   first capacity, is read whole: its source digests to the key the
   same source sent in one piece left in the cache. *)
let test_frame_across_buffer_growth () =
  with_daemon (fun ~socket ~pid:_ ->
      let source =
        String.concat "\n"
          (List.init 600 (fun k -> Printf.sprintf "p%d(a%d). q(X) :- p%d(X)." k k k))
      in
      let req id =
        Wire.request_to_string
          {
            Wire.id = Metrics.Int id;
            client = Some "growth";
            op =
              Wire.Analyze
                { analysis = "groundness"; input = "g.pl"; source; config = [] };
          }
        ^ "\n"
      in
      let line = req 2 in
      Alcotest.(check bool) "the line outgrows a 4 KiB buffer" true
        (String.length line > 4 * 4096);
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader fd in
          raw_send fd (req 1);
          Alcotest.(check string) "cold in one piece" "complete"
            (status_of_line (expect_line "cold" next));
          (* a ping first, so the long line starts mid-buffer *)
          raw_send fd (ping_line 9 ^ String.sub line 0 3000);
          Alcotest.(check string) "ping before the split line" "ok"
            (status_of_line (expect_line "ping" next));
          Unix.sleepf 0.05;
          raw_send fd (String.sub line 3000 (String.length line - 3000));
          let l = expect_line "split line" next in
          Alcotest.(check string) "the split line is a warm hit" "cached"
            (status_of_line l);
          Alcotest.(check bool) "its id" true (id_of_line l = Metrics.Int 2)))

(* Answers larger than the socket buffer, to a reader that does not
   read yet: the daemon writes what the socket takes, serves other
   clients meanwhile, and every line arrives whole and in order. *)
let test_frames_to_slow_reader () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader ~timeout:30. fd in
          raw_send fd (corpus_line ~id:0 "read");
          let cold = expect_line "cold" next in
          Alcotest.(check string) "cold" "complete" (status_of_line cold);
          let n = 200 in
          raw_send fd
            (String.concat ""
               (List.init n (fun k -> corpus_line ~id:(k + 1) "read")));
          (* the answers back up in the daemon while nobody reads *)
          Unix.sleepf 0.2;
          (match ping socket with
          | Ok ("ok", _) -> ()
          | _ -> Alcotest.fail "daemon stalled behind a slow reader");
          let total = ref 0 in
          for k = 1 to n do
            let l = expect_line "slow reader" next in
            total := !total + String.length l + 1;
            Alcotest.(check bool)
              (Printf.sprintf "answer %d in order" k)
              true
              (id_of_line l = Metrics.Int k);
            Alcotest.(check string) "warm" "cached" (status_of_line l);
            if k mod 10 = 0 then Unix.sleepf 0.002
          done;
          Alcotest.(check bool)
            (Printf.sprintf "%d answer bytes outsize a socket buffer" !total)
            true (!total > 1024 * 1024)))

(* EOF in the middle of a line: the complete lines before it are
   answered, the partial one is dropped with the connection, and the
   daemon carries on *)
let test_eof_mid_line () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader fd in
          let half = corpus_line ~id:2 "qsort" in
          raw_send fd (ping_line 1 ^ String.sub half 0 (String.length half / 2));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          Alcotest.(check string) "the complete line answered" "ok"
            (status_of_line (expect_line "before EOF" next));
          (match next () with
          | `Eof -> ()
          | `Line l -> Alcotest.failf "an answer to half a line: %S" l);
          match ping socket with
          | Ok ("ok", _) -> ()
          | _ -> Alcotest.fail "daemon unhealthy after EOF mid-line"))

(* --- e2e: the daemon's heap ------------------------------------------------ *)

let gauge_of doc name =
  match
    Option.bind (Metrics.member "stats" doc) (fun s ->
        Option.bind (Metrics.member "gauges" s) (Metrics.member name))
  with
  | Some (Metrics.Int n) -> n
  | _ -> Alcotest.failf "no gauge %s" name

(* A warm hit allocates nothing large: 2,000 of them on one connection,
   after a warm-up, grow the daemon's major heap allocation by under 64
   words each.  What a stats request itself allocates is measured by
   two back-to-back ones and taken off. *)
let test_warm_hits_stay_minor () =
  with_daemon (fun ~socket ~pid:_ ->
      let fd = raw_connect socket in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let next = line_reader fd in
          let hit = corpus_line ~id:1 "read" in
          for _ = 1 to 200 do
            raw_send fd hit;
            ignore (expect_line "warm-up" next)
          done;
          let major () =
            gauge_of (stats_counters socket) "daemon.gc_major_words"
          in
          let s0 = major () in
          let s1 = major () in
          let hits = 2000 in
          for _ = 1 to hits do
            raw_send fd hit;
            let l = expect_line "hit" next in
            if status_of_line l <> "cached" then
              Alcotest.failf "not a warm hit: %s" (status_of_line l)
          done;
          let s2 = major () in
          let per_hit =
            float_of_int (s2 - s1 - (s1 - s0)) /. float_of_int hits
          in
          Alcotest.(check bool)
            (Printf.sprintf "%.1f major-heap words per warm hit (< 64)" per_hit)
            true (per_hit < 64.)))

let () =
  Prax_analyses.Analyses.ensure ();
  Alcotest.run "daemon"
    [
      ( "admission",
        [
          Alcotest.test_case "token bucket refill timing" `Quick
            test_token_bucket_refill;
          Alcotest.test_case "rate 0 disables limiting" `Quick
            test_token_bucket_disabled;
          Alcotest.test_case "pressure tiers and shed hints" `Quick
            test_pressure_tiers;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "deterministic jittered backoff" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "LRU entry and byte bounds" `Quick
            test_lru_bounds;
          Alcotest.test_case "chaos plan grammar" `Quick
            test_chaos_plan_grammar;
        ] );
      ( "wire",
        [
          Alcotest.test_case "grammar" `Quick test_wire_grammar;
          Alcotest.test_case "parse in place" `Quick test_wire_parse_in_place;
          Alcotest.test_case "spliced report lines byte-identical" `Quick
            test_spliced_reports_identical;
          Alcotest.test_case "non-JSON worker payload as a string" `Quick
            test_non_json_worker_payload;
          Alcotest.test_case "decoder fuzz never raises" `Quick
            test_wire_decoder_fuzz;
        ] );
      ( "serving",
        [
          Alcotest.test_case "analyze, warm cache, stats, drain" `Quick
            test_analyze_and_warm_cache;
          Alcotest.test_case "worker crash absorbed by retries" `Quick
            test_worker_crash_absorbed;
          Alcotest.test_case "queue-full shed + drain kills stragglers" `Quick
            test_queue_full_shed_and_drain_kill;
          Alcotest.test_case "per-client rate-limit shed" `Quick
            test_rate_limit_shed;
          Alcotest.test_case "malformed/oversized frames rejected" `Quick
            test_malformed_and_oversized_frames;
          Alcotest.test_case "invalid source answered after one fork" `Quick
            test_invalid_source_one_fork;
          Alcotest.test_case "non-JSON store payload is a miss" `Quick
            test_non_json_store_payload_misses;
          Alcotest.test_case "cold lines are parse-and-print" `Quick
            test_cold_lines_parse_and_print;
          Alcotest.test_case "warm hits stay off the major heap" `Quick
            test_warm_hits_stay_minor;
        ] );
      ( "framing",
        [
          Alcotest.test_case "several requests in one write" `Quick
            test_frames_in_one_write;
          Alcotest.test_case "one byte per write" `Quick
            test_frame_one_byte_per_write;
          Alcotest.test_case "a line across a buffer growth" `Quick
            test_frame_across_buffer_growth;
          Alcotest.test_case "large answers to a slow reader" `Quick
            test_frames_to_slow_reader;
          Alcotest.test_case "EOF mid-line" `Quick test_eof_mid_line;
        ] );
      ( "pressure",
        [
          Alcotest.test_case "degraded-tier admission under load" `Quick
            test_degraded_tier_admission;
          Alcotest.test_case "shed carries retry_after_ms" `Quick
            test_shed_retry_after_hint;
        ] );
      ( "clients",
        [
          Alcotest.test_case "retrying client converges" `Quick
            test_client_retries_converge;
          Alcotest.test_case "batch streams a corpus" `Quick
            test_client_batch_streams_corpus;
          Alcotest.test_case "protocol violations exit 7" `Quick
            test_client_protocol_error_exit;
          Alcotest.test_case "oversized reply is a protocol error" `Quick
            test_client_oversized_reply;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "38 cold requests on two workers" `Quick
            test_workers_reused_across_requests;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "drain kills hung worker, no orphans" `Quick
            test_drain_hung_worker_no_orphans;
          Alcotest.test_case "scripted fault plan end to end" `Quick
            test_chaos_plan_end_to_end;
          Alcotest.test_case "bad plan fails startup" `Quick
            test_chaos_bad_plan_fails_startup;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stale socket swept, live socket refused" `Quick
            test_stale_socket_recovery;
          Alcotest.test_case "client exit codes" `Quick test_client_exit_codes;
        ] );
    ]

(* praxd — the resident analysis daemon (docs/CLI.md, docs/ROBUSTNESS.md).

     praxd serve --socket /tmp/prax.sock [--jobs N] [--max-queue N] ...
     praxd ping  --socket /tmp/prax.sock
     praxd stats --socket /tmp/prax.sock
     praxd drain --socket /tmp/prax.sock

   `serve` runs in the foreground until drained (SIGTERM/SIGINT or a
   drain request) and exits 0 after a clean drain; foreman-style
   supervisors (systemd, CI scripts) own daemonization.  The control
   verbs are one-shot prax.wire clients.

   Exit codes: 0 success / clean drain; 1 usage or startup error
   (socket already served by a live daemon, bad path); 6 control verb
   could not reach the daemon or got a protocol error. *)

open Cmdliner
open Prax

let exit_startup = 1
let exit_unreachable = 6

let duration_conv =
  let parse s =
    match Guard.duration_of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid duration %S (expected e.g. 500ms, 2s, 1.5s, 1m)" s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%gs" v)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path the daemon serves (or is served) on.")

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let run socket jobs max_queue rate burst max_request_bytes drain_deadline
      store_dir incremental cache_entries cache_bytes chaos retries
      job_timeout timeout max_steps max_bytes quiet =
    let serve =
      {
        Serve.default_config with
        Serve.jobs = max 1 jobs;
        retries = max 0 retries;
        job_timeout;
        budget = Guard.spec ?timeout ?max_steps ?max_table_bytes:max_bytes ();
      }
    in
    (* a chaos plan is test machinery: a bad plan must fail startup
       loudly, never be silently ignored *)
    let chaos =
      let plan what = function
        | Ok plan -> plan
        | Error msg ->
            Printf.eprintf "praxd: %s: %s\n" what msg;
            exit exit_startup
      in
      (match chaos with
      | None -> []
      | Some p -> plan "--chaos" (Inject.daemon_plan_of_string p))
      @ plan Inject.inject_daemon_var (Inject.daemon_plan_of_env ())
    in
    let config =
      {
        (Daemon.Daemon.default_config ~socket_path:socket) with
        Daemon.Daemon.max_queue = max 1 max_queue;
        rate;
        burst;
        max_request_bytes;
        drain_deadline;
        store_dir;
        incremental;
        cache_entries = max 1 cache_entries;
        cache_bytes = max 1 cache_bytes;
        chaos;
        serve;
      }
    in
    match Daemon.Daemon.listen config with
    | exception Daemon.Daemon.Already_running path ->
        Printf.eprintf "praxd: a live daemon already serves %s\n" path;
        exit exit_startup
    | exception Sys_error msg ->
        Printf.eprintf "praxd: %s\n" msg;
        exit exit_startup
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "praxd: %s: %s\n" arg (Unix.error_message e);
        exit exit_startup
    | d ->
        let on_ready () =
          if not quiet then begin
            Printf.printf "praxd: listening on %s (pid %d)\n" socket
              (Unix.getpid ());
            flush stdout
          end
        in
        Daemon.Daemon.run ~on_ready d;
        if not quiet then Printf.printf "praxd: drained, socket removed\n"
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Concurrent worker processes — the in-flight job cap.")
  in
  let max_queue =
    Arg.(
      value & opt int 32
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Bounded job queue: an analyze request arriving with N jobs \
             already queued is shed with a structured $(b,overloaded) \
             response instead of growing the backlog.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Per-client token-bucket refill rate in requests/second; 0 \
             disables rate limiting.")
  in
  let burst =
    Arg.(
      value & opt float 8.
      & info [ "burst" ] ~docv:"B"
          ~doc:"Per-client token-bucket capacity (burst allowance).")
  in
  let max_request_bytes =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:
            "Cap on one request line; larger frames are rejected and the \
             connection closed (framing is lost).")
  in
  let drain_deadline =
    Arg.(
      value
      & opt duration_conv 5.
      & info [ "drain-deadline" ] ~docv:"DUR"
          ~doc:
            "Grace period for in-flight jobs on SIGTERM/drain; stragglers \
             are SIGKILLed after DUR and their clients get a structured \
             $(b,crashed) response.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent snapshot store backing the resident result cache: \
             complete results are saved under DIR and survive daemon \
             restarts.")
  in
  let incremental =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Edit-aware workers (docs/INCREMENTAL.md): each analysis \
             consults the per-SCC fragment cache and splices unchanged \
             cones' tables back instead of recomputing them.  Reports are \
             byte-identical to full runs.  Needs $(b,--store): fragments \
             live there, shared by all $(b,--jobs) workers and kept \
             across requests, worker crashes and recycles (a cache in \
             one worker's memory would end with that worker); without \
             it workers run from scratch.")
  in
  let cache_entries =
    Arg.(
      value & opt int 512
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:
            "Resident result-cache entry cap: the least recently used \
             entry is evicted past N ($(b,daemon.cache_evictions)).")
  in
  let cache_bytes =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"N"
          ~doc:"Resident result-cache byte cap (keys + payloads).")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"PLAN"
          ~doc:
            "Deterministic fault plan for the chaos harness, \
             $(b,kind@N,kind@N,...): each fault fires at the Nth \
             analyze request, and several may share an N.  Kinds: \
             $(b,crash), $(b,exit), $(b,hang) (worker faults), $(b,reset) \
             (connection reset mid-frame), $(b,enospc), $(b,shortwrite) \
             (store write faults), $(b,drain); long names such as \
             $(b,worker-crash) are accepted too.  The \
             $(b,PRAX_INJECT_DAEMON) environment variable takes the same \
             grammar and adds to the plan.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:"Worker re-executions after a crashed attempt.")
  in
  let job_timeout =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "job-timeout" ] ~docv:"DUR"
          ~doc:"Per-attempt wall-clock watchdog (SIGKILL past DUR).")
  in
  let timeout =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "timeout" ] ~docv:"DUR"
          ~doc:
            "Per-job evaluation budget; a budget-tripped job degrades to a \
             sound $(b,partial) result instead of being shed.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N" ~doc:"Per-job derivation-step budget.")
  in
  let max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-table-bytes" ] ~docv:"N"
          ~doc:"Per-job table-space budget in bytes.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup/drain chatter.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve analyses on a Unix socket until drained (SIGTERM, SIGINT, \
          or $(b,praxd drain))")
    Term.(
      const run $ socket_arg $ jobs $ max_queue $ rate $ burst
      $ max_request_bytes $ drain_deadline $ store_dir $ incremental
      $ cache_entries $ cache_bytes $ chaos $ retries $ job_timeout
      $ timeout $ max_steps $ max_bytes $ quiet)

(* --- control verbs -------------------------------------------------------- *)

let control ~op ~render socket =
  match
    Daemon.Client.request ~timeout:30. ~socket
      { Daemon.Wire.id = Metrics.Int 0; client = Some "praxd-ctl"; op }
  with
  | Error e ->
      Printf.eprintf "praxd: %s\n" (Daemon.Client.error_to_string e);
      exit exit_unreachable
  | Ok ("ok", doc) -> render doc
  | Ok (status, _) ->
      Printf.eprintf "praxd: unexpected response status %s\n" status;
      exit exit_unreachable

let ping_cmd =
  let run socket =
    control ~op:Daemon.Wire.Ping socket ~render:(fun doc ->
        match Metrics.member "pid" doc with
        | Some (Metrics.Int pid) -> Printf.printf "pong (pid %d)\n" pid
        | _ -> print_endline "pong")
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Check the daemon is alive (exit 6 when not)")
    Term.(const run $ socket_arg)

let stats_cmd =
  let run socket =
    control ~op:Daemon.Wire.Stats socket ~render:(fun doc ->
        match Metrics.member "stats" doc with
        | Some stats -> print_endline (Metrics.json_to_string stats)
        | None -> print_endline (Metrics.json_to_string doc))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the daemon's prax.stats document (schema v5: the daemon.* \
          counter family)")
    Term.(const run $ socket_arg)

let drain_cmd =
  let run socket =
    control ~op:Daemon.Wire.Drain socket ~render:(fun _ ->
        print_endline "draining")
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:
         "Ask the daemon to drain gracefully: stop accepting, finish \
          in-flight jobs, remove the socket, exit")
    Term.(const run $ socket_arg)

let () =
  (* no nursery sizing here: the daemon never evaluates, and each worker
     sizes its own after the fork (Daemon.run) *)
  Analyses.ensure ();
  let doc = "resident analysis daemon over the prax worker fleet" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "praxd" ~doc)
          [ serve_cmd; ping_cmd; stats_cmd; drain_cmd ]))

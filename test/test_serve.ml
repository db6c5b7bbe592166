(* Tests for the process-isolated worker supervisor
   (docs/ROBUSTNESS.md): a SIGKILLed worker is retried and the batch
   still reports every job; a worker sleeping past the watchdog is
   killed; injected guard faults surface as Partial, not crashes; the
   degradation ladder bottoms out in a Crashed record carrying exit
   status and stderr. *)

open Prax_serve
module Guard = Prax_guard.Guard
module Inject = Prax_guard.Inject
module Metrics = Prax_metrics.Metrics

let counter = Metrics.counter_value

(* attempts communicate across processes through marker files: a worker
   that should fail only once creates the marker, dies, and succeeds on
   the retry that finds it *)
let scratch_dir =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "prax-serve-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let marker name = Filename.concat scratch_dir name

let once_marker name =
  let path = marker name in
  if Sys.file_exists path then true
  else begin
    close_out (open_out path);
    false
  end

let quick_config =
  {
    Serve.default_config with
    Serve.jobs = 2;
    retries = 2;
    backoff_base = 0.01;
    backoff_factor = 2.0;
  }

let payload_for job = "result:" ^ job

let check_class expected (r : Serve.report) =
  Alcotest.(check string)
    (Printf.sprintf "%s outcome" r.Serve.job)
    expected
    (Serve.outcome_class r.Serve.outcome)

(* --- happy path --------------------------------------------------------- *)

let test_all_complete () =
  let jobs = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ] in
  let reports =
    Serve.run_batch ~config:quick_config
      ~worker:(fun ~job ~attempt:_ ~guard:_ -> (Serve.Complete, payload_for job))
      jobs
  in
  Alcotest.(check (list string)) "reports in input order" jobs
    (List.map (fun r -> r.Serve.job) reports);
  List.iter
    (fun r ->
      check_class "complete" r;
      match r.Serve.outcome with
      | Serve.Done { payload; _ } ->
          Alcotest.(check string) "payload delivered intact"
            (payload_for r.Serve.job) payload
      | Serve.Crashed _ -> Alcotest.fail "crash on healthy worker")
    reports

(* --- reaping --------------------------------------------------------------- *)

(* A worker's pipes reach EOF a moment before its exit status does; a
   supervisor that lost that race used to sleep to its half-second
   tick.  No job that does nothing may take anywhere near that long.
   Pinned to one CPU (taskset -c 0) the race is lost on most jobs, so
   CI runs this case pinned too. *)
let test_noop_jobs_reaped_at_once () =
  let jobs = List.init 100 (Printf.sprintf "noop-%d") in
  let t0 = Unix.gettimeofday () in
  let reports =
    Serve.run_batch
      ~config:{ Serve.default_config with Serve.jobs = 1 }
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ -> (Serve.Complete, ""))
      jobs
  in
  Alcotest.(check int) "every job reported" 100 (List.length reports);
  let stalled =
    List.filter (fun (r : Serve.report) -> r.Serve.elapsed >= 0.25) reports
  in
  let worst =
    List.fold_left (fun m (r : Serve.report) -> Float.max m r.Serve.elapsed) 0.
      reports
  in
  Alcotest.(check int)
    (Printf.sprintf "jobs at or over 250 ms (slowest %.1f ms)" (worst *. 1e3))
    0 (List.length stalled);
  (* a slot freed by a reap takes the next job in the same round, not
     at the next tick: a tick between jobs would add 50 s *)
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "batch wall %.2f s under 10 s" wall)
    true (wall < 10.)

(* --- kill resilience ----------------------------------------------------- *)

(* the acceptance drill: kill -9 of a worker mid-batch leaves the batch
   completing with that job retried and every job accounted for *)
let test_sigkill_mid_job_is_retried () =
  let victim = "kalah" in
  let jobs = [ "cs"; victim; "disj"; "pg"; "plan" ] in
  let base_crashes = counter "serve.crashes" in
  let base_retries = counter "serve.retries" in
  let reports =
    Serve.run_batch ~config:quick_config
      ~worker:(fun ~job ~attempt:_ ~guard:_ ->
        if String.equal job victim && not (once_marker "sigkill-once") then
          Unix.kill (Unix.getpid ()) Sys.sigkill;
        (Serve.Complete, payload_for job))
      jobs
  in
  Alcotest.(check int) "every job accounted for" (List.length jobs)
    (List.length reports);
  List.iter (check_class "complete") reports;
  let victim_rep = List.find (fun r -> String.equal r.Serve.job victim) reports in
  Alcotest.(check int) "victim needed two attempts" 2 victim_rep.Serve.attempts;
  (match victim_rep.Serve.crashes with
  | [ { Serve.what; _ } ] ->
      Alcotest.(check bool)
        (Printf.sprintf "crash recorded as SIGKILL (got %S)" what)
        true
        (String.length what >= 7 && String.sub what 0 7 = "SIGKILL")
  | l -> Alcotest.failf "expected exactly one crash, got %d" (List.length l));
  Alcotest.(check bool) "serve.crashes bumped" true
    (counter "serve.crashes" > base_crashes);
  Alcotest.(check bool) "serve.retries bumped" true
    (counter "serve.retries" > base_retries)

let test_watchdog_kills_hung_worker () =
  let base_kills = counter "serve.watchdog_kills" in
  let reports =
    Serve.run_batch
      ~config:{ quick_config with Serve.retries = 0; job_timeout = Some 0.25 }
      ~worker:(fun ~job ~attempt:_ ~guard:_ ->
        if String.equal job "sleeper" then Unix.sleepf 30.;
        (Serve.Complete, payload_for job))
      [ "quick"; "sleeper" ]
  in
  Alcotest.(check int) "both jobs reported" 2 (List.length reports);
  check_class "complete" (List.nth reports 0);
  let sleeper = List.nth reports 1 in
  check_class "crashed" sleeper;
  (match sleeper.Serve.outcome with
  | Serve.Crashed { what; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "classified as watchdog kill (got %S)" what)
        true
        (String.length what >= 8 && String.sub what 0 8 = "watchdog")
  | Serve.Done _ -> Alcotest.fail "hung worker reported Done");
  Alcotest.(check bool) "serve.watchdog_kills bumped" true
    (counter "serve.watchdog_kills" > base_kills)

(* a hung worker killed by the watchdog, then clean on retry: the
   ladder turns a transient hang into a completed job *)
let test_hang_then_recover () =
  let reports =
    Serve.run_batch
      ~config:{ quick_config with Serve.retries = 1; job_timeout = Some 0.25 }
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ ->
        if not (once_marker "hang-once") then Unix.sleepf 30.;
        (Serve.Complete, "recovered"))
      [ "flaky" ]
  in
  match reports with
  | [ r ] ->
      check_class "complete" r;
      Alcotest.(check int) "two attempts" 2 r.Serve.attempts;
      Alcotest.(check bool) "backoff was waited" true (r.Serve.backoff > 0.)
  | _ -> Alcotest.fail "one report expected"

(* --- guard faults surface as Partial, not crashes ------------------------ *)

let nat_src = "nat(0). nat(s(X)) :- nat(X)."

let test_injected_fault_is_partial () =
  let base_partials = counter "serve.partials" in
  let reports =
    Serve.run_batch ~config:quick_config
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ ->
        (* PR 2's harness plants the fault inside the evaluation; the
           engine degrades to a sound partial result, and the worker
           reports it as such — process isolation must not turn a
           degraded result into a crash *)
        let db = Prax_logic.Database.create () in
        ignore (Prax_logic.Database.load_string db nat_src);
        let e =
          Prax_tabling.Engine.create ~guard:(Inject.abort_at 200) db
        in
        let status =
          Prax_tabling.Engine.run_status e
            (Prax_logic.Parser.parse_term "nat(X)")
            (fun _ -> ())
        in
        match status with
        | Guard.Partial { reason; _ } ->
            ( Serve.Partial_result (Guard.reason_to_string reason),
              Prax_tabling.Engine.dump_tables e )
        | Guard.Complete -> (Serve.Complete, "unexpectedly complete"))
      [ "faulted" ]
  in
  (match reports with
  | [ r ] -> (
      check_class "partial" r;
      Alcotest.(check int) "no retries burned on a sound result" 1
        r.Serve.attempts;
      match r.Serve.outcome with
      | Serve.Done { status = Serve.Partial_result reason; payload; _ } ->
          Alcotest.(check bool) "fault reason propagated" true
            (String.length reason >= 5 && String.sub reason 0 5 = "fault");
          Alcotest.(check bool) "partial tables delivered" true
            (String.length payload > 0)
      | _ -> Alcotest.fail "expected a partial Done")
  | _ -> Alcotest.fail "one report expected");
  Alcotest.(check bool) "serve.partials bumped" true
    (counter "serve.partials" > base_partials)

(* a rejected input is a delivered result: one fork, no retry, and the
   diagnostic arrives intact *)
let test_invalid_input_not_retried () =
  let base_spawned = counter "serve.workers_spawned" in
  let base_retries = counter "serve.retries" in
  let base_crashes = counter "serve.crashes" in
  let diagnostic = "bad.eq:1:1: unexpected character '%'" in
  let reports =
    Serve.run_batch ~config:quick_config
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ ->
        (Serve.Invalid_input diagnostic, ""))
      [ "bad" ]
  in
  (match reports with
  | [ r ] -> (
      check_class "invalid" r;
      Alcotest.(check int) "one attempt" 1 r.Serve.attempts;
      match r.Serve.outcome with
      | Serve.Done { status = Serve.Invalid_input d; _ } ->
          Alcotest.(check string) "diagnostic delivered" diagnostic d
      | _ -> Alcotest.fail "expected an invalid-input Done")
  | _ -> Alcotest.fail "one report expected");
  Alcotest.(check int) "one worker forked" 1
    (counter "serve.workers_spawned" - base_spawned);
  Alcotest.(check int) "no retries" 0 (counter "serve.retries" - base_retries);
  Alcotest.(check int) "no crashes" 0 (counter "serve.crashes" - base_crashes)

(* a worker whose in-process budget trips returns Partial through the
   scaled budget the supervisor minted for the attempt *)
let test_budget_partial_through_ladder () =
  let reports =
    Serve.run_batch
      ~config:
        { quick_config with Serve.budget = Guard.spec ~max_steps:400 () }
      ~worker:(fun ~job:_ ~attempt:_ ~guard ->
        let db = Prax_logic.Database.create () in
        ignore (Prax_logic.Database.load_string db nat_src);
        let e = Prax_tabling.Engine.create ~guard db in
        match
          Prax_tabling.Engine.run_status e
            (Prax_logic.Parser.parse_term "nat(X)")
            (fun _ -> ())
        with
        | Guard.Partial { reason; _ } ->
            ( Serve.Partial_result (Guard.reason_to_string reason),
              Prax_tabling.Engine.dump_tables e )
        | Guard.Complete -> (Serve.Complete, "unexpectedly complete"))
      [ "diverging" ]
  in
  match reports with
  | [ r ] -> check_class "partial" r
  | _ -> Alcotest.fail "one report expected"

(* --- the ladder bottoms out cleanly -------------------------------------- *)

let test_crashed_after_all_retries () =
  let reports =
    Serve.run_batch ~config:{ quick_config with Serve.retries = 2 }
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ ->
        prerr_endline "this worker always dies";
        (* _exit: the forked child must not flush the test harness's
           inherited stdout buffer on its way out *)
        Unix._exit 70)
      [ "doomed" ]
  in
  match reports with
  | [ r ] -> (
      check_class "crashed" r;
      Alcotest.(check int) "all attempts used" 3 r.Serve.attempts;
      Alcotest.(check int) "every attempt recorded" 3
        (List.length r.Serve.crashes);
      match r.Serve.outcome with
      | Serve.Crashed { what; stderr; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "exit status captured (got %S)" what)
            true
            (String.length what >= 7 && String.sub what 0 7 = "exit 70");
          Alcotest.(check bool) "stderr captured" true
            (String.length stderr > 0
            && String.sub stderr 0 4 = "this")
      | Serve.Done _ -> Alcotest.fail "doomed worker reported Done")
  | _ -> Alcotest.fail "one report expected"

(* an uncaught worker exception is a crash with the exception on stderr *)
let test_uncaught_exception_is_crash () =
  let reports =
    Serve.run_batch ~config:{ quick_config with Serve.retries = 0 }
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ -> failwith "analyzer bug")
      [ "buggy" ]
  in
  match reports with
  | [ { Serve.outcome = Serve.Crashed { stderr; _ }; _ } ] ->
      Alcotest.(check bool)
        (Printf.sprintf "exception text captured (got %S)" stderr)
        true
        (let needle = "analyzer bug" in
         let n = String.length stderr and m = String.length needle in
         let rec find i =
           i + m <= n
           && (String.equal (String.sub stderr i m) needle || find (i + 1))
         in
         find 0)
  | _ -> Alcotest.fail "expected a crashed report"

(* --- warm-start hooks ----------------------------------------------------- *)

let test_cache_hooks () =
  let persisted = ref [] in
  let base_cache = counter "serve.cache_answers" in
  let reports =
    Serve.run_batch ~config:quick_config
      ~cached:(fun ~job ->
        if String.equal job "warm" then Some "from the store" else None)
      ~persist:(fun ~job ~payload -> persisted := (job, payload) :: !persisted)
      ~worker:(fun ~job ~attempt:_ ~guard:_ -> (Serve.Complete, payload_for job))
      [ "warm"; "cold" ]
  in
  (match reports with
  | [ warm; cold ] ->
      check_class "cached" warm;
      Alcotest.(check int) "cached jobs never fork" 0 warm.Serve.attempts;
      (match warm.Serve.outcome with
      | Serve.Done { payload; from_cache = true; _ } ->
          Alcotest.(check string) "cache payload" "from the store" payload
      | _ -> Alcotest.fail "warm not served from cache");
      check_class "complete" cold
  | _ -> Alcotest.fail "two reports expected");
  Alcotest.(check (list (pair string string))) "complete results persisted"
    [ ("cold", payload_for "cold") ]
    !persisted;
  Alcotest.(check bool) "serve.cache_answers bumped" true
    (counter "serve.cache_answers" > base_cache)

(* --- env-planted worker faults (the CI fault-injection surface) ---------- *)

let test_env_fault_grammar () =
  let f v job attempt =
    Inject.worker_fault_of_string ~job ~attempt v
  in
  Alcotest.(check bool) "crash matches job+attempt" true
    (f "crash:kalah:1" "kalah" 1 = Some Inject.Kill_self);
  Alcotest.(check bool) "attempt mismatch" true
    (f "crash:kalah:1" "kalah" 2 = None);
  Alcotest.(check bool) "job wildcard" true
    (f "exit:*:2" "anything" 2 = Some Inject.Exit_nonzero);
  Alcotest.(check bool) "any attempt when omitted" true
    (f "hang:qsort" "qsort" 7 = Some Inject.Hang);
  Alcotest.(check bool) "first match wins across directives" true
    (f "crash:a:1,hang:b" "b" 3 = Some Inject.Hang);
  (* batch job ids contain ':' — the attempt selector is only the last
     segment, and only when it is an integer *)
  Alcotest.(check bool) "colon in job id, no attempt" true
    (f "crash:groundness:qsort" "groundness:qsort" 2 = Some Inject.Kill_self);
  Alcotest.(check bool) "colon in job id, with attempt" true
    (f "crash:groundness:qsort:1" "groundness:qsort" 1 = Some Inject.Kill_self);
  Alcotest.(check bool) "colon in job id, attempt mismatch" true
    (f "crash:groundness:qsort:1" "groundness:qsort" 2 = None);
  Alcotest.(check bool) "junk is inert" true (f "frobnicate" "x" 1 = None)

let test_env_planted_crash_retried () =
  (* plant a first-attempt SIGKILL through the same env surface the CI
     sweep uses, then confirm the ladder absorbs it *)
  Unix.putenv Inject.inject_worker_var "crash:victim:1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv Inject.inject_worker_var "")
    (fun () ->
      let reports =
        Serve.run_batch ~config:quick_config
          ~worker:(fun ~job ~attempt ~guard:_ ->
            (match Inject.worker_fault_of_env ~job ~attempt () with
            | Some fault -> Inject.apply_worker_fault fault
            | None -> ());
            (Serve.Complete, payload_for job))
          [ "victim"; "bystander" ]
      in
      Alcotest.(check int) "both jobs reported" 2 (List.length reports);
      List.iter (check_class "complete") reports;
      let victim = List.hd reports in
      Alcotest.(check int) "victim retried" 2 victim.Serve.attempts)

let () =
  Alcotest.run "serve"
    [
      ( "supervision",
        [
          Alcotest.test_case "all jobs complete, order kept" `Quick
            test_all_complete;
          Alcotest.test_case "SIGKILL mid-job is retried" `Quick
            test_sigkill_mid_job_is_retried;
          Alcotest.test_case "watchdog kills hung worker" `Quick
            test_watchdog_kills_hung_worker;
          Alcotest.test_case "hang then recover via retry" `Quick
            test_hang_then_recover;
        ] );
      ( "reap",
        [
          Alcotest.test_case "100 no-op jobs reaped at once" `Quick
            test_noop_jobs_reaped_at_once;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "injected guard fault => Partial" `Quick
            test_injected_fault_is_partial;
          Alcotest.test_case "budget trip => Partial through ladder" `Quick
            test_budget_partial_through_ladder;
          Alcotest.test_case "crashed after all retries" `Quick
            test_crashed_after_all_retries;
          Alcotest.test_case "uncaught exception is a crash" `Quick
            test_uncaught_exception_is_crash;
          Alcotest.test_case "invalid input answered after one fork" `Quick
            test_invalid_input_not_retried;
        ] );
      ( "warm-start",
        [ Alcotest.test_case "cache and persist hooks" `Quick test_cache_hooks ]
      );
      ( "fault-injection",
        [
          Alcotest.test_case "env grammar" `Quick test_env_fault_grammar;
          Alcotest.test_case "env-planted crash retried" `Quick
            test_env_planted_crash_retried;
        ] );
    ]

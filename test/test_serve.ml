(* Tests for the process-isolated worker supervisor
   (docs/ROBUSTNESS.md): a SIGKILLed worker is retried and the batch
   still reports every job; a worker sleeping past the watchdog is
   killed; injected guard faults surface as Partial, not crashes; the
   degradation ladder bottoms out in a Crashed record carrying exit
   status and stderr.  Workers outlive attempts: a reused worker's
   reports equal a fresh worker's, the heap bound recycles a worker, and
   a bad frame kills only its worker and its attempt. *)

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
  }

let payload_for job = "result:" ^ job

let contains ~needle s =
  let n = String.length s and m = String.length needle in
  let rec find i =
    i + m <= n && (String.equal (String.sub s i m) needle || find (i + 1))
  in
  find 0

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
        (contains ~needle:"analyzer bug" stderr)
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

(* --- long-lived workers ----------------------------------------------------- *)

module Analysis = Prax_analysis.Analysis
module Analyses = Prax_analyses.Analyses
module Registry = Prax_benchdata.Registry

(* Drive a pool to idle the way a host does, collecting every report. *)
let run_pool pool =
  let reports = ref [] in
  let readable = ref [] in
  while not (Serve.Pool.idle pool) do
    reports := !reports @ Serve.Pool.step pool ~readable:!readable;
    readable := [];
    if not (Serve.Pool.idle pool) then begin
      let now = Unix.gettimeofday () in
      let wake =
        Option.fold ~none:(now +. 0.5) ~some:(Float.min (now +. 0.5))
          (Serve.Pool.next_wake pool)
      in
      match
        Unix.select (Serve.Pool.fds pool) [] [] (Float.max 0. (wake -. now))
      with
      | r, _, _ -> readable := r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  !reports

(* deterministic budgets, as in test_incr: steps and table bytes, never
   wall clock, so a reused and a fresh worker trip at the same point *)
let reuse_config =
  {
    Serve.default_config with
    Serve.jobs = 1;
    retries = 0;
    budget =
      Guard.spec ~max_steps:4_000_000 ~max_table_bytes:(32 * 1024 * 1024) ();
  }

type reuse_job = Analyze of string * string * string | Grow_heap

(* more than [Serve.recycle_heap_bytes] of small live blocks *)
let grow_heap () =
  let words = 2 * Serve.recycle_heap_bytes / (Sys.word_size / 8) in
  let l = Sys.opaque_identity (List.init (words / 3) Fun.id) in
  ignore (List.length l)

let reuse_worker ~job:_ ~attempt:_ ~guard = function
  | Analyze (analysis, input, source) ->
      let a = Option.get (Analysis.find analysis) in
      Analyses.run_job a ~config:a.Analysis.defaults ~guard ~input source
  | Grow_heap ->
      grow_heap ();
      (Serve.Complete, "grown")

let without_phases payload =
  match Metrics.json_of_string payload with
  | Metrics.Obj fields ->
      Metrics.json_to_string
        (Metrics.Obj (List.filter (fun (k, _) -> k <> "phases") fields))
  | _ -> Alcotest.failf "report is not a JSON object: %s" payload

let payload_of (r : Serve.report) =
  match r.Serve.outcome with
  | Serve.Done { payload; status = Serve.Complete; _ } -> without_phases payload
  | _ ->
      Alcotest.failf "%s: %s, not complete" r.Serve.job
        (Serve.outcome_class r.Serve.outcome)

(* a fresh worker's report: a new pool forks a new worker for it *)
let fresh_report (analysis, input, source) =
  let pool = Serve.Pool.create ~config:reuse_config ~worker:reuse_worker () in
  Serve.Pool.submit pool input (Analyze (analysis, input, source));
  let r = run_pool pool in
  ignore (Serve.Pool.kill_all pool);
  match r with
  | [ r ] -> payload_of r
  | _ -> Alcotest.fail "one report expected"

let test_reused_worker_reports_identical () =
  let corpus = Registry.light_corpus in
  let shuffled =
    let st = Random.State.make [| 17 |] in
    List.map snd
      (List.sort compare
         (List.map (fun c -> (Random.State.bits st, c)) corpus))
  in
  let base_spawned = counter "serve.workers_spawned" in
  let base_recycled = counter "serve.workers_recycled" in
  let pool = Serve.Pool.create ~config:reuse_config ~worker:reuse_worker () in
  let submit_all tag =
    List.iter
      (fun (analysis, input, source) ->
        Serve.Pool.submit pool (tag ^ input) (Analyze (analysis, input, source)))
  in
  submit_all "warm:" shuffled;
  List.iter (fun r -> ignore (payload_of r)) (run_pool pool);
  submit_all "reused:" corpus;
  let reused = run_pool pool in
  ignore (Serve.Pool.kill_all pool);
  Alcotest.(check int) "one worker served both passes" 1
    (counter "serve.workers_spawned" - base_spawned);
  Alcotest.(check int) "the light corpus never recycles" 0
    (counter "serve.workers_recycled" - base_recycled);
  List.iter2
    (fun ((_, input, _) as c) (r : Serve.report) ->
      Alcotest.(check string) "reports come back in order" ("reused:" ^ input)
        r.Serve.job;
      Alcotest.(check string)
        (Printf.sprintf "%s: reused worker == fresh worker" input)
        (fresh_report c) (payload_of r))
    corpus reused

let test_heap_bound_recycles_worker () =
  let ((_, input, _) as qsort) =
    List.find (fun (_, i, _) -> i = "qsort") Registry.light_corpus
  in
  let analyze (analysis, input, source) = Analyze (analysis, input, source) in
  let pool = Serve.Pool.create ~config:reuse_config ~worker:reuse_worker () in
  Serve.Pool.submit pool "first" (analyze qsort);
  ignore (run_pool pool);
  let base_spawned = counter "serve.workers_spawned" in
  let base_recycled = counter "serve.workers_recycled" in
  Serve.Pool.submit pool "heavy" Grow_heap;
  ignore (run_pool pool);
  Serve.Pool.submit pool "after" (analyze qsort);
  let after = run_pool pool in
  ignore (Serve.Pool.kill_all pool);
  Alcotest.(check int) "the heavy job's worker retired" 1
    (counter "serve.workers_recycled" - base_recycled);
  Alcotest.(check int) "the next job ran on a new worker" 1
    (counter "serve.workers_spawned" - base_spawned);
  match after with
  | [ r ] ->
      Alcotest.(check string)
        (input ^ ": recycled worker == fresh worker")
        (fresh_report qsort) (payload_of r)
  | _ -> Alcotest.fail "one report expected"

(* A bad frame written into a live worker's stream (the worker has
   already delivered one good frame) kills and replaces that worker and
   crashes only its attempt; the job queued behind it completes. *)
let frame_fault_case ~fault ~expect () =
  let base_spawned = counter "serve.workers_spawned" in
  let base_bad = counter "serve.bad_frames" in
  let base_crashes = counter "serve.crashes" in
  let reports =
    Serve.run_batch
      ~config:
        { quick_config with Serve.jobs = 1; retries = 0; max_frame_bytes = 1024 }
      ~worker:(fun ~job ~attempt:_ ~guard:_ ->
        if String.equal job "bad" then begin
          match fault with
          | `Arm f -> Serve.arm_frame_fault f
          | `Oversize -> ()
        end;
        ( Serve.Complete,
          if String.equal job "bad" && fault = `Oversize then String.make 4096 'x'
          else payload_for job ))
      [ "before"; "bad"; "after" ]
  in
  match reports with
  | [ before; bad; after ] ->
      check_class "complete" before;
      check_class "complete" after;
      Alcotest.(check int) "the job behind ran once" 1 after.Serve.attempts;
      (match bad.Serve.outcome with
      | Serve.Crashed { what; _ } ->
          Alcotest.(check string) "crash names the frame fault"
            ("bad frame: " ^ expect) what
      | Serve.Done _ -> Alcotest.fail "a bad frame was taken for a result");
      Alcotest.(check int) "serve.bad_frames +1" 1
        (counter "serve.bad_frames" - base_bad);
      Alcotest.(check int) "only that attempt crashed" 1
        (counter "serve.crashes" - base_crashes);
      Alcotest.(check int) "the worker was killed and replaced" 2
        (counter "serve.workers_spawned" - base_spawned)
  | _ -> Alcotest.fail "three reports expected"

(* a planted Kill_self or Hang on one job leaves the job queued behind
   it on the same slot to complete, on a replacement worker *)
let fault_leaves_next_job fault () =
  let reports =
    Serve.run_batch
      ~config:
        { quick_config with Serve.jobs = 1; retries = 0; job_timeout = Some 0.25 }
      ~worker:(fun ~job ~attempt:_ ~guard:_ ->
        if String.equal job "victim" then Inject.apply_worker_fault fault;
        (Serve.Complete, payload_for job))
      [ "victim"; "behind" ]
  in
  match reports with
  | [ victim; behind ] ->
      check_class "crashed" victim;
      check_class "complete" behind;
      Alcotest.(check int) "the job behind ran once" 1 behind.Serve.attempts
  | _ -> Alcotest.fail "two reports expected"

(* A worker that died while idle still holds its slot until its EOF is
   seen; a job dispatched to it meets a closed request pipe.  That is an
   EPIPE crash of the attempt, retried on a fresh worker, and never a
   SIGPIPE: this test process does not ignore SIGPIPE, so one would
   kill it. *)
let test_dead_idle_worker_is_epipe_crash () =
  let pool =
    Serve.Pool.create
      ~config:{ quick_config with Serve.jobs = 1; retries = 1 }
      ~worker:(fun ~job:_ ~attempt:_ ~guard:_ () ->
        (Serve.Complete, string_of_int (Unix.getpid ())))
      ()
  in
  Serve.Pool.submit pool "first" ();
  let pid =
    match run_pool pool with
    | [ { Serve.outcome = Serve.Done { payload; _ }; _ } ] ->
        int_of_string payload
    | _ -> Alcotest.fail "first job did not complete"
  in
  Unix.kill pid Sys.sigkill;
  Unix.sleepf 0.1;
  Serve.Pool.submit pool "second" ();
  (* a round that reads nothing: the dead worker's EOF is not yet seen
     when the job is dispatched *)
  Alcotest.(check int) "nothing finished in the dispatch round" 0
    (List.length (Serve.Pool.step pool ~readable:[]));
  let reports = run_pool pool in
  ignore (Serve.Pool.kill_all pool);
  match reports with
  | [ r ] -> (
      check_class "complete" r;
      Alcotest.(check int) "retried once" 2 r.Serve.attempts;
      match r.Serve.crashes with
      | [ { Serve.what; _ } ] ->
          Alcotest.(check bool)
            (Printf.sprintf "crash is the request pipe (got %S)" what)
            true
            (contains ~needle:"request pipe" what)
      | l -> Alcotest.failf "expected one crash, got %d" (List.length l))
  | _ -> Alcotest.fail "one report expected"

let test_worker_cpu_counted () =
  let base = counter "serve.worker_cpu_ms" in
  ignore
    (Serve.run_batch
       ~config:{ quick_config with Serve.jobs = 1 }
       ~worker:(fun ~job ~attempt:_ ~guard:_ ->
         (* 50 ms of CPU, however the clock ticks *)
         let t0 = Sys.time () in
         while Sys.time () -. t0 < 0.05 do
           ignore (Sys.opaque_identity (Array.make 16 0))
         done;
         (Serve.Complete, payload_for job))
       [ "spin-1"; "spin-2" ]);
  let ms = counter "serve.worker_cpu_ms" - base in
  Alcotest.(check bool)
    (Printf.sprintf "two 50 ms jobs on a live worker: %d ms counted" ms)
    true (ms >= 90)

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
      ( "reuse",
        [
          Alcotest.test_case "reused worker reports == fresh worker's" `Quick
            test_reused_worker_reports_identical;
          Alcotest.test_case "heap bound recycles the worker" `Quick
            test_heap_bound_recycles_worker;
          Alcotest.test_case "worker CPU counted from frames" `Quick
            test_worker_cpu_counted;
          Alcotest.test_case "dead idle worker: EPIPE crash, host lives"
            `Quick test_dead_idle_worker_is_epipe_crash;
        ] );
      ( "frame-faults",
        [
          Alcotest.test_case "unknown status byte kills the worker" `Quick
            (frame_fault_case ~fault:(`Arm Serve.Unknown_status)
               ~expect:"unknown frame status '?'");
          Alcotest.test_case "digest mismatch kills the worker" `Quick
            (frame_fault_case ~fault:(`Arm Serve.Digest_mismatch)
               ~expect:"frame digest mismatch");
          Alcotest.test_case "length over the cap kills the worker" `Quick
            (frame_fault_case ~fault:`Oversize
               ~expect:"frame payload over limit");
          Alcotest.test_case "Kill_self leaves the next job to complete" `Quick
            (fault_leaves_next_job Inject.Kill_self);
          Alcotest.test_case "Hang leaves the next job to complete" `Quick
            (fault_leaves_next_job Inject.Hang);
        ] );
    ]

(* End-to-end tests through the built binaries: the documented exit
   codes (docs/ROBUSTNESS.md) are locked here — 0 complete, 1 input
   error, 3 partial, 4 worker crashed after retries — plus the batch
   warm start against a persistent store and praxtop's EOF / SIGINT
   session behavior. *)

module Metrics = Prax_metrics.Metrics

(* the dune stanza declares both executables as deps; they live next to
   this test in the build tree (_build/default/{test,bin}), so resolve
   them relative to our own binary and the tests run the same under
   `dune runtest` and `dune exec` *)
let bin name =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    name

let xanalyze = bin "xanalyze.exe"
let praxtop = bin "praxtop.exe"

(* --- process plumbing ---------------------------------------------------- *)

type result = { code : int; out : string; err : string }

let env_with extra =
  Array.append (Unix.environment ())
    (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) extra))

(* Spawn [argv], feed [stdin_data], drain stdout/stderr concurrently
   (select: neither pipe may fill and deadlock the child), reap. *)
let run ?(env = []) ?(stdin_data = "") argv =
  let prog = List.hd argv in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env prog (Array.of_list argv) (env_with env) in_r
      out_w err_w
  in
  Unix.close in_r;
  Unix.close out_w;
  Unix.close err_w;
  (* the inputs here are small (well under the pipe capacity), so the
     child cannot block on its output while we finish writing *)
  let n = String.length stdin_data in
  let written = ref 0 in
  (try
     while !written < n do
       written :=
         !written + Unix.write_substring in_w stdin_data !written (n - !written)
     done
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Unix.close in_w;
  let out_buf = Buffer.create 1024 and err_buf = Buffer.create 1024 in
  let open_fds = ref [ (out_r, out_buf); (err_r, err_buf) ] in
  let chunk = Bytes.create 8192 in
  while !open_fds <> [] do
    let ready, _, _ = Unix.select (List.map fst !open_fds) [] [] (-1.) in
    List.iter
      (fun fd ->
        let buf = List.assoc fd !open_fds in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            Unix.close fd;
            open_fds := List.remove_assoc fd !open_fds
        | k -> Buffer.add_subbytes buf chunk 0 k
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      ready
  done;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED sg -> 128 + abs sg
    | Unix.WSTOPPED _ -> 255
  in
  { code; out = Buffer.contents out_buf; err = Buffer.contents err_buf }

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    i + m <= n && (String.equal (String.sub hay i m) needle || go (i + 1))
  in
  go 0

let check_code what expected r =
  Alcotest.(check int)
    (Printf.sprintf "%s exits %d (stdout=%S stderr=%S)" what expected
       (String.sub r.out 0 (min 200 (String.length r.out)))
       (String.sub r.err 0 (min 200 (String.length r.err))))
    expected r.code

let with_temp_dir prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* --- the documented exit codes ------------------------------------------- *)

let test_exit_complete () =
  let r =
    run ~stdin_data:"p(a). q(X) :- p(X)."
      [ xanalyze; "analyze"; "groundness"; "-" ]
  in
  check_code "complete analysis" 0 r;
  Alcotest.(check bool) "report printed" true (String.length r.out > 0)

let test_exit_input_error () =
  let r =
    run ~stdin_data:"p(a" [ xanalyze; "analyze"; "groundness"; "-" ]
  in
  check_code "malformed input" 1 r;
  Alcotest.(check bool) "structured diagnostic on stderr" true
    (String.length r.err > 0);
  let r = run [ xanalyze; "batch" ] in
  check_code "batch with nothing to do" 1 r;
  let r = run [ xanalyze; "batch"; "--corpus"; "no_such_benchmark" ] in
  check_code "batch with unknown benchmark" 1 r

(* a batch job whose source the worker rejects is reported invalid after
   one attempt, with its diagnostic, and the batch exits 1 *)
let test_batch_invalid_input () =
  with_temp_dir "prax-cli-invalid" (fun dir ->
      Out_channel.with_open_text (Filename.concat dir "bad.eq") (fun oc ->
          output_string oc "% not an equation comment\nf x = x;\n");
      Out_channel.with_open_text (Filename.concat dir "ok.pl") (fun oc ->
          output_string oc "p(a). q(X) :- p(X).\n");
      let r = run [ xanalyze; "batch"; dir; "--retries"; "2" ] in
      check_code "batch with a rejected input" 1 r;
      Alcotest.(check bool) "invalid job after one attempt" true
        (contains r.out "invalid  1 attempt ");
      Alcotest.(check bool) "diagnostic in the summary" true
        (contains r.out "bad.eq:1:1:"))

let test_exit_partial () =
  let r =
    run
      [
        xanalyze; "analyze"; "groundness"; "cs"; "--bench"; "--max-steps";
        "10";
      ]
  in
  check_code "budget-bounded analysis" 3 r;
  Alcotest.(check bool) "partial notice on stderr" true
    (contains r.err "budget exhausted");
  (* a batch containing a partial job also exits 3 *)
  let r =
    run
      [
        xanalyze; "batch"; "--corpus"; "cs"; "--max-steps"; "10"; "--retries";
        "0";
      ]
  in
  check_code "batch with a partial job" 3 r

let test_exit_crashed () =
  (* every attempt of the one job is made to exit(70) through the
     fault-injection env surface: the batch must finish, account for
     the job, and exit 4 *)
  let r =
    run
      ~env:[ ("PRAX_INJECT_WORKER", "exit:*") ]
      [ xanalyze; "batch"; "--corpus"; "qsort"; "--retries"; "1" ]
  in
  check_code "batch with a crashed-out job" 4 r;
  Alcotest.(check bool) "crash reported in the batch summary" true
    (contains r.out "crashed");
  (* a crash on the first attempt only: absorbed by the retry, exit 0 *)
  let r =
    run
      ~env:[ ("PRAX_INJECT_WORKER", "crash:groundness:qsort:1") ]
      [ xanalyze; "batch"; "--corpus"; "qsort"; "--retries"; "2" ]
  in
  check_code "batch absorbing a first-attempt crash" 0 r;
  Alcotest.(check bool) "retry visible in the report" true
    (contains r.out "2 attempts")

(* --- the analysis registry (docs/ANALYSES.md) ----------------------------- *)

let analyses = [ "groundness"; "strictness"; "depthk"; "gaia"; "dataflow" ]

let test_list_analyses () =
  let r = run [ xanalyze; "--list-analyses" ] in
  check_code "--list-analyses" 0 r;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains r.out name))
    analyses

let test_analyze_dispatch () =
  (* the generic front door runs any registered analysis... *)
  let r =
    run ~stdin_data:"p(a). q(X) :- p(X)."
      [ xanalyze; "analyze"; "gaia"; "-" ]
  in
  check_code "analyze gaia" 0 r;
  (* ... accepts --set assignments declared by the analysis ... *)
  let r =
    run ~stdin_data:"p(a)."
      [ xanalyze; "analyze"; "depthk"; "-"; "--set"; "k=1" ]
  in
  check_code "analyze depthk --set k=1" 0 r;
  (* ... and maps config mistakes to the input-error exit code *)
  let r =
    run ~stdin_data:"p(a)."
      [ xanalyze; "analyze"; "depthk"; "-"; "--set"; "k=many" ]
  in
  check_code "malformed value" 1 r;
  let r =
    run ~stdin_data:"p(a)."
      [ xanalyze; "analyze"; "gaia"; "-"; "--set"; "bogus=1" ]
  in
  check_code "unknown key" 1 r;
  let r = run ~stdin_data:"p(a)." [ xanalyze; "analyze"; "nosuch"; "-" ] in
  check_code "unknown analysis" 1 r;
  Alcotest.(check bool) "registered names suggested" true
    (contains r.err "groundness");
  (* groundness mode is an enum: unknown values are rejected with a
     diagnostic naming every valid mode, and def is one of them *)
  let r =
    run ~stdin_data:"p(a)."
      [ xanalyze; "analyze"; "groundness"; "-"; "--set"; "mode=bogus" ]
  in
  check_code "unknown groundness mode" 1 r;
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " named in diagnostic") true
        (contains r.err m))
    [ "dynamic"; "compiled"; "def" ];
  let r =
    run ~stdin_data:"p(a)."
      [ xanalyze; "analyze"; "groundness"; "-"; "--set"; "mode=def" ]
  in
  check_code "analyze groundness --set mode=def" 0 r

(* depthk's registry default is k=1, the depth of Table 4: on qsort,
   whose k=1 and k=2 reports differ, a run without --set prints the
   k=1 report *)
let test_depthk_default () =
  let report sets =
    let r =
      run ([ xanalyze; "analyze"; "depthk"; "qsort"; "--bench" ] @ sets)
    in
    check_code ("analyze depthk qsort " ^ String.concat " " sets) 0 r;
    r.out
  in
  let default = report [] in
  Alcotest.(check bool) "k=1 and k=2 reports differ on qsort" true
    (report [ "--set"; "k=1" ] <> report [ "--set"; "k=2" ]);
  Alcotest.(check string) "the default is the k=1 report"
    (report [ "--set"; "k=1" ])
    default

let test_batch_per_analysis () =
  (* every registered analysis sweeps its slice of the corpus through
     the same batch door; cfg corpus is small enough for a test *)
  let r =
    run [ xanalyze; "batch"; "--corpus"; "all"; "--analysis"; "dataflow" ]
  in
  check_code "batch --analysis dataflow" 0 r;
  Alcotest.(check bool) "cfg benchmarks swept" true (contains r.out "interp");
  let r =
    run
      [
        xanalyze; "batch"; "--corpus"; "qsort"; "--analysis"; "nosuch";
      ]
  in
  check_code "batch with unknown analysis" 1 r

(* --- worker count does not change a batch's answers ---------------------- *)

let test_batch_jobs_agree () =
  (* progress lines arrive in completion order, so compare the sorted
     (job, outcome class) pairs — the counter and wall-time columns vary
     from run to run — and the summary block, which is in input order *)
  let batch jobs =
    run
      [
        xanalyze; "batch"; "--corpus"; "cs,qsort,disj,queens"; "--jobs";
        string_of_int jobs;
      ]
  in
  let lines r = String.split_on_char '\n' r.out in
  let outcomes r =
    List.filter_map
      (fun line ->
        if String.starts_with ~prefix:"[" line then
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | _counter :: job :: cls :: _ -> Some (job ^ " " ^ cls)
          | _ -> None
        else None)
      (lines r)
    |> List.sort compare
  in
  let rec from_summary = function
    | l :: rest when not (String.starts_with ~prefix:"batch: " l) ->
        from_summary rest
    | block -> block
  in
  let summary r = from_summary (lines r) in
  let serial = batch 1 in
  check_code "--jobs 1" 0 serial;
  let wide = batch 4 in
  check_code "--jobs 4" 0 wide;
  Alcotest.(check int) "one progress line per job" 4
    (List.length (outcomes serial));
  Alcotest.(check (list string))
    "same (job, outcome class) pairs" (outcomes serial) (outcomes wide);
  Alcotest.(check bool) "summary block present" true (summary serial <> []);
  Alcotest.(check (list string))
    "same summary block" (summary serial) (summary wide)

let test_praxtop_analyses () =
  let r =
    run
      ~stdin_data:
        ":- analyses.\n:- analyze(gaia, bench(qsort)).\n:- analyze(nosuch, \
         bench(qsort)).\n:- halt.\n"
      [ praxtop ]
  in
  check_code "praxtop registry session" 0 r;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true (contains r.out name))
    analyses;
  Alcotest.(check bool) "analysis ran" true (contains r.out "phases:");
  Alcotest.(check bool) "unknown analysis survives the session" true
    (contains r.out "unknown analysis nosuch")

(* --- batch warm start ----------------------------------------------------- *)

let corpus = "cs,disj,gabriel,qsort,mergesort"
let corpus_size = 5

let stats_int doc key =
  match Metrics.member key doc with
  | Some (Metrics.Int n) -> n
  | _ -> Alcotest.failf "stats document lacks %s" key

let counter_int doc name =
  match Metrics.member "counters" doc with
  | Some c -> (
      match Metrics.member name c with
      | Some (Metrics.Int n) -> n
      | _ -> Alcotest.failf "stats document lacks counter %s" name)
  | None -> Alcotest.fail "stats document lacks counters"

let test_batch_warm_start () =
  with_temp_dir "prax-cli-store" (fun store ->
      let batch () =
        run
          [
            xanalyze; "batch"; "--corpus"; corpus; "--jobs"; "2"; "--store";
            store; "--stats=json";
          ]
      in
      let cold = batch () in
      check_code "cold batch" 0 cold;
      let cold_doc = Metrics.json_of_string (String.trim cold.out) in
      Alcotest.(check int) "cold: all jobs complete" corpus_size
        (stats_int cold_doc "complete");
      Alcotest.(check int) "cold: nothing from the store" 0
        (stats_int cold_doc "from_cache");
      Alcotest.(check int) "cold: every result persisted" corpus_size
        (counter_int cold_doc "store.writes");
      let warm = batch () in
      check_code "warm batch" 0 warm;
      let warm_doc = Metrics.json_of_string (String.trim warm.out) in
      (* the acceptance bar is >= 90% store hits; with a quiescent store
         directory every job must hit *)
      Alcotest.(check int) "warm: every job from the store" corpus_size
        (stats_int warm_doc "from_cache");
      Alcotest.(check int) "warm: store.hits counts them" corpus_size
        (counter_int warm_doc "store.hits");
      Alcotest.(check int) "warm: no workers forked" 0
        (counter_int warm_doc "serve.workers_spawned");
      (* corrupting one snapshot byte degrades that job to recompute *)
      let snaps =
        Sys.readdir store |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
        |> List.sort String.compare
      in
      Alcotest.(check int) "one snapshot per job" corpus_size
        (List.length snaps);
      let victim = Filename.concat store (List.hd snaps) in
      let raw = In_channel.with_open_bin victim In_channel.input_all in
      let flipped = Bytes.of_string raw in
      let off = String.length raw / 2 in
      Bytes.set flipped off (Char.chr (Char.code raw.[off] lxor 0x01));
      Out_channel.with_open_bin victim (fun oc ->
          Out_channel.output_bytes oc flipped);
      let healed = batch () in
      check_code "batch over a corrupt snapshot" 0 healed;
      let healed_doc = Metrics.json_of_string (String.trim healed.out) in
      Alcotest.(check int) "corruption detected exactly once" 1
        (counter_int healed_doc "store.corrupt_detected");
      Alcotest.(check int) "the corrupt job recomputed, the rest hit"
        (corpus_size - 1)
        (stats_int healed_doc "from_cache");
      Alcotest.(check int) "recomputed result re-persisted" 1
        (counter_int healed_doc "store.writes"))

(* --- batch interrupt ------------------------------------------------------ *)

(* live PIDs (other than our own) whose environment carries [marker] —
   the orphan probe: workers inherit the batch's environment, so any
   process still wearing the marker after the batch died is a leak *)
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

let test_batch_sigterm_interrupt () =
  (* SIGTERM mid-batch: every in-flight worker is killed and reaped,
     the batch exits 143 with a notice — never a silent signal death
     (which the harness would surface as 128+N) and never an orphan *)
  let marker = Printf.sprintf "prax-orphan-probe-%d" (Unix.getpid ()) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env xanalyze
      [|
        xanalyze; "batch"; "--corpus"; "all"; "--jobs"; "2"; "--retries"; "0";
      |]
      (env_with
         [
           (* wedge every worker so the batch is reliably mid-flight *)
           ("PRAX_INJECT_WORKER", "hang:*");
           ("PRAX_ORPHAN_MARKER", marker);
         ])
      null out_w err_w
  in
  Unix.close null;
  Unix.close out_w;
  Unix.close err_w;
  (* let the supervisor fork its workers before interrupting *)
  Unix.sleepf 1.0;
  Unix.kill pid Sys.sigterm;
  let out_buf = Buffer.create 1024 and err_buf = Buffer.create 1024 in
  let open_fds = ref [ (out_r, out_buf); (err_r, err_buf) ] in
  let chunk = Bytes.create 8192 in
  while !open_fds <> [] do
    let ready, _, _ = Unix.select (List.map fst !open_fds) [] [] (-1.) in
    List.iter
      (fun fd ->
        let buf = List.assoc fd !open_fds in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            Unix.close fd;
            open_fds := List.remove_assoc fd !open_fds
        | k -> Buffer.add_subbytes buf chunk 0 k
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      ready
  done;
  let _, status = Unix.waitpid [] pid in
  let err = Buffer.contents err_buf in
  (match status with
  | Unix.WEXITED 143 -> ()
  | Unix.WEXITED c ->
      Alcotest.failf "batch exited %d, wanted 143 (stderr %S)" c err
  | Unix.WSIGNALED _ ->
      Alcotest.failf "batch died of the raw signal (stderr %S)" err
  | Unix.WSTOPPED _ -> Alcotest.fail "batch stopped");
  Alcotest.(check bool) "interrupt notice on stderr" true
    (contains err "interrupted");
  (* the workers were SIGKILLed and reaped before the batch exited *)
  match procs_with_env marker with
  | [] -> ()
  | orphans ->
      Alcotest.failf "orphaned workers left behind: %s"
        (String.concat ", " (List.map string_of_int orphans))

(* --- praxtop session behavior -------------------------------------------- *)

let test_praxtop_eof_halts () =
  (* Ctrl-D at the prompt: clean halt, exit 0, same farewell as :- halt. *)
  let r = run ~stdin_data:"p(a).\n" [ praxtop ] in
  check_code "praxtop on EOF" 0 r;
  Alcotest.(check bool) "clean farewell" true (contains r.out "bye.");
  Alcotest.(check bool) "farewell on its own line" true
    (contains r.out "\nbye.")

let test_praxtop_sigint_aborts_query () =
  (* a diverging SLD query, interrupted: the query dies, the session
     survives to answer another query and halt cleanly *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process praxtop [| praxtop |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let send s = ignore (Unix.write_substring in_w s 0 (String.length s)) in
  send "loop :- loop.\n";
  send ":- sld(loop).\n";
  (* let it reach the divergence before interrupting *)
  Unix.sleepf 1.0;
  Unix.kill pid Sys.sigint;
  Unix.sleepf 0.2;
  send "p(a).\n";
  send ":- halt.\n";
  Unix.close in_w;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read out_r chunk 0 (Bytes.length chunk) with
    | 0 -> Unix.close out_r
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let _, status = Unix.waitpid [] pid in
  let out = Buffer.contents buf in
  Alcotest.(check bool)
    (Printf.sprintf "exited cleanly (output %S)" out)
    true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "query aborted back to the prompt" true
    (contains out "interrupted.");
  Alcotest.(check bool) "session answered a later query" true
    (contains out "no.");
  Alcotest.(check bool) "halt still farewells" true (contains out "bye.")

let () =
  (* a child closing its end early must not kill the harness *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0 = complete" `Quick test_exit_complete;
          Alcotest.test_case "1 = input error" `Quick test_exit_input_error;
          Alcotest.test_case "3 = partial" `Quick test_exit_partial;
          Alcotest.test_case "4 = crashed after retries" `Quick
            test_exit_crashed;
          Alcotest.test_case "1 = batch input rejected, not retried" `Quick
            test_batch_invalid_input;
        ] );
      ( "registry",
        [
          Alcotest.test_case "--list-analyses" `Quick test_list_analyses;
          Alcotest.test_case "analyze dispatches any analysis" `Quick
            test_analyze_dispatch;
          Alcotest.test_case "analyze depthk defaults to k=1" `Quick
            test_depthk_default;
          Alcotest.test_case "batch --analysis" `Quick test_batch_per_analysis;
          Alcotest.test_case "praxtop :- analyses. and :- analyze(...)" `Quick
            test_praxtop_analyses;
        ] );
      ( "batch",
        [
          Alcotest.test_case "warm start, corruption heals" `Quick
            test_batch_warm_start;
          Alcotest.test_case "SIGTERM interrupts: exit 143, no orphans" `Quick
            test_batch_sigterm_interrupt;
          (* named for the in-process runner it first covered; the
             contract, answers independent of the worker count, is the
             same for the fork runner *)
          Alcotest.test_case "domains runner is deterministic" `Quick
            test_batch_jobs_agree;
        ] );
      ( "praxtop",
        [
          Alcotest.test_case "EOF halts cleanly" `Quick test_praxtop_eof_halts;
          Alcotest.test_case "SIGINT aborts query, not session" `Quick
            test_praxtop_sigint_aborts_query;
        ] );
    ]

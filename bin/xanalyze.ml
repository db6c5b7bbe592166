(* xanalyze — command-line front end to the analysis registry.

     xanalyze --list-analyses             print the registry
     xanalyze analyze NAME FILE           any registered analysis by name
     xanalyze analyze depthk FILE --set k=2
                                          ... with a configuration override
     xanalyze batch DIR --corpus all      supervised batch over a corpus

   Every analysis command dispatches through the Prax.Analysis registry
   (docs/ANALYSES.md); --set KEY=VALUE overrides a registry default.
   Input "-" reads stdin.  --timings prints the phase breakdown the
   paper reports.

   Resource budgets (docs/ROBUSTNESS.md): --timeout DUR, --max-steps N,
   --max-table-bytes N bound the evaluation; on exhaustion the analysis
   degrades to a sound partial result and the process exits with
   EXIT_PARTIAL (3).  Malformed input is reported as a structured
   file:line:col diagnostic on stderr with EXIT_INPUT (1). *)

open Cmdliner
open Prax

(* Documented exit codes (also in docs/ROBUSTNESS.md):
     0  complete result
     1  input or usage error (structured diagnostic on stderr)
     3  partial result: a resource budget was exhausted and the printed
        result is a sound over-approximation (in batch mode: at least
        one job degraded to a partial result)
     4  batch only: at least one worker crashed after exhausting its
        retries; the batch report still accounts for every job
     5  client only: the daemon shed the request (overloaded, rejected,
        or draining) — retry later
     6  client only: the daemon was unreachable
     7  client only: the daemon answered, but with a malformed,
        truncated, or oversized reply — the wire protocol was violated,
        so nothing it said can be trusted
   130/143  batch interrupted by SIGINT/SIGTERM after killing and
        reaping every in-flight worker (no orphan processes)
   (124/125 are reserved by cmdliner for CLI parse/internal errors.) *)
let exit_input = 1
let exit_partial = 3
let exit_crashed = 4
let exit_shed = 5
let exit_unreachable = 6
let exit_protocol = 7

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> (
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg ->
        Printf.eprintf "xanalyze: %s\n" msg;
        exit exit_input)

(* The --store directory; one that cannot be opened or created (a
   missing parent, a file in the way) is an input error. *)
let open_store dir =
  try Store.open_dir dir with
  | Sys_error msg ->
      Printf.eprintf "xanalyze: %s\n" msg;
      exit exit_input
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "xanalyze: %s: %s\n" dir (Unix.error_message e);
      exit exit_input

let source_kinds =
  [ Analysis.Logic_program; Analysis.Fp_program; Analysis.Cfg_program ]

let source_of ?kind ~bench name_or_path =
  if bench then
    let kinds = match kind with Some k -> [ k ] | None -> source_kinds in
    match
      List.find_map (fun k -> Corpus.source_of_kind k name_or_path) kinds
    with
    | Some src -> src
    | None ->
        Printf.eprintf "unknown benchmark %s\n" name_or_path;
        exit exit_input
  else read_input name_or_path

(* --- structured diagnostics (docs/ROBUSTNESS.md) ------------------------- *)

(* Run [f] with every toolchain input-error exception rendered as a
   file:line:col diagnostic on stderr + EXIT_INPUT, instead of an OCaml
   backtrace. *)
let with_diagnostics ~file ~text f =
  try f ()
  with exn -> (
    match Analyses.diagnose ~file ~text exn with
    | Some d ->
        Printf.eprintf "%s\n" (Logic.Diag.to_string d);
        exit exit_input
    | None -> raise exn)

(* --- resource budgets ---------------------------------------------------- *)

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

let timeout_arg =
  Arg.(
    value
    & opt (some duration_conv) None
    & info [ "timeout" ] ~docv:"DUR"
        ~doc:
          "Wall-clock budget for the evaluation (e.g. $(b,100ms), $(b,2s), \
           $(b,1m)).  On exhaustion the analysis returns a sound partial \
           result and exits with code 3.")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Derivation-step budget for the evaluation.  On exhaustion the \
           analysis returns a sound partial result and exits with code 3.")

let max_table_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-table-bytes" ] ~docv:"N"
        ~doc:
          "Table-space budget in bytes (the engine's table estimate).  On \
           exhaustion the analysis returns a sound partial result and exits \
           with code 3.")

let guard_of timeout max_steps max_table_bytes =
  match (timeout, max_steps, max_table_bytes) with
  | None, None, None -> Guard.unlimited
  | _ -> Guard.create ?timeout ?max_steps ?max_table_bytes ()

(* Partial-result epilogue: notice on stderr (stdout stays the result /
   stats document), then the documented exit code. *)
let finish (status : Guard.status) =
  match status with
  | Guard.Complete -> ()
  | Guard.Partial { reason; exhausted_entries } ->
      Printf.eprintf
        "xanalyze: budget exhausted (%s): result is a sound \
         over-approximation (%d table entries widened)\n"
        (Guard.reason_to_string reason)
        exhausted_entries;
      exit exit_partial

(* --- stats emission (docs/METRICS.md) ----------------------------------- *)

let stats_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json); ("csv", `Csv) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Human) (some fmt) None
    & info [ "stats" ] ~docv:"FMT"
        ~doc:
          "Emit engine metrics after the run: $(b,human) (appended to the \
           report; the default when FMT is omitted), $(b,json) (the \
           versioned prax.stats document; replaces the report on stdout so \
           the output parses as one JSON value), or $(b,csv) (likewise \
           replaces the report).  The schema is documented in \
           docs/METRICS.md.")

(* json/csv must leave stdout machine-parseable, so they suppress the
   human report *)
let report_suppressed = function Some `Json | Some `Csv -> true | _ -> false

let emit_stats ~analysis ~input ~table_bytes ?phases ?(guard = Guard.unlimited)
    ?(status = Guard.Complete) stats =
  match stats with
  | None -> ()
  | Some fmt -> (
      let open Prax.Metrics in
      set Tabling.Engine.table_space_gauge table_bytes;
      let snap = snapshot () in
      let phases =
        Option.map
          (fun (p : Analysis.phases) ->
            [
              ("preprocess", p.preproc);
              ("evaluate", p.analysis);
              ("collect", p.collection);
            ])
          phases
      in
      match fmt with
      | `Human ->
          print_newline ();
          print_string (snapshot_to_human snap)
      | `Json ->
          let extra =
            Guard.status_json_fields status @ Guard.budget_json_fields guard
          in
          print_endline
            (json_to_string
               (stats_doc ~tool:"xanalyze" ~analysis ~input ?phases ~extra snap))
      | `Csv -> print_string (snapshot_to_csv snap))

(* --- single-run commands: registry dispatch ------------------------------ *)

let find_analysis name =
  match Analysis.find name with
  | Some a -> a
  | None ->
      Printf.eprintf "xanalyze: unknown analysis %s (registered: %s)\n" name
        (String.concat ", " (Analysis.names ()));
      exit exit_input

(* One analysis of one input through the registry: resolve the source,
   run under the guard, print the driver-rendered report plus the shared
   timings line, emit stats, map the status to the exit code.  There is
   no per-analysis code here — the registry entry carries everything. *)
let run_single ~name ~config ~input ~bench ~timings ~stats ~timeout ~max_steps
    ~max_bytes ~incremental ~store =
  let a = find_analysis name in
  let src = source_of ~kind:a.Analysis.kind ~bench input in
  let guard = guard_of timeout max_steps max_bytes in
  let rep =
    with_diagnostics ~file:input ~text:src (fun () ->
        (* [--incremental] needs [--store]: one analysis per process,
           so a process-local cache could never be read back *)
        let cache =
          if incremental then
            Option.bind store (fun dir ->
                Incr.Incr.store_cache (open_store dir) a ~config)
          else None
        in
        Analysis.run a ~config ~guard ?cache src)
  in
  if not (report_suppressed stats) then begin
    print_endline rep.Analysis.payload_text;
    if timings then Printf.printf "\n%s\n" (Analysis.timings_line rep)
  end;
  emit_stats ~analysis:name ~input ~table_bytes:rep.Analysis.table_bytes
    ~phases:rep.Analysis.phases ~guard ~status:rep.Analysis.status stats;
  finish rep.Analysis.status

let bench_flag =
  Arg.(
    value & flag
    & info [ "bench" ] ~doc:"Treat FILE as a corpus benchmark name.")

let timings_flag =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print the phase breakdown.")

let incremental_flag =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Edit-aware re-analysis (docs/INCREMENTAL.md): consult a per-SCC \
           fragment cache keyed by closure digest, splice unchanged cones' \
           tables back, and recompute only the dependent cone of the edit. \
           The report is byte-identical to a from-scratch run.  Needs \
           $(b,--store), where the fragments persist across processes: \
           without it (one analysis per process, nothing to reuse) and for \
           analyses without incremental support the run is a plain \
           from-scratch run.")

let incr_store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persist the $(b,--incremental) fragment cache under the snapshot \
           store at $(docv) (created if needed; atomic writes, CRC \
           trailers, orphan-temp sweep).  Without it $(b,--incremental) \
           has no cache and runs from scratch.")

(* --- analyze: any registered analysis by name ----------------------------- *)

let set_args =
  Arg.(
    value & opt_all string []
    & info [ "set" ] ~docv:"KEY=VALUE"
        ~doc:
          "Override a configuration default of the analysis (repeatable; \
           comma-separated assignment lists accepted).  Unknown keys are an \
           input error; $(b,--list-analyses) prints each analysis's \
           accepted keys and defaults.")

let parse_sets ~what sets =
  List.concat_map
    (fun s ->
      match Analysis.assignments_of_string s with
      | Ok kvs -> kvs
      | Error msg ->
          Printf.eprintf "%s: %s\n" what msg;
          exit exit_input)
    sets

let analyze_cmd =
  let run name input bench sets timings stats timeout max_steps max_bytes
      incremental store =
    run_single ~name
      ~config:(parse_sets ~what:"xanalyze analyze" sets)
      ~input ~bench ~timings ~stats ~timeout ~max_steps ~max_bytes
      ~incremental ~store
  in
  let aname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ANALYSIS"
          ~doc:"Registered analysis name (see $(b,xanalyze --list-analyses)).")
  in
  let input =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run any registered analysis on an input (pure registry dispatch)")
    Term.(
      const run $ aname $ input $ bench_flag $ set_args $ timings_flag
      $ stats_arg $ timeout_arg $ max_steps_arg $ max_table_bytes_arg
      $ incremental_flag $ incr_store_arg)

(* --- run: concrete execution -------------------------------------------- *)

let run_cmd =
  let run input bench query limit timeout max_steps =
    let src = source_of ~bench input in
    let guard =
      match (timeout, max_steps) with
      | None, None -> Guard.unlimited
      | _ -> Guard.create ?timeout ?max_steps ()
    in
    let status =
      with_diagnostics ~file:input ~text:src (fun () ->
          let db = Logic.Database.create () in
          ignore (Logic.Database.load_string db src);
          let goal = Logic.Parser.parse_term query in
          let solutions, status =
            Logic.Sld.solutions_status ~limit ~guard db goal
          in
          if solutions = [] then print_endline "no."
          else
            List.iter
              (fun s ->
                print_endline
                  (Logic.Pretty.term_to_string (Logic.Canon.canonical s goal)))
              solutions;
          status)
    in
    (match status with
    | Guard.Complete -> ()
    | Guard.Partial { reason; _ } ->
        Printf.eprintf
          "xanalyze: budget exhausted (%s): solution enumeration stopped \
           early (the listed solutions are valid but possibly incomplete)\n"
          (Guard.reason_to_string reason);
        exit exit_partial)
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let query =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ] ~doc:"Treat FILE as a corpus benchmark name.")
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~doc:"Maximum solutions.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a Prolog query against a program (SLD)")
    Term.(
      const run $ input $ bench $ query $ limit $ timeout_arg $ max_steps_arg)

(* --- eval: run a functional program -------------------------------------- *)

let eval_cmd =
  let run input bench call fuel =
    let src = source_of ~bench input in
    with_diagnostics ~file:input ~text:src (fun () ->
        let prog = Fp.Check.parse_and_check src in
        let f, args =
          match String.index_opt call '(' with
          | None -> (call, [])
          | Some _ -> (
              (* parse the call as an expression *)
              match
                Fp.Parser.parse_program (Printf.sprintf "q() = %s;" call)
              with
              | [ { Fp.Ast.rhs = Fp.Ast.App (f, args); _ } ] -> (f, args)
              | _ ->
                  Printf.eprintf "cannot parse call %s\n" call;
                  exit exit_input)
        in
        print_endline (Fp.Eval.run ~fuel prog f args))
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let call =
    Arg.(value & pos 1 string "main()" & info [] ~docv:"CALL")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ] ~doc:"Treat FILE as a corpus benchmark name.")
  in
  let fuel =
    Arg.(value & opt int 50_000_000 & info [ "fuel" ] ~doc:"Reduction-step bound.")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Evaluate a call in a lazy functional program (call-by-need)")
    Term.(const run $ input $ bench $ call $ fuel)

(* --- types: Hindley-Milner inference -------------------------------------- *)

let types_cmd =
  let run input bench =
    let src = source_of ~bench input in
    with_diagnostics ~file:input ~text:src (fun () ->
        match Hm.Infer.infer_source src with
        | results ->
            List.iter
              (fun r -> print_endline (Hm.Infer.result_to_string r))
              results
        | exception Hm.Infer.Type_error msg ->
            Printf.eprintf "type error: %s\n" msg;
            exit exit_input)
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ] ~doc:"Treat FILE as a corpus benchmark name.")
  in
  Cmd.v
    (Cmd.info "types"
       ~doc:
         "Hindley-Milner type analysis of a functional program by \
          occur-check unification (Section 6.1)")
    Term.(const run $ input $ bench)

(* --- widen: infinite-domain analysis --------------------------------------- *)

let widen_cmd =
  let run input bench chain =
    let src = source_of ~bench input in
    let rep =
      with_diagnostics ~file:input ~text:src (fun () ->
          Infinite.Widen.analyze ~chain src)
    in
    List.iter
      (fun r ->
        let name, arity = r.Prax_infinite.Widen.pred in
        Printf.printf "%s/%d%s:\n" name arity
          (if r.Prax_infinite.Widen.widened then " (widened)" else "");
        List.iter
          (fun a -> Printf.printf "  %s\n" (Logic.Pretty.term_to_string a))
          r.Prax_infinite.Widen.answers)
      rep.Prax_infinite.Widen.results
  in
  let input =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let bench =
    Arg.(value & flag & info [ "bench" ] ~doc:"Treat FILE as a corpus benchmark name.")
  in
  let chain =
    Arg.(value & opt int 3 & info [ "chain" ]
           ~doc:"Ascending-chain length tolerated before widening to omega.")
  in
  Cmd.v
    (Cmd.info "widen"
       ~doc:
         "Successor-arithmetic analysis over an infinite domain with \
          on-the-fly widening (Section 6.1)")
    Term.(const run $ input $ bench $ chain)

(* --- batch: supervised analysis of a corpus ------------------------------ *)

(* One batch job = one registered analysis of one input, run in a forked
   worker under the supervisor (lib/serve, docs/ROBUSTNESS.md).  Job ids
   are "groundness:qsort" / "dataflow:path/to/prog.cfg"; sources are
   resolved in the parent (input errors exit 1 before anything forks)
   and inherited by the workers. *)

type batch_job = {
  bj_analysis : Analysis.t;
  bj_config : Analysis.config;  (* merged over the analysis's defaults *)
  bj_input : string;  (* bench name or file path, for display/keys *)
  bj_src : string;
}

(* The default analysis for a corpus entry is the first registrant of
   its source kind: groundness for logic benches, strictness for
   functional ones, dataflow for CFGs. *)
let default_for_kind kind =
  match
    List.find_opt (fun (a : Analysis.t) -> a.Analysis.kind = kind)
      (Analysis.all ())
  with
  | Some a -> a
  | None ->
      Printf.eprintf "xanalyze batch: no registered analysis accepts %s\n"
        (Analysis.kind_to_string kind);
      exit exit_input

let batch_jobs_of_dir ~analysis dir =
  let entries =
    try Array.to_list (Sys.readdir dir)
    with Sys_error msg ->
      Printf.eprintf "xanalyze batch: %s\n" msg;
      exit exit_input
  in
  List.filter_map
    (fun f ->
      let path = Filename.concat dir f in
      let ext = Filename.extension f in
      match analysis with
      | Some (a : Analysis.t) ->
          if List.mem ext a.Analysis.extensions then Some (a, path) else None
      | None ->
          Option.map (fun a -> (a, path)) (Analysis.claiming_extension ext))
    (List.sort String.compare entries)

let corpus_names_of_kind = function
  | Analysis.Logic_program ->
      List.map
        (fun (b : Benchdata.Registry.logic_bench) -> b.name)
        Benchdata.Registry.logic_benchmarks
  | Analysis.Fp_program ->
      List.map
        (fun (b : Benchdata.Registry.fp_bench) -> b.name)
        Benchdata.Registry.fp_benchmarks
  | Analysis.Cfg_program ->
      List.map
        (fun (b : Benchdata.Registry.cfg_bench) -> b.name)
        Benchdata.Registry.cfg_benchmarks

let corpus_kind_of name =
  List.find_opt (fun k -> Corpus.source_of_kind k name <> None) source_kinds

let batch_jobs_of_corpus ~analysis spec =
  let split spec =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match analysis with
  | Some (a : Analysis.t) ->
      let names =
        match spec with
        | "all" -> corpus_names_of_kind a.Analysis.kind
        | _ -> split spec
      in
      List.map
        (fun name ->
          if Corpus.source_of_kind a.Analysis.kind name = None then begin
            Printf.eprintf "xanalyze batch: unknown %s benchmark %s\n"
              (Analysis.kind_to_string a.Analysis.kind)
              name;
            exit exit_input
          end;
          (a, name))
        names
  | None ->
      let names =
        match spec with
        | "all" -> List.concat_map corpus_names_of_kind source_kinds
        | _ -> split spec
      in
      List.map
        (fun name ->
          match corpus_kind_of name with
          | Some k -> (default_for_kind k, name)
          | None ->
              Printf.eprintf "xanalyze batch: unknown benchmark %s\n" name;
              exit exit_input)
        names

let batch_cmd =
  let run dir corpus analysis sets njobs retries job_timeout store_dir
      stats timeout max_steps max_bytes =
    let analysis = Option.map find_analysis analysis in
    let overrides = parse_sets ~what:"xanalyze batch" sets in
    if overrides <> [] && analysis = None then begin
      Printf.eprintf "xanalyze batch: --set requires --analysis\n";
      exit exit_input
    end;
    let specs =
      (match dir with
      | None -> []
      | Some d ->
          if not (Sys.file_exists d && Sys.is_directory d) then begin
            Printf.eprintf "xanalyze batch: not a directory: %s\n" d;
            exit exit_input
          end;
          batch_jobs_of_dir ~analysis d)
      @ (match corpus with
        | None -> []
        | Some c -> batch_jobs_of_corpus ~analysis c)
    in
    if specs = [] then begin
      Printf.eprintf
        "xanalyze batch: nothing to do (give a DIR of .pl/.eq/.cfg files \
         and/or --corpus)\n";
      exit exit_input
    end;
    (* resolve every source and configuration up front: input errors are
       the caller's fault and exit 1 before any worker forks *)
    let table : (string, batch_job) Hashtbl.t = Hashtbl.create 64 in
    let jobs =
      List.filter_map
        (fun ((a : Analysis.t), input) ->
          let job = a.Analysis.name ^ ":" ^ input in
          if Hashtbl.mem table job then None
          else begin
            let bench = Corpus.source_of_kind a.Analysis.kind input <> None in
            let src = source_of ~kind:a.Analysis.kind ~bench input in
            let config =
              match
                Analysis.merge_config ~defaults:a.Analysis.defaults overrides
              with
              | Ok c -> c
              | Error msg ->
                  Printf.eprintf "xanalyze batch: %s\n" msg;
                  exit exit_input
            in
            Hashtbl.add table job
              { bj_analysis = a; bj_config = config; bj_input = input;
                bj_src = src };
            Some job
          end)
        specs
    in
    let store = Option.map open_store store_dir in
    let key_of job =
      let bj = Hashtbl.find table job in
      Analyses.store_key bj.bj_analysis ~config:bj.bj_config bj.bj_src
    in
    let cached ~job =
      Option.bind store (fun t -> Store.load t (key_of job))
    in
    let persist ~job ~payload =
      Option.iter (fun t -> Store.save t (key_of job) payload) store
    in
    (* the worker body — runs in a long-lived forked worker, once per
       attempt.  Every job is in [table] before [run_batch] forks its
       first worker, so a worker finds any job in its copy of the heap.
       The payload persisted to the store (and replayed on warm starts)
       is the analysis's prax.report document *)
    let worker ~job ~attempt ~guard =
      (match Inject.worker_fault_of_env ~job ~attempt () with
      | Some fault -> Inject.apply_worker_fault fault
      | None -> ());
      let bj = Hashtbl.find table job in
      Analyses.run_job bj.bj_analysis ~config:bj.bj_config ~guard
        ~input:bj.bj_input bj.bj_src
    in
    let budget = Guard.spec ?timeout ?max_steps ?max_table_bytes:max_bytes () in
    let config =
      {
        Serve.default_config with
        Serve.jobs = max 1 njobs;
        retries = max 0 retries;
        job_timeout;
        budget;
      }
    in
    let quiet = report_suppressed stats in
    let total = List.length jobs in
    let done_count = ref 0 in
    let detail_of (r : Serve.report) =
      match r.Serve.outcome with
      | Serve.Done { from_cache = true; _ } -> "(store hit)"
      | Serve.Done { status = Serve.Partial_result reason; _ } ->
          "(" ^ reason ^ ")"
      | Serve.Done _ -> ""
      | Serve.Crashed { what; _ } -> "(" ^ what ^ ")"
    in
    let on_report (r : Serve.report) =
      incr done_count;
      if not quiet then
        Printf.printf "[%d/%d] %-40s %-8s %d attempt%s %6.2fs %s\n%!"
          !done_count total r.Serve.job
          (Serve.outcome_class r.Serve.outcome)
          r.Serve.attempts
          (if r.Serve.attempts = 1 then " " else "s")
          r.Serve.elapsed (detail_of r)
    in
    let reports =
      try
        Serve.run_batch ~config ~cached ~persist ~on_report ~worker jobs
      with Serve.Interrupted sg ->
        (* every in-flight worker is already SIGKILLed and reaped; exit
           the way a shell reports death-by-signal so wrappers see the
           interruption, not a bogus "success" *)
        let code =
          if sg = Sys.sigint then 130
          else if sg = Sys.sigterm then 143
          else 128 + abs sg
        in
        Printf.eprintf
          "\nxanalyze batch: interrupted (%s) — in-flight workers killed \
           and reaped\n"
          (if sg = Sys.sigint then "SIGINT"
           else if sg = Sys.sigterm then "SIGTERM"
           else Printf.sprintf "signal %d" sg);
        exit code
    in
    let count cls =
      List.length
        (List.filter
           (fun r -> String.equal (Serve.outcome_class r.Serve.outcome) cls)
           reports)
    in
    let complete = count "complete"
    and partial = count "partial"
    and invalid = count "invalid"
    and crashed = count "crashed"
    and from_cache = count "cached" in
    if not quiet then begin
      Printf.printf
        "\nbatch: %d job%s — %d complete, %d partial, %d invalid, %d \
         crashed, %d from the store\n"
        total
        (if total = 1 then "" else "s")
        complete partial invalid crashed from_cache;
      List.iter
        (fun (r : Serve.report) ->
          match r.Serve.outcome with
          | Serve.Done { status = Serve.Invalid_input diagnostic; _ } ->
              Printf.printf "  invalid: %s — %s\n" r.Serve.job diagnostic
          | Serve.Crashed { what; stderr; _ } ->
              Printf.printf "  crashed: %s — %s after %d attempts%s\n"
                r.Serve.job what r.Serve.attempts
                (if stderr = "" then ""
                 else
                   "\n    stderr: "
                   ^ String.concat "\n    stderr: "
                       (String.split_on_char '\n' (String.trim stderr)))
          | Serve.Done _ -> ())
        reports
    end;
    (match stats with
    | None -> ()
    | Some fmt -> (
        let open Prax.Metrics in
        let snap = snapshot () in
        let input_label =
          String.concat "+"
            ((match dir with Some d -> [ d ] | None -> [])
            @ match corpus with Some c -> [ "corpus:" ^ c ] | None -> [])
        in
        match fmt with
        | `Human ->
            print_newline ();
            print_string (snapshot_to_human snap)
        | `Json ->
            let extra =
              [
                ("jobs", Int total);
                ("complete", Int complete);
                ("partial", Int partial);
                ("invalid", Int invalid);
                ("crashed", Int crashed);
                ("from_cache", Int from_cache);
              ]
            in
            print_endline
              (json_to_string
                 (stats_doc ~tool:"xanalyze" ~analysis:"batch"
                    ~input:input_label ~extra snap))
        | `Csv -> print_string (snapshot_to_csv snap)));
    if crashed > 0 then exit exit_crashed
    else if invalid > 0 then exit exit_input
    else if partial > 0 then exit exit_partial
  in
  let dir =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "Directory of inputs, dispatched by extension through the \
             analysis registry: $(b,.pl) files to groundness, $(b,.eq) to \
             strictness, $(b,.cfg) to dataflow (or all to the \
             $(b,--analysis) analysis when given).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated corpus benchmark names to add as jobs, or \
             $(b,all) for every benchmark the selected analysis accepts \
             (without $(b,--analysis): the whole registry, each benchmark \
             under its source kind's default analysis).")
  in
  let analysis =
    Arg.(
      value
      & opt (some string) None
      & info [ "analysis" ] ~docv:"NAME"
          ~doc:
            "Run every job under the named registered analysis (see \
             $(b,xanalyze --list-analyses)) instead of dispatching by file \
             extension or corpus kind.")
  in
  let njobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Concurrent worker processes.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"R"
          ~doc:
            "Re-executions of a crashed job after its first attempt; later \
             retries run at a reduced budget (the degradation ladder, \
             docs/ROBUSTNESS.md).")
  in
  let job_timeout =
    Arg.(
      value
      & opt (some duration_conv) None
      & info [ "job-timeout" ] ~docv:"DUR"
          ~doc:
            "Wall-clock watchdog per job attempt (e.g. $(b,30s)); a worker \
             still running after DUR is SIGKILLed and the attempt counts as \
             a crash.")
  in
  let store_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent result store: completed jobs are saved as crash-safe \
             snapshots under DIR and answered from the store on the next \
             run (warm start).  Corrupt or version-skewed snapshots are \
             detected and silently recomputed.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Supervised batch analysis: every job in its own worker process, \
          with retry/backoff, a crash watchdog, and an optional persistent \
          result store"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) every job completed; $(b,1) input or usage error, or \
              at least one job's input was rejected (reported after one \
              attempt, never retried); $(b,3) at least one job finished with \
              a partial (budget-bounded) result; $(b,4) at least one job \
              crashed after exhausting its retries.";
         ])
    Term.(
      const run $ dir $ corpus $ analysis $ set_args $ njobs
      $ retries $ job_timeout $ store_dir $ stats_arg $ timeout_arg
      $ max_steps_arg $ max_table_bytes_arg)

(* --- client: talk to a resident praxd daemon ------------------------------ *)

(* The daemon never reads client files: the source text travels in the
   request, so the client resolves paths/bench names locally and the
   daemon's warm cache keys on the bytes.  Exit codes: 0 complete/cached,
   3 partial, 4 crashed, 5 shed (overloaded/rejected/draining — retry
   later), 6 daemon unreachable, 7 daemon broke protocol (malformed /
   truncated / oversized reply). *)

let client_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Unix-domain socket of the praxd daemon.")

let client_retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"R"
        ~doc:
          "Retry a shed ($(b,overloaded)) or unreachable request up to R \
           extra times with capped exponential backoff and deterministic \
           jitter, honoring the daemon's $(b,retry_after_ms) hint.")

let client_backoff_arg =
  Arg.(
    value
    & opt duration_conv 0.2
    & info [ "backoff" ] ~docv:"DUR"
        ~doc:
          "Base backoff before the first retry (e.g. $(b,200ms)); each \
           further retry doubles it, capped at 10s, with \u{00b1}25% \
           deterministic jitter so concurrent clients spread out.")

(* the client must never be taken down by a garbage reply — cap how much
   of one it will buffer before calling it a protocol violation *)
let client_max_response_bytes = 64 * 1024 * 1024

let client_exit_of_error (e : Daemon.Client.error) =
  Printf.eprintf "xanalyze client: %s\n" (Daemon.Client.error_to_string e);
  match e with
  | Daemon.Client.Connect_failed _ -> exit exit_unreachable
  | Daemon.Client.Protocol_error _ -> exit exit_protocol

let client_analyze_cmd =
  let run socket name input bench sets client_id as_json retries backoff =
    let a = find_analysis name in
    let src = source_of ~kind:a.Analysis.kind ~bench input in
    let config = parse_sets ~what:"xanalyze client" sets in
    let req =
      {
        Daemon.Wire.id = Metrics.Int (Unix.getpid ());
        client = client_id;
        op = Daemon.Wire.Analyze { analysis = name; input; source = src; config };
      }
    in
    match
      Daemon.Client.request_with_retries ~socket ~retries ~base:backoff
        ~max_response_bytes:client_max_response_bytes req
    with
    | Error e -> client_exit_of_error e
    | Ok (status, doc, _attempts) -> (
        if as_json then print_endline (Metrics.json_to_string doc)
        else begin
          (match Metrics.member "report" doc with
          | Some report -> (
              match Metrics.member "text" report with
              | Some (Metrics.Str text) -> print_endline text
              | _ -> print_endline (Metrics.json_to_string report))
          | None -> ());
          let say_reason what =
            match Metrics.member "reason" doc with
            | Some (Metrics.Str r) ->
                Printf.eprintf "xanalyze client: %s (%s)\n" what r
            | _ -> Printf.eprintf "xanalyze client: %s\n" what
          in
          match status with
          | "complete" | "cached" | "ok" -> ()
          | "partial" -> say_reason "partial result"
          | "overloaded" -> say_reason "request shed by the daemon"
          | "rejected" -> say_reason "request rejected"
          | "draining" -> say_reason "daemon is draining"
          | "error" -> say_reason "input error"
          | "crashed" -> (
              match Metrics.member "error" doc with
              | Some (Metrics.Str e) ->
                  Printf.eprintf "xanalyze client: job crashed: %s\n" e
              | _ -> Printf.eprintf "xanalyze client: job crashed\n")
          | other ->
              Printf.eprintf "xanalyze client: unexpected status %s\n" other
        end;
        match status with
        | "complete" | "cached" | "ok" -> ()
        | "partial" -> exit exit_partial
        | "crashed" -> exit exit_crashed
        | "overloaded" | "rejected" | "draining" -> exit exit_shed
        | "error" | _ -> exit exit_input)
  in
  let aname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ANALYSIS" ~doc:"Registered analysis name.")
  in
  let input =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE")
  in
  let client_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "client" ] ~docv:"ID"
          ~doc:
            "Client identity for the daemon's per-client rate limiting \
             (default: the connection).")
  in
  let as_json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw prax.wire response document instead of the \
                report text.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a file (or $(b,--bench) corpus entry) on the daemon"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) complete or cached; $(b,3) partial (budget-degraded); \
              $(b,4) crashed after retries; $(b,5) shed by admission \
              control (overloaded / rejected / draining) — retry later; \
              $(b,6) daemon unreachable; $(b,7) daemon broke protocol \
              (malformed, truncated, or oversized reply).";
         ])
    Term.(
      const run $ client_socket_arg $ aname $ input $ bench_flag $ set_args
      $ client_id $ as_json $ client_retries_arg $ client_backoff_arg)

let client_batch_cmd =
  let run socket corpus analysis sets client_id as_json retries backoff =
    let analysis = Option.map find_analysis analysis in
    let overrides = parse_sets ~what:"xanalyze client batch" sets in
    if overrides <> [] && analysis = None then begin
      Printf.eprintf "xanalyze client batch: --set requires --analysis\n";
      exit exit_input
    end;
    let specs = batch_jobs_of_corpus ~analysis corpus in
    if specs = [] then begin
      Printf.eprintf "xanalyze client batch: empty corpus spec\n";
      exit exit_input
    end;
    let jobs =
      Array.of_list
        (List.map
           (fun ((a : Analysis.t), input) ->
             let src = source_of ~kind:a.Analysis.kind ~bench:true input in
             {
               Daemon.Client.job_input = a.Analysis.name ^ ":" ^ input;
               job_req =
                 {
                   Daemon.Wire.id = Metrics.Null (* rewritten to the index *);
                   client = client_id;
                   op =
                     Daemon.Wire.Analyze
                       {
                         analysis = a.Analysis.name;
                         input;
                         source = src;
                         config = overrides;
                       };
                 };
             })
           specs)
    in
    match
      Daemon.Client.batch ~socket ~retries ~base:backoff
        ~max_response_bytes:client_max_response_bytes jobs
    with
    | Error e -> client_exit_of_error e
    | Ok outcomes ->
        let count pred = Array.fold_left
            (fun n (o : Daemon.Client.batch_outcome) ->
              if pred o.Daemon.Client.b_status then n + 1 else n)
            0 outcomes
        in
        Array.iter
          (fun (o : Daemon.Client.batch_outcome) ->
            if as_json then
              print_endline
                (Metrics.json_to_string
                   (Metrics.Obj
                      [
                        ("job", Metrics.Str o.Daemon.Client.b_input);
                        ("status", Metrics.Str o.Daemon.Client.b_status);
                        ("attempts", Metrics.Int o.Daemon.Client.b_attempts);
                        ("response", o.Daemon.Client.b_json);
                      ]))
            else
              Printf.printf "%-9s %s (attempts %d)\n"
                o.Daemon.Client.b_status o.Daemon.Client.b_input
                o.Daemon.Client.b_attempts)
          outcomes;
        let n = Array.length outcomes in
        let answered =
          count (fun s ->
              match s with
              | "complete" | "cached" | "partial" -> true
              | _ -> false)
        in
        Printf.eprintf "xanalyze client batch: %d/%d answered with results\n"
          answered n;
        let any s = count (String.equal s) > 0 in
        if any "protocol_error" then exit exit_protocol
        else if any "crashed" then exit exit_crashed
        else if any "error" || any "rejected" then exit exit_input
        else if any "partial" then exit exit_partial
        else if any "overloaded" || any "draining" || any "unanswered" then
          exit exit_shed
  in
  let corpus =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CORPUS"
          ~doc:
            "Comma-separated benchmark names, or $(b,all) for the whole \
             registry (restricted to --analysis's source kind when given).")
  in
  let analysis =
    Arg.(
      value
      & opt (some string) None
      & info [ "analysis"; "a" ] ~docv:"NAME"
          ~doc:
            "Analysis to run on every benchmark (default: each kind's \
             default analysis).")
  in
  let client_id =
    Arg.(
      value
      & opt (some string) None
      & info [ "client" ] ~docv:"ID"
          ~doc:"Client identity for per-client rate limiting.")
  in
  let as_json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One JSON object per job (job, status, attempts, response) \
             instead of the text summary.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Stream a benchmark corpus through one daemon connection, with \
          per-job retry bookkeeping: shed jobs are retried in \
          backoff-separated rounds, and every job ends with exactly one \
          recorded outcome"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "$(b,0) every job complete or cached; $(b,3) some partial; \
              $(b,4) some crashed; $(b,5) some still shed after retries; \
              $(b,6) daemon unreachable; $(b,7) daemon broke protocol.";
         ])
    Term.(
      const run $ client_socket_arg $ corpus $ analysis $ set_args
      $ client_id $ as_json $ client_retries_arg $ client_backoff_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a resident praxd analysis daemon over its Unix socket \
          (see $(b,praxd)(1))")
    [ client_analyze_cmd; client_batch_cmd ]

(* --- the registry listing ------------------------------------------------- *)

let list_analyses () =
  List.iter
    (fun (a : Analysis.t) ->
      Printf.printf "%-11s %-13s %-9s %s\n    %s\n" a.Analysis.name
        (Analysis.kind_to_string a.Analysis.kind)
        (String.concat "," a.Analysis.extensions)
        (match a.Analysis.defaults with
        | [] -> "(no configuration)"
        | d -> Analysis.config_to_string d)
        a.Analysis.doc)
    (Analysis.all ())

let default_term =
  let run list =
    if list then `Ok (list_analyses ()) else `Help (`Pager, None)
  in
  let list =
    Arg.(
      value & flag
      & info [ "list-analyses" ]
          ~doc:
            "Print the analysis registry — name, source kind, claimed \
             extensions, configuration defaults — one analysis per two \
             lines, and exit.")
  in
  Term.(ret (const run $ list))

let () =
  (* workload-sized nursery: this process evaluates (docs/PERFORMANCE.md) *)
  Analysis.size_nursery ();
  (* force the shipped analyses into the registry before any lookup *)
  Analyses.ensure ();
  let doc =
    "practical program analysis on a general-purpose tabled logic \
     programming system (PLDI'96 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term
          (Cmd.info "xanalyze" ~doc)
          [
            analyze_cmd; run_cmd; eval_cmd; types_cmd; widen_cmd; batch_cmd;
            client_cmd;
          ]))

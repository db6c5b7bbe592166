(** Shared-memory parallel batch: a fleet of worker {e domains} instead
    of forked worker processes — see domains.mli. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

(* shared with the fork supervisor: Metrics.counter returns the
   existing cell when the name is already registered *)
let m_jobs = Metrics.counter ~units:"jobs" "serve.jobs"
let m_partials = Metrics.counter ~units:"jobs" "serve.partials"
let m_crashes = Metrics.counter ~units:"attempts" "serve.crashes"
let m_cache_answers = Metrics.counter ~units:"jobs" "serve.cache_answers"

let m_domains =
  Metrics.counter ~units:"domains"
    ~doc:"worker domains spawned by the multicore batch runner"
    "serve.domains_spawned"

let run ?(jobs = 2) ?(budget = Guard.no_limits) ?cached ?persist ?on_report
    ~worker (names : string list) : Serve.report list =
  let results : (string, Serve.report) Hashtbl.t = Hashtbl.create 16 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (* cache pass in the calling domain: answered jobs never spawn *)
  let to_run =
    List.filter
      (fun job ->
        if Hashtbl.mem seen job then false
        else begin
          Hashtbl.add seen job ();
          Metrics.incr m_jobs;
          match Option.bind cached (fun c -> c ~job) with
          | Some payload ->
              Metrics.incr m_cache_answers;
              Hashtbl.replace results job
                {
                  Serve.job;
                  outcome =
                    Serve.Done
                      { payload; status = Serve.Complete; from_cache = true };
                  attempts = 0;
                  crashes = [];
                  elapsed = 0.;
                  backoff = 0.;
                };
              false
          | None -> true
        end)
      names
  in
  let arr = Array.of_list to_run in
  let n = Array.length arr in
  if n > 0 then begin
    let slots : Serve.report option array = Array.make n None in
    (* work queue: an atomic next-index over the job array.  Claiming is
       the only cross-domain synchronization; each slot is written by
       exactly one domain and read by the caller after join. *)
    let next = Atomic.make 0 in
    let body () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let job = arr.(i) in
          let started = Unix.gettimeofday () in
          let outcome, crashes =
            match worker ~job ~attempt:1 ~guard:(Guard.of_spec budget) with
            | status, payload ->
                (Serve.Done { payload; status; from_cache = false }, [])
            | exception exn ->
                let crash =
                  {
                    Serve.attempt = 1;
                    what =
                      "uncaught exception " ^ Printexc.to_string exn;
                    stderr = "";
                  }
                in
                (Serve.Crashed crash, [ crash ])
          in
          slots.(i) <-
            Some
              {
                Serve.job;
                outcome;
                attempts = 1;
                crashes;
                elapsed = Unix.gettimeofday () -. started;
                backoff = 0.;
              };
          loop ()
        end
      in
      loop ();
      Metrics.export_local ()
    in
    let fleet =
      List.init (max 1 (min jobs n)) (fun _ ->
          Metrics.incr m_domains;
          Domain.spawn body)
    in
    (* join brings each worker's private metrics home *)
    List.iter (fun d -> Metrics.absorb (Domain.join d)) fleet;
    Array.iter
      (function
        | Some (r : Serve.report) -> Hashtbl.replace results r.Serve.job r
        | None -> ())
      slots
  end;
  (* classify, persist, and stream in input order — deterministic
     regardless of which domain ran which job *)
  List.filter_map
    (fun job ->
      match Hashtbl.find_opt results job with
      | None -> None
      | Some rep ->
          (match rep.Serve.outcome with
          | Serve.Done { status = Serve.Partial_result _; _ } ->
              Metrics.incr m_partials
          | Serve.Done { payload; status = Serve.Complete; from_cache = false }
            -> (
              match persist with
              | Some p -> p ~job ~payload
              | None -> ())
          | Serve.Done _ -> ()
          | Serve.Crashed _ -> Metrics.incr m_crashes);
          (match on_report with Some f -> f rep | None -> ());
          Some rep)
    names

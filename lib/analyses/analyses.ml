(** The shipped analyses, registered into {!Prax_analysis.Analysis}'s
    process-wide registry.

    Registration happens at module initialization, but the OCaml linker
    drops libraries nothing references — so every front-end calls
    {!ensure} (a cheap no-op beyond forcing this module) before its
    first registry lookup.  Registration order is meaningful:
    [Analysis.claiming_extension] awards an extension to the first
    registrant, so [.pl] defaults to groundness even though depth-k and
    gaia accept it too. *)

module Analysis = Prax_analysis.Analysis
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard
module Serve = Prax_serve.Serve
module Store = Prax_store.Store
module Diag = Prax_logic.Diag
module Pretty = Prax_logic.Pretty
module Sld = Prax_logic.Sld

let () =
  Analysis.register Prax_ground.Analysis_def.def;
  Analysis.register Prax_strict.Analysis_def.def;
  Analysis.register Prax_depthk.Analysis_def.def;
  Analysis.register Prax_gaia.Analysis_def.def;
  Analysis.register Prax_dataflow.Analysis_def.def

(** Force registration of the shipped analyses (idempotent). *)
let ensure () = ()

(** The toolchain's input-error exceptions as a [file:line:col]
    diagnostic (docs/ROBUSTNESS.md); [None] for any other exception.
    Every front-end reports bad input through this one mapping. *)
let diagnose ~file ~text (exn : exn) : Diag.t option =
  match exn with
  | Prax_logic.Lexer.Lex_error _ | Prax_logic.Parser.Parse_error _ ->
      Diag.of_exn ~file ~text exn
  | Prax_fp.Flexer.Error (msg, offset) ->
      Some (Diag.at_offset ~file ~text ~offset msg)
  | Prax_fp.Fparser.Error msg | Prax_fp.Check.Error msg ->
      Some (Diag.make ~file msg)
  | Prax_tabling.Engine.Not_definite t ->
      Some
        (Diag.make ~file
           (Printf.sprintf "goal is not a definite-program construct: %s"
              (Pretty.term_to_string t)))
  | Sld.Instantiation_error what ->
      Some
        (Diag.make ~file
           (Printf.sprintf "arguments insufficiently instantiated in %s" what))
  | Sld.Type_error (expected, t) ->
      Some
        (Diag.make ~file
           (Printf.sprintf "type error: expected %s, got %s" expected
              (Pretty.term_to_string t)))
  | Sld.Existence_error (name, arity) ->
      Some
        (Diag.make ~file (Printf.sprintf "unknown predicate %s/%d" name arity))
  | Analysis.Config_error msg | Prax_dataflow.Cfg.Parse_error msg ->
      Some (Diag.make ~file msg)
  | _ -> None

(* [store_key] from the source's {!Store.digest_source}, for a caller
   that digested the bytes where they lie (the daemon's parser) *)
let store_key_of_digest (a : Analysis.t) ~config source_digest : Store.key =
  {
    Store.analysis = a.Analysis.name;
    source_digest;
    config = Analysis.config_to_string config;
    schema_version = Analysis.report_schema_version;
  }

(** The result-store key of one run of [a] under its complete
    (defaults-merged) [config] on [source]: everything that can change
    the [prax.report] payload — the analysis, the exact source bytes, the
    canonical config rendering and the report schema.  The budget is not
    in the key: only complete results are stored, and a complete result
    does not depend on how generous the budget was. *)
let store_key a ~config source =
  store_key_of_digest a ~config (Store.digest_source source)

(** The body of a supervised analysis job, run in the worker: the
    [prax.report] document of [input] as the frame payload, tagged
    complete or partial — or, when the input is rejected, its rendered
    diagnostic with an empty payload, which the supervisor answers
    without a retry.  Any other exception propagates (a crash). *)
let run_job ?cache (a : Analysis.t) ~config ~guard ~input source :
    Serve.worker_status * string =
  match a.Analysis.run ?cache ~config ~guard source with
  | rep -> (
      let payload =
        Metrics.json_to_string (Analysis.report_to_json ~input rep)
      in
      match rep.Analysis.status with
      | Guard.Complete -> (Serve.Complete, payload)
      | Guard.Partial { reason; _ } ->
          (Serve.Partial_result (Guard.reason_to_string reason), payload))
  | exception exn -> (
      match diagnose ~file:input ~text:source exn with
      | Some d -> (Serve.Invalid_input (Diag.to_string d), "")
      | None -> raise exn)

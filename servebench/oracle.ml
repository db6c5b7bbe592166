(** Correctness oracle: every answer the daemon gives is compared, byte
    for byte, with an in-process {!Prax_analysis.Analysis.run} of the
    same source text.  For an edit that is the from-scratch run of the
    edited source, so an incremental splice that changes any result
    shows as a mismatch.

    Compared fields are the report's [result] payload (re-serialized)
    and its rendered [text]; timings, table bytes and the input name
    legitimately differ between runs and are not compared. *)

module Metrics = Prax_metrics.Metrics
module Analysis = Prax_analysis.Analysis
module Wire = Prax_daemon.Wire

type expected = { result : string; text : string }

(** Why an answer failed. *)
type failure =
  | Protocol of string  (** unparsable line, bad schema, wrong id *)
  | Status of string  (** any status but complete/cached *)
  | Mismatch of string  (** the answer differs from the oracle *)

let failure_to_string = function
  | Protocol m -> "protocol error: " ^ m
  | Status s -> "status " ^ s
  | Mismatch m -> "mismatch: " ^ m

let fields_of_report (r : Metrics.json) =
  match (Metrics.member "result" r, Metrics.member "text" r) with
  | Some res, Some (Metrics.Str text) ->
      Some { result = Metrics.json_to_string res; text }
  | _ -> None

let memo : (string, expected) Hashtbl.t = Hashtbl.create 256
let memo_key ~analysis source = analysis ^ "\x00" ^ Digest.string source

(* The in-process run: default configuration, no budget. *)
let run_payload ~analysis source =
  match Analysis.find analysis with
  | Some a -> Metrics.json_to_string (Analysis.report_to_json (Analysis.run a source))
  | None -> invalid_arg ("servebench: unknown analysis " ^ analysis)

let remember ~analysis source payload =
  match fields_of_report (Metrics.json_of_string payload) with
  | Some e ->
      Hashtbl.replace memo (memo_key ~analysis source) e;
      e
  | None -> failwith "servebench: in-process report lacks result/text"

(** The oracle's answer for [source] under [analysis], memoized on the
    source bytes. *)
let expected ~analysis source =
  match Hashtbl.find_opt memo (memo_key ~analysis source) with
  | Some e -> e
  | None -> remember ~analysis source (run_payload ~analysis source)

(** Compute the answers for many (analysis, source) pairs at once, split
    over [jobs] forked children ({!Prax_serve.Serve.run_batch}); later
    {!expected} calls hit the memo.  Only a speed-up: each answer is
    still one in-process [Analysis.run] of the exact source, in a child
    of this process, and any chunk whose child fails is computed here. *)
let prefill ?(jobs = 2) pairs =
  let todo =
    Array.of_list
      (List.filter
         (fun (analysis, source) -> not (Hashtbl.mem memo (memo_key ~analysis source)))
         pairs)
  in
  let chunk k = List.filteri (fun i _ -> i mod jobs = k) (Array.to_list todo) in
  let reports =
    Prax_serve.Serve.run_batch
      ~config:{ Prax_serve.Serve.default_config with Prax_serve.Serve.jobs; retries = 0 }
      ~worker:(fun ~job ~attempt:_ ~guard:_ ->
        let payloads =
          List.map
            (fun (analysis, source) -> Metrics.Str (run_payload ~analysis source))
            (chunk (int_of_string job))
        in
        (Prax_serve.Serve.Complete, Metrics.json_to_string (Metrics.Arr payloads)))
      (List.init jobs string_of_int)
  in
  List.iter
    (fun (r : Prax_serve.Serve.report) ->
      let mine = chunk (int_of_string r.Prax_serve.Serve.job) in
      match r.Prax_serve.Serve.outcome with
      | Prax_serve.Serve.Done { payload; _ } -> (
          match Metrics.json_of_string payload with
          | Metrics.Arr ps when List.length ps = List.length mine ->
              List.iter2
                (fun (analysis, source) p ->
                  match p with
                  | Metrics.Str p -> ignore (remember ~analysis source p)
                  | _ -> ignore (expected ~analysis source))
                mine ps
          | _ | (exception _) ->
              List.iter (fun (analysis, source) -> ignore (expected ~analysis source)) mine)
      | Prax_serve.Serve.Crashed _ ->
          List.iter (fun (analysis, source) -> ignore (expected ~analysis source)) mine)
    reports

(** Check one parsed response against the oracle.  [id] is the request
    id the response must echo. *)
let check_json ~id ~analysis ~source (j : Metrics.json) =
  match Wire.response_status j with
  | Error m -> Error (Protocol m)
  | Ok status -> (
      if Metrics.member "id" j <> Some id then
        Error (Protocol "response id does not echo the request id")
      else
        match status with
        | "complete" | "cached" -> (
            match Option.bind (Metrics.member "report" j) fields_of_report with
            | None -> Error (Protocol "answer without a report result/text")
            | Some got ->
                let want = expected ~analysis source in
                if not (String.equal got.result want.result) then
                  Error (Mismatch "result differs from in-process run")
                else if not (String.equal got.text want.text) then
                  Error (Mismatch "text differs from in-process run")
                else Ok status)
        | s -> Error (Status s))

(** Check one raw response line. *)
let check_line ~id ~analysis ~source line =
  match Metrics.json_of_string line with
  | j -> check_json ~id ~analysis ~source j
  | exception _ -> Error (Protocol "response is not JSON")

(** prax.wire v1 — see wire.mli for the grammar. *)

module Metrics = Prax_metrics.Metrics
module Store = Prax_store.Store

let schema_name = "prax.wire"
let schema_version = 1

type 'source operation =
  | Ping
  | Stats
  | Drain
  | Analyze of {
      analysis : string;
      input : string;
      source : 'source;
      config : (string * string) list;
    }

type op = string operation

type 'source request_with = {
  id : Metrics.json;
  client : string option;
  op : 'source operation;
}

type request = string request_with

let header =
  [
    ("wire", Metrics.Str schema_name);
    ("version", Metrics.Int schema_version);
  ]

let check_header (j : Metrics.json) : (unit, string) result =
  match Metrics.member "wire" j with
  | Some (Metrics.Str n) when String.equal n schema_name -> (
      match Metrics.member "version" j with
      | Some (Metrics.Int v) when v = schema_version -> Ok ()
      | Some (Metrics.Int v) ->
          Error (Printf.sprintf "unsupported %s version %d" schema_name v)
      | _ -> Error "missing version")
  | Some _ -> Error "wrong wire schema"
  | None -> Error "not a prax.wire frame"

let str_field name j =
  match Metrics.member name j with
  | Some (Metrics.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %s must be a string" name)
  | None -> Error (Printf.sprintf "missing field %s" name)

(* --- the request parser --------------------------------------------------- *)

(* The decoded [source] of the latest request lives in [text]; [gen]
   counts parses, so a {!source} from an earlier one is detected. *)
type parser = { text : Bytebuf.t; mutable gen : int }

type source = { sp : parser; s_gen : int; s_digest : string }

let create_parser () = { text = Bytebuf.create 256; gen = 0 }
let source_digest src = src.s_digest

let source_text src =
  if src.s_gen <> src.sp.gen then
    invalid_arg "Wire.source_text: the parser has read another request";
  Bytebuf.contents src.sp.text

let config_of j =
  match Metrics.member "config" j with
  | None | Some Metrics.Null -> Ok []
  | Some (Metrics.Obj kvs) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (k, Metrics.Str v) :: rest -> conv ((k, v) :: acc) rest
        | (k, _) :: _ ->
            Error (Printf.sprintf "config value for %s must be a string" k)
      in
      conv [] kvs
  | Some _ -> Error "config must be an object"

(* [line] is only read during the call: every string in the result is a
   copy, and the source is decoded into the parser's own buffer *)
let parse_with p (line : string) ~pos ~len :
    (source request_with, string) result =
  p.gen <- p.gen + 1;
  let t = p.text in
  let room k =
    Bytebuf.clear t;
    Bytebuf.reserve t k;
    t.Bytebuf.buf
  in
  match Metrics.json_of_substring ~defer:("source", room) line ~pos ~len with
  | exception Metrics.Json_error _ -> Error "malformed JSON"
  | j, decoded -> (
      match check_header j with
      | Error _ as e -> e
      | Ok () -> (
          let id = Option.value (Metrics.member "id" j) ~default:Metrics.Null in
          let client =
            match Metrics.member "client" j with
            | Some (Metrics.Str s) -> Some s
            | _ -> None
          in
          match str_field "op" j with
          | Error _ as e -> e
          | Ok "ping" -> Ok { id; client; op = Ping }
          | Ok "stats" -> Ok { id; client; op = Stats }
          | Ok "drain" -> Ok { id; client; op = Drain }
          | Ok "analyze" -> (
              let source =
                if decoded >= 0 then begin
                  Bytebuf.commit t decoded;
                  Ok
                    {
                      sp = p;
                      s_gen = p.gen;
                      s_digest =
                        Store.digest_source_sub t.Bytebuf.buf 0 decoded;
                    }
                end
                else
                  (* absent, or not a string: the reader built it *)
                  match str_field "source" j with
                  | Error _ as e -> e
                  | Ok _ -> Error "field source must be a string"
              in
              match
                (str_field "analysis" j, str_field "input" j, source)
              with
              | Ok analysis, Ok input, Ok source -> (
                  match config_of j with
                  | Ok config ->
                      Ok { id; client; op = Analyze { analysis; input; source; config } }
                  | Error _ as e -> e)
              | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e)
                ->
                  e)
          | Ok other -> Error (Printf.sprintf "unknown op %S" other)))

let parse_bytes p b ~pos ~len = parse_with p (Bytes.unsafe_to_string b) ~pos ~len

let parse_request line : (request, string) result =
  let len = String.length line in
  match parse_with (create_parser ()) line ~pos:0 ~len with
  | Error _ as e -> e
  | Ok { id; client; op } ->
      let op =
        match op with
        | Ping -> Ping
        | Stats -> Stats
        | Drain -> Drain
        | Analyze { analysis; input; source; config } ->
            Analyze { analysis; input; source = source_text source; config }
      in
      Ok { id; client; op }

let request_to_string (r : request) : string =
  let op_fields =
    match r.op with
    | Ping -> [ ("op", Metrics.Str "ping") ]
    | Stats -> [ ("op", Metrics.Str "stats") ]
    | Drain -> [ ("op", Metrics.Str "drain") ]
    | Analyze { analysis; input; source; config } ->
        [
          ("op", Metrics.Str "analyze");
          ("analysis", Metrics.Str analysis);
          ("input", Metrics.Str input);
          ("source", Metrics.Str source);
          ( "config",
            Metrics.Obj (List.map (fun (k, v) -> (k, Metrics.Str v)) config) );
        ]
  in
  let client =
    match r.client with
    | Some c -> [ ("client", Metrics.Str c) ]
    | None -> []
  in
  Metrics.json_to_string
    (Metrics.Obj (header @ [ ("id", r.id) ] @ client @ op_fields))

let response ~id ~status extra : string =
  Metrics.json_to_string
    (Metrics.Obj
       (header @ [ ("id", id); ("status", Metrics.Str status) ] @ extra))

let canonical_report payload =
  match Metrics.json_of_string payload with
  | j -> Some (Metrics.json_to_string j)
  | exception _ -> None

let add_response b ~id ~status extra =
  Bytebuf.add_string b (response ~id ~status extra)

let add_response_with_report b ~id ~status extra ~report =
  (* the header object without its closing brace, then the report field
     last — the field order {!response} would give it *)
  let head = response ~id ~status extra in
  Bytebuf.add_substring b head 0 (String.length head - 1);
  Bytebuf.add_string b ",\"report\":";
  Bytebuf.add_string b report;
  Bytebuf.add_char b '}'

let worker_report payload =
  if Metrics.json_valid payload then Some payload else None

let add_worker_response b ~id ~status extra payload ~report =
  match report with
  | Some report -> add_response_with_report b ~id ~status extra ~report
  | None ->
      add_response b ~id ~status (extra @ [ ("report", Metrics.Str payload) ])

let response_status (j : Metrics.json) : (string, string) result =
  match check_header j with
  | Error _ as e -> e
  | Ok () -> (
      match Metrics.member "status" j with
      | Some (Metrics.Str s) -> Ok s
      | _ -> Error "missing status")

let retry_after_ms (j : Metrics.json) : int option =
  match Metrics.member "retry_after_ms" j with
  | Some (Metrics.Int ms) when ms >= 0 -> Some ms
  | _ -> None

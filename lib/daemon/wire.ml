(** prax.wire v1 — see wire.mli for the grammar. *)

module Metrics = Prax_metrics.Metrics

let schema_name = "prax.wire"
let schema_version = 1

type op =
  | Ping
  | Stats
  | Drain
  | Analyze of {
      analysis : string;
      input : string;
      source : string;
      config : (string * string) list;
    }

type request = { id : Metrics.json; client : string option; op : op }

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

let parse_request line : (request, string) result =
  match Metrics.json_of_string line with
  | exception _ -> Error "malformed JSON"
  | j -> (
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
              match
                ( str_field "analysis" j,
                  str_field "input" j,
                  str_field "source" j )
              with
              | Ok analysis, Ok input, Ok source -> (
                  let config_result =
                    match Metrics.member "config" j with
                    | None | Some Metrics.Null -> Ok []
                    | Some (Metrics.Obj kvs) ->
                        let rec conv acc = function
                          | [] -> Ok (List.rev acc)
                          | (k, Metrics.Str v) :: rest ->
                              conv ((k, v) :: acc) rest
                          | (k, _) :: _ ->
                              Error
                                (Printf.sprintf
                                   "config value for %s must be a string" k)
                        in
                        conv [] kvs
                    | Some _ -> Error "config must be an object"
                  in
                  match config_result with
                  | Ok config ->
                      Ok { id; client; op = Analyze { analysis; input; source; config } }
                  | Error _ as e -> e)
              | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e)
                ->
                  e)
          | Ok other -> Error (Printf.sprintf "unknown op %S" other)))

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

let response_with_report ~id ~status extra ~report : string =
  (* the header object without its closing brace, then the report field
     last — the field order {!response} would give it *)
  let head = response ~id ~status extra in
  let field = ",\"report\":" in
  let h = String.length head - 1
  and f = String.length field
  and r = String.length report in
  let b = Bytes.create (h + f + r + 1) in
  Bytes.blit_string head 0 b 0 h;
  Bytes.blit_string field 0 b h f;
  Bytes.blit_string report 0 b (h + f) r;
  Bytes.set b (h + f + r) '}';
  Bytes.unsafe_to_string b

let worker_response ~id ~status extra payload =
  if Metrics.json_valid payload then
    (Some payload, response_with_report ~id ~status extra ~report:payload)
  else
    (None, response ~id ~status (extra @ [ ("report", Metrics.Str payload) ]))

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

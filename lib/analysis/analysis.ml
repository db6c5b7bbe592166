(** Implementation of the unified analysis pipeline: shared phase
    skeleton, generic reports under the versioned [prax.report] schema,
    and the process-wide analysis registry.  See analysis.mli. *)

module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

let report_schema_name = "prax.report"
let report_schema_version = 1

let size_nursery () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* --- monotonic phase clock ---------------------------------------------- *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- the shared phase skeleton ------------------------------------------ *)

type phases = { preproc : float; analysis : float; collection : float }

let total p = p.preproc +. p.analysis +. p.collection
let add_preproc p dt = { p with preproc = p.preproc +. dt }

(* Words allocated per phase: the [Gc.minor_words] delta, which on a
   shared host is steadier than wall time (it does not move with load)
   and names the garbage a speed-up must remove. *)
let alloc_counter phase =
  Metrics.counter ~units:"words"
    ~doc:(Printf.sprintf "words allocated on the minor heap during %s" phase)
    ("alloc." ^ phase ^ "_words")

let m_pre_words = alloc_counter "preprocess"
let m_eval_words = alloc_counter "evaluate"
let m_col_words = alloc_counter "collect"

let add_words c w0 w1 = Metrics.add c (int_of_float (w1 -. w0))

let phased ~timers:(t_pre, t_eval, t_col) ~pre ~eval ~collect () =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let a = Metrics.time t_pre pre in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  let b = Metrics.time t_eval (fun () -> eval a) in
  let t2 = now () in
  let w2 = Gc.minor_words () in
  let c = Metrics.time t_col (fun () -> collect a b) in
  let t3 = now () in
  let w3 = Gc.minor_words () in
  add_words m_pre_words w0 w1;
  add_words m_eval_words w1 w2;
  add_words m_col_words w2 w3;
  ( { preproc = t1 -. t0; analysis = t2 -. t1; collection = t3 -. t2 },
    a,
    b,
    c )

let parsed t_pre f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let x = Metrics.time t_pre f in
  let dt = now () -. t0 in
  add_words m_pre_words w0 (Gc.minor_words ());
  (x, dt)

let phase_timers ?doc prefix =
  let mk phase =
    let doc = Option.map (fun d -> d ^ ": " ^ phase) doc in
    Metrics.timer ?doc (prefix ^ "." ^ phase)
  in
  (mk "preprocess", mk "evaluate", mk "collect")

(* --- engine counts ------------------------------------------------------- *)

type engine_counts = Prax_tabling.Engine.stats = {
  mutable calls : int;
  mutable table_entries : int;
  mutable answers : int;
  mutable duplicates : int;
  mutable resumptions : int;
  mutable forced : int;
}

let engine_counts_to_json (e : engine_counts) : Metrics.json =
  Metrics.Obj
    [
      ("calls", Metrics.Int e.calls);
      ("table_entries", Metrics.Int e.table_entries);
      ("answers", Metrics.Int e.answers);
      ("duplicates", Metrics.Int e.duplicates);
      ("resumptions", Metrics.Int e.resumptions);
      ("forced", Metrics.Int e.forced);
    ]

let engine_counts_of_json j =
  let get k =
    match Metrics.member k j with Some (Metrics.Int n) -> n | _ -> 0
  in
  {
    calls = get "calls";
    table_entries = get "table_entries";
    answers = get "answers";
    duplicates = get "duplicates";
    resumptions = get "resumptions";
    forced = get "forced";
  }

(* --- configurations ------------------------------------------------------ *)

type config = (string * string) list

exception Config_error of string

let config_get cfg key =
  match List.assoc_opt key cfg with
  | Some v -> v
  | None -> raise (Config_error (Printf.sprintf "configuration key %s unset" key))

let config_int cfg key =
  let v = config_get cfg key in
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      raise
        (Config_error (Printf.sprintf "%s expects an integer, got %S" key v))

let config_bool cfg key =
  match config_get cfg key with
  | "true" -> true
  | "false" -> false
  | v ->
      raise
        (Config_error
           (Printf.sprintf "%s expects true or false, got %S" key v))

let config_enum cfg key choices =
  let v = config_get cfg key in
  if List.mem v choices then v
  else
    raise
      (Config_error
         (Printf.sprintf "%s expects one of %s, got %S" key
            (String.concat "|" choices) v))

let merge_config ~defaults overrides =
  match
    List.find_opt (fun (k, _) -> not (List.mem_assoc k defaults)) overrides
  with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown configuration key %s (accepted: %s)" k
           (String.concat ", " (List.map fst defaults)))
  | None ->
      (* later assignments win: reverse before first-match lookup *)
      let overrides = List.rev overrides in
      Ok
        (List.map
           (fun (k, d) ->
             (k, Option.value (List.assoc_opt k overrides) ~default:d))
           defaults)

let assignments_of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match String.index_opt p '=' with
        | Some i when i > 0 ->
            let k = String.sub p 0 i in
            let v = String.sub p (i + 1) (String.length p - i - 1) in
            go ((k, v) :: acc) rest
        | _ -> Error (Printf.sprintf "expected KEY=VALUE, got %S" p))
  in
  go [] parts

let config_to_string cfg =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) cfg)

let config_to_json cfg : Metrics.json =
  Metrics.Obj (List.map (fun (k, v) -> (k, Metrics.Str v)) cfg)

let config_of_json = function
  | Metrics.Obj fields ->
      List.filter_map
        (fun (k, v) ->
          match v with Metrics.Str s -> Some (k, s) | _ -> None)
        fields
  | _ -> []

(* --- generic reports ----------------------------------------------------- *)

type report = {
  analysis : string;
  config : config;
  phases : phases;
  status : Guard.status;
  table_bytes : int;
  clause_count : int;
  source_lines : int option;
  engine : engine_counts option;
  payload_text : string;
  payload_json : Metrics.json;
}

let timings_line (r : report) =
  Printf.sprintf
    "phases: preprocess %.4fs, analysis %.4fs, collection %.4fs, total \
     %.4fs; table space %d bytes%s"
    r.phases.preproc r.phases.analysis r.phases.collection (total r.phases)
    r.table_bytes
    (if r.clause_count > 0 then Printf.sprintf "; %d clauses" r.clause_count
     else "")

let phases_to_json p : Metrics.json =
  Metrics.Obj
    [
      ("preprocess", Metrics.Float p.preproc);
      ("evaluate", Metrics.Float p.analysis);
      ("collect", Metrics.Float p.collection);
      ("total_seconds", Metrics.Float (total p));
    ]

let report_to_json ?input (r : report) : Metrics.json =
  let open Metrics in
  Obj
    ([
       ("schema", Str report_schema_name);
       ("schema_version", Int report_schema_version);
       ("analysis", Str r.analysis);
     ]
    @ (match input with Some i -> [ ("input", Str i) ] | None -> [])
    @ [ ("config", config_to_json r.config) ]
    @ Guard.status_json_fields r.status
    @ [
        ("phases", phases_to_json r.phases);
        ("table_bytes", Int r.table_bytes);
        ("clause_count", Int r.clause_count);
      ]
    @ (match r.source_lines with
      | Some n -> [ ("source_lines", Int n) ]
      | None -> [])
    @ (match r.engine with
      | Some e -> [ ("engine", engine_counts_to_json e) ]
      | None -> [])
    @ [ ("text", Str r.payload_text); ("result", r.payload_json) ])

type parsed_report = {
  p_analysis : string;
  p_input : string option;
  p_config : config;
  p_status : string;
  p_phases : phases;
  p_table_bytes : int;
  p_clause_count : int;
  p_source_lines : int option;
  p_engine : engine_counts option;
  p_text : string;
  p_result : Metrics.json;
}

let report_of_json (doc : Metrics.json) : (parsed_report, string) result =
  let str k =
    match Metrics.member k doc with
    | Some (Metrics.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "prax.report document lacks %s" k)
  in
  let int k =
    match Metrics.member k doc with
    | Some (Metrics.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "prax.report document lacks %s" k)
  in
  let float_of = function
    | Metrics.Float f -> f
    | Metrics.Int n -> float_of_int n
    | _ -> 0.
  in
  let ( let* ) = Result.bind in
  let* schema = str "schema" in
  if not (String.equal schema report_schema_name) then
    Error (Printf.sprintf "not a %s document: %s" report_schema_name schema)
  else
    let* version = int "schema_version" in
    if version < 1 || version > report_schema_version then
      Error (Printf.sprintf "unsupported prax.report version %d" version)
    else
      let* p_analysis = str "analysis" in
      let* p_status = str "status" in
      let* p_table_bytes = int "table_bytes" in
      let* p_clause_count = int "clause_count" in
      let* p_text = str "text" in
      let* ph =
        match Metrics.member "phases" doc with
        | Some (Metrics.Obj _ as ph) ->
            let f k =
              match Metrics.member k ph with Some v -> float_of v | None -> 0.
            in
            Ok
              {
                preproc = f "preprocess";
                analysis = f "evaluate";
                collection = f "collect";
              }
        | _ -> Error "prax.report document lacks phases"
      in
      Ok
        {
          p_analysis;
          p_input =
            (match Metrics.member "input" doc with
            | Some (Metrics.Str s) -> Some s
            | _ -> None);
          p_config =
            (match Metrics.member "config" doc with
            | Some c -> config_of_json c
            | None -> []);
          p_status;
          p_phases = ph;
          p_table_bytes;
          p_clause_count;
          p_source_lines =
            (match Metrics.member "source_lines" doc with
            | Some (Metrics.Int n) -> Some n
            | _ -> None);
          p_engine =
            Option.map engine_counts_of_json (Metrics.member "engine" doc);
          p_text;
          p_result =
            Option.value (Metrics.member "result" doc) ~default:Metrics.Null;
        }

(* --- the registry -------------------------------------------------------- *)

type source_kind = Logic_program | Fp_program | Cfg_program

let kind_to_string = function
  | Logic_program -> "logic-program"
  | Fp_program -> "fp-program"
  | Cfg_program -> "cfg-program"

type cache = {
  cache_load : string -> string option;
  cache_save : string -> string -> unit;
}

type t = {
  name : string;
  doc : string;
  kind : source_kind;
  extensions : string list;
  defaults : config;
  run : ?cache:cache -> config:config -> guard:Guard.t -> string -> report;
  table_class : (config -> string) option;
}

(* registration order is meaningful: [claiming_extension] awards an
   extension to the first registrant, so [.pl] stays groundness-by-default
   even though depth-k and gaia accept it too *)
let registry : t list ref = ref []

let register (a : t) =
  if List.exists (fun b -> String.equal b.name a.name) !registry then
    invalid_arg (Printf.sprintf "Analysis.register: duplicate %s" a.name);
  registry := !registry @ [ a ]

let find name = List.find_opt (fun a -> String.equal a.name name) !registry
let all () = !registry
let names () = List.map (fun a -> a.name) !registry

let claiming_extension ext =
  List.find_opt (fun a -> List.mem ext a.extensions) !registry

let merged (a : t) config =
  match merge_config ~defaults:a.defaults config with
  | Error msg -> raise (Config_error msg)
  | Ok cfg -> cfg

let run (a : t) ?(config = []) ?(guard = Guard.unlimited) ?cache src =
  a.run ?cache ~config:(merged a config) ~guard src

let run_incr a ?config ?guard ~cache src = run a ?config ?guard ~cache src

let table_class (a : t) ?(config = []) () =
  Option.map (fun tc -> tc (merged a config)) a.table_class

let memory_cache () =
  let tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
  {
    cache_load = Hashtbl.find_opt tbl;
    cache_save = (fun k v -> Hashtbl.replace tbl k v);
  }

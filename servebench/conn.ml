(** A [prax.wire] client connection: newline-delimited JSON over a
    Unix-domain socket, with its own line buffer so back-to-back
    responses are split exactly. *)

module Metrics = Prax_metrics.Metrics
module Wire = Prax_daemon.Wire

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** bytes held *)
  mutable scanned : int;  (** prefix already known to hold no newline *)
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd; buf = Bytes.create 65536; len = 0; scanned = 0 }
  | exception e ->
      Unix.close fd;
      raise e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring t.fd s off (n - off))
  in
  go 0

(** A complete line already buffered, without reading. *)
let pop_line t =
  let rec find i =
    if i >= t.len then None
    else if Bytes.unsafe_get t.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find t.scanned with
  | Some i ->
      let line = Bytes.sub_string t.buf 0 i in
      let rest = t.len - i - 1 in
      Bytes.blit t.buf (i + 1) t.buf 0 rest;
      t.len <- rest;
      t.scanned <- 0;
      Some line
  | None ->
      t.scanned <- t.len;
      None

(** One [read] into the buffer (blocks only if nothing is readable).
    @raise End_of_file when the daemon closed the connection. *)
let fill t =
  if t.len = Bytes.length t.buf then begin
    let b = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 b 0 t.len;
    t.buf <- b
  end;
  match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
  | 0 -> raise End_of_file
  | n -> t.len <- t.len + n

let rec read_line t =
  match pop_line t with
  | Some l -> l
  | None ->
      fill t;
      read_line t

(* --- requests ---------------------------------------------------------------- *)

let analyze_line ~id (it : Gen.item) =
  Wire.request_to_string
    {
      Wire.id;
      client = None;
      op =
        Wire.Analyze
          {
            analysis = it.Gen.base.Gen.analysis;
            input = it.Gen.input;
            source = it.Gen.source;
            config = [];
          };
    }

let control_line ?(id = Metrics.Null) op = Wire.request_to_string { Wire.id; client = None; op }

(** Send a control request and return the parsed response. *)
let call t op =
  send t (control_line op);
  Metrics.json_of_string (read_line t)

(** The daemon's [stats] document ([prax.stats] counters and gauges). *)
let stats t =
  match Metrics.member "stats" (call t Wire.Stats) with
  | Some s -> s
  | None -> failwith "servebench: stats response without a stats document"

(** A named counter from a [stats] document (0 when absent). *)
let counter stats name =
  match Option.bind (Metrics.member "counters" stats) (Metrics.member name) with
  | Some (Metrics.Int n) -> n
  | _ -> 0

(** Crash-safe persistent snapshot store — see store.mli and
    docs/ROBUSTNESS.md for the protocol and on-disk format. *)

module Metrics = Prax_metrics.Metrics

let m_hits =
  Metrics.counter ~units:"loads" ~doc:"store loads answered by a valid snapshot"
    "store.hits"

let m_misses =
  Metrics.counter ~units:"loads"
    ~doc:"store loads that degraded to recomputation (absent/corrupt/skew)"
    "store.misses"

let m_corrupt =
  Metrics.counter ~units:"snapshots"
    ~doc:"snapshots rejected by integrity checks (magic/header/length/CRC)"
    "store.corrupt_detected"

let m_skew =
  Metrics.counter ~units:"snapshots"
    ~doc:"snapshots rejected for format or stats-schema version mismatch"
    "store.version_skew"

let m_writes =
  Metrics.counter ~units:"snapshots" ~doc:"snapshots written (temp+rename)"
    "store.writes"

let m_tmp_swept =
  Metrics.counter ~units:"files"
    ~doc:"orphaned temp files from crashed writers removed at store open"
    "store.tmp_swept"

let m_write_errors =
  Metrics.counter ~units:"snapshots"
    ~doc:"snapshot writes that failed (ENOSPC, short write, IO error) and \
          were contained: the result stays unpersisted, the caller unaffected"
    "store.write_errors"

let format_version = 1
let magic = "PRAXSNAP"

type key = {
  analysis : string;
  source_digest : string;
  config : string;
  schema_version : int;
}

let digest_source src = Digest.to_hex (Digest.string src)
let digest_source_sub b pos len = Digest.to_hex (Digest.subbytes b pos len)

type t = { root : string }

(* A writer that died between [openfile] and [rename] leaves
   `<name>.snap.tmp.<pid>.<counter>` behind; the snapshot itself is
   intact-or-absent (that is the point of the protocol), but the temp
   files accumulate forever.  Opening the store sweeps them — except
   those whose writer pid is still alive, which may be a concurrent
   saver mid-write. *)
let writer_alive pid =
  if pid = Unix.getpid () then true
  else
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception Unix.Unix_error (_, _, _) ->
        (* EPERM: exists but not ours — alive *)
        true

(* The sweep recurses: the incremental layer keeps per-SCC fragment
   snapshots in subdirectories (root/incr/<analysis>/), written with the
   same temp-file protocol, so their orphans must be collected too. *)
let rec sweep_tmp root =
  match Sys.readdir root with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun name ->
          let path = Filename.concat root name in
          if try Sys.is_directory path with Sys_error _ -> false then
            sweep_tmp path
          else
          let marker = ".snap.tmp." in
          match
            (* name = <base>.snap.tmp.<pid>.<counter> *)
            let rec find i =
              if i + String.length marker > String.length name then None
              else if String.sub name i (String.length marker) = marker then
                Some (i + String.length marker)
              else find (i + 1)
            in
            find 0
          with
          | None -> ()
          | Some rest_at -> (
              let rest =
                String.sub name rest_at (String.length name - rest_at)
              in
              match String.split_on_char '.' rest with
              | [ pid_s; _counter ] -> (
                  match int_of_string_opt pid_s with
                  | Some pid when not (writer_alive pid) -> (
                      match Unix.unlink (Filename.concat root name) with
                      | () -> Metrics.incr m_tmp_swept
                      | exception Unix.Unix_error _ -> ())
                  | _ -> ())
              | _ -> ()))
        entries

let open_dir root =
  (if Sys.file_exists root then begin
     if not (Sys.is_directory root) then
       raise (Sys_error (root ^ ": not a directory"))
   end
   else
     try Unix.mkdir root 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  sweep_tmp root;
  { root }

let sub t name =
  if
    name = "" || name = "." || name = ".."
    || String.exists (fun c -> c = '/' || c = '\\' || c = '\x00') name
  then invalid_arg (Printf.sprintf "Store.sub: bad component %S" name);
  let root = Filename.concat t.root name in
  (if Sys.file_exists root then begin
     if not (Sys.is_directory root) then
       raise (Sys_error (root ^ ": not a directory"))
   end
   else
     try Unix.mkdir root 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* no sweep: the parent's recursive open-time sweep covered it, and
     [sub] is called per analysis run — scanning would be O(cache) *)
  { root }

let dir t = t.root

(* One file per key; the name folds the whole key so distinct
   configurations of the same source never collide, with a readable
   analysis prefix for operators listing the directory. *)
let path_of t (k : key) =
  let id =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [ k.analysis; k.source_digest; k.config;
              string_of_int k.schema_version ]))
  in
  Filename.concat t.root (Printf.sprintf "%s-%s.snap" k.analysis id)

type load_error =
  | Absent
  | Corrupt of string
  | Version_skew of string
  | Key_mismatch

let load_error_to_string = function
  | Absent -> "absent"
  | Corrupt what -> "corrupt: " ^ what
  | Version_skew what -> "version-skew: " ^ what
  | Key_mismatch -> "key-mismatch"

(* --- encoding ----------------------------------------------------------- *)

(* Header lines are ASCII `field=value\n`; [config] is the only
   caller-supplied field and the key type forbids newlines in it, but a
   hostile value must corrupt only its own snapshot, so reject rather
   than silently mangle. *)
let check_no_newline what v =
  if String.contains v '\n' then
    invalid_arg (Printf.sprintf "Store: %s must not contain newlines" what)

let encode (k : key) (payload : string) : string =
  check_no_newline "key.analysis" k.analysis;
  check_no_newline "key.source_digest" k.source_digest;
  check_no_newline "key.config" k.config;
  let body =
    Printf.sprintf "%s %d\nanalysis=%s\nsource=%s\nconfig=%s\nschema=%d\nlen=%d\n%s"
      magic format_version k.analysis k.source_digest k.config k.schema_version
      (String.length payload) payload
  in
  body ^ Printf.sprintf "\ncrc32=%s\n" (Crc32.to_hex (Crc32.string_ body))

(* Strict decoder: every departure from the format is classified as
   [Corrupt] (structure damaged) or [Version_skew] (structure fine,
   wrong era).  The CRC is checked before trusting any field other than
   the trailer position itself. *)
let decode (k : key) (raw : string) : (string, load_error) result =
  let n = String.length raw in
  (* trailer: "\ncrc32=XXXXXXXX\n" = 16 bytes *)
  let trailer_len = 16 in
  if n < trailer_len then Error (Corrupt "truncated (no trailer)")
  else
    let body_len = n - trailer_len in
    let trailer = String.sub raw body_len trailer_len in
    if
      not
        (String.length trailer = trailer_len
        && String.sub trailer 0 7 = "\ncrc32="
        && trailer.[trailer_len - 1] = '\n')
    then Error (Corrupt "malformed trailer")
    else
      let stored_crc = String.sub trailer 7 8 in
      let actual_crc = Crc32.to_hex (Crc32.update 0l raw 0 body_len) in
      if not (String.equal stored_crc actual_crc) then
        Error
          (Corrupt
             (Printf.sprintf "crc mismatch (stored %s, computed %s)" stored_crc
                actual_crc))
      else
        (* CRC holds: the header bytes are authentic, parse them. *)
        let body = String.sub raw 0 body_len in
        let line_end from =
          match String.index_from_opt body from '\n' with
          | Some i -> i
          | None -> raise Exit
        in
        let field from name =
          let i = line_end from in
          let line = String.sub body from (i - from) in
          let prefix = name ^ "=" in
          if String.starts_with ~prefix line then
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix),
             i + 1)
          else raise Exit
        in
        match
          let i0 = line_end 0 in
          let first = String.sub body 0 i0 in
          (match String.split_on_char ' ' first with
          | [ m; v ] when String.equal m magic -> (
              match int_of_string_opt v with
              | Some fv when fv = format_version -> ()
              | Some fv ->
                  raise
                    (Failure (Printf.sprintf "container format v%d (expected v%d)" fv format_version))
              | None -> raise Exit)
          | _ -> raise Exit);
          let analysis, p = field (i0 + 1) "analysis" in
          let source, p = field p "source" in
          let config, p = field p "config" in
          let schema_s, p = field p "schema" in
          let len_s, p = field p "len" in
          let schema =
            match int_of_string_opt schema_s with
            | Some v -> v
            | None -> raise Exit
          in
          let len =
            match int_of_string_opt len_s with
            | Some v when v >= 0 -> v
            | _ -> raise Exit
          in
          if p + len <> body_len then raise Exit;
          let payload = String.sub body p len in
          ({ analysis; source_digest = source; config; schema_version = schema },
           payload)
        with
        | exception Exit -> Error (Corrupt "malformed header")
        | exception Failure what -> Error (Version_skew what)
        | stored, payload ->
            if stored.schema_version <> k.schema_version then
              Error
                (Version_skew
                   (Printf.sprintf "stats schema v%d (expected v%d)"
                      stored.schema_version k.schema_version))
            else if
              String.equal stored.analysis k.analysis
              && String.equal stored.source_digest k.source_digest
              && String.equal stored.config k.config
            then Ok payload
            else Error Key_mismatch

(* --- public operations --------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_result t (k : key) : (string, load_error) result =
  let path = path_of t k in
  let result =
    match read_file path with
    | exception Sys_error _ -> Error Absent
    | raw -> decode k raw
  in
  (match result with
  | Ok _ -> Metrics.incr m_hits
  | Error e ->
      Metrics.incr m_misses;
      (match e with
      | Corrupt _ -> Metrics.incr m_corrupt
      | Version_skew _ -> Metrics.incr m_skew
      | Absent | Key_mismatch -> ()));
  result

let load t k = match load_result t k with Ok p -> Some p | Error _ -> None

let tmp_counter = ref 0

(* Fault injection for the chaos harness (docs/ROBUSTNESS.md): arm a
   one-shot write fault and the next [save] fails as if the disk did —
   [Enospc] before any payload byte lands, [Short_write] after half of
   them.  Armed by the daemon's chaos plan; a store fault must degrade
   to "result not persisted", never to a crashed caller or a published
   torn snapshot. *)
type write_fault = Fault_enospc | Fault_short_write

let armed_fault : write_fault option ref = ref None
let arm_write_fault f = armed_fault := Some f
let take_fault () =
  let f = !armed_fault in
  armed_fault := None;
  f

exception Injected of write_fault

let save_result t (k : key) (payload : string) : (unit, string) result =
  let data = encode k payload in
  let path = path_of t k in
  incr tmp_counter;
  (* unique per process *and* per call: concurrent savers never share a
     temp file, and the only shared operation is the atomic rename *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) !tmp_counter
  in
  let fault = take_fault () in
  match
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match fault with Some Fault_enospc -> raise (Injected Fault_enospc) | _ -> ());
        let n = String.length data in
        let limit =
          match fault with Some Fault_short_write -> n / 2 | _ -> n
        in
        let written = ref 0 in
        while !written < limit do
          written :=
            !written + Unix.write_substring fd data !written (limit - !written)
        done;
        (match fault with
        | Some Fault_short_write -> raise (Injected Fault_short_write)
        | _ -> ());
        (* durability point: the payload is on disk before the rename
           publishes it, so a crash can leave a stale or absent snapshot
           but never a published half-written one *)
        Unix.fsync fd);
    Unix.rename tmp path
  with
  | () ->
      (* complete the durability chain: the rename itself must reach the
         directory inode, or a power cut after an acknowledged save could
         resurrect the old snapshot (or none).  Directory fsync support
         varies by platform/filesystem, so failure here downgrades to the
         pre-fsync guarantee instead of failing the save. *)
      (try
         let dfd = Unix.openfile t.root [ Unix.O_RDONLY ] 0 in
         Fun.protect
           ~finally:(fun () ->
             try Unix.close dfd with Unix.Unix_error _ -> ())
           (fun () -> Unix.fsync dfd)
       with Unix.Unix_error _ -> ());
      Metrics.incr m_writes;
      Ok ()
  | exception ((Unix.Unix_error _ | Sys_error _ | Injected _) as exn) ->
      (* containment: a failed write leaves no torn published snapshot
         (the rename never ran) and no stranded temp *)
      (try Unix.unlink tmp with Unix.Unix_error _ | Sys_error _ -> ());
      Metrics.incr m_write_errors;
      Error
        (match exn with
        | Unix.Unix_error (e, _, _) -> Unix.error_message e
        | Injected Fault_enospc -> "injected ENOSPC"
        | Injected Fault_short_write -> "injected short write"
        | Sys_error m -> m
        | _ -> "write failed")

let save t (k : key) (payload : string) : unit =
  match save_result t k payload with Ok () | Error _ -> ()

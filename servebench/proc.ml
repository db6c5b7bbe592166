(** Starting, probing and draining a real [praxd serve] process, and
    reading its CPU time and peak RSS from [/proc].

    Every daemon started here is registered until it has been drained
    and reaped; an [at_exit] hook SIGKILLs and reaps any that are left
    (an exception mid-run must not leave a daemon behind). *)

module Wire = Prax_daemon.Wire
module Metrics = Prax_metrics.Metrics

(** The daemon binary, relative to the checkout root (built by
    [dune build ./bin/praxd.exe]). *)
let praxd_exe = "_build/default/bin/praxd.exe"

type t = { pid : int; socket : string; started : float }

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap_blocking pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap_blocking pid)
    live;
  Hashtbl.reset live

let () = at_exit kill_all

(* --- CPU placement ----------------------------------------------------------------------- *)

(** The CPUs this process may run on ([Cpus_allowed_list] of
    [/proc/self/status], e.g. ["0-1"] or ["0,2-3"]). *)
let allowed_cpus () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find (String.starts_with ~prefix:"Cpus_allowed_list:")
  in
  let list = String.trim (List.nth (String.split_on_char ':' line) 1) in
  List.concat_map
    (fun range ->
      match String.split_on_char '-' range with
      | [ a ] -> [ int_of_string a ]
      | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
      | _ -> failwith ("servebench: bad Cpus_allowed_list " ^ list))
    (String.split_on_char ',' list)

let on_path prog =
  List.exists
    (fun d -> d <> "" && Sys.file_exists (Filename.concat d prog))
    (String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH")))

let cpu_list cpus = String.concat "," (List.map string_of_int cpus)

let need_taskset () =
  if not (on_path "taskset") then
    failwith "servebench: taskset (util-linux) is needed to place the daemon"

(** Where the daemon (and so every worker it forks, which inherits its
    affinity) may run.  [`Apart] keeps it off the first allowed CPU,
    which the load generator is left to use, so client and server do not
    compete and a worker always exits on its daemon's CPU set.
    [`Shared] gives it every CPU.  [`Together] moves the load generator
    itself onto the last allowed CPU and puts the daemon there too.
    With one CPU there is nothing to place: [None]. *)
let daemon_cpus placement =
  match (placement, allowed_cpus ()) with
  | _, ([] | [ _ ]) -> None
  | `Apart, _ :: rest -> Some rest
  | `Shared, all -> Some all
  | `Together, all ->
      let cpu = [ List.nth all (List.length all - 1) ] in
      need_taskset ();
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      let pid =
        Unix.create_process "taskset"
          [| "taskset"; "-p"; "-c"; cpu_list cpu; string_of_int (Unix.getpid ()) |]
          Unix.stdin null null
      in
      Unix.close null;
      reap_blocking pid;
      Some cpu

(** Start [praxd serve --jobs 2] on a socket inside [dir] (relative
    paths keep the socket path short), confined to [cpus] through
    [taskset]; its output goes to [dir/praxd.log].  Does not wait for
    readiness. *)
let start ~dir ?(extra = []) ?cpus () =
  if not (Sys.file_exists praxd_exe) then
    failwith ("servebench: daemon binary missing: " ^ praxd_exe);
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "praxd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    Array.of_list
      ([ praxd_exe; "serve"; "--socket"; socket; "--jobs"; "2"; "--quiet" ]
      @ extra)
  in
  let started = Prax_analysis.Analysis.now () in
  let argv =
    match cpus with
    | None -> argv
    | Some cpus ->
        need_taskset ();
        Array.append [| "taskset"; "-c"; cpu_list cpus |] argv
  in
  (* taskset execs the daemon in place, so [pid] is the daemon's *)
  let pid = Unix.create_process argv.(0) argv null log log in
  Unix.close log;
  Unix.close null;
  Hashtbl.replace live pid ();
  { pid; socket; started }

(** Block until the daemon answers a ping; returns a connection to it.
    @raise Failure after 60 s or if the daemon exits first. *)
let connect_ready d =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ ->
        Hashtbl.remove live d.pid;
        failwith "servebench: praxd exited during startup (see praxd.log)");
    match Conn.connect d.socket with
    | c -> (
        match Wire.response_status (Conn.call c Wire.Ping) with
        | Ok "ok" -> c
        | _ -> failwith "servebench: praxd answered ping with an error")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Unix.gettimeofday () > deadline then
          failwith "servebench: praxd did not come up within 60 s";
        (* a fine poll: it bounds how late set-up notices readiness,
           and so the resolution of setup_s (~5 ms on cold_mix) *)
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(** Ask the daemon to drain and wait for it to exit (SIGKILL after
    30 s).  Returns its exit status. *)
let drain d =
  (try
     let c = Conn.connect d.socket in
     ignore (Conn.call c Wire.Drain);
     Conn.close c
   with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          snd (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  Hashtbl.remove live d.pid;
  st

(* --- /proc ------------------------------------------------------------------------- *)

(** Kernel clock ticks per second for [/proc/<pid>/stat] times
    (USER_HZ, 100 on every mainstream Linux architecture). *)
let clk_tck = 100.

(** utime + stime + cutime + cstime of [pid], in seconds: the daemon's
    own CPU plus that of every worker it has reaped. *)
let cpu_seconds pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  in
  (* fields after the parenthesized command name, which may hold spaces *)
  let rest =
    let i = String.rindex line ')' in
    String.sub line (i + 2) (String.length line - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime..cstime are fields 14..17 *)
  let tick k = float_of_string f.(k - 3) in
  (tick 14 +. tick 15 +. tick 16 +. tick 17) /. clk_tck

(** Peak resident set ([VmHWM]) of [pid], in MiB. *)
let vm_hwm_mb pid =
  let lines =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_lines
  in
  match
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some kb)
        else None)
      lines
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "servebench: no VmHWM in /proc status"

(** An in-memory span recorder for the traced run.

    Spans are recorded from benchmark code around calls into the
    program's public functions: name, start, end, the span that caused
    it, and the request it belongs to.  Counts attach to a request at
    the same boundaries.  Nothing is written until {!write}, at the end
    of the run.  A span's {e self time} is its duration minus the part
    of it that its child spans cover; for a request's root span that
    remainder is the unattributed residual. *)

module Metrics = Prax_metrics.Metrics

type span = {
  id : int;
  req : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable counts : (int * string * float) list;  (** (req, name, value) *)
  mutable next : int;
}

let create () = { spans = []; counts = []; next = 0 }

(** [span tr ~req ?parent name f] runs [f id] inside a new span and
    records it (also when [f] raises). *)
let span tr ~req ?(parent = 0) name f =
  tr.next <- tr.next + 1;
  let id = tr.next in
  let t0 = Prax_analysis.Analysis.now () in
  let record () =
    let t1 = Prax_analysis.Analysis.now () in
    tr.spans <- { id; req; parent; name; t0; t1 } :: tr.spans
  in
  match f id with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

(** Record a span measured elsewhere (e.g. a request's client-side wall
    clock, timed in the load loop); returns its id. *)
let record tr ~req ?(parent = 0) name ~t0 ~t1 =
  tr.next <- tr.next + 1;
  tr.spans <- { id = tr.next; req; parent; name; t0; t1 } :: tr.spans;
  tr.next

let count tr ~req name v = tr.counts <- (req, name, v) :: tr.counts

let duration s = s.t1 -. s.t0

(** Self time of every span, in recording order, as (span, seconds). *)
let self_times tr =
  let spans = List.rev tr.spans in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(** Self times (seconds) of the spans called [name]. *)
let self_of tr name =
  List.filter_map
    (fun (s, self) -> if String.equal s.name name then Some self else None)
    (self_times tr)

(** Values of the counts called [name]. *)
let counts_of tr name =
  List.rev
    (List.filter_map
       (fun (_, n, v) -> if String.equal n name then Some v else None)
       tr.counts)

(** Write every span and count as JSON lines to [path]. *)
let write tr path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Metrics.json_to_string
               (Metrics.Obj
                  [
                    ("span", Metrics.Str s.name);
                    ("id", Metrics.Int s.id);
                    ("req", Metrics.Int s.req);
                    ("parent", Metrics.Int s.parent);
                    ("start_s", Metrics.Float s.t0);
                    ("end_s", Metrics.Float s.t1);
                  ]));
          output_char oc '\n')
        (List.rev tr.spans);
      List.iter
        (fun (req, name, v) ->
          output_string oc
            (Metrics.json_to_string
               (Metrics.Obj
                  [
                    ("count", Metrics.Str name);
                    ("req", Metrics.Int req);
                    ("value", Metrics.Float v);
                  ]));
          output_char oc '\n')
        (List.rev tr.counts))

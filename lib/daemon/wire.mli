(** The daemon's request/response protocol: [prax.wire] v1.

    Newline-delimited JSON over a Unix-domain stream socket — one JSON
    object per line in each direction, no binary framing, so any
    language (or a human with [nc -U]) can speak it.  Every object
    carries the schema header [{"wire":"prax.wire","version":1}]; a
    request names an [op] and a response names a [status].

    Requests:

    {v {"wire":"prax.wire","version":1,"id":7,"op":"ping"}
{"wire":"prax.wire","version":1,"id":8,"op":"stats"}
{"wire":"prax.wire","version":1,"id":9,"op":"drain"}
{"wire":"prax.wire","version":1,"id":10,"op":"analyze",
 "analysis":"groundness","input":"qsort.pl","source":"<program text>",
 "config":{"mode":"compiled"},"client":"ci-3"} v}

    [id] is echoed verbatim in the response (any JSON value; absent →
    [null]).  [client] names the caller for per-client rate limiting
    (absent → the connection's identity).  The [source] is the program
    {e text}, not a path — the daemon never reads client files, so it
    can serve clients in other working directories or sandboxes, and
    the warm cache keys on the bytes themselves.

    Response statuses (docs/ROBUSTNESS.md "serving under load"):

    - ["ok"] — ping/stats/drain acknowledgement;
    - ["complete"] / ["partial"] / ["cached"] — an analyze result; the
      [report] field holds the [prax.report] document, [partial] adds a
      [reason];
    - ["crashed"] — the worker fleet exhausted its retries; [error]
      describes the last attempt;
    - ["overloaded"] — load shed {e before} any work: [reason] is
      ["queue_full"] or ["rate_limited"], and [retry_after_ms] hints
      how long to back off before retrying;

    Additive fields (still wire version 1 — absent means old server,
    readers must tolerate both): a result computed under pressure
    carries [degraded:true], [tier] (1 = reduced, 2 = minimal) and
    [tier_label]; sheds carry [retry_after_ms].
    - ["rejected"] — this request was malformed or oversized; [reason]
      says why (only the request is poisoned, not the connection —
      except oversize, which loses framing and closes it);
    - ["error"] — a well-formed request the registry refuses (unknown
      analysis, bad config key), or a source the worker's reader or
      checker rejects: then [reason] is the [file:line:col] diagnostic
      and [attempts] is 1 (an input error is never retried);
    - ["draining"] — the daemon is shutting down and accepts no new
      work. *)

module Metrics = Prax_metrics.Metrics

val schema_name : string
(** ["prax.wire"] *)

val schema_version : int
(** [1] *)

type 'source operation =
  | Ping
  | Stats
  | Drain
  | Analyze of {
      analysis : string;
      input : string;  (** display name / path, for reports and logs *)
      source : 'source;  (** the program text *)
      config : (string * string) list;
    }

type op = string operation

type 'source request_with = {
  id : Metrics.json;  (** echoed in the response; [Null] when absent *)
  client : string option;  (** rate-limit identity *)
  op : 'source operation;
}

type request = string request_with

val parse_request : string -> (request, string) result
(** Parse one request line (sans newline).  [Error] is the rejection
    reason for a ["rejected"] response: not JSON, wrong schema name,
    unsupported version, unknown op, missing field. *)

(** {2 Parsing in place}

    The daemon reads a request line where it lies in its connection
    buffer and never builds the source string of a warm hit.  A
    {!parser} owns the buffer the [source] field is decoded into; the
    request it returns carries a {!source} view of that buffer, valid
    until the parser reads its next request. *)

type parser

val create_parser : unit -> parser

type source

val parse_bytes :
  parser -> Bytes.t -> pos:int -> len:int -> (source request_with, string) result
(** {!parse_request} of the line [b.[pos..pos+len-1]], with the same
    [Error]s.  [b] is only read during the call.  An [analyze]
    request's source is decoded into the parser's buffer and digested
    there. *)

val source_digest : source -> string
(** {!Prax_store.Store.digest_source} of the program text. *)

val source_text : source -> string
(** A copy of the program text — the one allocation of its size, made
    on a miss.  Raises [Invalid_argument] once the parser has read
    another request. *)

val request_to_string : request -> string
(** Serialize a request as one line (no trailing newline) — the client
    side. *)

val response : id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> string
(** Serialize a response as one line (no trailing newline): the schema
    header, the echoed [id], the [status], then the extra fields. *)

val canonical_report : string -> string option
(** The payload re-printed canonically, or [None] when it is not JSON.
    The daemon admits a store snapshot to its cache only in this form:
    another printer may have written it. *)

(** {2 Writing responses into a buffer}

    Each appends one response line, without its newline, to [b]. *)

val add_response : Bytebuf.t -> id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> unit
(** The bytes of {!response}. *)

val add_response_with_report : Bytebuf.t -> id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> report:string -> unit
(** [response ~id ~status (extra @ [("report", r)])], where [r] is the
    parsed [report], without parsing: the response header, then
    ["report":] and [report] spliced in as raw bytes.  [report] must be
    canonical JSON; the line is then byte-identical to the parsing
    form. *)

val worker_report : string -> string option
(** The report in a worker's MD5-verified [payload], to splice and to
    cache.  A worker prints its report with {!Metrics.json_to_string},
    which is canonical, so a payload that is one JSON value
    ({!Metrics.json_valid}) is the report as it is, never parsed.  Any
    other payload has none. *)

val add_worker_response : Bytebuf.t -> id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> string -> report:string option -> unit
(** The answer to a worker's [payload], whose [report] is
    [worker_report payload]: the report spliced by
    {!add_response_with_report}, or else the payload as a JSON string
    [report] field. *)

val response_status : Metrics.json -> (string, string) result
(** Validate a parsed response's schema header and extract its
    [status] — the client side. *)

val retry_after_ms : Metrics.json -> int option
(** The [retry_after_ms] hint on an ["overloaded"] shed, when present
    and non-negative — drives the client's backoff floor. *)

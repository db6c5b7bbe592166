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

type op =
  | Ping
  | Stats
  | Drain
  | Analyze of {
      analysis : string;
      input : string;  (** display name / path, for reports and logs *)
      source : string;  (** the program text *)
      config : (string * string) list;
    }

type request = {
  id : Metrics.json;  (** echoed in the response; [Null] when absent *)
  client : string option;  (** rate-limit identity *)
  op : op;
}

val parse_request : string -> (request, string) result
(** Parse one request line (sans newline).  [Error] is the rejection
    reason for a ["rejected"] response: not JSON, wrong schema name,
    unsupported version, unknown op, missing field. *)

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

val response_with_report : id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> report:string -> string
(** [response ~id ~status (extra @ [("report", r)])], where [r] is the
    parsed [report], without parsing: the response header, then
    ["report":] and [report] spliced in as raw bytes.  [report] must be
    canonical JSON; the line is then byte-identical to the parsing
    form. *)

val worker_response : id:Metrics.json -> status:string ->
  (string * Metrics.json) list -> string -> string option * string
(** The answer to a worker's MD5-verified [payload]: the report to
    cache and the response line.  A worker prints its report with
    {!Metrics.json_to_string}, which is canonical, so a payload that is
    one JSON value ({!Metrics.json_valid}) is spliced as it is, never
    parsed, and is the report to cache.  Any other payload is carried as
    a JSON string [report] field and not cached. *)

val response_status : Metrics.json -> (string, string) result
(** Validate a parsed response's schema header and extract its
    [status] — the client side. *)

val retry_after_ms : Metrics.json -> int option
(** The [retry_after_ms] hint on an ["overloaded"] shed, when present
    and non-negative — drives the client's backoff floor. *)

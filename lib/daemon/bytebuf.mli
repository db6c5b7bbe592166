(** A reusable byte buffer with a consumed prefix: the daemon's
    per-connection input and output buffers and the request parser's
    source buffer.

    The live bytes are [buf.[start..stop-1]].  Bytes are appended at
    [stop] — by {!add_string} and friends, or by a [read] straight into
    [buf] after {!reserve}, then {!commit} — and dropped at [start] by
    {!consume}.  Nothing is allocated while the capacity suffices: room
    is made by sliding the live bytes to the front, and only then by
    doubling.  A buffer that empties while holding more than
    {!keep_bytes} drops back to its initial capacity, so one huge frame
    does not pin its memory for the life of a connection. *)

type t = private {
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  initial : int;  (** the capacity it was created with *)
}

val create : int -> t
(** An empty buffer with this initial capacity (at least 1). *)

val keep_bytes : int
(** 1 MiB: the largest capacity an emptied buffer keeps. *)

val length : t -> int
(** [stop - start]: the live bytes. *)

val reserve : t -> int -> unit
(** Make [buf.[stop..stop+n-1]] writable room. *)

val commit : t -> int -> unit
(** [n] bytes were written at [stop] into reserved room: take them. *)

val consume : t -> int -> unit
(** Drop the first [n] live bytes. *)

val clear : t -> unit
(** Drop every live byte ([consume] of the whole length). *)

val truncate : t -> int -> unit
(** Keep only the first [n] live bytes. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_substring : t -> string -> int -> int -> unit

val contents : t -> string
(** A copy of the live bytes. *)

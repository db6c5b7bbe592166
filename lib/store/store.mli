(** Crash-safe persistent store of analysis outcomes.

    A batch run over the corpus must be resumable: when a run is killed
    (machine reboot, supervisor crash, operator Ctrl-C) the next
    invocation should warm-start from the results already computed
    instead of re-analyzing everything.  The store is a directory of
    {e snapshot} files, one per (source, analysis, configuration)
    triple, with the write and read protocols chosen so that no failure
    mode can surface a wrong result — only a recomputation:

    - {b atomic writes}: a snapshot is written to a unique temp file in
      the store directory, fsynced, then [rename]d into place.  POSIX
      rename atomicity means readers (including concurrent writers of
      the same key) see either the old complete file or the new
      complete file, never a torn one.
    - {b integrity trailer}: every snapshot carries a CRC-32 over its
      header and payload.  A flipped bit, truncated write, or swapped
      block fails the check and the load degrades to a miss
      ([store.corrupt_detected]).
    - {b versioned format and keys}: the file format version, the
      prax.stats schema version, and the full key (source digest,
      analysis, engine configuration) are stored inside the snapshot
      and verified on load; any skew degrades to a miss
      ([store.version_skew]) so stale caches can never leak across an
      upgrade.

    The store never raises on a bad snapshot: corruption is a cache
    miss, and a miss is always safe because the caller recomputes.
    See docs/ROBUSTNESS.md for the on-disk format. *)

val format_version : int
(** Version of the snapshot container format (magic [PRAXSNAP]).  Bump
    on any layout change; old files then degrade to recomputation. *)

type key = {
  analysis : string;  (** e.g. ["groundness"], ["strictness"] *)
  source_digest : string;  (** {!digest_source} of the program text *)
  config : string;
      (** engine configuration discriminator (flags that change the
          result, e.g. ["k=2"] — must not contain newlines) *)
  schema_version : int;  (** prax.stats schema version of the payload *)
}

val digest_source : string -> string
(** Hex digest (MD5) of a program source text, for {!key.source_digest}. *)

val digest_source_sub : Bytes.t -> int -> int -> string
(** [digest_source_sub b pos len] is [digest_source] of those bytes,
    read where they lie. *)

type t

val open_dir : string -> t
(** [open_dir dir] opens (creating if needed) the store rooted at
    [dir], then sweeps orphaned write-temp files
    ([*.snap.tmp.<pid>.<n>]) left by crashed writers — recursively,
    so per-SCC fragment subdirectories ({!sub}) are collected too;
    each removal bumps [store.tmp_swept].  Temp files whose writer pid
    is still alive are left alone (a concurrent saver mid-write).
    @raise Sys_error when [dir] exists and is not a directory. *)

val sub : t -> string -> t
(** [sub t name] — the store rooted at the subdirectory [name] of [t]
    (created if needed).  The incremental layer keeps its per-SCC
    fragment snapshots under [incr/<analysis>/] so they never collide
    with whole-run snapshots in the parent.  No sweep — the parent's
    {!open_dir} sweep already recursed here.
    @raise Invalid_argument when [name] is empty, ["."], [".."], or
    contains a path separator. *)

val dir : t -> string

val path_of : t -> key -> string
(** The snapshot file a [key] maps to (exists or not).  Exposed for
    tests and operational tooling (corruption drills, cache GC). *)

(** Why a load produced no payload. *)
type load_error =
  | Absent  (** no snapshot file for this key *)
  | Corrupt of string  (** bad magic, header, length, or CRC *)
  | Version_skew of string  (** format or schema version mismatch *)
  | Key_mismatch  (** digest collision on filename: stored key differs *)

val load_result : t -> key -> (string, load_error) result
(** Load and fully verify the snapshot for [key].  Counters:
    [store.hits] on [Ok], [store.misses] on any error, plus
    [store.corrupt_detected] / [store.version_skew] on those errors. *)

val load : t -> key -> string option
(** [load_result] with all failures collapsed to [None] (= recompute). *)

val save : t -> key -> string -> unit
(** [save t key payload] atomically persists the snapshot
    (temp + fsync + rename + parent-directory fsync); bumps
    [store.writes].  Concurrent savers of the same key are safe: last
    rename wins, both files are whole.  A write failure (ENOSPC, IO
    error) is {e contained}: the temp file is removed, nothing is
    published, [store.write_errors] is bumped, and the call returns —
    the store is a cache, never an authority, so a failed persist must
    not take the caller down. *)

val save_result : t -> key -> string -> (unit, string) result
(** {!save} with the containment made visible: [Error reason] when the
    write failed (and was cleaned up). *)

(** {2 Chaos-harness fault injection} *)

(** A one-shot injected disk fault for the next {!save}:
    [Fault_enospc] fails before any payload byte is written,
    [Fault_short_write] after roughly half of them.  Either way the
    save is contained exactly like a real disk error.  Armed by the
    daemon's chaos plan (docs/ROBUSTNESS.md). *)
type write_fault = Fault_enospc | Fault_short_write

val arm_write_fault : write_fault -> unit
(** Arm [f] for the next {!save} in this process (one-shot). *)

val load_error_to_string : load_error -> string

(** Global string interning with an inverse table (see symbol.mli).

    The forward direction is a plain [Hashtbl] keyed by the name; the
    inverse is a growable array indexed by id.  Entries are never
    removed: analysis workloads draw functor names from the program
    text, a small finite set, so the table stays tiny and append-only
    keeps every lookup lock-free and allocation-free. *)

module Metrics = Prax_metrics.Metrics

let m_symbols =
  Metrics.counter ~units:"symbols"
    ~doc:"distinct functor/atom names interned in the global symbol table"
    "intern.symbols"

type t = int

type entry = { ename : string; ehash : int }

(* The table is process-global and unsynchronized.  A forked worker
   starts from a copy of its parent's table, and its own interning
   stays in its own address space; nothing interned ever crosses a
   process boundary (workers send back plain result strings). *)
let forward : (string, int) Hashtbl.t = Hashtbl.create 256
let inverse : entry array ref = ref (Array.make 256 { ename = ""; ehash = 0 })
let next = ref 0

let intern (s : string) : t =
  match Hashtbl.find_opt forward s with
  | Some id -> id
  | None ->
      let id = !next in
      incr next;
      Metrics.incr m_symbols;
      let cap = Array.length !inverse in
      if id >= cap then begin
        let bigger = Array.make (2 * cap) { ename = ""; ehash = 0 } in
        Array.blit !inverse 0 bigger 0 cap;
        inverse := bigger
      end;
      !inverse.(id) <- { ename = s; ehash = Hashtbl.hash s };
      Hashtbl.add forward s id;
      id

let name (id : t) : string =
  if id < 0 || id >= !next then invalid_arg "Symbol.name: unknown id"
  else !inverse.(id).ename

let hash (id : t) : int =
  if id < 0 || id >= !next then invalid_arg "Symbol.hash: unknown id"
  else !inverse.(id).ehash

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare (a : int) b
let count () = !next
let mem s = Hashtbl.mem forward s

(** Seeded input generator.

    Every source the daemon sees comes from here and is a pure function
    of the benchmark seed: the same seed yields the same bytes on every
    machine (SplitMix64, no [Random], no clock).  Three shapes:

    - {b tagged} sources: a corpus program plus one trailing comment
      line carrying the seed and a draw, so each is a byte-distinct
      source with the base program's analysis result ([%] lines for
      [.pl], [--] lines for [.eq]);
    - {b edits}: one {!Prax_incr.Mutate} edit of a corpus program,
      deduplicated within a run so no edit repeats;
    - a {b working set}: a fixed array of tagged sources, drawn from
      uniformly.

    Every generated source is parsed in-process before it is returned
    ({!check}); a source the reader rejects raises {!Invalid_source}
    instead of reaching the daemon. *)

module Registry = Prax_benchdata.Registry
module Mutate = Prax_incr.Mutate

type base = {
  name : string;  (** corpus name, e.g. ["qsort"] *)
  analysis : string;  (** registered analysis: groundness or strictness *)
  ext : string;  (** [".pl"] or [".eq"] *)
  text : string;
}

type item = {
  base : base;
  input : string;  (** display name sent on the wire *)
  source : string;
}

(** The light corpus: the 12 Table-1 groundness programs and the
    strictness programs that analyze in well under a second.
    [event]/[nq]/[pcprove] (1.3–5.9 s each) are left out, because any
    one of them alone would set the run length. *)
let light_strictness =
  [ "eu"; "fft"; "listcompr"; "mergesort"; "odprove"; "quicksort"; "strassen" ]

let bases : base array =
  let logic =
    List.filter_map
      (fun (b : Registry.logic_bench) ->
        if b.Registry.table1 = None then None
        else
          Some
            { name = b.Registry.name; analysis = "groundness"; ext = ".pl";
              text = b.Registry.source })
      Registry.logic_benchmarks
  in
  let fp =
    List.map
      (fun name ->
        match Registry.find_fp name with
        | Some b ->
            { name; analysis = "strictness"; ext = ".eq";
              text = b.Registry.source }
        | None -> invalid_arg ("servebench: no strictness program " ^ name))
      light_strictness
  in
  Array.of_list (logic @ fp)

(* --- SplitMix64 -------------------------------------------------------------- *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform in [0, bound). *)
let int r bound = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int bound))

(** Derive an independent stream for one purpose of one seed. *)
let stream ~seed purpose = rng (Hashtbl.hash (seed, purpose))

(** Bases in shuffled rounds: every round is a fresh seeded permutation
    of all bases, so any run of requests holds each base almost equally
    often and the program mix does not drift with the seed. *)
let base_rounds r =
  let order = Array.init (Array.length bases) Fun.id in
  let pos = ref (Array.length order) in
  fun () ->
    if !pos = Array.length order then begin
      for i = Array.length order - 1 downto 1 do
        let j = int r (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    bases.(order.(!pos - 1))

(* --- validation ---------------------------------------------------------------- *)

exception Invalid_source of string * string

(** Parse [source] with the reader its analysis uses; raise
    {!Invalid_source} (input name, reader message) on rejection. *)
let check (it : item) =
  match
    if it.base.ext = ".pl" then ignore (Prax_logic.Parser.parse_clauses it.source)
    else ignore (Prax_fp.Check.parse_and_check it.source)
  with
  | () -> it
  | exception e -> raise (Invalid_source (it.input, Printexc.to_string e))

(* --- tagged sources -------------------------------------------------------------- *)

let comment_prefix b = if b.ext = ".pl" then "%" else "--"

let tagged b ~seed ~n ~draw =
  let body =
    if String.ends_with ~suffix:"\n" b.text then b.text else b.text ^ "\n"
  in
  check
    {
      base = b;
      input = Printf.sprintf "%s-%d%s" b.name n b.ext;
      source =
        Printf.sprintf "%s%s servebench seed=%d n=%d key=%016Lx\n" body
          (comment_prefix b) seed n draw;
    }

(** An endless stream of byte-distinct tagged sources over
    {!base_rounds}: the [n]-th call returns the [n]-th source of
    [seed]. *)
let tagged_stream ~seed =
  let r = stream ~seed "tagged" in
  let next_base = base_rounds r in
  let n = ref 0 in
  fun () ->
    let b = next_base () in
    incr n;
    tagged b ~seed ~n:!n ~draw:(next r)

(** A working set of [per_base] tagged sources of every base, in base
    order. *)
let working_set ~seed ~per_base =
  let r = stream ~seed "working-set" in
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i b ->
            Array.init per_base (fun k ->
                tagged b ~seed ~n:((i * per_base) + k + 1) ~draw:(next r)))
          bases))

(* --- edits ------------------------------------------------------------------------ *)

(** An endless stream of distinct single edits: each call takes the
    next base of {!base_rounds}, draws mutation seeds until
    {!Mutate.mutate_pl} / {!Mutate.mutate_eq} yields an edit not sent
    before, and returns it.  No edited source repeats in a run.  A base
    whose edits run out (a small program has few clauses to edit) is
    skipped from then on. *)
let edit_stream ~seed =
  let r = stream ~seed "edits" in
  let next_base = base_rounds r in
  let seen = Hashtbl.create 1024 in
  let exhausted = Hashtbl.create 8 in
  let n = ref 0 in
  let rec draw b tries =
    if Hashtbl.length exhausted = Array.length bases then
      failwith "servebench: edit space exhausted"
    else if Hashtbl.mem exhausted b.name then draw (next_base ()) 0
    else if tries >= 200 then begin
      Hashtbl.replace exhausted b.name ();
      draw (next_base ()) 0
    end
    else
      let mutate = if b.ext = ".pl" then Mutate.mutate_pl else Mutate.mutate_eq in
      match mutate ~seed:(int r 0x3FFFFFFF) b.text with
      | Some src when not (Hashtbl.mem seen src) ->
          Hashtbl.replace seen src ();
          incr n;
          check
            { base = b; input = Printf.sprintf "%s-edit%d%s" b.name !n b.ext;
              source = src }
      | _ -> draw b (tries + 1)
  in
  fun () -> draw (next_base ()) 0

(** Boolean functions over [arity] positions, represented enumeratively as
    truth tables (bitsets over the 2^arity assignment rows) — the
    representation the paper adopts from Codish–Demoen and defends against
    BDDs.

    Row indexing: assignment row [r] sets position [i] to [true] iff bit
    [i] of [r] is 1.  Positions are argument indices of an abstract
    predicate, or variable indices of a clause, depending on the client. *)

type t = { arity : int; rows : Bytes.t }

let nrows arity = 1 lsl arity

let nbytes arity = (nrows arity + 7) / 8

let create arity fill =
  if arity < 0 || arity > 20 then invalid_arg "Bf.create: arity out of range";
  let b = Bytes.make (nbytes arity) (if fill then '\xff' else '\x00') in
  (* mask off the unused high bits of the last byte so equal functions are
     byte-equal *)
  (if fill then
     let used = nrows arity mod 8 in
     if used <> 0 then
       Bytes.set b
         (Bytes.length b - 1)
         (Char.chr ((1 lsl used) - 1)));
  { arity; rows = b }

let bottom arity = create arity false
let top arity = create arity true

let arity f = f.arity

let mem f r =
  Char.code (Bytes.get f.rows (r lsr 3)) land (1 lsl (r land 7)) <> 0

let add f r =
  let i = r lsr 3 in
  Bytes.set f.rows i (Char.chr (Char.code (Bytes.get f.rows i) lor (1 lsl (r land 7))))

let of_rows arity rs =
  let f = bottom arity in
  List.iter (add f) rs;
  f

let rows f =
  let out = ref [] in
  for r = nrows f.arity - 1 downto 0 do
    if mem f r then out := r :: !out
  done;
  !out

let count f = List.length (rows f)

let is_empty f = Bytes.for_all (fun c -> c = '\x00') f.rows

let equal f g = f.arity = g.arity && Bytes.equal f.rows g.rows

let compare f g =
  let c = Int.compare f.arity g.arity in
  if c <> 0 then c else Bytes.compare f.rows g.rows

let hash f = Hashtbl.hash (f.arity, Bytes.to_string f.rows)

let copy f = { f with rows = Bytes.copy f.rows }

(* --- pointwise operations ---------------------------------------------- *)

let lift2 op f g =
  if f.arity <> g.arity then invalid_arg "Bf: arity mismatch";
  let rows = Bytes.create (Bytes.length f.rows) in
  for i = 0 to Bytes.length rows - 1 do
    Bytes.set rows i
      (Char.chr
         (op (Char.code (Bytes.get f.rows i)) (Char.code (Bytes.get g.rows i))
         land 0xff))
  done;
  { arity = f.arity; rows }

let conj f g = lift2 ( land ) f g
let disj f g = lift2 ( lor ) f g

let neg f =
  let full = top f.arity in
  lift2 (fun a b -> a land lnot b) full f

let implies f g = is_empty (conj f (neg g))

(* --- construction ------------------------------------------------------ *)

(** The function [pos ↔ (conj of positions in set)]; with an empty set the
    right side is [true], so this is just [pos]. *)
let iff arity pos set =
  if pos < 0 || pos >= arity then invalid_arg "Bf.iff";
  let f = bottom arity in
  for r = 0 to nrows arity - 1 do
    let lhs = r land (1 lsl pos) <> 0 in
    let rhs = List.for_all (fun p -> r land (1 lsl p) <> 0) set in
    if lhs = rhs then add f r
  done;
  f

(** The function that is just position [pos] (pos is true). *)
let var arity pos = iff arity pos []

(** Conjoin the constraint [pos = value]. *)
let restrict f pos value =
  let g = bottom f.arity in
  List.iter
    (fun r ->
      if (r land (1 lsl pos) <> 0) = value then add g r)
    (rows f);
  g

(** Existentially quantify position [pos] (schroeder elimination): the
    result no longer depends on [pos] but keeps the same arity. *)
let exists f pos =
  let g = bottom f.arity in
  List.iter
    (fun r ->
      add g (r lor (1 lsl pos));
      add g (r land lnot (1 lsl pos)))
    (rows f);
  g

(** Project [f] onto the given positions (in order): the result has arity
    [length positions]; a row is in the result iff some extension of it is
    in [f]. *)
let project f positions =
  let k = List.length positions in
  let g = bottom k in
  List.iter
    (fun r ->
      let out = ref 0 in
      List.iteri
        (fun j p -> if r land (1 lsl p) <> 0 then out := !out lor (1 lsl j))
        positions;
      add g !out)
    (rows f);
  g

(** Embed [f] (over positions [mapping]) into a function of arity
    [arity']: row r' is included iff its restriction to [mapping] is in
    [f].  Positions outside [mapping] are unconstrained. *)
let extend f mapping arity' =
  if List.length mapping <> f.arity then invalid_arg "Bf.extend";
  let g = bottom arity' in
  for r' = 0 to nrows arity' - 1 do
    let r = ref 0 in
    List.iteri
      (fun j p -> if r' land (1 lsl p) <> 0 then r := !r lor (1 lsl j))
      mapping;
    if mem f !r then add g r'
  done;
  g

(* --- analysis-facing queries ------------------------------------------- *)

(** Positions true in every satisfying row: the *definite* information.
    For groundness, [definite f] tells which arguments are ground in every
    answer.  Empty functions are flagged by {!is_empty}, not here. *)
let definite f =
  let out = Array.make f.arity true in
  List.iter
    (fun r ->
      for i = 0 to f.arity - 1 do
        if r land (1 lsl i) = 0 then out.(i) <- false
      done)
    (rows f);
  out

(** Build from answer tuples where each element is [Some b] (position
    bound to b) or [None] (unconstrained: both values). *)
let of_tuples arity (tuples : bool option list list) =
  let f = bottom arity in
  let rec expand r i = function
    | [] -> add f r
    | Some true :: rest -> expand (r lor (1 lsl i)) (i + 1) rest
    | Some false :: rest -> expand r (i + 1) rest
    | None :: rest ->
        expand (r lor (1 lsl i)) (i + 1) rest;
        expand r (i + 1) rest
  in
  List.iter
    (fun tup ->
      if List.length tup <> arity then invalid_arg "Bf.of_tuples";
      expand 0 0 tup)
    tuples;
  f


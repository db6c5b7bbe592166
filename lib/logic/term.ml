(** Interned, hash-consed first-order terms (see term.mli for the
    contract).

    Every [Struct] node carries a packed meta word:

    {v
      bits 0..29   structural hash (30 bits, like Hashtbl.hash's range)
      bit  30      ground flag (no variables anywhere below)
      bits 31..    node count, saturating at 2^30 - 1
    v}

    so [hash], [size], and [is_ground] are O(1) field reads.  {e Ground}
    [Struct] nodes are hash-consed through a weak table keyed by the
    meta word and shallow child identity, and [Atom] nodes are unique
    per interned name, which gives the central invariant:

    {e structurally equal ground callable terms are physically equal.}

    Non-ground nodes are deliberately {e not} interned: they are built
    from freshly renamed variables on every clause activation, so a
    weak-table lookup could never find sharing — it would only promote
    short-lived garbage and grow the table.  (Restricting consing to
    the ground fragment is what makes the representation a net win; the
    all-nodes variant measured ~1.3x {e slower} on the Table-1 corpus.)
    Equality on the non-ground fragment falls back to a structural walk
    whose leaf comparisons are O(1) thanks to the invariant above.

    [Var]/[Int] leaves are not globally unique (fresh variables are
    born unique anyway), so shallow child comparison checks them
    structurally — a constant-time test.  Everything else reduces to
    pointer comparison. *)

module Metrics = Prax_metrics.Metrics

let m_hc_hits =
  Metrics.counter ~units:"nodes"
    ~doc:"ground structure constructions answered by an existing hash-consed \
          node"
    "hashcons.hits"

let m_hc_misses =
  Metrics.counter ~units:"nodes"
    ~doc:"ground structure constructions that allocated a new hash-consed node"
    "hashcons.misses"

type t =
  | Var of int
  | Int of int
  | Atom of string
  | Struct of string * t array * int

(* --- meta word --------------------------------------------------------- *)

let hash_bits = 30
let hash_mask = (1 lsl hash_bits) - 1
let ground_bit = 1 lsl hash_bits
let size_shift = hash_bits + 1
let max_size = (1 lsl 30) - 1

let meta_hash m = m land hash_mask
let meta_ground m = m land ground_bit <> 0
let meta_size m = m lsr size_shift

(* leaf hashes: cheap, deterministic, spread over the 30-bit range *)
let hash_var i = (i * 0x01000193) land hash_mask
let hash_int i = ((i * 0x27d4eb2f) lxor 0x165667b1) land hash_mask

let hash = function
  | Var i -> hash_var i
  | Int i -> hash_int i
  | Atom a -> Hashtbl.hash a
  | Struct (_, _, m) -> meta_hash m

let size = function
  | Var _ | Int _ | Atom _ -> 1
  | Struct (_, _, m) -> meta_size m

let is_ground = function
  | Var _ -> false
  | Int _ | Atom _ -> true
  | Struct (_, _, m) -> meta_ground m

(* --- equality ---------------------------------------------------------- *)

(* Shallow equality for hash-consed children: interned nodes compare by
   pointer, non-unique leaves structurally.  O(1). *)
let subterm_equal x y =
  x == y
  ||
  match (x, y) with
  | Var i, Var j -> i = j
  | Int i, Int j -> i = j
  | _ -> false

let rec equal t1 t2 =
  t1 == t2
  ||
  match (t1, t2) with
  | Var i, Var j -> i = j
  | Int i, Int j -> i = j
  | Atom a, Atom b -> String.equal a b
  | Struct (f, a1, m1), Struct (g, a2, m2) ->
      (* equal ground structs are hash-consed, hence physically equal —
         already refuted above; the structural walk is only ever needed
         on the non-ground fragment *)
      m1 = m2
      && (not (meta_ground m1))
      && String.equal f g
      && Array.length a1 = Array.length a2
      && equal_args a1 a2 0
  | _ -> false

and equal_args a1 a2 i =
  i >= Array.length a1 || (equal a1.(i) a2.(i) && equal_args a1 a2 (i + 1))

let rec compare t1 t2 =
  if t1 == t2 then 0
  else
    match (t1, t2) with
    | Var i, Var j -> Int.compare i j
    | Var _, _ -> -1
    | _, Var _ -> 1
    | Int i, Int j -> Int.compare i j
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Atom a, Atom b -> String.compare a b
    | Atom _, _ -> -1
    | _, Atom _ -> 1
    | Struct (f, a1, _), Struct (g, a2, _) ->
        let c = String.compare f g in
        if c <> 0 then c
        else
          let c = Int.compare (Array.length a1) (Array.length a2) in
          if c <> 0 then c else compare_args a1 a2 0

and compare_args a1 a2 i =
  if i >= Array.length a1 then 0
  else
    let c = compare a1.(i) a2.(i) in
    if c <> 0 then c else compare_args a1 a2 (i + 1)

(* --- hash-consing ------------------------------------------------------ *)

module HC = Weak.Make (struct
  type nonrec t = t

  let hash = function
    | Struct (_, _, m) -> meta_hash m
    | Var i -> hash_var i
    | Int i -> hash_int i
    | Atom a -> Hashtbl.hash a

  (* Only Struct nodes are interned; candidate and slot agree on the
     meta word (hash, size, ground) before children are looked at, and
     children of both sides are already canonical, so the child test is
     shallow. *)
  let equal a b =
    match (a, b) with
    | Struct (f, a1, m1), Struct (g, a2, m2) ->
        m1 = m2 && String.equal f g
        && Array.length a1 = Array.length a2
        &&
        let n = Array.length a1 in
        let rec go i = i >= n || (subterm_equal a1.(i) a2.(i) && go (i + 1)) in
        go 0
    | _ -> a == b
end)

(* The interning state is process-global, like the symbol table: one
   weak hash-cons table, so the physical-equality invariant holds for
   every ground term in the process.  A forked worker inherits a copy
   and never hands a term back (workers send back plain strings). *)
let hc_table = HC.create 4096

(* [fname] must already be a canonical (interned) string and [fh] its
   hash; [args] is owned by the node if it is inserted.  Only ground
   nodes go through the weak table: a non-ground node carries variables
   that are fresh per clause activation, so interning it could never
   find sharing — it would only keep transient garbage alive. *)
let cons_struct fh fname args =
  let n = Array.length args in
  let h = ref ((fh * 31) + n)
  and sz = ref 1
  and gr = ref true in
  for i = 0 to n - 1 do
    let a = args.(i) in
    h := ((!h * 65599) + hash a) land hash_mask;
    sz := !sz + size a;
    if not (is_ground a) then gr := false
  done;
  let sz = if !sz > max_size then max_size else !sz in
  let meta =
    (sz lsl size_shift) lor (if !gr then ground_bit else 0) lor (!h land hash_mask)
  in
  let candidate = Struct (fname, args, meta) in
  if not !gr then candidate
  else begin
    let node = HC.merge hc_table candidate in
    if node == candidate then Metrics.incr m_hc_misses
    else Metrics.incr m_hc_hits;
    node
  end

(* unique Atom node per symbol id *)
let atom_nodes : t array ref = ref (Array.make 256 (Int 0))

let atom s =
  let sym = Symbol.intern s in
  let id = (sym :> int) in
  let cap = Array.length !atom_nodes in
  if id >= cap then begin
    let bigger = Array.make (max (2 * cap) (id + 1)) (Int 0) in
    Array.blit !atom_nodes 0 bigger 0 cap;
    atom_nodes := bigger
  end;
  match !atom_nodes.(id) with
  | Atom _ as a -> a
  | _ ->
      let a = Atom (Symbol.name sym) in
      !atom_nodes.(id) <- a;
      a

(* small-id caches: canonical forms renumber variables from 0 and the
   corpus programs use small integer constants, so these hit constantly *)
let small_vars = Array.init 1024 (fun i -> Var i)
let small_ints = Array.init 1024 (fun i -> Int i)

let var i = if i >= 0 && i < 1024 then small_vars.(i) else Var i
let int i = if i >= 0 && i < 1024 then small_ints.(i) else Int i

let mk name args =
  if Array.length args = 0 then atom name
  else
    let id = Symbol.intern name in
    cons_struct (Symbol.hash id) (Symbol.name id) args

(* rebuild with a functor name taken from an existing node (already
   canonical): skips the intern lookup *)
let remk fname args = cons_struct (Hashtbl.hash fname) fname args

let rebuild t args =
  match t with
  | Struct (f, _, _) -> remk f args
  | _ -> invalid_arg "Term.rebuild: not a structure"

let mkl name args =
  match args with [] -> atom name | _ -> mk name (Array.of_list args)

(* --- variable supply --------------------------------------------------- *)

let counter = ref 0

let fresh_var () =
  incr counter;
  var !counter

let fresh_id () =
  incr counter;
  !counter

let true_ = atom "true"
let fail_ = atom "fail"
let nil = atom "[]"
let cons h t = mk "." [| h; t |]

let rec of_list = function [] -> nil | x :: xs -> cons x (of_list xs)

(** Functor name and arity of a callable term; variables and integers have
    none. *)
let functor_of = function
  | Atom a -> Some (a, 0)
  | Struct (f, args, _) -> Some (f, Array.length args)
  | Var _ | Int _ -> None

let args_of = function Struct (_, args, _) -> args | _ -> [||]

(** Fold over all variable ids occurring in [t]; ground subterms carry
    none and are skipped in O(1). *)
let rec fold_vars f acc = function
  | Var i -> f acc i
  | Int _ | Atom _ -> acc
  | Struct (_, args, m) ->
      if meta_ground m then acc else Array.fold_left (fold_vars f) acc args

(** Variable ids in order of first occurrence, without duplicates. *)
let vars t =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add i =
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      out := i :: !out
    end
  in
  let rec go = function
    | Var i -> add i
    | Int _ | Atom _ -> ()
    | Struct (_, args, m) -> if not (meta_ground m) then Array.iter go args
  in
  go t;
  List.rev !out

(* Short-circuits on the first occurrence; ground subtrees cannot
   contain the variable and are skipped in O(1). *)
let rec occurs id t =
  match t with
  | Var i -> i = id
  | Int _ | Atom _ -> false
  | Struct (_, args, m) ->
      (not (meta_ground m))
      &&
      let n = Array.length args in
      let rec go i = i < n && (occurs id args.(i) || go (i + 1)) in
      go 0

let rec depth = function
  | Var _ | Int _ | Atom _ -> 1
  | Struct (_, args, _) ->
      1 + Array.fold_left (fun d t -> max d (depth t)) 0 args

(** Apply [f] to every variable, rebuilding the term.  Ground subterms
    have no variables and are returned as-is; a node whose children all
    come back physically unchanged is itself returned unchanged. *)
let rec map_vars f t =
  match t with
  | Var i -> f i
  | Int _ | Atom _ -> t
  | Struct (g, args, m) ->
      if meta_ground m then t
      else begin
        let changed = ref false in
        let args' =
          Array.map
            (fun a ->
              let a' = map_vars f a in
              if a' != a then changed := true;
              a')
            args
        in
        if !changed then remk g args' else t
      end

(** Rename all variables in [t] to fresh ones, consistently.  The
    renaming table is a linear scan over a small array — terms on the
    renaming paths (canonical calls and answers) carry few distinct
    variables, so this beats a per-call hash table. *)
let rename t =
  if is_ground t then t
  else begin
    let olds = ref (Array.make 8 0) in
    let news = ref (Array.make 8 true_) in
    let n = ref 0 in
    map_vars
      (fun i ->
        let arr = !olds and k = !n in
        let rec find j =
          if j >= k then -1 else if arr.(j) = i then j else find (j + 1)
        in
        let j = find 0 in
        if j >= 0 then !news.(j)
        else begin
          if k >= Array.length arr then begin
            let bigger = Array.make (2 * k) 0 in
            Array.blit arr 0 bigger 0 k;
            olds := bigger;
            let bigger' = Array.make (2 * k) true_ in
            Array.blit !news 0 bigger' 0 k;
            news := bigger'
          end;
          let v = fresh_var () in
          !olds.(k) <- i;
          !news.(k) <- v;
          incr n;
          v
        end)
      t
  end

(** Flatten a [','/2] tree into the list of conjuncts.  Accumulator
    formulation: linear even on left-leaning conjunction trees. *)
let conjuncts t =
  let rec go t acc =
    match t with
    | Struct (",", [| a; b |], _) -> go a (go b acc)
    | Atom "true" -> acc
    | t -> t :: acc
  in
  go t []

let rec conj = function
  | [] -> true_
  | [ g ] -> g
  | g :: gs -> mk "," [| g; conj gs |]

(** Decompose a list term into [Some elements] if proper, [None] otherwise. *)
let rec list_elements = function
  | Atom "[]" -> Some []
  | Struct (".", [| h; t |], _) -> (
      match list_elements t with Some es -> Some (h :: es) | None -> None)
  | _ -> None

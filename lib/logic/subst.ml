(** Idempotent-enough substitutions: persistent maps from variable ids to
    terms, dereferenced lazily.  Persistence is what makes the
    continuation-passing engines trivially backtrackable — no trail is
    needed; an old substitution is simply kept.

    The map is a little-endian Patricia trie (Okasaki & Gill, "Fast
    Mergeable Integer Maps"): lookups and inserts follow the bits of the
    variable id with no rebalancing and no comparisons beyond integer
    equality.  [walk]/[bind] sit in the innermost loop of both engines —
    they are the reason this is not simply [Map.Make (Int)] (the AVL
    rebalancing and three-way comparisons showed up as a constant factor
    on the Table-1 corpus). *)

type t =
  | Empty
  | Leaf of int * Term.t
  | Branch of int * int * t * t
      (** [Branch (prefix, bit, l, r)]: keys in [l] have the [bit] unset,
          keys in [r] have it set; all agree with [prefix] below [bit]. *)

let empty = Empty

let is_empty = function Empty -> true | _ -> false

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch (_, _, l, r) -> cardinal l + cardinal r

(* All variable ids are non-negative, so the plain lowest-set-bit
   arithmetic below never has to worry about the sign bit. *)

(* lowest bit where [p0] and [p1] disagree *)
let branching_bit p0 p1 =
  let d = p0 lxor p1 in
  d land -d

let mask p bit = p land (bit - 1)

let join p0 t0 p1 t1 =
  let bit = branching_bit p0 p1 in
  if p0 land bit = 0 then Branch (mask p0 bit, bit, t0, t1)
  else Branch (mask p0 bit, bit, t1, t0)

let rec add k v = function
  | Empty -> Leaf (k, v)
  | Leaf (j, _) as t ->
      if j = k then Leaf (k, v) else join k (Leaf (k, v)) j t
  | Branch (p, bit, l, r) as t ->
      if mask k bit = p then
        if k land bit = 0 then Branch (p, bit, add k v l, r)
        else Branch (p, bit, l, add k v r)
      else join k (Leaf (k, v)) p t

(** Dereference the top of [t]: follow variable bindings until reaching a
    non-variable or an unbound variable.  Does not descend into
    structures.  The lookup returns the bound term itself, never an
    option: a dereference sits on every hot path of both engines, and
    boxing each hit in a [Some] cost a minor allocation per step. *)
let rec walk (s : t) (t : Term.t) : Term.t =
  match t with Term.Var i -> walk_var s s i t | _ -> t

(* descend [m] along the bits of [i]; [t] is [Var i] itself *)
and walk_var s m i t =
  match m with
  | Empty -> t
  | Leaf (j, v) -> if j = i then walk s v else t
  | Branch (_, bit, l, r) -> walk_var s (if i land bit = 0 then l else r) i t

(** Bind variable [i] to [t].  The caller must ensure [i] is unbound. *)
let bind (s : t) i (t : Term.t) : t = add i t s

(** Fully apply [s] to [t], producing a term with only unbound variables.
    Ground subterms cannot be affected and are returned as-is (an O(1)
    flag check on the interned representation); nodes whose children all
    come back unchanged are shared rather than rebuilt. *)
let rec resolve (s : t) (t : Term.t) : Term.t =
  if is_empty s then t
  else
    match walk s t with
    | Term.Struct (_, args, _) as t' ->
        if Term.is_ground t' then t'
        else begin
          let changed = ref false in
          let args' =
            Array.map
              (fun a ->
                let a' = resolve s a in
                if a' != a then changed := true;
                a')
              args
          in
          if !changed then Term.rebuild t' args' else t'
        end
    | t' -> t'

(** The unbound variables remaining in [resolve s t], in first-occurrence
    order. *)
let free_vars s t = Term.vars (resolve s t)

let is_ground_under s t = Term.is_ground (resolve s t)

(** Does variable [id] occur in [t] under [s]?  Used for occur-check.
    A ground subterm can bind nothing, so the O(1) ground flag prunes
    whole subtrees; when the substitution is empty this degenerates to
    {!Term.occurs}' short-circuiting scan. *)
let rec occurs_check (s : t) id (t : Term.t) : bool =
  match walk s t with
  | Term.Var j -> j = id
  | Term.Int _ | Term.Atom _ -> false
  | Term.Struct (_, args, _) as t' ->
      (not (Term.is_ground t'))
      && (if is_empty s then Term.occurs id t'
          else
            let n = Array.length args in
            let rec go i =
              i < n && (occurs_check s id args.(i) || go (i + 1))
            in
            go 0)

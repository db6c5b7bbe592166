(** Term tries (discrimination trees) over canonical terms — the
    call/answer table index of the tabled engine (see trie.mli for the
    contract).

    A canonical term is fully determined by its preorder label sequence:
    each node of the term contributes one label — [Lvar i] / [Lint i]
    for leaves, [Latom a] for nullary callables, [Lfun (f, n)] for a
    structure head — and the arities embedded in the labels make the
    sequence self-delimiting.  The trie stores one node per distinct
    label-sequence prefix, so insert and variant lookup are a single
    preorder walk and terms sharing a prefix (answers of the same call
    almost always share at least the functor and the first arguments)
    share its nodes.

    Child edges are scanned linearly: tabled-analysis domains branch
    over tiny alphabets ([true]/[false]/a variable, a handful of functor
    names), so a per-node hash table would cost more than it saves.
    Label comparison against a term head compares interned names by
    pointer, never allocating. *)

module Metrics = Prax_metrics.Metrics

let m_nodes =
  Metrics.counter ~units:"nodes"
    ~doc:"trie nodes allocated by call/answer-table inserts"
    "trie.nodes"

let m_prefix_hits =
  Metrics.counter ~units:"edges"
    ~doc:"insert steps that reused an existing trie edge (prefix sharing)"
    "trie.prefix_hits"

type label =
  | Lvar of int
  | Lint of int
  | Latom of string
  | Lfun of string * int

(* [value] marks a terminal: the node reached after consuming a whole
   key's label sequence.  The key itself is kept alongside the value so
   iteration can hand both back without re-deriving terms from paths
   ([key] means nothing while [value] is [None]).  The value is stored
   as its option so a lookup can return it without boxing. *)
type 'a node = {
  mutable labels : label array;
  mutable kids : 'a node array;
  mutable nkids : int;
  mutable key : Term.t;
  mutable value : 'a option;
}

type 'a t = {
  mutable root : 'a node;
  mutable count : int;  (** terminals holding a value *)
  mutable nodes : int;  (** live nodes, root excluded *)
}

let new_node () =
  { labels = [||]; kids = [||]; nkids = 0; key = Term.true_; value = None }
let create () = { root = new_node (); count = 0; nodes = 0 }
let cardinal t = t.count
let live_nodes t = t.nodes

let clear t =
  t.root <- new_node ();
  t.count <- 0;
  t.nodes <- 0

(* Does edge label [lbl] match the head of term [x]?  Labels take their
   names from terms, and a term's name is the one interned instance of
   its spelling ([Term.t] is private, so every term is built through
   {!Symbol.intern}): names are equal exactly when they are the same
   pointer, and a mismatched edge costs no string comparison. *)
let label_matches lbl (x : Term.t) =
  match (lbl, x) with
  | Lvar i, Term.Var j -> i = j
  | Lint i, Term.Int j -> i = j
  | Latom a, Term.Atom b -> a == b
  | Lfun (f, n), Term.Struct (g, args, _) -> f == g && n = Array.length args
  | _ -> false

let label_of (x : Term.t) =
  match x with
  | Term.Var i -> Lvar i
  | Term.Int i -> Lint i
  | Term.Atom a -> Latom a
  | Term.Struct (f, args, _) -> Lfun (f, Array.length args)

let find_child node x =
  let n = node.nkids in
  let labels = node.labels in
  let rec go i =
    if i >= n then None
    else if label_matches labels.(i) x then Some node.kids.(i)
    else go (i + 1)
  in
  go 0

let add_child node x =
  let child = new_node () in
  let n = node.nkids in
  if n = Array.length node.kids then begin
    let cap = max 2 (2 * n) in
    let labels = Array.make cap (Lint 0) in
    let kids = Array.make cap child in
    Array.blit node.labels 0 labels 0 n;
    Array.blit node.kids 0 kids 0 n;
    node.labels <- labels;
    node.kids <- kids
  end;
  node.labels.(n) <- label_of x;
  node.kids.(n) <- child;
  node.nkids <- n + 1;
  child

(* Preorder walk consuming [x]'s whole label sequence, creating missing
   edges.  [fresh] counts nodes allocated on this walk. *)
let rec walk_insert t fresh node (x : Term.t) =
  let child =
    match find_child node x with
    | Some c ->
        Metrics.incr m_prefix_hits;
        c
    | None ->
        incr fresh;
        t.nodes <- t.nodes + 1;
        Metrics.incr m_nodes;
        add_child node x
  in
  match x with
  | Term.Struct (_, args, _) ->
      let n = Array.length args in
      let rec go node i =
        if i >= n then node else go (walk_insert t fresh node args.(i)) (i + 1)
      in
      go child 0
  | _ -> child

(* Read-only walk; [None] as soon as an edge is missing. *)
let rec walk_find node (x : Term.t) =
  match find_child node x with
  | None -> None
  | Some child -> (
      match x with
      | Term.Struct (_, args, _) ->
          let n = Array.length args in
          let rec go node i =
            if i >= n then Some node
            else
              match walk_find node args.(i) with
              | None -> None
              | Some node -> go node (i + 1)
          in
          go child 0
      | _ -> Some child)

let find_opt t key =
  match walk_find t.root key with Some node -> node.value | None -> None

let mem t key =
  match walk_find t.root key with
  | Some { value = Some _; _ } -> true
  | _ -> false

type 'a outcome = Existing of 'a | Added of 'a * int

let find_or_add t key mk =
  let fresh = ref 0 in
  let node = walk_insert t fresh t.root key in
  match node.value with
  | Some v -> Existing v
  | None ->
      let v = mk () in
      node.key <- key;
      node.value <- Some v;
      t.count <- t.count + 1;
      Added (v, !fresh)

(* --- variant lookup of a live term ----------------------------------------

   [find_under t s x] answers [find_opt t (Canon.canonical s x)] in one
   preorder pass over the live term: each node is dereferenced through
   [s] as it is visited and each unbound variable is renumbered in
   first-occurrence order, exactly as [Canon.canonical] numbers it, so
   no canonical term is built.  A table hit (most call lookups and most
   offered answers) therefore allocates nothing: the walk returns trie
   nodes, never options; a missing edge escapes by a constant
   exception; the renumbering table is one module-level buffer (the
   library runs on a single domain); and the stored value is returned
   as the option the node already holds. *)

exception Absent

let ren = ref (Array.make 16 0)
let nren = ref 0

let rec ren_find arr k id j =
  if j >= k then -1
  else if Array.unsafe_get arr j = id then j
  else ren_find arr k id (j + 1)

(* the canonical number of live variable [id] *)
let renumber id =
  let k = !nren in
  let j = ren_find !ren k id 0 in
  if j >= 0 then j
  else begin
    if k >= Array.length !ren then begin
      let bigger = Array.make (2 * k) 0 in
      Array.blit !ren 0 bigger 0 k;
      ren := bigger
    end;
    !ren.(k) <- id;
    nren := k + 1;
    k
  end

let rec var_child node j i =
  if i >= node.nkids then raise_notrace Absent
  else
    match node.labels.(i) with
    | Lvar j' when j' = j -> node.kids.(i)
    | _ -> var_child node j (i + 1)

let rec term_child node x i =
  if i >= node.nkids then raise_notrace Absent
  else if label_matches node.labels.(i) x then node.kids.(i)
  else term_child node x (i + 1)

let rec walk_under s node (x : Term.t) =
  match Subst.walk s x with
  | Term.Var id -> var_child node (renumber id) 0
  | Term.Struct (_, args, _) as x -> walk_args s (term_child node x 0) args 0
  | x -> term_child node x 0

and walk_args s node args i =
  if i >= Array.length args then node
  else walk_args s (walk_under s node args.(i)) args (i + 1)

let find_under t s x =
  nren := 0;
  match walk_under s t.root x with
  | node -> node.value
  | exception Absent -> None

(* Read-only walk recording the node path, root first. *)
let rec walk_path path node (x : Term.t) =
  match find_child node x with
  | None -> None
  | Some child -> (
      let path = child :: path in
      match x with
      | Term.Struct (_, args, _) ->
          let n = Array.length args in
          let rec go path i =
            if i >= n then Some path
            else
              match walk_path path (List.hd path) args.(i) with
              | None -> None
              | Some path -> go path (i + 1)
          in
          go path 0
      | _ -> Some path)

(* Drop [child] from [node]'s edges, keeping the other edges' order. *)
let remove_child node child =
  let n = node.nkids in
  let rec find i = if node.kids.(i) == child then i else find (i + 1) in
  let i = find 0 in
  Array.blit node.labels (i + 1) node.labels i (n - i - 1);
  Array.blit node.kids (i + 1) node.kids i (n - i - 1);
  node.nkids <- n - 1

let remove t key =
  match walk_path [ t.root ] t.root key with
  | Some (({ value = Some _; _ } as terminal) :: _ as path) ->
      terminal.key <- Term.true_;
      terminal.value <- None;
      t.count <- t.count - 1;
      (* prune the now-empty tail of the path, deepest node first *)
      let rec prune freed = function
        | ({ value = None; nkids = 0; _ } as node) :: (parent :: _ as rest)
          ->
            remove_child parent node;
            prune (freed + 1) rest
        | _ -> freed
      in
      let freed = prune 0 path in
      t.nodes <- t.nodes - freed;
      Some freed
  | _ -> None

let rec iter_node f node =
  (match node.value with Some v -> f node.key v | None -> ());
  for i = 0 to node.nkids - 1 do
    iter_node f node.kids.(i)
  done

let iter f t = iter_node f t.root

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

(* A key's first label is its root functor, so the keys of [name/arity]
   all lie under the root edges labelled with it: [Lfun (name, arity)],
   or [Latom name] for a nullary key.  [name] comes from the caller, not
   from a term, so it may be another instance of the spelling. *)
let fold_functor (name, arity) f t acc =
  let acc = ref acc in
  let root = t.root in
  for i = 0 to root.nkids - 1 do
    let matches =
      match root.labels.(i) with
      | Lfun (g, n) -> n = arity && String.equal g name
      | Latom a -> arity = 0 && String.equal a name
      | Lvar _ | Lint _ -> false
    in
    if matches then iter_node (fun k v -> acc := f k v !acc) root.kids.(i)
  done;
  !acc

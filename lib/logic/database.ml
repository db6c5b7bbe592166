(** Clause database with two storage modes, modelling the paper's central
    preprocessing trade-off:

    - [Dynamic]: clauses are asserted as-is and matched interpretively
      (XSB's [assert] + [call/1] route — cheap preprocessing, slower
      resolution);
    - [Compiled]: at load time each clause's head is compiled into a
      closure-chain matcher with preallocated variable slots, and the
      predicate gets a first-argument index (the "full compilation" route
      — expensive preprocessing, faster resolution).

    Clauses are canonicalized at insertion so their variables are
    [0..nvars-1]; activation renames them into globally fresh variables
    either interpretively (dynamic) or through a slot array (compiled). *)

type mode = Dynamic | Compiled

type pred = string * int

(* First-argument index key.  Names are interned to symbol ids, so key
   hashing and equality are integer operations — no string traversal on
   the per-resolution lookup path. *)
type key = KInt of int | KAtom of Symbol.t | KStruct of Symbol.t * int

let key_of_term (t : Term.t) : key option =
  match t with
  | Term.Int i -> Some (KInt i)
  | Term.Atom a -> Some (KAtom (Symbol.intern a))
  | Term.Struct (f, args, _) -> Some (KStruct (Symbol.intern f, Array.length args))
  | Term.Var _ -> None

(** A head-argument matcher produced by compilation: matches a goal
    argument against the clause pattern, binding clause variables through
    the activation's slot array. *)
type matcher = Term.t array -> Subst.t -> Term.t -> Subst.t option

type cclause = {
  nvars : int;
  head : Term.t;  (** canonicalized: variables are 0..nvars-1 *)
  body : Term.t list;
  matchers : matcher array option;  (** one per head argument, if compiled *)
  source_pos : int;  (** for stable clause order in merged index lookups *)
}

type pred_entry = {
  clauses : cclause Vec.t;
  mutable index : (key, int list) Hashtbl.t option;
      (** clause positions per key, in reverse source order *)
  mutable unindexed : int list;  (** positions of var-first-arg clauses, reversed *)
}

type t = {
  mode : mode;
  preds : (pred, pred_entry) Hashtbl.t;
  ops : Ops.table;
  mutable clause_count : int;
}

let create ?(mode = Dynamic) () =
  { mode; preds = Hashtbl.create 64; ops = Ops.create (); clause_count = 0 }

let entry_for db p =
  match Hashtbl.find_opt db.preds p with
  | Some e -> e
  | None ->
      let e = { clauses = Vec.create (); index = None; unindexed = [] } in
      Hashtbl.add db.preds p e;
      e

let defined db p = Hashtbl.mem db.preds p

let predicates db =
  Hashtbl.fold (fun p _ acc -> p :: acc) db.preds []
  |> List.sort compare

(* --- head compilation ------------------------------------------------- *)

(* Compile a pattern into a matcher.  [seen] tracks clause variables whose
   first occurrence has already been compiled: first occurrences bind the
   slot's fresh variable directly (no unification needed when the goal
   side is arbitrary); later occurrences unify. *)
let rec compile_pattern seen (pat : Term.t) : matcher =
  match pat with
  | Term.Var i ->
      if Hashtbl.mem seen i then fun slots s goal ->
        Unify.unify s slots.(i) goal
      else begin
        Hashtbl.add seen i ();
        (* First occurrence: the slot holds a fresh, unbound variable, so
           a full unification always succeeds by binding it — bind it
           directly.  Guard only against the goal dereferencing to that
           same variable (binding a variable to itself would loop). *)
        fun slots s goal ->
          match slots.(i) with
          | Term.Var v -> (
              match Subst.walk s goal with
              | Term.Var w when w = v -> Some s
              | g -> Some (Subst.bind s v g))
          | _ -> Unify.unify s slots.(i) goal
      end
  | Term.Int n ->
      fun _ s goal -> (
        match Subst.walk s goal with
        | Term.Int m when m = n -> Some s
        | Term.Var v -> Some (Subst.bind s v pat)
        | _ -> None)
  | Term.Atom a ->
      fun _ s goal -> (
        match Subst.walk s goal with
        | Term.Atom b when String.equal a b -> Some s
        | Term.Var v -> Some (Subst.bind s v pat)
        | _ -> None)
  | Term.Struct (f, args, _) ->
      let n = Array.length args in
      let subs = Array.map (compile_pattern seen) args in
      fun slots s goal -> (
        match Subst.walk s goal with
        | Term.Struct (g, gargs, _)
          when String.equal f g && Array.length gargs = n ->
            let rec go s i =
              if i >= n then Some s
              else
                match subs.(i) slots s gargs.(i) with
                | Some s' -> go s' (i + 1)
                | None -> None
            in
            go s 0
        | Term.Var v ->
            (* goal side unbound: build the instance through the slots *)
            let inst = Term.map_vars (fun i -> slots.(i)) pat in
            Some (Subst.bind s v inst)
        | _ -> None)

(* Canonicalize a clause so variables are 0..nvars-1. *)
let canonicalize_clause (c : Parser.clause) : int * Term.t * Term.t list =
  let tbl = Hashtbl.create 8 in
  let next = ref 0 in
  let remap t =
    Term.map_vars
      (fun i ->
        match Hashtbl.find_opt tbl i with
        | Some v -> v
        | None ->
            let v = Term.var !next in
            incr next;
            Hashtbl.add tbl i v;
            v)
      t
  in
  let head = remap c.Parser.head in
  let body = List.map remap c.Parser.body in
  (!next, head, body)

let assertz db (c : Parser.clause) =
  let p =
    match Term.functor_of c.Parser.head with
    | Some p -> p
    | None -> invalid_arg "Database.assertz: head is not callable"
  in
  let nvars, head, body = canonicalize_clause c in
  let matchers =
    match db.mode with
    | Dynamic -> None
    | Compiled ->
        let seen = Hashtbl.create 8 in
        Some (Array.map (compile_pattern seen) (Term.args_of head))
  in
  let e = entry_for db p in
  let pos = Vec.length e.clauses in
  Vec.push e.clauses { nvars; head; body; matchers; source_pos = pos };
  (match db.mode with
  | Dynamic -> ()
  | Compiled -> (
      let idx =
        match e.index with
        | Some i -> i
        | None ->
            let i = Hashtbl.create 8 in
            e.index <- Some i;
            i
      in
      match Term.args_of head with
      | [||] -> e.unindexed <- pos :: e.unindexed
      | args -> (
          match key_of_term args.(0) with
          | Some k ->
              let old = Option.value ~default:[] (Hashtbl.find_opt idx k) in
              Hashtbl.replace idx k (pos :: old)
          | None -> e.unindexed <- pos :: e.unindexed)));
  db.clause_count <- db.clause_count + 1

let load_clauses db cs = List.iter (assertz db) cs

(** Load a program source; [:- op] directives take effect, other
    directives are returned for the caller (e.g. entry points). *)
let load_string db (src : string) : Term.t list =
  let items = Parser.parse_program ~ops:db.ops src in
  List.filter_map
    (function
      | Parser.Clause c ->
          assertz db c;
          None
      | Parser.Directive d -> Some d)
    items

(* --- retrieval --------------------------------------------------------- *)

(** All clauses of [p], in source order. *)
let clauses_of db p =
  match Hashtbl.find_opt db.preds p with
  | None -> []
  | Some e -> Vec.to_list e.clauses

(** Clauses possibly matching [goal] under [s], in source order.  Uses the
    first-argument index in compiled mode. *)
let matching db (s : Subst.t) (goal : Term.t) : cclause list =
  let p =
    match Term.functor_of goal with Some p -> p | None -> ("", -1)
  in
  match Hashtbl.find_opt db.preds p with
  | None -> []
  | Some e -> (
      match (db.mode, e.index) with
      | Dynamic, _ | _, None -> Vec.to_list e.clauses
      | Compiled, Some idx -> (
          let args = Term.args_of goal in
          if Array.length args = 0 then Vec.to_list e.clauses
          else
            match key_of_term (Subst.walk s args.(0)) with
            | None -> Vec.to_list e.clauses
            | Some k ->
                let keyed =
                  Option.value ~default:[] (Hashtbl.find_opt idx k)
                in
                let merged =
                  List.merge
                    (fun a b -> Int.compare a b)
                    (List.rev keyed) (List.rev e.unindexed)
                in
                List.map (fun i -> Vec.get e.clauses i) merged))

(** Activate a clause for resolution against [goal]'s arguments: returns
    the new substitution and the instantiated body, or [None] if the head
    does not match.  This is where the dynamic/compiled split pays off. *)
let activate (c : cclause) (s : Subst.t) (goal : Term.t) :
    (Subst.t * Term.t list) option =
  let gargs = Term.args_of goal in
  let hargs = Term.args_of c.head in
  if Array.length gargs <> Array.length hargs then None
  else
    match c.matchers with
    | Some ms ->
        let slots = Array.init c.nvars (fun _ -> Term.fresh_var ()) in
        let n = Array.length ms in
        let rec go s i =
          if i >= n then Some s
          else
            match ms.(i) slots s gargs.(i) with
            | Some s' -> go s' (i + 1)
            | None -> None
        in
        Option.map
          (fun s' ->
            let body =
              List.map (Term.map_vars (fun i -> slots.(i))) c.body
            in
            (s', body))
          (go s 0)
    | None ->
        (* Interpretive head matching, with the same first-occurrence
           discipline as the compiled matchers: the first time a clause
           variable is met its slot takes the (dereferenced) goal subterm
           directly — no fresh variable, no substitution entry — and only
           repeated occurrences fall back to real unification.  Clause
           variables never reached by matching get fresh variables when
           the body is instantiated. *)
        let slots = Array.make c.nvars Term.true_ in
        let filled = Array.make c.nvars false in
        let slot_of v =
          if filled.(v) then slots.(v)
          else begin
            filled.(v) <- true;
            let f = Term.fresh_var () in
            slots.(v) <- f;
            f
          end
        in
        let rec match_arg s (pat : Term.t) (garg : Term.t) : Subst.t option =
          match pat with
          | Term.Var v ->
              if filled.(v) then Unify.unify s slots.(v) garg
              else begin
                filled.(v) <- true;
                slots.(v) <- Subst.walk s garg;
                Some s
              end
          | Term.Int n -> (
              match Subst.walk s garg with
              | Term.Int m when m = n -> Some s
              | Term.Var w -> Some (Subst.bind s w pat)
              | _ -> None)
          | Term.Atom a -> (
              match Subst.walk s garg with
              | Term.Atom b when String.equal a b -> Some s
              | Term.Var w -> Some (Subst.bind s w pat)
              | _ -> None)
          | Term.Struct (f, pargs, _) -> (
              match Subst.walk s garg with
              | Term.Struct (g, gargs2, _)
                when String.equal f g
                     && Array.length gargs2 = Array.length pargs ->
                  let n = Array.length pargs in
                  let rec go s i =
                    if i >= n then Some s
                    else
                      match match_arg s pargs.(i) gargs2.(i) with
                      | Some s' -> go s' (i + 1)
                      | None -> None
                  in
                  go s 0
              | Term.Var w ->
                  (* goal side unbound: instantiate the pattern through
                     the slots and bind *)
                  Some (Subst.bind s w (Term.map_vars slot_of pat))
              | _ -> None)
        in
        let n = Array.length hargs in
        let rec go s i =
          if i >= n then Some s
          else
            match match_arg s hargs.(i) gargs.(i) with
            | Some s' -> go s' (i + 1)
            | None -> None
        in
        Option.map
          (fun s' ->
            let body = List.map (Term.map_vars slot_of) c.body in
            (s', body))
          (go s 0)

(** Like {!activate} but resolving the head with a caller-supplied
    unification (e.g. depth-k abstract unification).  Always takes the
    interpretive path: compiled matchers bake in concrete unification. *)
let activate_with ~unify (c : cclause) (s : Subst.t) (goal : Term.t) :
    (Subst.t * Term.t list) option =
  let slots = Array.init c.nvars (fun _ -> Term.fresh_var ()) in
  let head = Term.map_vars (fun i -> slots.(i)) c.head in
  Option.map
    (fun s' ->
      let body = List.map (Term.map_vars (fun i -> slots.(i))) c.body in
      (s', body))
    (unify s head goal)


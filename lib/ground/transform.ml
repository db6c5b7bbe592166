(** The Prop abstraction of Figure 1: map a logic program [P] to an
    abstract program [Pα] whose minimal model is the output groundness of
    [P], and whose tabled call patterns are the input groundness.

    Each source variable [X] is associated with a target variable [TX]
    holding [X]'s groundness value ([true]/[false]).  Each source
    predicate [p/n] becomes [gp_p/n] over groundness values.  Every
    argument term [t] of a head or body literal is abstracted by
    [iff(α, TX1, …, TXk)] where the [Xi] are the variables of [t]
    (so [α ↔ ∧ TXi], i.e. "t is ground iff all its variables are").

    Built-in predicates are abstracted soundly (the paper's analyses do
    the same through the base-relation definitions):
    - [X = t]: static most-general unification, each resulting binding
      abstracted via [iff];
    - [is/2] and arithmetic comparisons: success grounds every variable
      involved;
    - type tests [atom/number/atomic/integer/ground]: ground their
      argument; [var]/[nonvar] and negation bind nothing;
    - control ([!], [true], I/O) binds nothing;
    - [;], [->] are translated compositionally ([->] without commitment —
      a sound over-approximation).

    {!program} emits every head and call argument as a run-time goal
    ([α = TX], [TX = true], [iff(α, …)]).  That unfolded form is what
    Def, GAIA and bottom-up read.  The tabled path loads each clause
    through {!fold_clause} instead: the [=] goals are solved at
    transform time, so call arguments lose their fresh aliases, the
    equalities before the first run-time goal move into the head
    ([gp_gravity(true).]), and inside a disjunction each branch solves
    the aliases only it can see.
    That is the "coding for the evaluation mechanism" left to the
    implementor; the tabled engine derives the same tables from both. *)

open Prax_logic

let prefix = "gp_"

let abstract_pred (name, arity) = (prefix ^ name, arity)

type ctx = {
  mutable map : (int * int) list;  (** source var id -> target var id *)
  defined : (string * int, unit) Hashtbl.t;
  mutable max_iff_arity : int;  (** widest iff emitted, for builtin registration *)
}

let target_var ctx v =
  match List.assoc_opt v ctx.map with
  | Some tv -> Term.var tv
  | None ->
      let tv = Term.fresh_id () in
      ctx.map <- (v, tv) :: ctx.map;
      Term.var tv

(* iff(alpha, TX1..TXk) for the variables of [t]; degenerate cases emitted
   as unifications to keep the abstract program small (the "coding for the
   evaluation mechanism" the paper describes). *)
let abstract_arg ctx (t : Term.t) (alpha : Term.t) : Term.t list =
  match t with
  | Term.Var v -> [ Term.mk "=" [| alpha; target_var ctx v |] ]
  | _ ->
      let vs = Term.vars t in
      if vs = [] then [ Term.mk "=" [| alpha; Term.true_ |] ]
      else begin
        ctx.max_iff_arity <- max ctx.max_iff_arity (List.length vs);
        [
          Term.mkl "iff" (alpha :: List.map (target_var ctx) vs);
        ]
      end

(* all variables of [t] become ground *)
let ground_all ctx t =
  List.map
    (fun v -> Term.mk "=" [| target_var ctx v; Term.true_ |])
    (Term.vars t)

(* abstraction of X = t bindings from a static mgu *)
let abstract_bindings ctx (s : Subst.t) vars_involved : Term.t list =
  List.concat_map
    (fun v ->
      match Subst.walk s (Term.var v) with
      | Term.Var v' when v' = v -> []
      | t -> abstract_arg ctx (Subst.resolve s t) (target_var ctx v))
    vars_involved

let rec abstract_goal ctx (g : Term.t) : Term.t list =
  match g with
  | Term.Atom ("true" | "!" | "nl" | "fail" | "false" | "halt" | "listing") ->
      (* [fail] must keep failing abstractly *)
      if g = Term.fail_ || g = Term.atom "false" then [ Term.fail_ ]
      else []
  | Term.Atom name ->
      if Hashtbl.mem ctx.defined (name, 0) then [ Term.atom (prefix ^ name) ]
      else []
  | Term.Struct (",", [| a; b |], _) -> abstract_goal ctx a @ abstract_goal ctx b
  | Term.Struct (";", [| a; b |], _) ->
      let a' = Term.conj (abstract_goal ctx a) in
      let b' = Term.conj (abstract_goal ctx b) in
      [ Term.mk ";" [| a'; b' |] ]
  | Term.Struct ("->", [| c; t |], _) ->
      abstract_goal ctx c @ abstract_goal ctx t
  | Term.Struct ("\\+", [| _ |], _) | Term.Struct ("not", [| _ |], _) ->
      (* negation binds nothing on success *)
      []
  | Term.Struct ("=", [| t1; t2 |], _) -> (
      match Unify.unify_oc Subst.empty t1 t2 with
      | None ->
          (* genuine clash → clause cannot succeed; occur-check-only
             failure → concrete Prolog may still succeed (cyclic term), so
             claim nothing *)
          if Option.is_none (Unify.unify Subst.empty t1 t2) then
            [ Term.fail_ ]
          else []
      | Some s ->
          let vs =
            List.sort_uniq Int.compare (Term.vars t1 @ Term.vars t2)
          in
          abstract_bindings ctx s vs)
  | Term.Struct ("\\=", [| _; _ |], _) -> []
  | Term.Struct ("is", [| x; e |], _) -> ground_all ctx e @ ground_all ctx x
  | Term.Struct (("=:=" | "=\\=" | "<" | ">" | "=<" | ">="), [| a; b |], _) ->
      ground_all ctx a @ ground_all ctx b
  | Term.Struct (("atom" | "atomic" | "number" | "integer" | "ground"), [| t |], _)
    ->
      ground_all ctx t
  | Term.Struct (("var" | "nonvar" | "compound"), [| _ |], _) -> []
  | Term.Struct ("==", [| t1; t2 |], _) ->
      (* identical terms have identical groundness *)
      let alpha = Term.fresh_var () in
      abstract_arg ctx t1 alpha @ abstract_arg ctx t2 alpha
  | Term.Struct (("\\==" | "@<" | "@>" | "@=<" | "@>="), [| _; _ |], _) -> []
  | Term.Struct ("compare", [| o; _; _ |], _) -> ground_all ctx o
  | Term.Struct ("functor", [| _; f; a |], _) -> ground_all ctx f @ ground_all ctx a
  | Term.Struct ("arg", [| n; _; _ |], _) -> ground_all ctx n
  | Term.Struct (("write" | "print" | "tab" | "name"), _, _) -> []
  | Term.Struct ("call", [| g |], _) -> abstract_goal ctx g
  | Term.Struct ("findall", [| _; g; _ |], _) ->
      (* inner bindings do not escape; analyze a renamed copy for failure
         propagation only, leaving the result list unconstrained *)
      let g' = Term.rename g in
      abstract_goal ctx g'
  | Term.Struct (name, args, _) ->
      let arity = Array.length args in
      if Hashtbl.mem ctx.defined (name, arity) then begin
        let alphas = Array.map (fun _ -> Term.fresh_var ()) args in
        let arg_lits =
          List.concat
            (List.mapi
               (fun i t -> abstract_arg ctx t alphas.(i))
               (Array.to_list args))
        in
        arg_lits @ [ Term.mk (prefix ^ name) alphas ]
      end
      else
        (* unknown predicate: no groundness information on success *)
        []
  | Term.Var _ | Term.Int _ ->
      (* meta-call of unknown goal: nothing can be concluded *)
      []

(* Abstract one clause; reports the widest iff emitted through [ctx]. *)
let abstract_clause ctx (c : Parser.clause) : Parser.clause =
  ctx.map <- [];
  let name, args =
    match c.Parser.head with
    | Term.Atom a -> (a, [||])
    | Term.Struct (f, args, _) -> (f, args)
    | _ -> invalid_arg "Transform.abstract_clause: bad clause head"
  in
  let alphas = Array.map (fun _ -> Term.fresh_var ()) args in
  let head_lits =
    List.concat
      (List.mapi (fun i t -> abstract_arg ctx t alphas.(i)) (Array.to_list args))
  in
  let body_lits = List.concat_map (abstract_goal ctx) c.Parser.body in
  { Parser.head = Term.mk (prefix ^ name) alphas; body = head_lits @ body_lits }

(** Transform a whole program.  Returns the abstract clauses, the set of
    abstracted predicates, and the widest [iff] arity used. *)
let program (clauses : Parser.clause list) :
    Parser.clause list * (string * int) list * int =
  let defined = Hashtbl.create 32 in
  List.iter
    (fun c ->
      match Term.functor_of c.Parser.head with
      | Some p -> Hashtbl.replace defined p ()
      | None -> ())
    clauses;
  let ctx = { map = []; defined; max_iff_arity = 1 } in
  let abstracted = List.map (abstract_clause ctx) clauses in
  let preds =
    Hashtbl.fold (fun p () acc -> p :: acc) defined [] |> List.sort compare
  in
  (abstracted, preds, ctx.max_iff_arity)

(* --- static unification (tabled path) ----------------------------------- *)

(* Variables of a list of terms, as a set. *)
let var_set (ts : Term.t list) : (int, unit) Hashtbl.t =
  let set = Hashtbl.create 16 in
  List.iter
    (fun t -> Term.fold_vars (fun () v -> Hashtbl.replace set v ()) () t)
    ts;
  set

(* The left-to-right walk shared by a clause body and a disjunction
   branch.  [goals] are read under a static substitution [s], and [seen]
   holds the variables of the goals kept so far.  A goal [a = b] is
   dropped when both sides are identical, or when one side is a
   variable [x] that no kept goal mentions, that does not occur in the
   other side, and that [may_bind s ~kept x] allows — then [x] is bound
   in [s], which applies to the later goals.  A disjunction is kept with
   each branch folded ({!fold_disjunction}); its outside is [outside s]
   plus the kept goals and the later ones.  Every other goal is kept.
   Returns the final [s] and the kept goals. *)
let rec fold_goals ~may_bind ~outside goals =
  let s = ref Subst.empty in
  let seen = Hashtbl.create 16 in
  let bindable kept x t =
    (not (Hashtbl.mem seen x))
    && (not (Term.occurs x t))
    && may_bind !s ~kept x
  in
  let rec go kept = function
    | [] -> List.rev kept
    | g :: later -> (
        match Subst.resolve !s g with
        | Term.Struct ("=", [| a; b |], _) when Term.equal a b -> go kept later
        | Term.Struct ("=", [| Term.Var x; t |], _) when bindable kept x t ->
            s := Subst.bind !s x t;
            go kept later
        | Term.Struct ("=", [| t; Term.Var x |], _) when bindable kept x t ->
            s := Subst.bind !s x t;
            go kept later
        | g ->
            let g =
              match g with
              | Term.Struct (";", _, _) ->
                  let rest = var_set (List.map (Subst.resolve !s) later) in
                  let out = outside !s in
                  fold_disjunction
                    (fun v -> out v || Hashtbl.mem seen v || Hashtbl.mem rest v)
                    g
              | g -> g
            in
            Term.fold_vars (fun () v -> Hashtbl.replace seen v ()) () g;
            go (g :: kept) later)
  in
  let kept = go [] goals in
  (!s, kept)

(* Fold both branches of [a ; b].  [outside v] says whether [v] is
   visible outside the disjunction; each branch binds only the other
   variables, under a substitution of its own that applies to the rest
   of that branch.  Such a variable is unbound whenever its goal runs
   (both branches start from the bindings the disjunction is entered
   with, so the sibling branch does not count as outside) and no other
   goal can see it, so the branch makes the same calls and gives every
   visible variable the same bindings.  An if-then-else branch
   ([c -> t]) is one opaque goal and is kept whole. *)
and fold_disjunction outside (g : Term.t) : Term.t =
  match g with
  | Term.Struct (";", [| a; b |], _) ->
      let branch t =
        let _, kept =
          fold_goals
            ~may_bind:(fun _ ~kept:_ x -> not (outside x))
            ~outside:(fun _ -> outside)
            (Term.conjuncts t)
        in
        Term.conj kept
      in
      Term.mk ";" [| branch a; branch b |]
  | g -> g

(** One abstract clause as the tabled engine loads it: its [=] goals
    solved at transform time.  The body is walked left to right under a
    static substitution [s] (applied to the head and to later goals)
    with [seen] the variables of the goals kept so far.  A goal [a = b],
    read under [s], is dropped when both sides are identical, or when
    one side is a variable [x] that no kept goal mentions and that is
    either bound before any goal runs or absent from the head — then
    [x] is bound in [s].  A disjunction is kept, and each of its
    branches is folded under a substitution of its own that binds only
    variables local to that branch: not in the head and not in a goal
    outside the disjunction (the sibling branch does not count: it
    starts from the same bindings).  Every other goal is kept.

    Exact on the tabled engine: a dropped goal binds only a variable no
    earlier kept goal can see, a binding reaches the head only when no
    goal runs before it, and a branch binds only variables nothing
    outside the branch can see, so the clause makes the same tabled
    calls and offers the same answers in the same order.  GAIA cannot
    read the result: it needs variable-argument heads. *)
let fold_clause (c : Parser.clause) : Parser.clause =
  let head s = Subst.resolve s c.Parser.head in
  let s, body =
    fold_goals
      ~may_bind:(fun s ~kept x -> kept = [] || not (Term.occurs x (head s)))
      ~outside:(fun s ->
        let vs = var_set [ head s ] in
        Hashtbl.mem vs)
      c.Parser.body
  in
  { Parser.head = head s; body }

(** Analysis over an infinite abstract domain with on-the-fly widening —
    the Section 6.1 extension the paper describes but does not build.

    The domain is successor arithmetic: programs compute over numerals
    [0, s(0), s(s(0)), …], so predicates like

    {[ nat(0).  nat(s(X)) :- nat(X). ]}

    have infinitely many answers and plain tabled evaluation cannot
    terminate.  The analysis abstracts each answer's numeral arguments by
    their magnitude and, once a table entry has seen numerals beyond a
    cutoff at some argument position, *widens* that position to ω
    (accelerating the ascending chain 0, 1, 2, … to its limit), exactly
    the iterate-extrapolation scheme of Cousot–Cousot widening.  The
    widening operator consults the answers already recorded in the table
    — the capability the paper says on-the-fly approximation needs from
    the engine ({!Prax_tabling.Engine.hooks.widen}).

    Calls are kept finite symmetrically: numeral call arguments deeper
    than the cutoff are generalized to fresh variables, a sound
    over-approximation (a more general call subsumes the original). *)

open Prax_logic

let omega = Term.atom "$omega"

(** Depth of a numeral [s^k(z)]: [Some (k, base)] where [base] is [`Zero]
    for a complete numeral or [`Var]/[`Omega] for a partial one. *)
let rec numeral_shape = function
  | Term.Int 0 | Term.Atom "0" -> Some (0, `Zero)
  | Term.Atom "$omega" -> Some (0, `Omega)
  | Term.Var _ -> Some (0, `Var)
  | Term.Struct ("s", [| t |], _) -> (
      match numeral_shape t with
      | Some (k, base) -> Some (k + 1, base)
      | None -> None)
  | _ -> None

let is_complete_numeral t =
  match numeral_shape t with Some (_, `Zero) -> true | _ -> false

let numeral_depth t =
  match numeral_shape t with Some (k, _) -> Some k | None -> None

(** Widening operator: for each argument position, if the entry already
    holds [chain] answers with distinct complete-numeral depths at that
    position and the incoming answer's numeral is strictly deeper than
    all of them, replace it by ω. *)
let widen_answers ~chain ~previous (ans : Term.t) : Term.t =
  match ans with
  | Term.Struct (f, args, _) ->
      let args' =
        Array.mapi
          (fun i a ->
            match numeral_depth a with
            | Some d when is_complete_numeral a ->
                let seen =
                  List.filter_map
                    (fun prev ->
                      match prev with
                      | Term.Struct (g, pargs, _)
                        when String.equal f g && Array.length pargs = Array.length args ->
                          if is_complete_numeral pargs.(i) then
                            numeral_depth pargs.(i)
                          else None
                      | _ -> None)
                    previous
                  |> List.sort_uniq compare
                in
                if
                  List.length seen >= chain
                  && List.for_all (fun d' -> d > d') seen
                then omega
                else a
            | _ -> a)
          args
      in
      Term.rebuild ans args'
  | _ -> ans

(* generalize deep numeral call arguments to variables *)
let generalize_call ~chain (call : Term.t) : Term.t =
  match call with
  | Term.Struct (_, args, _) ->
      let args' =
        Array.map
          (fun a ->
            match numeral_depth a with
            | Some d when d > chain -> Term.fresh_var ()
            | _ -> a)
          args
      in
      Term.rebuild call args'
  | _ -> call

(** ω-aware unification: ω stands for "any numeral at least as deep as
    the cutoff", so it unifies with any numeral shape and with ω. *)
let rec unify (s : Subst.t) t1 t2 =
  let t1 = Subst.walk s t1 and t2 = Subst.walk s t2 in
  match (t1, t2) with
  | Term.Atom "$omega", t | t, Term.Atom "$omega" -> (
      match t with
      | Term.Atom "$omega" -> Some s
      | Term.Var v -> Some (Subst.bind s v omega)
      | _ -> if Option.is_some (numeral_depth t) then Some s else None)
  | Term.Var i, Term.Var j when i = j -> Some s
  | Term.Var i, t | t, Term.Var i -> Some (Subst.bind s i t)
  | Term.Int a, Term.Int b -> if a = b then Some s else None
  | Term.Atom a, Term.Atom b -> if String.equal a b then Some s else None
  | Term.Struct (f, a1, _), Term.Struct (g, a2, _)
    when String.equal f g && Array.length a1 = Array.length a2 ->
      let n = Array.length a1 in
      let rec go s i =
        if i >= n then Some s
        else
          match unify s a1.(i) a2.(i) with
          | Some s' -> go s' (i + 1)
          | None -> None
      in
      go s 0
  | _ -> None

(* Normalization keeping the ω-extended numeral domain closed:
   s^k(ω) = ω (already "unboundedly deep"), and open numerals deeper than
   the cutoff generalize to a fresh variable.  Without this, consuming a
   widened answer would regrow chains above ω. *)
let rec normalize ~chain (t : Term.t) : Term.t =
  match numeral_shape t with
  | Some (k, `Omega) when k > 0 -> omega
  | Some (k, `Var) when k > chain -> Term.fresh_var ()
  | _ -> (
      match t with
      | Term.Struct (_, args, _) ->
          Term.rebuild t (Array.map (normalize ~chain) args)
      | _ -> t)

let hooks ~chain : Prax_tabling.Engine.hooks =
  {
    Prax_tabling.Engine.unify;
    abstract_call =
      (fun c -> Canon.of_term (normalize ~chain (generalize_call ~chain c)));
    abstract_answer = (fun a -> Canon.of_term (normalize ~chain a));
    widen = Some (fun ~previous ans -> widen_answers ~chain ~previous ans);
    answer_leq = None;
  }

(* --- driver ------------------------------------------------------------- *)

type pred_result = {
  pred : string * int;
  answers : Term.t list;
  widened : bool;  (** some answer contains ω *)
}

type report = { results : pred_result list; engine_stats : Prax_tabling.Engine.stats }

let rec contains_omega = function
  | Term.Atom "$omega" -> true
  | Term.Struct (_, args, _) -> Array.exists contains_omega args
  | _ -> false

let analyze ?(chain = 3) (src : string) : report =
  let clauses = Parser.parse_clauses src in
  let db = Database.create () in
  Database.load_clauses db clauses;
  let e = Prax_tabling.Engine.create ~hooks:(hooks ~chain) db in
  let preds =
    List.filter_map (fun c -> Term.functor_of c.Parser.head) clauses
    |> List.sort_uniq compare
  in
  List.iter
    (fun (name, arity) ->
      let goal = Term.mk name (Array.init arity (fun _ -> Term.fresh_var ())) in
      Prax_tabling.Engine.run e goal (fun _ -> ()))
    preds;
  let results =
    List.map
      (fun (name, arity) ->
        let answers = Prax_tabling.Engine.answers_for e (name, arity) in
        {
          pred = (name, arity);
          answers;
          widened = List.exists contains_omega answers;
        })
      preds
  in
  { results; engine_stats = Prax_tabling.Engine.stats e }

let result_for rep p = List.find_opt (fun r -> r.pred = p) rep.results

(** Syntactic unification over persistent substitutions.

    [unify] is the engine default (no occur-check, as in Prolog/XSB);
    [unify_oc] performs the occur-check and is used where the paper demands
    it (Hindley–Milner-style equation solving, depth-k abstract
    unification's underlying equality). *)

module Metrics = Prax_metrics.Metrics

let m_attempts =
  Metrics.counter ~units:"calls"
    ~doc:"top-level unification attempts (both engines, any hook)"
    "unify.attempts"

let m_failures =
  Metrics.counter ~units:"calls" ~doc:"top-level unification attempts that failed"
    "unify.failures"

let m_occur_hits =
  Metrics.counter ~units:"hits"
    ~doc:"variable bindings rejected by the occur-check (unify_oc only)"
    "unify.occur_check_hits"

(* Internal failure signal: the recursive walk returns the extended
   substitution itself and escapes by exception, so a successful
   unification boxes exactly one [Some], at the API. *)
exception Clash

let rec unify_gen ~oc (s : Subst.t) (t1 : Term.t) (t2 : Term.t) : Subst.t =
  if t1 == t2 then s
    (* unifying any term with itself binds nothing; hash-consing makes
       this pointer test hit for every shared subterm *)
  else
    let t1 = Subst.walk s t1 and t2 = Subst.walk s t2 in
    match (t1, t2) with
    | Term.Var i, Term.Var j when i = j -> s
    | Term.Var i, _ ->
        if oc && Subst.occurs_check s i t2 then begin
          Metrics.incr m_occur_hits;
          raise_notrace Clash
        end
        else Subst.bind s i t2
    | _, Term.Var j ->
        if oc && Subst.occurs_check s j t1 then begin
          Metrics.incr m_occur_hits;
          raise_notrace Clash
        end
        else Subst.bind s j t1
    | Term.Int a, Term.Int b -> if a = b then s else raise_notrace Clash
    | Term.Atom a, Term.Atom b ->
        if String.equal a b then s else raise_notrace Clash
    | Term.Struct (f, a1, _), Term.Struct (g, a2, _)
      when String.equal f g && Array.length a1 = Array.length a2 ->
        (* interned functors: String.equal is a pointer comparison here *)
        if t1 == t2 then s
        else if Term.is_ground t1 && Term.is_ground t2 then
          (* ground structs are hash-consed: distinct pointers are
             distinct terms, and two distinct ground terms never unify *)
          raise_notrace Clash
        else unify_args ~oc s a1 a2 0
    | _ -> raise_notrace Clash

and unify_args ~oc s a1 a2 i =
  if i >= Array.length a1 then s
  else unify_args ~oc (unify_gen ~oc s a1.(i) a2.(i)) a1 a2 (i + 1)

let counted ~oc s t1 t2 =
  Metrics.incr m_attempts;
  match unify_gen ~oc s t1 t2 with
  | s' -> Some s'
  | exception Clash ->
      Metrics.incr m_failures;
      None

let unify s t1 t2 = counted ~oc:false s t1 t2
let unify_oc s t1 t2 = counted ~oc:true s t1 t2

(* --- answer return --------------------------------------------------------

   [unify_answer s goal ans] is [unify s goal (Term.rename ans)] without
   renaming [ans] first: the walk is one-sided.  An answer variable met
   for the first time is recorded against the goal subterm it faces
   and binds nothing; a goal variable facing an answer subterm is bound
   to a copy of that subterm built through the recorded variables, or
   to the subterm itself when it is ground.  Only a repeated answer
   variable falls back to general unification.  The result is the same
   substitution up to the names of the fresh variables, so a table
   answer returned to a consumer costs the bindings it makes and the
   copies it must build, not a full renamed copy of the answer.  The
   record of answer variables is a module-level buffer: nothing runs
   between the start and the end of one match. *)

let avars = ref (Array.make 16 0)
let aterms = ref (Array.make 16 Term.true_)
let navars = ref 0

let rec avar_find arr k id j =
  if j >= k then -1
  else if Array.unsafe_get arr j = id then j
  else avar_find arr k id (j + 1)

let record_avar id t =
  let k = !navars in
  if k >= Array.length !avars then begin
    let vs = Array.make (2 * k) 0 and ts = Array.make (2 * k) Term.true_ in
    Array.blit !avars 0 vs 0 k;
    Array.blit !aterms 0 ts 0 k;
    avars := vs;
    aterms := ts
  end;
  !avars.(k) <- id;
  !aterms.(k) <- t;
  navars := k + 1

(* the goal-side term answer variable [id] stands for, minted fresh on
   first sight *)
let avar_term id =
  let j = avar_find !avars !navars id 0 in
  if j >= 0 then !aterms.(j)
  else begin
    let v = Term.fresh_var () in
    record_avar id v;
    v
  end

let copy_answer a = if Term.is_ground a then a else Term.map_vars avar_term a

let rec match_answer s (g : Term.t) (a : Term.t) : Subst.t =
  match a with
  | Term.Var id ->
      let j = avar_find !avars !navars id 0 in
      if j >= 0 then unify_gen ~oc:false s !aterms.(j) g
      else begin
        record_avar id g;
        s
      end
  | Term.Int _ | Term.Atom _ -> (
      match Subst.walk s g with
      | Term.Var i -> Subst.bind s i a
      | Term.Int m -> (
          match a with
          | Term.Int n when n = m -> s
          | _ -> raise_notrace Clash)
      | Term.Atom b -> (
          match a with
          | Term.Atom c when c == b -> s  (* interned: one pointer per name *)
          | _ -> raise_notrace Clash)
      | Term.Struct _ -> raise_notrace Clash)
  | Term.Struct (f, aargs, _) -> (
      match Subst.walk s g with
      | Term.Var i -> Subst.bind s i (copy_answer a)
      | Term.Struct (h, gargs, _) as g'
        when f == h && Array.length gargs = Array.length aargs ->
          (* a pointer test is sound only on the ground answer: answer
             variables are pattern variables, never live ones *)
          if not (Term.is_ground a) then match_args s gargs aargs 0
          else if g' == a then s
          else if Term.is_ground g' then raise_notrace Clash
          else match_args s gargs aargs 0
      | _ -> raise_notrace Clash)

and match_args s gargs aargs i =
  if i >= Array.length aargs then s
  else match_args (match_answer s gargs.(i) aargs.(i)) gargs aargs (i + 1)

let unify_answer s goal ans =
  Metrics.incr m_attempts;
  navars := 0;
  match match_answer s goal ans with
  | s' -> Some s'
  | exception Clash ->
      Metrics.incr m_failures;
      None

(** Do [t1] and [t2] unify?  Convenience for tests. *)
let unifiable t1 t2 = Option.is_some (unify Subst.empty t1 t2)

(** The tabled evaluation engine — the XSB substitute (system S3 of
    DESIGN.md).

    A continuation-passing formulation of OLDT/SLG for definite programs:

    - every tabled call is *canonicalized* (variables renumbered in
      first-occurrence order) and looked up in the call table by variant
      check, exactly as XSB does;
    - the first occurrence of a call variant becomes its *producer*: it
      resolves the (renamed-apart) canonical call against program clauses;
    - each successful derivation yields a canonical *answer*; duplicate
      answers are filtered by variant check; each genuinely new answer is
      eagerly pushed to every registered consumer;
    - later occurrences of the same call variant become *consumers*: they
      replay the answers present at registration time and receive all
      later answers through the eager broadcast;
    - when a producer finishes its clauses and consumed no open entry
      older than itself, it *leads* a complete SCC, as in XSB's
      SLG-WAM: every entry created since it started can receive no
      further answer, so those entries are closed and their consumers
      dropped, and a later call to a closed entry replays its answers
      without suspending.

    For definite programs this computes the minimal model restricted to
    the call forest, and terminates whenever calls and answers range over
    a finite domain — the completeness guarantee the paper relies on.

    Most lookups hit: a consumer finds its call variant already in the
    table and a producer re-derives an answer it already has.  With the
    plain variant tables of {!concrete_hooks}, both checks walk the live
    term under the current substitution ({!Trie.find_under}, in one
    pass, as XSB's tries do) and build the canonical term only on a
    miss, so a hit allocates nothing; an answer returns to a consumer
    through a one-sided match ({!Unify.unify_answer}) that copies only
    what a goal variable is bound to.

    The engine is parametric in three hooks so that the depth-k analysis
    of Section 5 is this same engine with abstract unification and
    depth-k call/answer abstraction plugged in (the paper does the
    analogous thing by meta-programming abstract unification in XSB).

    {2 Resource governance}

    Evaluation can be governed by a {!Prax_guard.Guard.t}: every
    resolution step checks the budgets, and on exhaustion the engine
    does not raise out of a half-mutated state — {!run_status}
    force-completes every table entry that could still have received
    answers by widening it to its most general answer (the entry's own
    call pattern, whose concretization covers everything the entry could
    ever answer), then reports [Partial].  The tables stay consistent
    and reusable: later queries replay the widened answers, a sound
    over-approximation.  See docs/ROBUSTNESS.md. *)

open Prax_logic
module Metrics = Prax_metrics.Metrics
module Guard = Prax_guard.Guard

(* Process-wide observability counters (docs/METRICS.md).  Per-engine
   figures remain available through the [stats] record; these global
   cells are what `xanalyze --stats`, praxtop's `:- stats.`, and the
   bench harness snapshot. *)
let m_call_lookups =
  Metrics.counter ~units:"calls"
    ~doc:"tabled call occurrences (call-table lookups by variant)"
    "engine.call_lookups"

let m_call_hits =
  Metrics.counter ~units:"calls"
    ~doc:"call-table lookups answered by an existing variant entry"
    "engine.call_hits"

let m_call_misses =
  Metrics.counter ~units:"calls"
    ~doc:"call-table lookups that created a new entry (producer started)"
    "engine.call_misses"

let m_answers_offered =
  Metrics.counter ~units:"answers"
    ~doc:"candidate answers derived by producers (pre-dedup)"
    "engine.answers_offered"

let m_answers_inserted =
  Metrics.counter ~units:"answers"
    ~doc:"genuinely new canonical answers recorded in answer tables"
    "engine.answers_inserted"

let m_answers_deduped =
  Metrics.counter ~units:"answers"
    ~doc:"candidate answers suppressed by the variant check"
    "engine.answers_deduped"

let m_answers_retracted =
  Metrics.counter ~units:"answers"
    ~doc:
      "stored answers removed by answer subsumption (a new answer of the \
       same call variant is below them)"
    "engine.answers_retracted"

let m_suspensions =
  Metrics.counter ~units:"consumers"
    ~doc:"consumer registrations on a table entry (suspensions)"
    "engine.consumer_suspensions"

let m_resumptions =
  Metrics.counter ~units:"deliveries"
    ~doc:"answer deliveries to consumers, replay and broadcast (resumptions)"
    "engine.consumer_resumptions"

let m_completions =
  Metrics.counter ~units:"producers"
    ~doc:"producers that exhausted clause resolution"
    "engine.producer_completions"

let m_scc_completions =
  Metrics.counter ~units:"SCCs"
    ~doc:
      "leader producers whose SCC completed: the entries created since the \
       leader started are closed and drop their consumers"
    "engine.scc_completions"

let m_widenings =
  Metrics.counter ~units:"answers"
    ~doc:"applications of the answer-widening hook" "engine.widenings"

let m_aborts =
  Metrics.counter ~units:"aborts"
    ~doc:
      "governed runs torn down by budget exhaustion or an exception \
       unwinding through the engine"
    "engine.aborts"

let m_forced_completions =
  Metrics.counter ~units:"entries"
    ~doc:
      "table entries force-completed (widened to their most general answer) \
       after budget exhaustion"
    "engine.forced_completions"

let table_space_gauge =
  Metrics.gauge ~units:"bytes" ~doc:"call/answer table space estimate"
    "engine.table_space_bytes"

type hooks = {
  unify : Subst.t -> Term.t -> Term.t -> Subst.t option;
  abstract_call : Term.t -> Term.t;
      (** applied to the canonical call before table lookup *)
  abstract_answer : Term.t -> Term.t;
      (** applied to the canonical answer before dedup/recording *)
  widen : (previous:Term.t list -> Term.t -> Term.t) option;
      (** on-the-fly widening (Section 6.1): sees the answers already in
          the entry and may extrapolate the incoming one.  With a widening
          operator whose image has finite chains this makes analyses over
          infinite domains terminate. *)
  answer_leq : (Term.t -> Term.t -> bool) option;
      (** answer subsumption over a partial order: [leq a b] holds when
          answer [a] makes answer [b] of the same call variant redundant.
          A new answer above a stored one is dropped, and stored answers
          above a new one are removed, so every table holds the
          antichain of its minimal answers.  Sound only when every
          relation of the program is monotone in that order. *)
}

(* The identity abstraction, named so the engine can recognise it by
   pointer ([Fun.id] is a primitive: each use site gets its own
   closure, so comparing against it never succeeds). *)
let identity (t : Term.t) = t

let concrete_hooks =
  {
    unify = Unify.unify;
    abstract_call = identity;
    abstract_answer = identity;
    widen = None;
    answer_leq = None;
  }

type stats = {
  mutable calls : int;  (** tabled call occurrences *)
  mutable table_entries : int;
  mutable answers : int;  (** distinct answers recorded *)
  mutable duplicates : int;  (** answers filtered by variant check *)
  mutable resumptions : int;  (** consumer deliveries *)
  mutable forced : int;  (** entries force-completed after an abort *)
}

type entry = {
  call : Term.t;  (** canonical (post-abstraction) *)
  answers : Term.t Vec.t;
  answer_set : unit Trie.t;
      (** per-entry answer trie: duplicate suppression is a single
          walk, and answers sharing a prefix share its nodes *)
  mutable answer_space : int;
      (** words accounted to this entry's answers, so abort recovery
          can subtract (or keep) them exactly *)
  consumers : (Term.t -> unit) Vec.t;
      (** the calls suspended on this entry while it is open; dropped
          when it closes *)
  deps : entry Vec.t;
      (** entries this entry's producer consumes from: through a
          registered consumer, a new answer in a dep can extend this
          entry's answer set even after its own clause resolution is
          exhausted, so abort recovery must treat this entry as open
          whenever a dep is open *)
  mutable completed : bool;  (** producer exhausted clause resolution *)
  dfn : int;  (** creation number: the order of the completion stack *)
  mutable closed : bool;
      (** its SCC is complete (or it was spliced, or an abort scrubbed
          it): no answer can reach it any more *)
  mutable mark : bool;
      (** scratch for abort-recovery closure computation and {!settle} *)
}

type t = {
  db : Database.t;
  hooks : hooks;
  builtins : (string * int, builtin) Hashtbl.t;
  mutable tables : entry Trie.t;
      (** call trie: canonical (post-abstraction) call variants; mutable
          only so abort recovery can rebuild it without stale branches *)
  stats : stats;
  tabled : string * int -> bool;
  open_calls : bool;
      (** the forward-subsumption strategy of Section 6.2: table only the
          most general (open) call per predicate and answer every
          specific call by filtering its answers *)
  mutable guard : Guard.t;
  mutable space_words : int;
      (** incremental table-space estimate, kept exact w.r.t. the
          {!table_space_bytes} accounting so the guard can check the
          byte budget in O(1) *)
  mutable producing : entry list;
      (** stack of producers currently resolving clauses, innermost
          first; used to attribute consumer registrations ([deps]) *)
  mutable open_entries : entry list;
      (** the completion stack: entries whose producer started and whose
          SCC is not complete yet, newest (highest [dfn]) first *)
  mutable low : int;
      (** low-link of the innermost running producer: the least [dfn]
          of the open entries called since it started ([max_int]:
          none) *)
  mutable next_dfn : int;  (** the [dfn] of the next entry created *)
  mutable run_depth : int;  (** nesting of public [run_status] calls *)
  mutable resolver : (Term.t -> Term.t list option) option;
      (** splice resolver for incremental re-analysis: consulted when a
          call-table lookup creates a new entry; [Some answers] installs
          them as the entry's complete answer set and the producer is
          skipped (docs/INCREMENTAL.md) *)
  mutable spliced : int;  (** entries installed by the splice resolver *)
  mutable roots : Term.t list;
      (** top-level goals, newest first, kept under answer subsumption
          for {!settle} *)
  mutable walk : walk option;  (** set while {!settle} walks the tables *)
  variant_calls : bool;
      (** the call key is the plain canonical form (no abstraction, no
          open calls), so a lookup can walk the live goal
          ({!Trie.find_under}) and build the key only on a miss *)
  variant_answers : bool;
      (** likewise for answers: no abstraction, widening or
          subsumption, so a duplicate is found without building it *)
  concrete : bool;  (** [hooks.unify] is syntactic unification *)
}

(* The demand walk of [settle]: entries reached but not yet walked, and
   the demand edges of the entry being walked. *)
and walk = { pending : entry Queue.t; mutable edges : entry Vec.t }

and builtin = t -> Subst.t -> Term.t array -> (Subst.t -> unit) -> unit

exception Not_definite of Term.t

let register_builtin_tbl builtins name arity b =
  Hashtbl.replace builtins (name, arity) b

(* standard arithmetic and comparison builtins, as XSB provides them;
   analyses override any of these by registering their own abstract
   versions *)
let default_builtins (builtins : (string * int, builtin) Hashtbl.t) =
  let det name arity f =
    register_builtin_tbl builtins name arity (fun _e s args sc ->
        match f s args with Some s' -> sc s' | None -> ())
  in
  det "is" 2 (fun s args ->
      let v = Term.int (Sld.eval_arith s args.(1)) in
      Unify.unify s args.(0) v);
  List.iter
    (fun (name, test) ->
      det name 2 (fun s args ->
          if test (Sld.eval_arith s args.(0)) (Sld.eval_arith s args.(1)) then
            Some s
          else None))
    [
      ("<", ( < )); (">", ( > )); ("=<", ( <= )); (">=", ( >= ));
      ("=:=", ( = )); ("=\\=", ( <> ));
    ];
  det "==" 2 (fun s args ->
      if Term.equal (Subst.resolve s args.(0)) (Subst.resolve s args.(1)) then
        Some s
      else None);
  det "\\==" 2 (fun s args ->
      if Term.equal (Subst.resolve s args.(0)) (Subst.resolve s args.(1)) then
        None
      else Some s);
  det "\\=" 2 (fun s args ->
      match Unify.unify s args.(0) args.(1) with
      | Some _ -> None
      | None -> Some s)

let create ?(hooks = concrete_hooks) ?(tabled = fun _ -> true)
    ?(open_calls = false) ?(guard = Guard.unlimited) db =
  let builtins = Hashtbl.create 16 in
  default_builtins builtins;
  {
    db;
    hooks;
    builtins;
    tables = Trie.create ();
    stats =
      { calls = 0; table_entries = 0; answers = 0; duplicates = 0;
        resumptions = 0; forced = 0 };
    tabled;
    open_calls;
    guard;
    space_words = 0;
    producing = [];
    open_entries = [];
    low = max_int;
    next_dfn = 0;
    run_depth = 0;
    resolver = None;
    spliced = 0;
    roots = [];
    walk = None;
    variant_calls = hooks.abstract_call == identity && not open_calls;
    variant_answers =
      hooks.abstract_answer == identity
      && Option.is_none hooks.widen
      && Option.is_none hooks.answer_leq;
    concrete = hooks.unify == Unify.unify;
  }

let set_guard e g = e.guard <- g
let guard e = e.guard
let set_resolver e r = e.resolver <- r
let spliced_entries e = e.spliced

let is_builtin e p = Hashtbl.mem e.builtins p

(* the most general call pattern for a goal's predicate *)
let open_call_of goal =
  match goal with
  | Term.Atom _ -> goal
  | Term.Struct (_, args, _) ->
      Term.rebuild goal (Array.mapi (fun i _ -> Term.var i) args)
  | Term.Var _ | Term.Int _ -> goal

let register_builtin e name arity (b : builtin) =
  Hashtbl.replace e.builtins (name, arity) b

(* --- table-space accounting -------------------------------------------- *)

(* one word per trie node actually allocated by the insert, plus
   per-entry and per-answer overhead — the same unit (a word per stored
   node) as the pre-trie accounting, so before/after byte figures
   compare like for like and the delta measures exactly the structural
   sharing the discrimination tree buys (a key never costs more nodes
   than its term size).  Maintained incrementally so the guard's byte
   budget is O(1) to check, as XSB's table statistics are. *)
let entry_overhead = 8
let answer_overhead = 2

let grow_space e words =
  e.space_words <- e.space_words + words;
  Guard.note_space e.guard (8 * e.space_words)

let table_space_bytes e : int = 8 * e.space_words

(* Answer subsumption ([hooks.answer_leq]): is [ans] admitted to
   [entry]?  It is not when a stored answer is below it (a stored
   variant included); otherwise every stored answer above it is removed
   from both the vector and the trie, with its space.  Consumers that
   already received a removed answer are not retracted: anything they
   derived from it is above what they derive from [ans]. *)
let admit e entry ans =
  match e.hooks.answer_leq with
  | None -> true
  | Some leq ->
      if Vec.exists (fun s -> leq s ans) entry.answers then false
      else begin
        if Vec.exists (fun s -> leq ans s) entry.answers then
          Vec.retain
            (fun s ->
              (not (leq ans s))
              ||
              match Trie.remove entry.answer_set s with
              | None -> assert false (* the vector and the trie agree *)
              | Some freed ->
                  let words = freed + answer_overhead in
                  entry.answer_space <- entry.answer_space - words;
                  e.space_words <- e.space_words - words;
                  e.stats.answers <- e.stats.answers - 1;
                  Metrics.incr m_answers_retracted;
                  false)
            entry.answers;
        true
      end

(* Find or create the table entry for an already-canonical call [key].
   Incremental splice (docs/INCREMENTAL.md): a fresh entry may be
   answered from a persisted table fragment instead of by running its
   producer.  Installed answers go through the same dedup trie and
   space accounting as produced ones, so `dump_tables`,
   `table_space_bytes`, and the consistency invariants are
   indistinguishable from a fresh computation; the entry is closed
   immediately (a fragment holds a complete answer set by
   construction — only Complete runs persist). *)
let find_entry e key =
  let mk_entry () =
    let dfn = e.next_dfn in
    e.next_dfn <- dfn + 1;
    {
      call = key;
      answers = Vec.create ();
      answer_set = Trie.create ();
      answer_space = 0;
      consumers = Vec.create ();
      deps = Vec.create ();
      completed = false;
      dfn;
      closed = false;
      mark = false;
    }
  in
  let entry, is_new =
    match Trie.find_or_add e.tables key mk_entry with
    | Trie.Existing entry ->
        Metrics.incr m_call_hits;
        (entry, false)
    | Trie.Added (entry, fresh_nodes) ->
        e.stats.table_entries <- e.stats.table_entries + 1;
        Metrics.incr m_call_misses;
        grow_space e (fresh_nodes + entry_overhead);
        (entry, true)
  in
  if is_new then begin
    match e.resolver with
    | None -> ()
    | Some resolve -> (
        match resolve key with
        | None -> ()
        | Some answers ->
            List.iter
              (fun ans ->
                match Trie.find_or_add entry.answer_set ans (fun () -> ()) with
                | Trie.Existing () -> ()
                | Trie.Added ((), fresh_nodes) ->
                    Vec.push entry.answers ans;
                    e.stats.answers <- e.stats.answers + 1;
                    let words = fresh_nodes + answer_overhead in
                    entry.answer_space <- entry.answer_space + words;
                    grow_space e words)
              answers;
            entry.completed <- true;
            entry.closed <- true;
            e.spliced <- e.spliced + 1)
  end;
  (entry, is_new)

let note_duplicate e =
  e.stats.duplicates <- e.stats.duplicates + 1;
  Metrics.incr m_answers_deduped

(* Record canonical answer [ans] of [entry] unless it is a duplicate (or,
   under answer subsumption, redundant), and broadcast it. *)
let offer_answer e entry ans =
  if not (admit e entry ans) then note_duplicate e
  else
    match Trie.find_or_add entry.answer_set ans (fun () -> ()) with
    | Trie.Existing () -> note_duplicate e
    | Trie.Added ((), fresh_nodes) ->
        Vec.push entry.answers ans;
        e.stats.answers <- e.stats.answers + 1;
        Metrics.incr m_answers_inserted;
        let words = fresh_nodes + answer_overhead in
        entry.answer_space <- entry.answer_space + words;
        grow_space e words;
        (* Eager broadcast — but only to the consumers present when the
           answer arrived: a consumer that registers during this loop has
           already snapshotted this answer into its replay (it is in
           [entry.answers]), so delivering it here too would duplicate
           derivations, which diverges through recursive cycles. *)
        let ncons = Vec.length entry.consumers in
        for i = 0 to ncons - 1 do
          (Vec.get entry.consumers i) ans
        done

(* --- core resolution --------------------------------------------------- *)

exception Walk_miss

(* The table key of a tabled goal under [s]: canonical, opened under
   the open-call strategy, then abstracted. *)
let call_key e s goal =
  let canonical = Canon.canonical s goal in
  e.hooks.abstract_call
    (if e.open_calls then open_call_of canonical else canonical)

(* The existing entry of [goal]'s call variant under [s], if any.  With
   a plain variant key the trie walks the live goal, so a hit builds no
   canonical term. *)
let existing_entry e s goal =
  if e.variant_calls then Trie.find_under e.tables s goal
  else Trie.find_opt e.tables (call_key e s goal)

(* Find or create the entry of [goal] under [s]: the key is built only
   when the lookup misses, and the miss goes through [find_entry], so
   trie growth, space accounting and the splice resolver see exactly
   the inserts they always saw. *)
let lookup_call e s goal =
  match if e.variant_calls then Trie.find_under e.tables s goal else None with
  | Some entry ->
      Metrics.incr m_call_hits;
      (entry, false)
  | None -> find_entry e (call_key e s goal)

(* Unify [goal] under [s] with a renamed-apart table answer.  Under
   syntactic unification the answer is matched one-sidedly and copied
   only where a goal variable takes it; an abstract unification gets
   the renamed copy. *)
let return_answer e s goal ans =
  if e.concrete then Unify.unify_answer s goal ans
  else e.hooks.unify s goal (Canon.instantiate ans)

(* One answer delivered to a tabled call, by replay or broadcast: a
   resumption either way. *)
let resume e s goal ans =
  Guard.check e.guard;
  e.stats.resumptions <- e.stats.resumptions + 1;
  Metrics.incr m_resumptions;
  return_answer e s goal ans

(* [leader]'s SCC is complete: every entry still open above it on the
   completion stack was created while it ran, and none called an open
   entry older than [leader], so no answer can reach them any more.
   Close them and drop their consumers. *)
let complete_scc e leader =
  let rec close = function
    | q :: older when q.dfn >= leader.dfn ->
        q.closed <- true;
        Vec.clear q.consumers;
        close older
    | older -> older
  in
  e.open_entries <- close e.open_entries;
  Metrics.incr m_scc_completions

let rec solve e (s : Subst.t) (goal : Term.t) (sc : Subst.t -> unit) : unit =
  Guard.check e.guard;
  match Subst.walk s goal with
  | Term.Var _ | Term.Int _ -> raise (Not_definite goal)
  | Term.Atom "true" -> sc s
  | Term.Atom ("fail" | "false") -> ()
  | Term.Atom "!" -> sc s (* cut is control, invisible to the minimal model *)
  | Term.Struct (",", [| a; b |], _) ->
      solve e s a (fun s' -> solve e s' b sc)
  | Term.Struct (";", [| Term.Struct ("->", [| c; t |], _); el |], _) ->
      (* non-committal if-then-else: sound over-approximation for
         analysis programs (this engine evaluates definite programs;
         concrete control constructs belong to Sld) *)
      solve e s c (fun s' -> solve e s' t sc);
      solve e s el sc
  | Term.Struct (";", [| a; b |], _) ->
      solve e s a sc;
      solve e s b sc
  | Term.Struct ("->", [| c; t |], _) ->
      solve e s c (fun s' -> solve e s' t sc)
  | Term.Struct (("\\+" | "not"), [| _ |], _) ->
      (* negation binds nothing on success: over-approximate by success *)
      sc s
  | Term.Struct ("=", [| a; b |], _) ->
      if e.concrete then (
        (* Concrete =/2: the groundness program keeps the [V = true] /
           [V = W] goals its transform cannot solve statically (checks
           after a call, aliases visible outside a disjunction branch),
           so inline unification's
           variable cases and fall back to the full routine only for
           structure-against-structure. *)
        match (Subst.walk s a, Subst.walk s b) with
        | Term.Var i, Term.Var j when i = j -> sc s
        | Term.Var i, tb -> sc (Subst.bind s i tb)
        | ta, Term.Var j -> sc (Subst.bind s j ta)
        | ta, tb -> (
            match Unify.unify s ta tb with Some s' -> sc s' | None -> ()))
      else (
        match e.hooks.unify s a b with Some s' -> sc s' | None -> ())
  | (Term.Atom _ | Term.Struct _) as g -> (
      let p = Option.get (Term.functor_of g) in
      match Hashtbl.find_opt e.builtins p with
      | Some b -> b e s (Term.args_of g) sc
      | None ->
          if e.tabled p then solve_tabled e s g sc
          else solve_program e s g sc)

and solve_goals e s goals sc =
  match goals with
  | [] -> sc s
  | g :: rest -> solve e s g (fun s' -> solve_goals e s' rest sc)

(* Non-tabled program-clause resolution (plain SLD step). *)
and solve_program e s g sc =
  List.iter
    (fun c ->
      let activation =
        if e.concrete then Database.activate c s g
        else Database.activate_with ~unify:e.hooks.unify c s g
      in
      match activation with
      | Some (s', body) -> solve_goals e s' body sc
      | None -> ())
    (Database.matching e.db s g)

and solve_tabled e s goal sc =
  match e.walk with
  | Some w -> walk_tabled e w s goal sc
  | None -> solve_tabled_live e s goal sc

and solve_tabled_live e s goal sc =
  e.stats.calls <- e.stats.calls + 1;
  Metrics.incr m_call_lookups;
  let entry, is_new = lookup_call e s goal in
  (* Attribute the registration to the producer on whose behalf we
     consume: new answers in [entry] can extend that producer's answer
     set even after its own clause resolution finished, so abort
     recovery must not treat it as closed while [entry] is open. *)
  let owner =
    match e.producing with p :: _ when p != entry -> Some p | _ -> None
  in
  (match owner with
  | Some p ->
      let n = Vec.length p.deps in
      if n = 0 || Vec.get p.deps (n - 1) != entry then Vec.push p.deps entry
  | None -> ());
  if entry.closed then begin
    (* A complete table: its answers are final, so replay them and
       suspend nothing.  [owner], if any, is the running producer
       already. *)
    let answers, n = Vec.frozen_prefix entry.answers in
    for i = 0 to n - 1 do
      match resume e s goal answers.(i) with Some s' -> sc s' | None -> ()
    done
  end
  else solve_open e s goal sc entry is_new owner

(* A call to an open entry: suspend a consumer on it, run its producer
   if the call created it, and replay the answers it already has. *)
and solve_open e s goal sc entry is_new owner =
  (* Calling an existing open entry, the innermost running producer
     cannot lead an SCC that [entry] is older than.  A consumer resumed
     by a broadcast records its calls here too, in the frame that is
     running, since its [owner]'s frame may have finished.  (A new
     entry's producer runs nested in this frame and passes its
     low-link up when it finishes.) *)
  if (not is_new) && entry.dfn < e.low then e.low <- entry.dfn;
  (* The consumer: unify a (renamed-apart) canonical answer with our goal
     instance.  With abstraction enabled the call in the table may be more
     general than [goal]; unifying against [key]'s instance keeps the
     variable correspondence right, so unify goal with the answer term
     directly. *)
  let consumer ans =
    match resume e s goal ans with
    | None -> ()
    | Some s' -> (
        (* A resumption continues [owner]'s clause body, so while [sc]
           runs the demanding entry is [owner] — not whichever producer
           happened to broadcast [ans].  Re-establish it so the table
           lookups [sc] makes attribute their demand edges ([deps]) to
           the entry whose body they occur in; the incremental splice
           replays those edges, and misattribution would re-demand call
           variants only the broadcasting producer's cone needed. *)
        match owner with
        | None -> sc s'
        | Some p -> (
            let saved = e.producing in
            e.producing <- p :: saved;
            match sc s' with
            | () -> e.producing <- saved
            | exception ex ->
                e.producing <- saved;
                raise ex))
  in
  (* Snapshot-then-register so each answer reaches this consumer exactly
     once: answers arriving after registration come via the broadcast.
     [find_entry] splices before we get here, so spliced answers are
     delivered through the replay below exactly like the answers an
     existing entry would replay.  The replay walks the snapshot's
     array, which answer subsumption never shrinks under it. *)
  let snapshot, n0 = Vec.frozen_prefix entry.answers in
  Metrics.incr m_suspensions;
  Vec.push entry.consumers consumer;
  if is_new then producer e entry;
  for i = 0 to n0 - 1 do
    consumer snapshot.(i)
  done

(* A tabled call during [settle]: the entry must exist (the walk only
   follows minimal answers, which every consumer of a complete run has
   received); it is marked reached, recorded as a demand edge of the
   entry being walked, and its stored answers are delivered directly. *)
and walk_tabled e w s goal sc =
  match existing_entry e s goal with
  | None -> raise Walk_miss
  | Some q ->
      if not q.mark then begin
        q.mark <- true;
        Queue.add q w.pending
      end;
      let n = Vec.length w.edges in
      if n = 0 || Vec.get w.edges (n - 1) != q then Vec.push w.edges q;
      Vec.iter
        (fun ans ->
          match return_answer e s goal ans with
          | Some s' -> sc s'
          | None -> ())
        q.answers

(* Resolve [call] against the program clauses, each body solved into [k]. *)
and resolve_clauses e call k =
  List.iter
    (fun c ->
      let activation =
        if e.concrete then Database.activate c Subst.empty call
        else Database.activate_with ~unify:e.hooks.unify c Subst.empty call
      in
      match activation with
      | Some (s', body) -> solve_goals e s' body k
      | None -> ())
    (Database.matching e.db Subst.empty call)

and producer e entry =
  let call = Canon.instantiate entry.call in
  let on_success s' =
    (* the eager-broadcast cascade (answer -> consumer -> new answer)
       never re-enters [solve], so the guard must also be checked at the
       answer-offer event or a recursive producer could run unbounded *)
    Guard.check e.guard;
    Metrics.incr m_answers_offered;
    (* a plain variant table finds a duplicate by walking the live
       answer: only a new answer is built *)
    if
      e.variant_answers
      && Option.is_some (Trie.find_under entry.answer_set s' call)
    then note_duplicate e
    else
      let ans = e.hooks.abstract_answer (Canon.canonical s' call) in
      let ans =
        match e.hooks.widen with
        | None -> ans
        | Some w ->
            Metrics.incr m_widenings;
            Canon.of_term (w ~previous:(Vec.to_list entry.answers) ans)
      in
      offer_answer e entry ans
  in
  e.producing <- entry :: e.producing;
  e.open_entries <- entry :: e.open_entries;
  let enclosing_low = e.low in
  e.low <- max_int;
  resolve_clauses e call on_success;
  (* All program clauses for this call variant are exhausted.  Answers
     can still reach [entry] through consumers its body suspended on
     open entries, so it completes only with its SCC: if it called no
     open entry older than itself it is the SCC's leader and closes it
     now (its low-link names only entries it closes, so the enclosing
     frame keeps its own); otherwise its low-link passes to the
     enclosing frame, whose leader test covers [entry]. *)
  e.producing <- List.tl e.producing;
  entry.completed <- true;
  Metrics.incr m_completions;
  let low = e.low in
  if low >= entry.dfn then begin
    e.low <- enclosing_low;
    complete_scc e entry
  end
  else e.low <- min enclosing_low low

(* --- abort recovery ----------------------------------------------------- *)

(* An entry is *closed* iff its producer exhausted clause resolution and
   every entry it consumes from is closed: only then can no further
   answer reach it.  The greatest such set is computed by demotion from
   "every completed entry".  It contains every entry whose SCC completed
   ([entry.closed]), and possibly more: a finished entry of an
   incomplete SCC whose own demand edges all lead to closed entries.
   The widening after an abort keys on this set, not on [entry.closed],
   so a partial run widens exactly the entries it always did. *)
let closed_set e =
  Trie.iter (fun _ entry -> entry.mark <- entry.completed) e.tables;
  let changed = ref true in
  while !changed do
    changed := false;
    Trie.iter
      (fun _ entry ->
        if
          entry.mark
          && Vec.fold (fun acc d -> acc || not d.mark) false entry.deps
        then begin
          entry.mark <- false;
          changed := true
        end)
      e.tables
  done

(* Stale consumers hold continuations of the aborted run; none of them
   may ever be poked again.  Closed entries keep their (exact) answers
   and will only ever be replayed. *)
let scrub_entry entry =
  Vec.clear entry.consumers;
  Vec.clear entry.deps;
  entry.completed <- true;
  entry.closed <- true;
  entry.mark <- false

(* No producer is running and no SCC is open: the state between runs,
   restored by every abort and reset path. *)
let reset_frames e =
  e.producing <- [];
  e.open_entries <- [];
  e.low <- max_int

(* Budget exhaustion: degrade to a sound over-approximation.  Every
   entry that could still have received answers is force-completed by
   widening: its own call pattern is inserted as an answer, and every
   concrete answer the interrupted run could have derived for the entry
   is an instance of it.  Returns the number of entries widened. *)
let force_complete_tables e =
  closed_set e;
  let widened = ref 0 in
  Trie.iter
    (fun _ entry ->
      if not entry.mark then begin
        incr widened;
        e.stats.forced <- e.stats.forced + 1;
        Metrics.incr m_forced_completions;
        if admit e entry entry.call then
          match Trie.find_or_add entry.answer_set entry.call (fun () -> ()) with
          | Trie.Existing () -> ()
          | Trie.Added ((), fresh_nodes) ->
              Vec.push entry.answers entry.call;
              e.stats.answers <- e.stats.answers + 1;
              (* account the widened answer directly: consulting the
                 guard here would re-trip a sticky table-space budget
                 from inside the recovery path *)
              let words = fresh_nodes + answer_overhead in
              entry.answer_space <- entry.answer_space + words;
              e.space_words <- e.space_words + words
      end;
      scrub_entry entry)
    e.tables;
  reset_frames e;
  !widened

(* Keep only the marked entries.  The call trie is rebuilt from the
   survivors and the space estimate recomputed from the fresh-node counts
   (each entry's answer trie is untouched, so its accounted words carry
   over exactly). *)
let retain_marked e =
  let survivors =
    Trie.fold
      (fun key entry acc ->
        if entry.mark then (key, entry) :: acc
        else begin
          e.stats.table_entries <- e.stats.table_entries - 1;
          e.stats.answers <- e.stats.answers - Vec.length entry.answers;
          acc
        end)
      e.tables []
  in
  let tables = Trie.create () in
  e.space_words <- 0;
  List.iter
    (fun (key, entry) ->
      match Trie.find_or_add tables key (fun () -> entry) with
      | Trie.Existing _ -> assert false (* keys were distinct in the old trie *)
      | Trie.Added (_, fresh_nodes) ->
          e.space_words <-
            e.space_words + fresh_nodes + entry_overhead + entry.answer_space)
    survivors;
  e.tables <- tables;
  survivors

(* A non-guard exception (crashing user builtin, [Not_definite], …):
   there is no partial result to report, so restore the invariants by
   discarding every entry whose answer set may be incomplete — a reused
   engine then re-produces those calls from scratch instead of replaying
   silently truncated tables. *)
let recover_after_error e =
  closed_set e;
  List.iter (fun (_, entry) -> scrub_entry entry) (retain_marked e);
  reset_frames e

(* Table invariants, checked by the fault-injection tests: every entry's
   answer vector and dedup set agree; between runs every SCC is complete,
   so every entry is closed and holds no consumer; and after any abort
   every entry is completed with no dependency edges. *)
let tables_consistent ?(after_abort = false) e : bool =
  let at_rest = e.run_depth = 0 in
  Trie.fold
    (fun _ entry ok ->
      ok
      && Vec.length entry.answers = Trie.cardinal entry.answer_set
      && Vec.fold
           (fun acc a -> acc && Trie.mem entry.answer_set a)
           true entry.answers
      && ((not at_rest)
         || (entry.closed && Vec.length entry.consumers = 0))
      && ((not after_abort)
         || (entry.completed && Vec.length entry.deps = 0)))
    e.tables true
  && ((not at_rest)
     || (e.producing = [] && e.open_entries = [] && e.low = max_int))

(* --- public API -------------------------------------------------------- *)

(* The governed-run wrapper of {!run_status} and {!demand_status}.  A
   nested run (e.g. from a builtin) just runs: the outermost invocation
   owns abort recovery.  An outermost run that exhausts its budget
   force-completes the tables (see above) and is [Partial]; any other
   exception restores the tables to a reusable state and is
   re-raised. *)
let governed e body : Guard.status =
  if e.run_depth > 0 then begin
    body ();
    Guard.Complete
  end
  else begin
    e.run_depth <- 1;
    match body () with
    | () ->
        e.run_depth <- 0;
        Guard.Complete
    | exception Guard.Exhausted reason ->
        e.run_depth <- 0;
        Metrics.incr m_aborts;
        let exhausted_entries = force_complete_tables e in
        Guard.Partial { reason; exhausted_entries }
    | exception exn ->
        e.run_depth <- 0;
        Metrics.incr m_aborts;
        recover_after_error e;
        raise exn
  end

(** Enumerate solutions of [goal] under the engine's guard, calling [k]
    with each substitution as it is derived.  On budget exhaustion the
    tables are force-completed (see above) and the result is [Partial];
    answers already delivered to [k] stand, and the over-approximating
    widened answers are readable from the tables ({!answers_for}).  On
    any other exception the tables are restored to a reusable state and
    the exception is re-raised. *)
let run_status e (goal : Term.t) (k : Subst.t -> unit) : Guard.status =
  if e.run_depth = 0 && Option.is_some e.hooks.answer_leq then
    e.roots <- goal :: e.roots;
  governed e (fun () -> solve e Subst.empty goal k)

(** Enumerate solutions of [goal], calling [k] with each substitution.
    Degrades gracefully under a guard (the status is dropped; use
    {!run_status} to observe it). *)
let run e (goal : Term.t) (k : Subst.t -> unit) : unit =
  ignore (run_status e goal k)

(** Force the table entry for an already-canonical call [key] into
    existence — spliced from the resolver or produced to completion —
    without registering a consumer or enumerating its answers.  This is
    the incremental replay's workhorse: replay only needs the call
    table to contain the demanded variants (reports read input modes
    off the table), so instantiating and unifying every answer against
    a discarding continuation would be pure overhead. *)
let demand_status e (key : Term.t) : Guard.status =
  governed e (fun () ->
      e.stats.calls <- e.stats.calls + 1;
      Metrics.incr m_call_lookups;
      let entry, is_new = find_entry e key in
      if is_new && not entry.closed then producer e entry)

(** Distinct canonical solutions of [goal] with the evaluation status. *)
let query_status e (goal : Term.t) : Term.t list * Guard.status =
  let seen = Canon.Tbl.create 32 in
  let out = Vec.create () in
  let status =
    run_status e goal (fun s ->
        let a = Canon.canonical s goal in
        if not (Canon.Tbl.mem seen a) then begin
          Canon.Tbl.add seen a ();
          Vec.push out a
        end)
  in
  (Vec.to_list out, status)

(** Distinct canonical solutions of [goal], in discovery order. *)
let query e (goal : Term.t) : Term.t list = fst (query_status e goal)

(** The call table: every canonical call variant encountered.  Reading
    input modes off this table is the paper's "input groundness for free"
    observation. *)
let calls e : Term.t list =
  Trie.fold (fun _ entry acc -> entry.call :: acc) e.tables []
  |> List.sort Term.compare

(* Per-predicate reads descend only [p]'s root edge of the call trie, so
   collecting every predicate costs one pass over the table, not one
   pass per predicate. *)
let answers_for e p : Term.t list =
  Trie.fold_functor p
    (fun _ entry acc -> Vec.fold (fun acc t -> t :: acc) acc entry.answers)
    e.tables []
  |> List.sort Term.compare

let calls_for e p : Term.t list =
  Trie.fold_functor p (fun _ entry acc -> entry.call :: acc) e.tables []
  |> List.sort Term.compare

(** Canonical call table under answer subsumption.  A consumer may
    resume on an answer that a smaller one later removes, and the calls
    it made from it stay in the table, so which variants a run created
    depends on discovery order.  [settle] walks the tables from the root
    goals, resolving each reached entry's clauses again against the
    answers the tables hold, and keeps exactly the variants that walk
    demands, with the demand edges it found: a function of the answer
    antichains alone, so dumps, exports and space estimates do not
    depend on goal or clause order.  Call it after the last goal of a
    complete run; without an answer order it does nothing. *)
let settle e =
  if Option.is_some e.hooks.answer_leq then begin
    Trie.iter (fun _ entry -> entry.mark <- false) e.tables;
    let w = { pending = Queue.create (); edges = Vec.create () } in
    let walked = ref [] in
    let guard = e.guard in
    e.guard <- Guard.unlimited;
    e.walk <- Some w;
    let reached =
      Fun.protect
        ~finally:(fun () ->
          e.walk <- None;
          e.guard <- guard)
        (fun () ->
          match
            List.iter
              (fun goal -> solve e Subst.empty goal (fun _ -> ()))
              (List.rev e.roots);
            while not (Queue.is_empty w.pending) do
              let p = Queue.pop w.pending in
              w.edges <- Vec.create ();
              resolve_clauses e (Canon.instantiate p.call) (fun _ -> ());
              walked := (p, Vec.to_list w.edges) :: !walked
            done
          with
          | () -> true
          | exception Walk_miss -> false)
    in
    (* a miss means the run was not complete: keep its tables *)
    if reached then begin
      List.iter
        (fun (p, edges) ->
          Vec.clear p.deps;
          List.iter (fun q -> if q != p then Vec.push p.deps q) edges)
        !walked;
      if not (Trie.fold (fun _ entry all -> all && entry.mark) e.tables true)
      then ignore (retain_marked e)
    end;
    Trie.iter (fun _ entry -> entry.mark <- false) e.tables
  end

(* --- outcome serialization (docs/ROBUSTNESS.md) -------------------------- *)

(** Canonical textual dump of the call/answer tables: one line per call
    variant, [call => a1 | a2.] ("-" for an empty answer set), answers
    and lines sorted.  Canonical terms carry first-occurrence variable
    numbering, so two engines that derived the same tables — in any
    discovery order — render byte-identical dumps: the property the
    persistent store's round-trip check and warm-start digests rely on
    (parse a line back and the terms re-enter the hash-cons tables as
    the same canonical forms). *)
let dump_tables e : string =
  let lines =
    Trie.fold
      (fun _ entry acc ->
        let answers =
          Vec.to_list entry.answers
          |> List.sort Term.compare
          |> List.map Pretty.term_to_string
        in
        Printf.sprintf "%s => %s."
          (Pretty.term_to_string entry.call)
          (match answers with [] -> "-" | l -> String.concat " | " l)
        :: acc)
      e.tables []
    |> List.sort compare
  in
  match lines with [] -> "" | _ -> String.concat "\n" lines ^ "\n"

(* Per-entry extraction for the incremental store (docs/INCREMENTAL.md):
   the canonical call, its answers, and the call variants its producer
   consumed from ([deps] — the demand edges a future splice must replay
   so the restored call table is byte-identical to a fresh one).
   Everything is sorted, so the export of a given table state is
   canonical regardless of discovery order. *)
type exported = {
  ex_call : Term.t;
  ex_answers : Term.t list;
  ex_subcalls : Term.t list;
}

let export_tables e : exported list =
  Trie.fold
    (fun _ entry acc ->
      {
        ex_call = entry.call;
        ex_answers = Vec.to_list entry.answers |> List.sort Term.compare;
        ex_subcalls =
          Vec.fold (fun acc d -> d.call :: acc) [] entry.deps
          |> List.sort_uniq Term.compare;
      }
      :: acc)
    e.tables []
  |> List.sort (fun a b -> Term.compare a.ex_call b.ex_call)

let stats e = e.stats

let reset_tables e =
  Trie.clear e.tables;
  e.space_words <- 0;
  reset_frames e;
  e.run_depth <- 0;
  e.spliced <- 0;
  e.roots <- [];
  e.stats.calls <- 0;
  e.stats.table_entries <- 0;
  e.stats.answers <- 0;
  e.stats.duplicates <- 0;
  e.stats.resumptions <- 0;
  e.stats.forced <- 0

(* praxtop — an interactive top level for the tabled engine: consult
   programs, pose queries, and inspect the tables, in the spirit of an
   XSB session.

     dune exec bin/praxtop.exe [file.pl ...]

   Commands:
     ?- goal.            solve goal with the tabled engine (all answers)
     :- sld goal.        solve with plain SLD resolution (Prolog semantics)
     :- consult 'file'.  load a program file
     :- bench name.      load a corpus benchmark
     :- tables.          dump the call table
     :- analyses.        list the analysis registry
     :- analyze(name, 'file').         run a registered analysis on a file
     :- analyze(name, bench(b)).       ... on a corpus benchmark
     :- analyze(name, Input, 'k=v').   ... with configuration overrides
     :- stats.           engine statistics
     :- reset.           clear the tables
     :- listing.         predicates currently defined
     :- set_limit(timeout, '500ms').   wall-clock budget per query
     :- set_limit(steps, 100000).      derivation-step budget per query
     :- set_limit(table_bytes, N).     table-space budget per query
     :- set_limit(off).                lift all budgets
     :- limits.          show the configured budgets
     :- halt.            leave (Ctrl-D halts too; Ctrl-C aborts the
                         query in flight and returns to the prompt)
   Plain clauses typed at the prompt are asserted.

   Budgets degrade gracefully (docs/ROBUSTNESS.md): an exhausted query
   prints its answers so far plus a "partial" notice, and the session —
   including the engine's tables — stays usable. *)

open Prax

type limits = {
  timeout : float option;  (** seconds *)
  max_steps : int option;
  max_bytes : int option;
}

let no_limits = { timeout = None; max_steps = None; max_bytes = None }

type session = {
  db : Logic.Database.t;
  mutable engine : Tabling.Engine.t;
  mutable limits : limits;
}

let make_session () =
  let db = Logic.Database.create () in
  { db; engine = Tabling.Engine.create db; limits = no_limits }

(* asserting clauses invalidates completed tables: rebuild the engine *)
let refresh s = s.engine <- Tabling.Engine.create s.db

(* A fresh guard per query: the deadline is relative to the query start,
   not to when the limit was configured. *)
let fresh_guard s =
  match s.limits with
  | { timeout = None; max_steps = None; max_bytes = None } -> Guard.unlimited
  | { timeout; max_steps; max_bytes } ->
      Guard.create ?timeout ?max_steps ?max_table_bytes:max_bytes ()

let consult s src =
  (* a malformed file must not kill the session: report the diagnostic
     and keep the clauses asserted so far *)
  match Logic.Parser.parse_program src with
  | exception ((Logic.Parser.Parse_error _ | Logic.Lexer.Lex_error _) as exn)
    ->
      let d = Option.get (Logic.Diag.of_exn ~file:"<consult>" ~text:src exn) in
      Printf.printf "error: %s\n" (Logic.Diag.to_string d)
  | items ->
      let count = ref 0 in
      List.iter
        (function
          | Logic.Parser.Clause c ->
              Logic.Database.assertz s.db c;
              incr count
          | Logic.Parser.Directive _ -> ())
        items;
      refresh s;
      Printf.printf "loaded %d clauses\n" !count

let report_partial = function
  | Guard.Complete -> ()
  | Guard.Partial { reason; exhausted_entries } ->
      Printf.printf
        "partial: budget exhausted (%s); answers above are sound but %d \
         table entr%s widened to most-general\n"
        (Guard.reason_to_string reason)
        exhausted_entries
        (if exhausted_entries = 1 then "y was" else "ies were")

let show_solutions s goal =
  Tabling.Engine.set_guard s.engine (fresh_guard s);
  let n = ref 0 in
  let status =
    Tabling.Engine.run_status s.engine goal (fun subst ->
        incr n;
        print_endline
          ("  "
          ^ Logic.Pretty.term_to_string (Logic.Canon.canonical subst goal)))
  in
  Tabling.Engine.set_guard s.engine Guard.unlimited;
  if !n = 0 then print_endline "no." else Printf.printf "%d answer(s).\n" !n;
  report_partial status

let show_sld s goal =
  let sols, status =
    Logic.Sld.solutions_status ~limit:50 ~guard:(fresh_guard s) s.db goal
  in
  (match sols with
  | [] -> print_endline "no."
  | sols ->
      List.iter
        (fun subst ->
          print_endline
            ("  "
            ^ Logic.Pretty.term_to_string (Logic.Canon.canonical subst goal)))
        sols;
      Printf.printf "%d answer(s) (limit 50).\n" (List.length sols));
  match status with
  | Guard.Complete -> ()
  | Guard.Partial { reason; _ } ->
      Printf.printf
        "partial: budget exhausted (%s); enumeration stopped early\n"
        (Guard.reason_to_string reason)

let show_tables s =
  let calls = Tabling.Engine.calls s.engine in
  if calls = [] then print_endline "(no tables)"
  else
    List.iter
      (fun c -> print_endline ("  " ^ Logic.Pretty.term_to_string c))
      calls

let show_stats s =
  let st = Tabling.Engine.stats s.engine in
  Printf.printf
    "calls=%d entries=%d answers=%d duplicates=%d resumptions=%d forced=%d \
     table-bytes=%d\n"
    st.Prax_tabling.Engine.calls st.Prax_tabling.Engine.table_entries
    st.Prax_tabling.Engine.answers st.Prax_tabling.Engine.duplicates
    st.Prax_tabling.Engine.resumptions st.Prax_tabling.Engine.forced
    (Tabling.Engine.table_space_bytes s.engine);
  (* process-wide counters accumulated across every engine this session *)
  print_string (Metrics.snapshot_to_human (Metrics.snapshot ()))

let show_stats_json s =
  let g =
    Metrics.gauge ~units:"bytes" ~doc:"call/answer table space estimate"
      "engine.table_space_bytes"
  in
  Metrics.set g (Tabling.Engine.table_space_bytes s.engine);
  print_endline
    (Metrics.json_to_string
       (Metrics.stats_doc ~tool:"praxtop" ~analysis:"session" ~input:"-"
          ~extra:(Guard.budget_json_fields (fresh_guard s))
          (Metrics.snapshot ())))

let show_listing s =
  List.iter
    (fun (name, arity) ->
      Printf.printf "  %s/%d (%d clauses)\n" name arity
        (List.length (Logic.Database.clauses_of s.db (name, arity))))
    (Logic.Database.predicates s.db)

let show_limits s =
  let b = function None -> "off" | Some v -> v in
  Printf.printf "timeout=%s steps=%s table_bytes=%s\n"
    (b (Option.map (Printf.sprintf "%gs") s.limits.timeout))
    (b (Option.map string_of_int s.limits.max_steps))
    (b (Option.map string_of_int s.limits.max_bytes))

(* :- set_limit(timeout, '500ms' | Millis). / (steps, N) / (table_bytes, N)
   / set_limit(off) *)
let set_limit s (args : Logic.Term.t array) =
  let bad () =
    print_endline
      "usage: set_limit(timeout, '500ms') | set_limit(timeout, Millis) | \
       set_limit(steps, N) | set_limit(table_bytes, N) | set_limit(off)"
  in
  match args with
  | [| Logic.Term.Atom "off" |] ->
      s.limits <- no_limits;
      print_endline "limits lifted."
  | [| Logic.Term.Atom "timeout"; v |] -> (
      let parsed =
        match v with
        | Logic.Term.Atom dur -> Guard.duration_of_string dur
        | Logic.Term.Int ms when ms >= 0 -> Some (float_of_int ms /. 1e3)
        | _ -> None
      in
      match parsed with
      | Some seconds ->
          s.limits <- { s.limits with timeout = Some seconds };
          show_limits s
      | None -> bad ())
  | [| Logic.Term.Atom "steps"; Logic.Term.Int n |] when n > 0 ->
      s.limits <- { s.limits with max_steps = Some n };
      show_limits s
  | [| Logic.Term.Atom "table_bytes"; Logic.Term.Int n |] when n > 0 ->
      s.limits <- { s.limits with max_bytes = Some n };
      show_limits s
  | _ -> bad ()

(* --- the analysis registry (docs/ANALYSES.md) ----------------------------- *)

let show_analyses () =
  List.iter
    (fun (a : Analysis.t) ->
      Printf.printf "  %-11s %-13s %-9s %s\n" a.Analysis.name
        (Analysis.kind_to_string a.Analysis.kind)
        (String.concat "," a.Analysis.extensions)
        (match a.Analysis.defaults with
        | [] -> "(no configuration)"
        | d -> Analysis.config_to_string d))
    (Analysis.all ())

(* :- analyze(name, 'file' | bench(b) [, 'k=v,...']).  Any registered
   analysis, run under the session's budgets; failures never kill the
   session. *)
let run_analysis s (args : Logic.Term.t array) =
  let bad () =
    print_endline
      "usage: analyze(name, 'file') | analyze(name, bench(b)) | \
       analyze(name, Input, 'k=v,...')"
  in
  let go name input cfg =
    match Analysis.find name with
    | None ->
        Printf.printf "unknown analysis %s (registered: %s)\n" name
          (String.concat ", " (Analysis.names ()))
    | Some a -> (
        let source =
          match input with
          | Logic.Term.Struct ("bench", [| Logic.Term.Atom b |], _) -> (
              match Corpus.source_of_kind a.Analysis.kind b with
              | Some src -> Some src
              | None ->
                  Printf.printf "unknown %s benchmark %s\n"
                    (Analysis.kind_to_string a.Analysis.kind)
                    b;
                  None)
          | Logic.Term.Atom path -> (
              match In_channel.with_open_text path In_channel.input_all with
              | src -> Some src
              | exception Sys_error m ->
                  Printf.printf "cannot read %s: %s\n" path m;
                  None)
          | _ ->
              bad ();
              None
        in
        match source with
        | None -> ()
        | Some src -> (
            match Analysis.assignments_of_string cfg with
            | Error msg -> Printf.printf "error: %s\n" msg
            | Ok config -> (
                match Analysis.run a ~config ~guard:(fresh_guard s) src with
                | rep ->
                    print_endline rep.Analysis.payload_text;
                    print_endline (Analysis.timings_line rep);
                    report_partial rep.Analysis.status
                | exception Analysis.Config_error msg ->
                    Printf.printf "error: %s\n" msg)))
  in
  match args with
  | [| Logic.Term.Atom name; input |] -> go name input ""
  | [| Logic.Term.Atom name; input; Logic.Term.Atom cfg |] -> go name input cfg
  | _ -> bad ()

exception Quit

let handle_directive s (d : Logic.Term.t) =
  match d with
  | Logic.Term.Atom "halt" -> raise Quit
  | Logic.Term.Atom "analyses" -> show_analyses ()
  | Logic.Term.Struct ("analyze", args, _) -> run_analysis s args
  | Logic.Term.Atom "tables" -> show_tables s
  | Logic.Term.Atom "stats" -> show_stats s
  | Logic.Term.Struct ("stats", [| Logic.Term.Atom "json" |], _) ->
      show_stats_json s
  | Logic.Term.Atom "listing" -> show_listing s
  | Logic.Term.Atom "limits" -> show_limits s
  | Logic.Term.Struct ("set_limit", args, _) -> set_limit s args
  | Logic.Term.Atom "reset" ->
      refresh s;
      print_endline "tables cleared."
  | Logic.Term.Struct ("sld", [| g |], _) -> show_sld s g
  | Logic.Term.Struct ("consult", [| Logic.Term.Atom path |], _) -> (
      match In_channel.with_open_text path In_channel.input_all with
      | src -> consult s src
      | exception Sys_error m -> Printf.printf "cannot read %s: %s\n" path m)
  | Logic.Term.Struct ("bench", [| Logic.Term.Atom name |], _) -> (
      match Benchdata.Registry.find_logic name with
      | Some b -> consult s b.Benchdata.Registry.source
      | None -> Printf.printf "unknown benchmark %s\n" name)
  | Logic.Term.Struct (("assert" | "assertz"), [| t |], _) ->
      (match Logic.Parser.clause_of_term t with
      | Logic.Parser.Clause c ->
          Logic.Database.assertz s.db c;
          refresh s;
          print_endline "asserted."
      | Logic.Parser.Directive _ -> print_endline "cannot assert a directive")
  | g -> show_solutions s g

let handle_line s line =
  let line = String.trim line in
  if line = "" then ()
  else
    match Logic.Parser.parse_program line with
    | items ->
        List.iter
          (function
            | Logic.Parser.Directive d -> handle_directive s d
            | Logic.Parser.Clause { Logic.Parser.head; body = [] } ->
                (* a bare term at the prompt is a query, as in XSB;
                   use :- assert(fact). to add facts *)
                show_solutions s head
            | Logic.Parser.Clause c ->
                (* a rule typed at the prompt is asserted *)
                Logic.Database.assertz s.db c;
                refresh s;
                print_endline "asserted.")
          items
    | exception Logic.Parser.Parse_error m -> Printf.printf "syntax error: %s\n" m
    | exception Logic.Lexer.Lex_error (m, pos) ->
        Printf.printf "lexical error at %d: %s\n" pos m

let () =
  (* force the shipped analyses into the registry before any lookup *)
  Analyses.ensure ();
  let s = make_session () in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match In_channel.with_open_text arg In_channel.input_all with
        | src -> consult s src
        | exception Sys_error m -> Printf.printf "cannot read %s: %s\n" arg m)
    Sys.argv;
  print_endline
    "praxtop - tabled logic programming top level  (:- halt. to leave)";
  (* SIGINT becomes Sys.Break: Ctrl-C aborts the query in flight and
     returns to the prompt instead of killing the session *)
  Sys.catch_break true;
  (try
     while true do
       print_string "?- ";
       match In_channel.input_line stdin with
       | None ->
           (* EOF (Ctrl-D): halt as cleanly as :- halt. — the newline
              keeps "bye." off the prompt line *)
           print_newline ();
           raise Quit
       | exception Sys.Break ->
           (* Ctrl-C at the prompt itself: fresh prompt *)
           print_newline ()
       | Some line -> (
           (* nothing a line does may kill the session: known engine
              errors get tailored messages; anything else falls through
              to a generic report.  After any of these the engine's
              tables have been restored to a consistent state by
              [Engine.run_status]'s recovery path. *)
           try handle_line s line
           with
           | Quit -> raise Quit
           | Sys.Break ->
               (* the tables were restored by the engine's abort
                  recovery before the exception reached us *)
               print_endline "interrupted."
           | Prax_logic.Sld.Existence_error (n, a) ->
               Printf.printf "undefined predicate %s/%d\n" n a
           | Prax_logic.Sld.Instantiation_error w ->
               Printf.printf "arguments insufficiently instantiated (%s)\n" w
           | Prax_logic.Sld.Type_error (k, t) ->
               Printf.printf "type error: expected %s in %s\n" k
                 (Logic.Pretty.term_to_string t)
           | Tabling.Engine.Not_definite t ->
               Printf.printf "not a definite goal: %s\n"
                 (Logic.Pretty.term_to_string t)
           | Stack_overflow -> print_endline "error: stack overflow"
           | exn -> Printf.printf "error: %s\n" (Printexc.to_string exn))
     done
   with Quit -> print_endline "bye.")

(** Driver for the GAIA-style analyzer, with the same phase accounting as
    the declarative analyzers so Table 2's comparison is like-for-like. *)

open Prax_logic
module Analysis = Prax_analysis.Analysis
module Bitset = Absint.Make (Backend_bitset)
module Bdd_backend = Absint.Make (Backend_bdd)

type pred_result = {
  pred : string * int;  (** source predicate (gp_ prefix stripped) *)
  definite : bool array;
  never_succeeds : bool;
}

(* The shared Table-style phase record, re-exported so existing callers
   keep their [Analyze.phases] spelling (the definition now lives in
   prax.analysis, one copy for all drivers). *)
type phases = Analysis.phases = {
  preproc : float;
  analysis : float;
  collection : float;
}

let total = Analysis.total

type report = {
  results : pred_result list;
  phases : phases;
  clause_count : int;  (** size of the abstract program analyzed *)
}

(* monotonic, same clock as the Metrics timers (docs/ANALYSES.md) *)
let now = Analysis.now

(* Phase timers mirroring the Table 2 comparison columns
   (docs/METRICS.md). *)
let timers = Analysis.phase_timers ~doc:"gaia" "gaia"

let strip_prefix name =
  let p = Prax_ground.Transform.prefix in
  let pl = String.length p in
  if String.length name > pl && String.equal (String.sub name 0 pl) p then
    String.sub name pl (String.length name - pl)
  else name

module type RUNNER = sig
  type result

  val analyze : Parser.clause list -> result list
  val pred_of : result -> string * int
  val definite_of : result -> bool array
  val empty_of : result -> bool
end

let analyze_gen ?(fold = false) (module M : RUNNER) (src : string) : report =
  let phases, abstract, _, results =
    Analysis.phased ~timers
      ~pre:(fun () ->
        let clauses = Parser.parse_clauses src in
        let abstract, _, _ = Prax_ground.Transform.program clauses in
        (* the truth-table back-end cannot represent universes beyond
           ~20 positions: fold long bodies through supplementary
           predicates, which preserves the minimal model *)
        if fold then Prax_tabling.Supplement.fold_program ~threshold:2 abstract
        else abstract)
      ~eval:(fun abstract -> M.analyze abstract)
      ~collect:(fun _ raw ->
        List.map
          (fun r ->
            let name, arity = M.pred_of r in
            {
              pred = (strip_prefix name, arity);
              definite = M.definite_of r;
              never_succeeds = M.empty_of r;
            })
          raw)
      ()
  in
  { results; phases; clause_count = List.length abstract }

let analyze_bitset (src : string) : report =
  analyze_gen ~fold:true
    (module struct
      type result = Bitset.result

      let analyze = Bitset.analyze
      let pred_of (r : result) = r.Bitset.pred
      let definite_of (r : result) = r.Bitset.definite

      let empty_of (r : result) =
        Prax_prop.Bf.is_empty r.Bitset.success
    end)
    src

(* The report keeps no BDD, so the run's nodes are dropped when it ends
   (Bdd.reset), whether it returns or raises. *)
let analyze_bdd (src : string) : report =
  Fun.protect ~finally:Prax_bdd.Bdd.reset @@ fun () ->
  analyze_gen
    (module struct
      type result = Bdd_backend.result

      let analyze = Bdd_backend.analyze
      let pred_of (r : result) = r.Bdd_backend.pred
      let definite_of (r : result) = r.Bdd_backend.definite
      let empty_of (r : result) = Prax_bdd.Bdd.is_false r.Bdd_backend.success.Backend_bdd.f
    end)
    src

let result_for (rep : report) p = List.find_opt (fun r -> r.pred = p) rep.results

(** Corpus-benchmark lookup for the front-ends' [--bench] names and
    praxtop's [bench(b)].  A module of its own, not part of {!Analyses}:
    the daemon links {!Analyses} and never resolves corpus names, so it
    does not link the corpus either. *)

module Analysis = Prax_analysis.Analysis
module R = Prax_benchdata.Registry

(** The source of the corpus benchmark [name] of source kind [kind], or
    [None] when the corpus has no such program. *)
let source_of_kind (kind : Analysis.source_kind) name =
  match kind with
  | Analysis.Logic_program ->
      Option.map (fun (b : R.logic_bench) -> b.source) (R.find_logic name)
  | Analysis.Fp_program ->
      Option.map (fun (b : R.fp_bench) -> b.source) (R.find_fp name)
  | Analysis.Cfg_program ->
      Option.map (fun (b : R.cfg_bench) -> b.source) (R.find_cfg name)

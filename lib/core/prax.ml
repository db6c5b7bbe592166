(** Prax — practical program analysis on a general-purpose tabled logic
    programming system.

    This is the umbrella API of the reproduction of Dawson, Ramakrishnan
    & Warren, "Practical Program Analysis Using General Purpose Logic
    Programming Systems — A Case Study" (PLDI 1996).  It re-exports every
    subsystem and offers the three analyzers behind one-call entry
    points.

    {2 Subsystem map}

    - {!Logic}: terms, unification, the Prolog reader, clause store, SLD
      resolution — the ordinary-Prolog half of the XSB substitute.
    - {!Tabling}: the tabled (OLDT/SLG) engine with variant-based call
      and answer tables; {!Tabling.Supplement} implements supplementary
      tabling (Section 4.2).
    - {!Prop}: the Prop abstract domain (truth tables, [iff], minimized
      formula rendering).
    - {!Bdd}: ROBDDs, the alternative Prop representation.
    - {!Groundness}: Prop-based groundness analysis (Figure 1, Tables
      1–2).
    - {!Fp}: the lazy first-order functional language (EQUALS substitute)
      with its call-by-need interpreter.
    - {!Strictness}: demand-propagation strictness analysis (Figure 3,
      Table 3).
    - {!Depthk}: groundness with depth-k term abstraction (Section 5,
      Table 4).
    - {!Gaia}: the special-purpose Prop abstract interpreter used as the
      Table 2 comparator.
    - {!Bottomup}: semi-naive Datalog with magic sets, the Coral-style
      baseline (Section 7).
    - {!Benchdata}: the 22-program benchmark corpus with the paper's
      reported numbers. *)

(** Engine observability: process-wide counters, gauges, and phase
    timers with machine-readable snapshots (see docs/METRICS.md). *)
module Metrics = Prax_metrics.Metrics

(** Resource governance: composable budgets (deadline, steps, table
    space), graceful degradation to sound partial results, and the
    fault-injection harness (see docs/ROBUSTNESS.md). *)
module Guard = Prax_guard.Guard

module Inject = Prax_guard.Inject

(** The unified analysis pipeline: the first-class analysis interface,
    generic [prax.report] reports, and the process-wide registry every
    front-end dispatches through (see docs/ANALYSES.md). *)
module Analysis = Prax_analysis.Analysis

(** The five shipped analyses, self-registered; call
    [Analyses.ensure ()] before the first registry lookup. *)
module Analyses = Prax_analyses.Analyses

(** The corpus benchmark behind a [--bench] name, by source kind. *)
module Corpus = Prax_analyses.Corpus

(** Supervised batch evaluation: process-isolated worker fleet with a
    per-job watchdog, retry/backoff, and a degradation ladder (see
    docs/ROBUSTNESS.md). *)
module Serve = Prax_serve.Serve

(** Crash-safe persistent store of analysis outcomes: atomic versioned
    snapshots with CRC trailers, warm-start resume for batches. *)
module Store = Prax_store.Store

(** The resident analysis daemon ([praxd]): a Unix-socket server over
    the worker fleet with admission control (token buckets, queue-depth
    backpressure, load shedding) and graceful drain, speaking the
    newline-delimited-JSON [prax.wire] protocol. *)
module Daemon = struct
  module Wire = Prax_daemon.Wire
  module Admission = Prax_daemon.Admission
  module Pressure = Prax_daemon.Pressure
  module Lru = Prax_daemon.Lru
  module Daemon = Prax_daemon.Daemon
  module Client = Prax_daemon.Client
end

(** Bench records: prax.bench files with repeat-sample statistics, the
    noise-aware A/B comparator, and the regression-gate logic behind
    [bench run|ab|gate] (see docs/BENCHMARKING.md). *)
module Benchrun = Prax_benchrun.Benchrun

(** Incremental re-analysis: the clause-level dependency graph with its
    Tarjan condensation and closure digests, the per-SCC table-fragment
    cache with splice-back evaluation, and the deterministic mutation
    generator behind the equality drills (see docs/INCREMENTAL.md). *)
module Incr = struct
  module Depgraph = Prax_incr.Depgraph
  module Incr = Prax_incr.Incr
  module Mutate = Prax_incr.Mutate
end

module Logic = struct
  module Term = Prax_logic.Term
  module Subst = Prax_logic.Subst
  module Unify = Prax_logic.Unify
  module Canon = Prax_logic.Canon
  module Ops = Prax_logic.Ops
  module Lexer = Prax_logic.Lexer
  module Parser = Prax_logic.Parser
  module Pretty = Prax_logic.Pretty
  module Database = Prax_logic.Database
  module Sld = Prax_logic.Sld
  module Diag = Prax_logic.Diag
  module Vec = Prax_logic.Vec
end

module Tabling = struct
  module Engine = Prax_tabling.Engine
  module Supplement = Prax_tabling.Supplement
end

module Prop = struct
  module Bf = Prax_prop.Bf
  module Qm = Prax_prop.Qm
  module Iff = Prax_prop.Iff
end

module Bdd = Prax_bdd.Bdd

module Groundness = struct
  module Transform = Prax_ground.Transform
  module Analyze = Prax_ground.Analyze
  module Def = Prax_ground.Def

  (** Analyze a logic program's groundness; returns the per-predicate
      report. *)
  let analyze = Prax_ground.Analyze.analyze
end

module Fp = struct
  module Ast = Prax_fp.Ast
  module Lexer = Prax_fp.Flexer
  module Parser = Prax_fp.Fparser
  module Check = Prax_fp.Check
  module Eval = Prax_fp.Eval
end

module Strictness = struct
  module Demand = Prax_strict.Demand
  module Transform = Prax_strict.Transform
  module Analyze = Prax_strict.Analyze

  (** Analyze a functional program's strictness; [supplementary]
      defaults to the registry setting (docs/ANALYSES.md). *)
  let analyze ?cache ?mode
      ?(supplementary = Prax_strict.Analysis_def.default_supplementary) ?guard
      src =
    Prax_strict.Analyze.analyze ?cache ?mode ~supplementary ?guard src
end

module Depthk = struct
  module Domain = Prax_depthk.Domain
  module Analyze = Prax_depthk.Analyze

  let analyze = Prax_depthk.Analyze.analyze
end

module Gaia = struct
  module Boolfun = Prax_gaia.Boolfun
  module Absint = Prax_gaia.Absint
  module Analyze = Prax_gaia.Analyze
end

module Bottomup = struct
  module Datalog = Prax_bottomup.Datalog
  module Magic = Prax_bottomup.Magic
  module From_prop = Prax_bottomup.From_prop
end

module Benchdata = struct
  module Registry = Prax_benchdata.Registry
end

(** Section 7 extension: demand-driven dataflow analysis of imperative
    programs as tabled logic programs. *)
module Dataflow = struct
  module Cfg = Prax_dataflow.Cfg
  module Encode = Prax_dataflow.Encode
  module Analyze = Prax_dataflow.Analyze
end

(** Section 6.1 extension: analysis over an infinite domain with
    on-the-fly widening through the engine's widening hook. *)
module Infinite = struct
  module Widen = Prax_infinite.Widen
end

(** Section 6.1 extension: Hindley–Milner type analysis by occur-check
    unification over the logic substrate. *)
module Hm = struct
  module Infer = Prax_hm.Infer
end

(** Registry of the benchmark corpus, with the paper's reported
    measurements for side-by-side reporting in EXPERIMENTS.md.

    Paper numbers are from Tables 1–4 (Sun SPARCstation 10/30 resp.
    SPARC LX, XSB 1.4.2, 1996); we reproduce shapes, not absolute
    times. *)

type paper_row = {
  preproc : float;
  analysis : float;
  collection : float;
  total : float;
  compile_increase_pct : float;  (** negative when the paper has no value *)
  table_bytes : int;
}

type logic_bench = {
  name : string;
  source : string;
  paper_lines : int;
  table1 : paper_row option;  (** Prop groundness, Table 1 *)
  gaia_total : float option;  (** GAIA total, Table 2 *)
  table4 : paper_row option;  (** depth-k groundness, Table 4 *)
}

let row p a c t inc bytes =
  Some
    {
      preproc = p;
      analysis = a;
      collection = c;
      total = t;
      compile_increase_pct = inc;
      table_bytes = bytes;
    }

let logic_benchmarks : logic_bench list =
  [
    {
      name = "cs";
      source = Logic_medium.cs;
      paper_lines = 182;
      table1 = row 0.31 0.11 0.15 0.57 22.1 8056;
      gaia_total = Some 1.34;
      table4 = row 0.16 0.03 0.07 0.26 16. 12988;
    };
    {
      name = "disj";
      source = Logic_medium.disj;
      paper_lines = 172;
      table1 = row 0.27 0.03 0.10 0.40 26.9 5768;
      gaia_total = Some 1.01;
      table4 = row 0.14 0.03 0.06 0.23 23. 9552;
    };
    {
      name = "gabriel";
      source = Logic_small.gabriel;
      paper_lines = 122;
      table1 = row 0.20 0.05 0.11 0.36 43.6 6912;
      gaia_total = Some 0.47;
      table4 = None;
    };
    {
      name = "kalah";
      source = Logic_medium.kalah;
      paper_lines = 278;
      table1 = row 0.48 0.06 0.23 0.77 37.4 10580;
      gaia_total = Some 0.93;
      table4 = row 0.24 0.05 0.11 0.40 29. 17068;
    };
    {
      name = "peep";
      source = Logic_peep.peep;
      paper_lines = 369;
      table1 = row 0.84 0.16 0.09 1.09 23.4 5800;
      gaia_total = Some 1.16;
      table4 = row 0.44 0.08 0.05 0.57 18. 12784;
    };
    {
      name = "pg";
      source = Logic_small.pg;
      paper_lines = 53;
      table1 = row 0.10 0.01 0.02 0.13 31.0 2332;
      gaia_total = Some 0.16;
      table4 = row 0.05 0.01 0.02 0.08 29. 4136;
    };
    {
      name = "plan";
      source = Logic_small.plan;
      paper_lines = 84;
      table1 = row 0.14 0.01 0.03 0.18 30.8 2888;
      gaia_total = Some 0.12;
      table4 = row 0.08 0.01 0.02 0.11 29. 5324;
    };
    {
      name = "press1";
      source = Logic_press.press1;
      paper_lines = 349;
      table1 = row 0.62 0.38 0.82 1.82 59.5 29400;
      gaia_total = Some 5.96;
      table4 = None;
    };
    {
      name = "press2";
      source = Logic_press.press2;
      paper_lines = 351;
      table1 = row 0.60 0.41 0.83 1.84 60.7 29400;
      gaia_total = Some 6.03;
      table4 = None;
    };
    {
      name = "qsort";
      source = Logic_small.qsort;
      paper_lines = 21;
      table1 = row 0.04 0.00 0.01 0.05 33.3 916;
      gaia_total = Some 0.05;
      table4 = row 0.02 0.01 0.02 0.05 56. 1684;
    };
    {
      name = "queens";
      source = Logic_small.queens;
      paper_lines = 33;
      table1 = row 0.04 0.00 0.01 0.05 27.8 976;
      gaia_total = Some 0.04;
      table4 = row 0.03 0.00 0.01 0.04 33. 1740;
    };
    {
      name = "read";
      source = Logic_read.read;
      paper_lines = 443;
      table1 = row 0.72 0.60 0.70 2.02 64.4 26528;
      gaia_total = Some 1.66;
      table4 = row 0.36 0.25 0.43 1.04 50. 52508;
    };
  ]

type fp_bench = {
  name : string;
  source : string;
  paper_lines : int;
  table3 : paper_row option;
}

let fp_benchmarks : fp_bench list =
  [
    { name = "eu"; source = Fp_programs.eu; paper_lines = 67;
      table3 = row 0.03 0.01 0.12 0.16 0. 2852 };
    { name = "event"; source = Fp_programs.event; paper_lines = 384;
      table3 = row 0.67 0.63 0.08 1.38 0. 22056 };
    { name = "fft"; source = Fp_programs.fft; paper_lines = 343;
      table3 = row 0.63 0.19 0.06 0.88 0. 15780 };
    { name = "listcompr"; source = Fp_programs.listcompr; paper_lines = 241;
      table3 = row 0.75 0.07 0.02 0.84 0. 4688 };
    { name = "mergesort"; source = Fp_programs.mergesort; paper_lines = 65;
      table3 = row 0.11 0.02 0.01 0.14 0. 2332 };
    { name = "nq"; source = Fp_programs.nq; paper_lines = 90;
      table3 = row 0.20 0.12 0.02 0.34 0. 8912 };
    { name = "odprove"; source = Fp_programs.odprove; paper_lines = 160;
      table3 = row 0.39 0.17 0.02 0.58 0. 3776 };
    { name = "pcprove"; source = Fp_programs.pcprove; paper_lines = 595;
      table3 = row 1.01 1.60 0.10 2.71 0. 25972 };
    { name = "quicksort"; source = Fp_programs.quicksort; paper_lines = 70;
      table3 = row 0.10 0.03 0.01 0.14 0. 2660 };
    { name = "strassen"; source = Fp_programs.strassen; paper_lines = 93;
      table3 = row 0.09 0.08 0.01 0.18 0. 2760 };
  ]

type cfg_bench = {
  name : string;
  source : string;  (** [.cfg] textual control-flow-graph format *)
}

(** The Section 7 dataflow corpus (no paper table to compare against). *)
let cfg_benchmarks : cfg_bench list =
  [
    { name = "interp"; source = Cfg_programs.interp };
    { name = "ladder8"; source = Cfg_programs.ladder8 };
    { name = "ladder24"; source = Cfg_programs.ladder24 };
  ]

type stress_bench = {
  name : string;
  source : string;
  max_steps : int;
      (** the step budget the harness applies to mode=dynamic runs: big
          enough for the smallest sizes to complete, so both exit codes
          (0 complete / 3 partial) stay exercised *)
}

(** Worst-case groundness corpus (examples/stress/, after
    Genaim–Howe–Codish): mode=dynamic must degrade to a sound partial
    result within the budget on the larger sizes, mode=def must
    complete on all of them. *)
let stress_benchmarks : stress_bench list =
  [
    { name = "ghc8"; source = Stress_programs.product 8; max_steps = 20_000 };
    { name = "ghc12"; source = Stress_programs.product 12; max_steps = 20_000 };
    { name = "ghc16"; source = Stress_programs.product 16; max_steps = 20_000 };
    { name = "ghcchain12"; source = Stress_programs.chain 12; max_steps = 20_000 };
    { name = "ghcchain16"; source = Stress_programs.chain 16; max_steps = 20_000 };
  ]

let find_stress name =
  List.find_opt
    (fun (b : stress_bench) -> String.equal b.name name)
    stress_benchmarks

let find_cfg name =
  List.find_opt
    (fun (b : cfg_bench) -> String.equal b.name name)
    cfg_benchmarks

let find_logic name =
  List.find_opt
    (fun (b : logic_bench) -> String.equal b.name name)
    logic_benchmarks

let find_fp name =
  List.find_opt (fun (b : fp_bench) -> String.equal b.name name) fp_benchmarks

(** Benchmarks with a Table 4 row in the paper (the depth-k experiment
    drops gabriel/press1/press2). *)
let table4_benchmarks =
  List.filter (fun b -> b.table4 <> None) logic_benchmarks

(** The light corpus as (analysis, name, source): the Table-1
    groundness programs and the strictness programs that analyze in
    well under a second ([event]/[nq]/[pcprove] take seconds each).
    The worker-reuse tests run it; servebench's [cold_mix] draws from
    the same programs. *)
let light_corpus =
  List.filter_map
    (fun b ->
      if b.table1 = None then None else Some ("groundness", b.name, b.source))
    logic_benchmarks
  @ List.map
      (fun name ->
        match find_fp name with
        | Some (b : fp_bench) -> ("strictness", name, b.source)
        | None -> invalid_arg ("Registry.light_corpus: no program " ^ name))
      [ "eu"; "fft"; "listcompr"; "mergesort"; "odprove"; "quicksort";
        "strassen" ]

type variant = Base | Flush | Part | Miss | Arb | Nonspec | Fpma | Mi6

let all_variants = [ Base; Flush; Part; Miss; Arb; Nonspec; Fpma; Mi6 ]

let variant_name = function
  | Base -> "BASE"
  | Flush -> "FLUSH"
  | Part -> "PART"
  | Miss -> "MISS"
  | Arb -> "ARB"
  | Nonspec -> "NONSPEC"
  | Fpma -> "F+P+M+A"
  | Mi6 -> "MI6"

let variant_of_name s =
  List.find_opt (fun v -> variant_name v = String.uppercase_ascii s) all_variants

type timing = {
  core : Core_config.t;
  l1 : L1.config;
  llc : Llc.config;
  llc_security : Llc.security;
  dram_latency : int;
  dram_outstanding : int;
}

let base_timing ~cores =
  {
    core = Core_config.default;
    l1 = L1.default_config;
    (* The LLC serves two ports (I and D) per core. *)
    llc = Llc.default_config ~cores:(2 * cores);
    llc_security = Llc.baseline_security;
    dram_latency = 120;
    dram_outstanding = 24;
  }

let with_flush t =
  { t with core = { t.core with Core_config.flush_on_trap = true } }

let with_part t =
  {
    t with
    llc =
      {
        t.llc with
        Llc.index =
          Index.partitioned ~set_bits:10 ~region_bits:2
            ~geometry:Addr.default_regions;
      };
  }

let with_miss t =
  { t with llc = { t.llc with Llc.mshrs = 12; mshr_banks = 4 } }

let with_arb t =
  { t with llc = { t.llc with Llc.pipeline_latency = 4 + 8 } }

let with_nonspec t =
  { t with core = { t.core with Core_config.nonspec_mem = true } }

(* Real Figure 3 structures rather than the MISS and ARB approximations:
   MSHRs statically partitioned at 3 per port, and the DRAM controller
   sized so the paper's rule (#MSHR <= d_max / 2) holds. *)
let with_figure3 t =
  let ports = t.llc.Llc.cores in
  {
    t with
    llc_security = Llc.mi6_security;
    llc = { t.llc with Llc.mshrs = 3 * ports; mshr_banks = 1 };
    dram_outstanding = 6 * ports;
  }

let timing ~cores variant =
  let b = base_timing ~cores in
  match variant with
  | Base -> b
  | Flush -> with_flush b
  | Part -> with_part b
  | Miss -> with_miss b
  | Arb -> with_arb b
  | Nonspec -> with_nonspec b
  | Fpma -> with_arb (with_miss (with_part (with_flush b)))
  | Mi6 -> with_figure3 (with_part (with_flush b))

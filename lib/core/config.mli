(** The machines the simulator builds: the seven processor variants of
    the paper's evaluation (Section 7) and the Figure 3 machine.

    - [Base]: insecure RiscyOO baseline (Figure 4).
    - [Flush]: + purge of all per-core microarchitectural state on every
      trap entry and trap return (Section 7.1).
    - [Part]: + LLC set partitioning, i.e. the index function becomes
      [{R[1:0], A[7:0]}] (Section 7.2).
    - [Miss]: + LLC MSHRs reduced from 16 to 12 and sliced into 4 banks,
      with the paper's pessimistic whole-file bank stall (Section 7.3).
    - [Arb]: + 8 extra cycles of LLC pipeline latency, modeling the
      round-robin arbiter of a 16-core machine (Section 7.4).
    - [Nonspec]: memory instructions rename only on an empty ROB
      (Section 7.5).
    - [Fpma]: Flush + Part + Miss + Arb (Section 7.6) — the enclave cost.
    - [Mi6]: the machine the security claims are about (Figure 3), of
      which [Fpma] is the single-core performance approximation: Flush +
      Part with every Figure 3 LLC structure in place of MISS and ARB's
      stand-ins — the round-robin arbiter, a split UQ, one-cycle DQ
      retries, per-partition downgrade logic, and an unbanked MSHR file
      statically partitioned at 3 per LLC port, with the DRAM controller
      sized so the paper's rule (#MSHR <= d_max / 2) holds. *)

type variant = Base | Flush | Part | Miss | Arb | Nonspec | Fpma | Mi6

(** Every variant, in the order above. *)
val all_variants : variant list

(** [variant_name v] — the paper's spelling ([BASE], [F+P+M+A], [MI6]). *)
val variant_name : variant -> string

(** [variant_of_name s] — the variant whose name is [s] in any letter
    case. *)
val variant_of_name : string -> variant option

type timing = {
  core : Core_config.t;
  l1 : L1.config;
  llc : Llc.config;
  llc_security : Llc.security;
  dram_latency : int;
  dram_outstanding : int;
}

(** [timing ~cores variant] — the single-core evaluation methodology uses
    [cores = 1] link pairs; the LLC sees [2 * cores] ports (I and D per
    core), so [Mi6]'s MSHR file and DRAM controller grow with [cores]. *)
val timing : cores:int -> variant -> timing

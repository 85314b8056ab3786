(** Out-of-order core parameters (paper Figure 4) and the per-variant
    security knobs of Section 7. *)

type t = {
  fetch_width : int;  (** 2-wide superscalar *)
  commit_width : int;  (** 2-way commit *)
  rob_entries : int;  (** 80 *)
  phys_regs : int;  (** rename registers beyond the 32 architectural *)
  iq_entries : int;  (** per-pipeline issue queue: 16 *)
  alu_pipes : int;  (** 2 *)
  lq_entries : int;  (** 24 *)
  sq_entries : int;  (** 14 *)
  sb_entries : int;  (** 4-entry store buffer *)
  dtlb_misses : int;  (** D TLB max 4 requests *)
  l2tlb_latency : int;  (** L2 TLB lookup latency *)
  redirect_penalty : int;  (** front-end refill after a resolved redirect *)
  decode_redirect : int;  (** cheaper redirect for BTB-missing direct jumps *)
  flush_on_trap : bool;  (** FLUSH / MI6 variants: purge at trap entry+exit *)
  nonspec_mem : bool;
      (** NONSPEC: a memory µop renames only when the ROB is empty *)
  save_restore_predictors : bool;
      (** Section 6 optional extension: at a trap-entry purge, save the
          user domain's predictor state and reset; at the matching
          trap-return purge, restore it — the user's own warm state
          returns, the kernel still saw a public state, and nothing
          crosses domains *)
  purge_floor : int;
      (** minimum purge stall (512: slowest structure at its per-cycle
          flush rate, Section 7.1) *)
  llc_roundtrip_hint : int;
      (** CPI-stack attribution boundary: a ROB-head memory stall at most
          this old is charged to [l1_miss] (the access is assumed served
          by the LLC); older stalls to [llc_dram].  Must sit between the
          LLC-hit and DRAM round-trip latencies. *)
}

val default : t

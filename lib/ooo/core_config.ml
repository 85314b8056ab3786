type t = {
  fetch_width : int;
  commit_width : int;
  rob_entries : int;
  phys_regs : int;
  iq_entries : int;
  alu_pipes : int;
  lq_entries : int;
  sq_entries : int;
  sb_entries : int;
  dtlb_misses : int;
  l2tlb_latency : int;
  redirect_penalty : int;
  decode_redirect : int;
  flush_on_trap : bool;
  nonspec_mem : bool;
  save_restore_predictors : bool;
  purge_floor : int;
  llc_roundtrip_hint : int;
}

let default =
  {
    fetch_width = 2;
    commit_width = 2;
    rob_entries = 80;
    phys_regs = 128;
    iq_entries = 16;
    alu_pipes = 2;
    lq_entries = 24;
    sq_entries = 14;
    sb_entries = 4;
    dtlb_misses = 4;
    l2tlb_latency = 4;
    redirect_penalty = 7;
    decode_redirect = 2;
    flush_on_trap = false;
    nonspec_mem = false;
    save_restore_predictors = false;
    purge_floor = 512;
    llc_roundtrip_hint = 60;
  }

(** Shared, inclusive, MSI-directory last-level cache — both the baseline
    RiscyOO microarchitecture (paper Figure 2) and the MI6 strongly
    timing-independent variant (Figure 3).

    Structure common to both: every incoming message (L1 upgrade request,
    L1 downgrade response, DRAM response) flows through a fixed-latency,
    never-backpressured cache-access pipeline; upgrade requests reserve an
    MSHR before entry; ready responses are queued (as MSHR indices) in UQ;
    DRAM work is queued in DQ; a Downgrade-L1 logic sends downgrade
    requests to child caches.

    The {!security} knobs select the Figure 3 changes one by one:
    - [round_robin_arbiter]: per-core input merge + strict round-robin slot
      (cycle T admits core T mod N, a slot is wasted if that core is idle)
      instead of the baseline two-level priority mux;
    - [split_uq]: one UQ per core (head-of-line blocking confined to a
      core) instead of one shared UQ;
    - [per_partition_downgrade]: duplicated Downgrade-L1 logic per MSHR
      partition instead of one shared scanner;
    - [dq_retry]: every DQ dequeue takes exactly one cycle — a replacement
      completion sends only its writeback, sets the entry's retry bit, and
      re-enters the pipeline as a pure miss — instead of the baseline
      blocking the DQ port for a second cycle to send writeback and read
      back-to-back;
    - [partitioned_mshrs]: MSHRs statically divided among cores.

    The MSHR file may additionally be sliced into banks by low set-index
    bits (the MISS experiment, Section 7.3), following the paper's
    pessimistic FPGA model in which one full bank stalls all
    allocation.

    State is flat, so a tick allocates nothing: one preallocated record
    per MSHR slot (int phase codes, an int bitmask of the cores still to
    answer a downgrade, fixed int arrays of downgrade targets and parked
    entries), int {!Ring}s for the pipeline and the retry, UQ and DQ
    queues, and the directory indexed by the line's {!Sram.slot}: the
    owner and dirty bit in one byte per slot, the sharers in an int
    bitmask array.  The only allocation on the miss path is the
    {!Controller.req} each DRAM command passes. *)

type security = {
  partitioned_mshrs : bool;
  round_robin_arbiter : bool;
  split_uq : bool;
  per_partition_downgrade : bool;
  dq_retry : bool;
}

val baseline_security : security
val mi6_security : security

type config = {
  index : Index.t;
  ways : int;
  mshrs : int;  (** total MSHR entries *)
  mshr_banks : int;  (** 1 = unbanked *)
  pipeline_latency : int;
  cores : int;
  repl_seed : int;
}

(** 1 MB / 16-way / 1024-set flat-indexed LLC with 16 MSHRs and a 4-cycle
    pipeline, per Figure 4. *)
val default_config : cores:int -> config

(** The most ports (cores of the config) an LLC serves, 62: the cores
    still to answer a downgrade and a line's sharers are int bitmasks,
    one bit per port. *)
val max_ports : int

type t

(** [create cfg ~security ~links ~dram ~stats] builds an idle LLC over one
    link per port.  Raises [Invalid_argument] when [cfg.cores] exceeds
    {!max_ports}, when the links do not match the ports, or when the
    MSHRs do not divide evenly into banks (or, partitioned, across
    ports). *)
val create :
  ?trace:Trace.t ->
  config ->
  security:security ->
  links:Link.t array ->
  dram:Controller.t ->
  stats:Stats.t ->
  t

(** [tick t ~now] advances the LLC and its DRAM controller one cycle.
    Call after the L1s' ticks with the same [now]. *)
val tick : t -> now:int -> unit

(** [tick_idle t ~now] is [tick t ~now] for an LLC that is not {!busy},
    at the cost of what such a tick does: the occupancy sample and, on
    the round-robin arbiter, the wasted slot ([llc.arb_idle_slots] and
    its [Arb_idle] event).  The DRAM controller has nothing to do. *)
val tick_idle : t -> now:int -> unit

(** [busy t] — any MSHR active, message queued on the pipeline or a link
    (either direction), or DRAM request outstanding (used to detect
    quiescence). *)
val busy : t -> bool

(** [probe t ~line] — line present in the LLC (tests and attack agents). *)
val probe : t -> line:int -> bool

(** MSHR-occupancy distribution, one sample per tick. *)
val mshr_occupancy : t -> Histogram.t

(** Currently allocated MSHR entries (instantaneous occupancy). *)
val live_mshrs : t -> int

(** [state t s] walks the LLC's structure state — live MSHR entries and
    their phases, the pipeline/retry/UQ/DQ queues, the child links, and
    the DRAM controller — through {!Statesig}, for the quiet-cycle
    signature and the labelled dump alike.  The cache array, directory
    metadata, and replacement state are excluded: they only change in
    cycles that also move an MSHR or a queue.  It requires the
    constant-latency DRAM controller ({!Controller.state}). *)
val state : t -> Statesig.acc -> unit

(** [invalidate_region t ~geometry ~region] drops every line whose address
    falls in the DRAM region; monitor support for scrubbing a region
    before reallocation (Section 6: L2 sets need only be scrubbed when
    reallocating physical memory).  Requires [not (busy t)]. *)
val invalidate_region : t -> geometry:Addr.regions -> region:int -> unit

(** [check_invariants t] checks the bookkeeping the flat MSHR file keeps
    in step: every derived count (live entries, free entries per
    partition and bank, DRAM-arrived entries per core and in all,
    entries with downgrades still to send, queued retries) equals a
    recount of the slots and queues; every index
    queued in the pipeline, a retry queue, a UQ, the DQ or the pending
    baseline read names a live entry in the phase that queue implies;
    and no (set, way) is locked by two live entries.  [Error] names the
    first broken invariant.  For tests: it scans every slot. *)
val check_invariants : t -> (unit, string) result

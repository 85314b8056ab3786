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
    bits (the MISS experiment, Section 7.3); [strict_bank_stall] reproduces
    the paper's pessimistic FPGA model in which one full bank stalls all
    allocation. *)

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
  strict_bank_stall : bool;
  pipeline_latency : int;
  cores : int;
  repl_seed : int;
}

(** 1 MB / 16-way / 1024-set flat-indexed LLC with 16 MSHRs and a 4-cycle
    pipeline, per Figure 4. *)
val default_config : cores:int -> config

type t

val create :
  ?trace:Trace.t ->
  ?selfprof:Selfprof.t ->
  config ->
  security:security ->
  links:Link.t array ->
  dram:Controller.t ->
  stats:Stats.t ->
  t

(** [tick t ~now] advances the LLC and its DRAM controller one cycle.
    Call after the L1s' ticks with the same [now]. *)
val tick : t -> now:int -> unit

(** [busy t] — any MSHR active or message queued (used to detect
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
    cycles that also move an MSHR or a queue.  Like {!save}, it requires
    the constant-latency DRAM controller ({!Controller.state}). *)
val state : t -> Statesig.acc -> unit

(** Value snapshot of {e all} behavior-relevant state: MSHRs, every
    queue, the tag array with directory metadata, replacement state, the
    child links (owned here; the L1s share the same [Link.t] values), and
    the DRAM controller (constant-latency only, see {!Controller.save}). *)
type checkpoint

val save : t -> checkpoint

(** [restore t ck] rewinds the LLC (links and DRAM included) in place. *)
val restore : t -> checkpoint -> unit

(** [invalidate_region t ~geometry ~region] drops every line whose address
    falls in the DRAM region; monitor support for scrubbing a region
    before reallocation (Section 6: L2 sets need only be scrubbed when
    reallocating physical memory).  Requires [not (busy t)]. *)
val invalidate_region : t -> geometry:Addr.regions -> region:int -> unit

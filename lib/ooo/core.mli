(** Cycle-level out-of-order core (RiscyOO-style, Figure 4): 2-wide
    fetch with BTB + tournament predictor + RAS, rename with a physical
    register free list, 80-entry ROB, per-pipe issue queues (2 ALU, 1 MEM,
    1 FP), load/store queues with store-to-load forwarding, a 4-entry
    store buffer, non-blocking L1s, two-level TLBs and a hardware page
    walker.

    Trace-driven: µops arrive from a stream carrying the committed path;
    on a branch misprediction fetch stalls until the branch resolves in
    execute plus the redirect penalty (wrong-path work is not simulated,
    its fetch-starvation cost is).

    MI6 features:
    - [flush_on_trap]: at every [Enter_kernel]/[Exit_kernel] boundary the
      core drains, then purges all per-core microarchitectural state at
      the hardware flush rates of Section 7.1 (>= [purge_floor] cycles:
      one L1 line per cycle, one L2-TLB set per cycle, 8 predictor
      entries per cycle), leaving predictors, TLBs, and L1s in their
      public reset state.
    - [nonspec_mem]: a memory µop renames only once the ROB is empty
      (Section 7.5's NONSPEC implementation). *)

type t

val create :
  ?trace:Trace.t ->
  ?id:int ->
  Core_config.t ->
  l1i:L1.t ->
  l1d:L1.t ->
  stream:(unit -> Uop.t option) ->
  stats:Stats.t ->
  pt_base_line:int ->
  t

(** [tick t ~now] advances the core one cycle.  The caller then ticks the
    L1s (routing completions back via {!mem_complete} / {!icache_complete})
    and the LLC. *)
val tick : t -> now:int -> unit

(** [floor_end t] is the cycle the purge floor ends when the core is
    waiting one out, -1 otherwise.  A core waits from the cycle both its
    L1 flushes are done: its backend was empty when the flush began and
    nothing refills it, so until the floor ends it issues no memory
    request and its ticks only count. *)
val floor_end : t -> int

(** [wait_floor t ~now] is [tick t ~now] for a cycle before
    [floor_end t], at the cost of what such a tick does: the clock, the
    [core.cycles], [core.purge_stall_cycles] and [core.cpi.purge] counts,
    the periodic ROB trace sample and the event wheel's cursor. *)
val wait_floor : t -> now:int -> unit

(** [mem_complete t ~now ~id] — a D-side request (load, page-walk read, or
    store-buffer drain) finished. *)
val mem_complete : t -> now:int -> id:int -> unit

(** [icache_complete t ~id] — the pending I-fetch line arrived. *)
val icache_complete : t -> id:int -> unit

(** [finished t] — stream exhausted and the machine is drained. *)
val finished : t -> bool

val committed_instructions : t -> int

(** [set_on_commit t f] installs a retirement probe: [f u] fires once per
    committed µop, in retirement (program) order, including the
    [Enter_kernel]/[Exit_kernel] markers that commit at rename.  Default
    is a no-op; used by the differential test harness to compare the
    out-of-order core's retirement stream against the in-order reference
    model. *)
val set_on_commit : t -> (Uop.t -> unit) -> unit

(** [purging t] — core is inside a purge (tests). *)
val purging : t -> bool

(** [predictor_signature t] hashes branch-predictor + BTB + RAS state
    (purge tests: must equal a fresh core's after purge). *)
val predictor_signature : t -> int

(** [request_purge t] — external (security-monitor initiated) purge, used
    by the machine model when descheduling an enclave outside a trap
    boundary.  Takes effect like a trap-boundary purge. *)
val request_purge : t -> unit

(** Load issue-to-completion latency (cache-path loads; forwarded loads
    excluded), in cycles. *)
val load_latency : t -> Histogram.t

(** Purge durations (quiesce start to machine-clean), in cycles. *)
val purge_latency : t -> Histogram.t

(** Page-walk start-to-finish latency, in cycles. *)
val walk_latency : t -> Histogram.t

(** {2 Occupancy probes} — instantaneous structure occupancy, sampled by
    the machine once per cycle when occupancy tracking is on. *)

val rob_occupancy : t -> int
val iq_occupancy : t -> int  (** all issue queues summed *)

val lq_occupancy : t -> int
val sq_occupancy : t -> int
val sb_occupancy : t -> int

(** [in_flight_uops t] — renamed-but-unretired µops oldest-first, each
    with its ROB state (["waiting"], ["issued"], ["done"]); rendered by
    causal-slice reports. *)
val in_flight_uops : t -> (Uop.t * string) list

(** [check_invariants t] checks the rename and queue bookkeeping: every
    physical register is in exactly one of the free list, the map table
    and the [old] mapping of an in-flight µop; every busy LQ slot names
    an in-flight load whose LQ slot points back (and a free one names
    none); the SQ count equals the number of in-flight stores, and no
    SQ slot outside its window has a ready address.  It also checks the
    state the per-cycle checks read instead of scanning: the free LQ
    slots and the walker's live walks recount to their counts; every
    issue-queue entry is an in-flight waiting µop whose cached ready
    cycle, unless unknown, is its sources' latest [ready_at]; and in a
    queue armed to skip its scans, no entry is ready before the cycle
    it skips to, and each blocked one is registered to wake the queue
    when its first unknown source's [ready_at] falls.  [Error]
    describes the first violation found. *)
val check_invariants : t -> (unit, string) result

(** [last_cycle_cause t] — the {!Cpistack.categories} index the last tick
    was attributed to (feeds per-stall-cause quiet-cycle accounting). *)
val last_cycle_cause : t -> int

(** [state t s] walks the core's structure state — fetch queue, ROB,
    issue/load/store queues, store buffer, pending events, page walker,
    purge machinery — through {!Statesig}, for the quiet-cycle signature
    and the labelled dump alike.  It is the core's only state
    description: nothing rewinds a core.  Predictors, TLB contents, and
    renaming bookkeeping are excluded: they only change in cycles that
    also move an included structure. *)
val state : t -> Statesig.acc -> unit

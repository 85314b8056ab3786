(** Coherent, non-blocking L1 cache timing model (data or instruction).

    Core-side: bounded request queue with [can_accept] backpressure;
    completions are delivered through the [complete] callback after the hit
    latency (hits) or when the coherence fill returns (misses).  Multiple
    outstanding misses are tracked in MSHRs; requests to a line with a
    miss already in flight merge into the existing MSHR when the pending
    grant suffices.

    Memory-side: an MSI child on a {!Mi6_coherence.Link} — upgrade requests
    out, downgrade responses out (including voluntary eviction notices for
    {e clean} lines, which the RiscyOO protocol requires and which makes L1
    flushes cost one eviction per line, cf. paper Section 7.1), parent
    messages in.

    Purge support: [begin_flush] / [flush_step] invalidate one line per
    cycle and scrub replacement state, modeling the per-cycle flush rates
    of Section 7.1.

    State is flat, so a tick allocates nothing: one preallocated record
    per MSHR slot with a live flag and an int array of waiter ids, and
    each line's MSI state in an array indexed by its {!Sram.slot}. *)

type config = {
  sets : int;
  ways : int;
  mshrs : int;
  hit_latency : int;
  seed : int;  (** pseudo-random replacement seed (public) *)
  prefetch_next_line : bool;
      (** simple next-line prefetch on a demand miss (off by default);
          raises memory-level parallelism, used by the MISS-sensitivity
          ablation *)
}

(** 32 KB, 8-way, 64-byte lines, 8 MSHRs, as in Figure 4. *)
val default_config : config

type t

val create :
  ?trace:Trace.t -> config -> link:Link.t -> stats:Stats.t -> name:string -> t
val config : t -> config

(** The name given to {!create}: its counters' and trace events' prefix. *)
val name : t -> string

(** [can_accept t] — the core may issue a request this cycle. *)
val can_accept : t -> bool

(** [request t ~line ~store ~id] enqueues an access to cache-line number
    [line].  Raises [Failure] when [can_accept] is false. *)
val request : t -> line:int -> store:bool -> id:int -> unit

(** [try_hit t ~line] — combinational read-hit check for pipelined
    consumers (the instruction fetch stage): on a hit it touches the
    replacement state, counts the access, and returns [true] with no
    latency; on a miss it returns [false] without side effects and the
    caller falls back to {!request}. *)
val try_hit : t -> line:int -> bool

(** [tick t ~now ~complete] advances one cycle; [complete] receives the
    ids of requests that finish this cycle. *)
val tick : t -> now:int -> complete:(int -> unit) -> unit

(** [in_flight t] is the number of occupied MSHRs plus queued requests. *)
val in_flight : t -> int

(** [probe t ~line] is the current MSI state of [line] (I if absent);
    observation for tests and attack agents. *)
val probe : t -> line:int -> Msi.t

(** Purge.  [begin_flush] requires [in_flight t = 0]. *)
val begin_flush : t -> unit

(** [is_flushing t] — a flush is in progress. *)
val is_flushing : t -> bool

(** [flush_step t] invalidates (up to) one line, sending the required
    eviction notice; returns [true] when the flush has finished (all lines
    invalid, replacement state scrubbed). *)
val flush_step : t -> bool

(** [valid_lines t] is the number of valid lines (tests). *)
val valid_lines : t -> int

(** Demand-miss latency distribution (request accepted to fill), in
    cycles.  Prefetch fills are excluded. *)
val miss_latency : t -> Histogram.t

(** [state t s] walks the input queue, MSHRs, completions and flush
    cursor through {!Mi6_util.Statesig}, for the quiet-cycle signature
    and the labelled dump alike; the data array and replacement metadata
    are excluded (they change only in cycles that also move the included
    state). *)
val state : t -> Statesig.acc -> unit

(** [check_invariants t] recounts the live MSHRs against the count kept
    in step with them, and checks that no two live MSHRs track the same
    line or reserve the same (set, way).  [Error] names the first broken
    invariant.  For tests: it scans every MSHR. *)
val check_invariants : t -> (unit, string) result

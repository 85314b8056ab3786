(** Simulator self-profiling: host wall time and allocation per
    simulation phase.

    A stopwatch with one current phase: {!switch} charges the elapsed
    wall time and minor-heap allocation to the phase being left and
    returns the previous phase, so instrumenting a stage is

    {[ let p = Selfprof.switch sp Selfprof.ph_issue in
       issue_stage t;
       Selfprof.restore sp p ]}

    and nested segments (the DRAM controller ticking inside the LLC tick)
    attribute correctly.  Between {!run_begin} and {!run_end} every
    instant belongs to exactly one phase — un-instrumented time lands in
    [harness] — so phase times sum to the run's wall time by
    construction.  The disabled singleton {!null} reduces every probe to
    one branch. *)

type t

(** The disabled profiler (every probe a cheap flag test). *)
val null : t

val create : unit -> t
val enabled : t -> bool

(** {2 Phases} *)

val n_phases : int
val phase_name : int -> string

val ph_fetch : int
val ph_rename : int
val ph_issue : int
val ph_exec : int
val ph_mem : int
val ph_commit : int
val ph_purge : int
val ph_l1 : int
val ph_llc : int
val ph_dram : int
val ph_ptw : int

(** Everything not inside an instrumented segment: stream generation,
    stats bookkeeping, the run loop. *)
val ph_harness : int

(** {2 Probes} *)

(** [switch t p] — charge elapsed time/allocation to the current phase,
    make [p] current, return the previous phase. *)
val switch : t -> int -> int

(** [restore t p] — [switch] back to [p], ignoring the result. *)
val restore : t -> int -> unit

(** {2 Run windows} *)

(** [run_begin t] opens a run window (current phase becomes [harness]). *)
val run_begin : t -> unit

(** [run_end t ~cycles ~instrs] closes the window: accumulates wall
    time, cycle and instruction counts, and appends a kips-series
    point. *)
val run_end : t -> cycles:int -> instrs:int -> unit

(** [sample t ~cycles ~instrs] appends a mid-run kips-series point
    (elapsed seconds since [run_begin], cycles, instrs). *)
val sample : t -> cycles:int -> instrs:int -> unit

(** {2 Results} *)

val wall_seconds : t -> float
val cycles : t -> int
val phase_seconds : t -> int -> float
val phase_alloc_bytes : t -> int -> float

(** Kips-series points, oldest first: (elapsed seconds, cycles, instrs). *)
val kips_series : t -> (float * int * int) list

(** Simulated kilocycles per host second over all run windows. *)
val overall_kcps : t -> float

(** Per-phase [(name, seconds, ns/cycle, alloc bytes/cycle)], phase
    order. *)
val report : t -> (string * float * float * float) list

val to_json : t -> Json.t

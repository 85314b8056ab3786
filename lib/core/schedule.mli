(** Adversarial interrupt schedules for the enclave noninterference
    harness (paper Section 6; Busi et al.'s interruptible-enclave
    isolation).

    A schedule says {e when} a victim enclave is preempted and {e what}
    the attacker runs during each preemption: a list of preemption
    points — indexed either by committed enclave instruction or by
    machine cycle — each naming a fixed attacker program, plus a final
    attacker run after the enclave completes.  Preemption goes through
    the real trap path: an [Enter_kernel] marker (serialize + purge on
    the flushing variants), the attacker's µops over its own code/data
    ranges (DRAM region 3, disjoint from the enclave's regions 1/2),
    then [Exit_kernel] (purge again) and resume into the enclave.

    The hyperproperty: on the secure variants, the attacker's
    observables — per-window cycle counts, mispredicts, and I/D/LLC
    miss counters — are independent of the enclave body for
    {e every} schedule.  {!check} compares a body against a same-length
    straight-line ALU reference body under one schedule; {!localize}
    re-runs a falsified schedule with event tracing and names the
    leaking hardware channel via {!Mi6_obs.Audit}.

    Schedules print as a compact replayable string
    ([ni1:<variant>:b<seed>:<points>:<final>], e.g.
    [ni1:base:b42:i3=train,c900=probe:sweep]) accepted by
    [mi6_sim ni --schedule]; {!of_string} inverts {!to_string}.

    What the observable deliberately excludes: the enclave's total
    running time (the gap between two attacker windows).  Execution
    duration is public in MI6's model — the OS schedules the enclave and
    trivially sees when it yields; hiding it needs padding (Busi et
    al.), which the paper does not claim. *)

(** The attacker programs an adversary may run during a preemption.
    Each lives at its own pc range so predictor footprints stay
    distinct; all data accesses land in the attacker's DRAM region. *)
type attacker = Probe | Train | Sweep | Stores

val attackers : attacker list
val attacker_name : attacker -> string
val attacker_of_name : string -> attacker option

(** [attacker_uops a] — the fixed µop sequence of one attacker window
    (exposed so tests can anchor window sizes). *)
val attacker_uops : attacker -> Uop.t list

(** A preemption point: trap after the [At_instr n]-th enclave µop has
    entered the stream (clamped to the body length), or at the first
    enclave fetch once the machine clock reaches [At_cycle c].  Points
    fire in list order; a point whose condition is already met fires
    immediately, and points outstanding when the enclave body ends fire
    back-to-back before the final window. *)
type when_ = At_instr of int | At_cycle of int

type point = { at : when_; attacker : attacker }

type t = {
  variant : Config.variant;
  body_seed : int;  (** identifies the enclave body (see {!Mi6_progen.Body}) *)
  points : point list;
  final : attacker;  (** attacker window after the enclave completes *)
}

val to_string : t -> string

(** Parses the [ni1:...] format; inverse of {!to_string} (tolerant of
    surrounding whitespace and case in the variant/attacker names). *)
val of_string : string -> (t, string) result

(** What the attacker sees of one of its own windows, measured from its
    own first commit to the [Exit_kernel] commit (which serializes, so
    every attacker µop has fully executed by then).  The window is
    anchored at the first attacker commit rather than [Enter_kernel]
    because the marker commits at rename, before the enclave's in-flight
    tail drains: timing measured from it would see the drain — the
    enclave's own execution speed, which is public in MI6's model, not a
    purge failure. *)
type window = {
  w_attacker : attacker;
  w_cycles : int;  (** first attacker commit → Exit commit *)
  w_commits : int;  (** attacker µops committed (schedule-determined) *)
  w_mispredicts : int;
  w_l1d_misses : int;
  w_l1i_misses : int;
  w_llc_misses : int;
}

(** One window per preemption point plus the final window, in schedule
    order.  Structural equality is the noninterference criterion. *)
type observation = window list

val observation_to_json : observation -> Json.t
val pp_observation : Format.formatter -> observation -> unit

(** [reference_body n] — the straight-line ALU body of length [n] the
    enclave under test is compared against: same pc range, no memory
    traffic, no branches. *)
val reference_body : int -> Uop.t list

(** [run ~timing ~body t] executes [body] under schedule [t] and returns
    the attacker's observation.  [trace] captures cycle-stamped events
    for {!localize}; the second component is each window's absolute
    [(first_attacker_commit, exit_commit)] cycle bounds. *)
val run :
  ?max_cycles:int ->
  ?trace:Trace.t ->
  timing:Config.timing ->
  body:Uop.t list ->
  t ->
  observation * (int * int) list

type verdict = {
  v_schedule : t;
  v_falsified : bool;
  v_obs : observation;  (** the seeded body's windows *)
  v_ref_obs : observation;  (** the ALU reference body's windows *)
}

(** [check ~body t] — noninterference for one schedule: observation of
    [body] vs the same-length reference body on [t.variant].
    [v_falsified] when they differ. *)
val check : ?max_cycles:int -> body:Uop.t list -> t -> verdict

(** [localize ~body t] — re-run both sides of {!check} with event
    tracing, keep only events inside attacker windows (rebased to each
    window's [Enter] commit, so absolute-time skew from differing body
    lengths cancels), and diff them: {!Mi6_obs.Audit.first_leaking_channel}
    then names the structure the leak entered through. *)
val localize : ?max_cycles:int -> body:Uop.t list -> t -> Audit.report

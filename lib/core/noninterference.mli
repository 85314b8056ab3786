(** Side-channel experiments and the non-interference property.

    Each experiment runs an attacker agent and a victim agent on the two
    ports of a {!Hierarchy} built from a one-core {!Config.timing} (the
    D and I ports, each with its own L1), with disjoint DRAM regions
    (architectural isolation holds by construction — the question is
    exactly the paper's: does the {e timing} the attacker observes
    depend on the victim?).  The insecure configuration is
    [Config.timing ~cores:1 Base]; the MI6 one is
    [Config.timing ~cores:1 Mi6], which gives each agent its port's
    3-MSHR partition.  The attacker's observation is the list of
    latencies of its own timed accesses.  A configuration provides strong
    timing independence for an experiment when the observation is
    bit-identical across victim behaviours.

    Experiments map to the paper's channels:
    - {!prime_probe}: LLC set contention (Section 5.2 — closed by set
      partitioning);
    - {!mshr_channel}: LLC MSHR occupancy and the shared pipeline/queue
      contention (Sections 5.2/5.4 — closed by MSHR partitioning, the
      round-robin arbiter, split UQs, and one-cycle DQ dequeues);
    - {!dram_bank_channel}: DRAM bank-locality reordering (Section 5.2 —
      closed by the constant-latency controller). *)

(** [prime_probe timing ~secret] — attacker primes an LLC set with its
    own lines, the victim touches a line whose set depends on [secret],
    the attacker probes and records each probe latency. *)
val prime_probe : Config.timing -> secret:bool -> int list

(** [mshr_channel timing ~victim_floods] — the victim either floods the
    LLC with misses or stays idle while the attacker times a sequence of
    its own misses. *)
val mshr_channel : Config.timing -> victim_floods:bool -> int list

(** [dram_bank_channel ~reordering ~victim_same_bank] — run on the MI6
    configuration with either the FR-FCFS or its constant-latency DRAM
    controller; the victim hammers either the attacker's DRAM bank or a
    different one. *)
val dram_bank_channel : reordering:bool -> victim_same_bank:bool -> int list

(** [leaks observations] — true when any two observations differ (the
    attacker can distinguish victim behaviours). *)
val leaks : int list list -> bool

(** One row of the verdict table: a channel on one configuration, e.g.
    ["prime+probe, MI6 LLC"], and whether its attacker distinguished the
    two victim behaviours. *)
type verdict = { label : string; leaks : bool }

type channel = { insecure : verdict; mi6 : verdict }

(** [channels ()] runs the three experiments above, each on the insecure
    configuration and on MI6 (the constant-latency controller for the
    DRAM-bank channel): the paper's claim is that every [insecure] row
    leaks and no [mi6] row does. *)
val channels : unit -> channel list

(** Attacker behaviours for {!victim_observation}: idle, a saturating
    miss flood, alternating 256-cycle bursts, and a small-working-set
    sweep that mostly hits in the LLC. *)
type attacker = A_idle | A_flood | A_burst | A_sweep

val all_attackers : attacker list
val attacker_name : attacker -> string
val attacker_of_name : string -> attacker option

(** [victim_observation timing ~attacker] — the victim runs a fixed
    access script while the attacker runs [attacker]; returns the
    victim's cycle-stamped event stream (its LLC arbiter grants, MSHR
    alloc/free, UQ sends, DQ retries, and DRAM commands for its own
    lines), the trace ring's dropped-event count (nonzero drops
    invalidate a stream-equality audit), and the dominant dropped event
    kind as [Some (kind, count)].  Feed two streams to
    {!Mi6_obs.Audit.diff}: non-interference demands they be
    bit-identical across attackers.  Each call builds its own hierarchy
    and trace ring, so captures may run on any number of domains. *)
val victim_observation :
  Config.timing ->
  attacker:attacker ->
  (int * Mi6_obs.Trace.event) list * int * (string * int) option

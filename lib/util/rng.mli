(** Deterministic, splittable pseudo-random number generator.

    Workload generation draws from it: each [Synth] generator and the
    property-test pre-states flow from one seed through explicit [t]
    values.  The simulator's other sources of randomness are seeded
    explicitly too, but do not use [t]: pseudo-random cache replacement
    ([Replacement]) keeps its own xorshift state, and the interrupt-schedule
    and enclave-body generators ([Ni_gen], [Body]) key a fresh
    [Random.State] on their seed for qcheck.  So whole-machine runs are
    reproducible bit-for-bit.  That determinism is what makes the
    non-interference tests meaningful: two runs that differ only in the
    victim's secret must produce identical attacker observation traces.

    The generator is SplitMix64 (Steele, Lea & Flood 2014). *)

type t

(** [create seed] is a fresh generator. *)
val create : int64 -> t

(** [of_int seed] is [create] on a widened int, for convenience. *)
val of_int : int -> t

(** [split t] derives an independent generator without disturbing the parent
    stream more than one step. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound).  Raises [Invalid_argument] if
    [bound <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool

(** [skewed t range] is [int_of_float (u4 *. u4 *. float_of_int range)]
    for [u4 = u *. u *. u *. u] of one [float t] draw [u]: for a
    non-negative [range], an int in [\[0, range\]] concentrated near 0
    (the eighth power of a uniform draw), drawn without allocating. *)
val skewed : t -> int -> int

(** [pick t thresholds ~scale] draws [x = float t *. scale] and returns
    the first [i] with [x < thresholds.(i)], or [Array.length thresholds]
    if there is none, allocating nothing.  With [~scale:1.0] it is the
    chain [if x < th.(0) then 0 else if x < th.(1) then 1 ...] on one
    [float] draw; with the running sums [w.(0)], [w.(0) +. w.(1)], ... of
    all but the last weight, summed from [0.0] in order, and the weights'
    total as [scale], it picks what [choose t w] picks. *)
val pick : t -> float array -> scale:float -> int

(** [choose t weights] picks index [i] with probability proportional to
    [weights.(i)].  Raises [Invalid_argument] on an empty or all-zero
    array. *)
val choose : t -> float array -> int

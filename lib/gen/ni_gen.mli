(** qcheck generation and shrinking of adversarial interrupt schedules.

    Lives next to {!Body} (rather than in [mi6_core]) so the simulator
    core stays free of the qcheck dependency.  The shrinker is explicit
    — {!shrink} returns candidate simplifications, every one strictly
    smaller under {!measure} — because both the qcheck property and the
    [mi6_sim ni] CLI need it: a falsifying schedule is greedily shrunk
    to a fixpoint before it is printed, and each accepted step is
    re-checked to still falsify. *)

val gen :
  ?variant:Mi6_core.Config.variant -> unit -> Mi6_core.Schedule.t QCheck.Gen.t

(** [sample ~seed ~count ()] — the deterministic schedule list the seed
    denotes; what [mi6_sim ni] fans out over its domain pool.  Raises
    [Invalid_argument] if [count < 0]. *)
val sample :
  ?variant:Mi6_core.Config.variant ->
  seed:int ->
  count:int ->
  unit ->
  Mi6_core.Schedule.t list

(** Candidate simplifications: drop a preemption point, halve or
    decrement an instruction/cycle index, replace an attacker with
    [Probe], shrink the body seed.  All strictly decrease {!measure}. *)
val shrink : Mi6_core.Schedule.t -> Mi6_core.Schedule.t list

(** Well-founded size used to prove shrink termination/monotonicity:
    lexicographic (point count, index sum, attacker ranks, body seed). *)
val measure : Mi6_core.Schedule.t -> int * int * int * int

(** [greedy_shrink ~falsifies s] — repeatedly take the first {!shrink}
    candidate that still falsifies, until none does.  [s] itself must
    falsify. *)
val greedy_shrink :
  falsifies:(Mi6_core.Schedule.t -> bool) ->
  Mi6_core.Schedule.t ->
  Mi6_core.Schedule.t

(** Arbitrary with {!Mi6_core.Schedule.to_string} printing and {!shrink}
    shrinking. *)
val arbitrary :
  ?variant:Mi6_core.Config.variant -> unit -> Mi6_core.Schedule.t QCheck.arbitrary

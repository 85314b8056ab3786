(** Uniform front for the two DRAM controller models, so the LLC is
    agnostic to which one is plugged in. *)

type req = { read : bool; line : int; tag : int }

type t

val constant :
  ?trace:Trace.t -> latency:int -> max_outstanding:int -> stats:Stats.t -> unit -> t

val reordering : ?trace:Trace.t -> Fr_fcfs.config -> stats:Stats.t -> t
val can_accept : t -> bool
val accept : t -> now:int -> req -> unit
val tick : t -> now:int -> respond:(tag:int -> line:int -> unit) -> unit
val outstanding : t -> int

(** Value snapshot of the constant-latency controller's state.  The
    reordering controller is never checkpointed: {!save} and {!restore}
    raise [Invalid_argument] on it. *)
type checkpoint

val save : t -> checkpoint
val restore : t -> checkpoint -> unit

(** [state t s] is the constant-latency controller's state fold (see
    {!Dram.state}); raises [Invalid_argument] on a reordering
    controller. *)
val state : t -> Statesig.acc -> unit

(** A complete coherent memory hierarchy: N private L1s, their links, the
    shared LLC, and a DRAM controller, advanced in lock-step.

    This is the substrate under the OoO cores in the full machine, and is
    also driven directly by request agents in the side-channel tests and
    examples: an agent issues line requests for its core and observes the
    exact cycle each completes — precisely the attacker's view in the
    paper's threat model. *)

type dram_kind =
  | Const_dram of { latency : int; max_outstanding : int }
  | Reorder_dram of Fr_fcfs.config

type t

val create :
  ?trace:Trace.t ->
  ?l1:L1.config ->
  llc:Llc.config ->
  security:Llc.security ->
  dram:dram_kind ->
  stats:Stats.t ->
  unit ->
  t

val now : t -> int
val l1 : t -> core:int -> L1.t
val llc : t -> Llc.t

(** [can_accept t ~core] — the core's L1 can take a request this cycle. *)
val can_accept : t -> core:int -> bool

(** [request t ~core ~line ~store ~id] issues an access.  Raises if the L1
    is not ready. *)
val request : t -> core:int -> line:int -> store:bool -> id:int -> unit

(** [tick t] advances one cycle (L1s, then LLC+DRAM). *)
val tick : t -> unit

(** [take_completions t ~core] drains (id, completion_cycle) pairs
    delivered since the last call, oldest first. *)
val take_completions : t -> core:int -> (int * int) list

(** [quiescent t] — no request in flight anywhere. *)
val quiescent : t -> bool

(** [run_until_quiescent t ~max_cycles] ticks until quiescent; returns
    cycles spent.  Raises [Failure] on timeout (deadlock detector for
    tests). *)
val run_until_quiescent : t -> max_cycles:int -> int

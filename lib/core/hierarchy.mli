(** The memory side of a machine, assembled from one {!Config.timing}:
    one L1 per LLC port, each on its own link, the shared LLC, and a
    DRAM controller, advanced in lock-step.

    Port [2i] is core [i]'s data L1, named ["l1d.i"], and port [2i + 1]
    its instruction L1, ["l1i.i"].  {!Tmachine} puts its cores on these
    ports; the side-channel experiments, tests and examples drive them
    directly as request agents, which issue line requests and observe
    the exact cycle each completes — precisely the attacker's view in
    the paper's threat model.  The [~core] argument of every function
    names a port. *)

type t

(** [create ?trace ?reorder timing ~stats] builds [timing]'s memory
    side: its L1 and LLC configurations and LLC security, and a
    constant-latency DRAM controller with [timing]'s latency and
    outstanding-request limit — or, given [reorder], an FR-FCFS
    controller instead (the DRAM-bank channel demonstration). *)
val create :
  ?trace:Trace.t ->
  ?reorder:Fr_fcfs.config ->
  Config.timing ->
  stats:Stats.t ->
  t

(** [connect t ~core f] sends the port's completed request ids to [f]
    (called during {!tick}, when {!now} is the completing cycle) instead
    of {!take_completions}. *)
val connect : t -> core:int -> (int -> unit) -> unit

val now : t -> int
val l1 : t -> core:int -> L1.t
val llc : t -> Llc.t

(** [can_accept t ~core] — the port's L1 can take a request this cycle. *)
val can_accept : t -> core:int -> bool

(** [request t ~core ~line ~store ~id] issues an access.  Raises if the L1
    is not ready. *)
val request : t -> core:int -> line:int -> store:bool -> id:int -> unit

(** [tick t] advances one cycle: the L1s in port order, then LLC+DRAM. *)
val tick : t -> unit

(** [tick_idle t] is [tick t] for a {!quiescent} hierarchy, at the cost
    of what such a tick does: the L1s and DRAM have nothing to do, and
    the LLC only its per-cycle accounting ({!Llc.tick_idle}). *)
val tick_idle : t -> unit

(** [take_completions t ~core] drains the (id, completion_cycle) pairs an
    unconnected port delivered since the last call, oldest first. *)
val take_completions : t -> core:int -> (int * int) list

(** [quiescent t] — no request in flight anywhere, no message on any
    link, and no L1 flushing. *)
val quiescent : t -> bool

(** [run_until_quiescent t ~max_cycles] ticks until quiescent; returns
    cycles spent.  Raises [Failure] on timeout (deadlock detector for
    tests). *)
val run_until_quiescent : t -> max_cycles:int -> int

(** Constant-latency DRAM controller (the paper's evaluation model:
    120-cycle latency, at most 24 outstanding requests, one accepted per
    cycle).

    Constant latency is a {e security requirement} for MI6: a reordering
    controller lets one protection domain's bank locality change another
    domain's timing (Section 5.2, "DRAM Controller Latency").  The
    contrasting reordering controller lives in {!Fr_fcfs}.

    Reads produce a response carrying the requester's tag; writebacks
    complete silently.  Responses are delivered at most one per cycle, in
    completion order — and since acceptance is one per cycle and latency is
    constant, responses never bunch up; the DRAM-response port needs no
    backpressure (Section 5.4.1).

    Requests in flight sit in an int {!Ring}, so accepting, completing
    and responding allocate nothing. *)

type t

val create :
  ?trace:Trace.t -> latency:int -> max_outstanding:int -> stats:Stats.t -> unit -> t

(** [can_accept t] — backpressure signal ([max_outstanding] reached or a
    request was already accepted this cycle). *)
val can_accept : t -> bool

(** [accept t ~now ~read ~line ~tag] takes a read (else a writeback) of
    [line]; a read's response carries [tag].  Raises [Failure] when
    [can_accept] is false. *)
val accept : t -> now:int -> read:bool -> line:int -> tag:int -> unit

(** [tick t ~now ~respond] must be called once per cycle {e after} any
    [accept] for that cycle; delivers at most one read response. *)
val tick : t -> now:int -> respond:(tag:int -> line:int -> unit) -> unit

val outstanding : t -> int

(** [state t s] walks the in-flight queue through {!Mi6_util.Statesig}:
    the quiet-cycle signature and the labelled dump both come from it. *)
val state : t -> Statesig.acc -> unit

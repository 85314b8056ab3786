(** Bounded FIFO queues with hardware-style backpressure semantics.

    Every queue in the simulated memory hierarchy (the three FIFOs of a
    core-to-LLC link, the LLC's UQ and DQ, DRAM request queues, ...) is a
    fixed-capacity circular buffer.  [enq] on a full queue and [deq] on an
    empty queue are programming errors (hardware would never fire the rule);
    callers must test [can_enq] / [can_deq] first, which is exactly how the
    cycle models express backpressure. *)

type 'a t

(** [create ~capacity] is an empty queue holding at most [capacity]
    elements.  Raises [Invalid_argument] if [capacity <= 0]. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

(** [can_enq q] is [not (is_full q)]: the queue accepts an element this
    cycle. *)
val can_enq : 'a t -> bool

(** [can_deq q] is [not (is_empty q)]. *)
val can_deq : 'a t -> bool

(** [enq q x] appends [x].  Raises [Failure] if the queue is full. *)
val enq : 'a t -> 'a -> unit

(** [deq q] removes and returns the oldest element.  Raises [Failure] if the
    queue is empty. *)
val deq : 'a t -> 'a

(** [peek q] is the oldest element without removing it. *)
val peek : 'a t -> 'a

(** [peek_opt q] is [Some (peek q)] or [None] on an empty queue. *)
val peek_opt : 'a t -> 'a option

(** [clear q] empties the queue (used by purge). *)
val clear : 'a t -> unit

(** [iter f q] applies [f] to each element, oldest first. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [to_list q] lists elements oldest-first. *)
val to_list : 'a t -> 'a list

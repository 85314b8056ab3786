(** Bounded FIFO queues of fixed-width int records in one circular int
    array: the one queue type of the cycle models.

    Every hardware queue the simulator keeps holds a few ints per entry:
    the three FIFOs of a core-to-LLC link (Figure 1), the LLC's pipeline
    and its retry, UQ and DQ queues (Figure 3), the constant-latency DRAM
    controller's requests in flight, the FR-FCFS controller's responses,
    the L1s' input and completions, and the core's free list and
    store-buffer drain order.  Storing them flat makes [push] and [pop]
    allocation-free, unlike [Queue] cells holding records.  Pushing onto
    a full ring or dropping from an empty one raises: hardware never
    fires such a rule, so callers test the length first, which is how
    the cycle models express backpressure.  Record [i] counts from the
    oldest ([i = 0]); field [k] is in [0, width). *)

(** The record is exposed read-only so that a per-cycle test of a ring's
    length compiles to a field load ([q.Ring.len = 0]): the build's dev
    profile passes [-opaque], which keeps every call across modules,
    {!is_empty} included, out of line.  [buf] holds [cap] records of
    [width] ints, the oldest at record slot [head]. *)
type t = private {
  width : int;
  mutable buf : int array;
  mutable cap : int;
  mutable head : int;
  mutable len : int;
}

(** [create ?width capacity] is an empty ring of [capacity] records of
    [width] ints each (default 1).  Raises [Invalid_argument] unless both
    are positive. *)
val create : ?width:int -> int -> t

val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

(** [get r i k] is field [k] of the [i]th oldest record. *)
val get : t -> int -> int -> int

(** [peek r k] is field [k] of the oldest record.  Raises [Failure] when
    the ring is empty. *)
val peek : t -> int -> int

(** [push r a] appends the one-field record [a]; [push2], [push3] and
    [push4] append two-, three- and four-field records.  Raise [Failure]
    when the ring is full. *)
val push : t -> int -> unit

val push2 : t -> int -> int -> unit
val push3 : t -> int -> int -> int -> unit
val push4 : t -> int -> int -> int -> int -> unit

(** [drop r] removes the oldest record.  Raises [Failure] when empty. *)
val drop : t -> unit

(** [pop r] is field 0 of the oldest record, which it removes. *)
val pop : t -> int

(** [grow r] doubles the capacity, keeping the records in order. *)
val grow : t -> unit

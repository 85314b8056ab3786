(** FIFO queues of fixed-width int records in one circular int array.

    The per-cycle queues of the core and the L1s (free list, store-buffer
    drain order, cache input and completions) hold a few ints per entry.
    Storing them flat makes [push] and [pop] allocation-free, unlike
    [Queue] cells or [Fifo] slots holding records.  Record [i] counts from
    the oldest ([i = 0]); field [k] is in [0, width). *)

type t

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

(** [push r a] appends the one-field record [a]; [push2] and [push3]
    append two- and three-field records.  Raise [Failure] when the ring is
    full. *)
val push : t -> int -> unit

val push2 : t -> int -> int -> unit
val push3 : t -> int -> int -> int -> unit

(** [drop r] removes the oldest record.  Raises [Failure] when empty. *)
val drop : t -> unit

(** [pop r] is field 0 of the oldest record, which it removes. *)
val pop : t -> int

(** [grow r] doubles the capacity, keeping the records in order. *)
val grow : t -> unit

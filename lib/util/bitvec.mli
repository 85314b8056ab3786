(** Fixed-width mutable bit vectors.

    Used for the per-core machine-mode DRAM-region permission vector
    (Section 5.3 of the paper: one bit per DRAM region) and for directory
    sharer sets in the coherence protocol. *)

type t

(** [create n] is an [n]-bit vector with all bits clear. *)
val create : int -> t

(** [create_full n] is an [n]-bit vector with all bits set. *)
val create_full : int -> t

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

(** [set_all v] / [clear_all v] set or clear every bit. *)
val set_all : t -> unit

val clear_all : t -> unit

(** [popcount v] is the number of set bits. *)
val popcount : t -> int

(** [is_empty v] holds when no bit is set. *)
val is_empty : t -> bool

(** [disjoint a b] holds when no bit is set in both vectors.  Raises
    [Invalid_argument] on width mismatch.  The security monitor uses this to
    verify non-overlapping enclave resource allocations. *)
val disjoint : t -> t -> bool

(** [copy v] is an independent copy. *)
val copy : t -> t

(** [equal a b] is structural equality. *)
val equal : t -> t -> bool

(** [iter_set f v] applies [f] to the index of every set bit, ascending. *)
val iter_set : (int -> unit) -> t -> unit

(** [of_indices n idxs] is an [n]-bit vector with exactly the bits in
    [idxs] set. *)
val of_indices : int -> int list -> t

(** [to_indices v] lists the set bit indices, ascending. *)
val to_indices : t -> int list

val pp : Format.formatter -> t -> unit

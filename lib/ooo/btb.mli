(** Branch target buffer: 256-entry direct-mapped (Figure 4).

    Deeply stateful and program-dependent, so purge resets it
    ({!flush}). *)

type t

val create : ?entries:int -> unit -> t

(** [predict t ~pc] is the cached target for a control instruction, or
    -1 when there is none (targets are non-negative addresses, and the
    fetch path allocates no option per branch). *)
val predict : t -> pc:int -> int

(** [update t ~pc ~target] installs/overwrites the mapping. *)
val update : t -> pc:int -> target:int -> unit

val flush : t -> unit

(** [occupancy t] — valid entries (tests). *)
val occupancy : t -> int

(** Save/restore (see {!Tournament.snapshot}). *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

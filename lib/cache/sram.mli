(** Set-associative tag array, shared by the L1s, the LLC, and the TLBs.
    Data contents are not modeled (the timing model tracks state, not
    values), and neither is per-line metadata: the tags of every (set,
    way) sit in one flat int array at [slot = set * ways + way], and a
    cache keeps its line state (MSI state, directory owner, sharers,
    dirty bit) in arrays or byte strings of its own indexed by the same
    slot.  Tags are non-negative (line numbers, virtual pages); no call
    allocates or returns an option. *)

type t

val create : sets:int -> ways:int -> t
val sets : t -> int

(** [slot t ~set ~way] is [set * ways + way], the index of the way in
    the tag array and in its owner's line-state arrays.  Raises
    [Invalid_argument] when [set] or [way] is out of range. *)
val slot : t -> set:int -> way:int -> int

(** [find t ~set ~tag] is the way holding a valid line tagged [tag], or
    [-1]. *)
val find : t -> set:int -> tag:int -> int

(** [valid t ~set ~way] — the way holds a line. *)
val valid : t -> set:int -> way:int -> bool

(** [tag t ~set ~way] is the tag of a valid way; raises
    [Invalid_argument] if the way is invalid. *)
val tag : t -> set:int -> way:int -> int

(** [fill t ~set ~way ~tag] installs a line (overwrites); raises
    [Invalid_argument] on a negative tag. *)
val fill : t -> set:int -> way:int -> tag:int -> unit

val invalidate : t -> set:int -> way:int -> unit

(** [clear t] invalidates every way at once (one [Array.fill]). *)
val clear : t -> unit

(** [next_valid t ~from] is the lowest slot at or after [from >= 0]
    that holds a valid line, or [-1]: a scan in slot order,
    [set * ways + way]. *)
val next_valid : t -> from:int -> int

(** [invalid_way t ~set] is the lowest invalid way, or [-1]. *)
val invalid_way : t -> set:int -> int

val count_valid : t -> int

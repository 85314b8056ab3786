(** Return address stack: 8 entries (Figure 4), circular, no
    under/overflow checks (mispredicts on wrap, like hardware). *)

type t

val create : ?entries:int -> unit -> t
val push : t -> int -> unit

(** [pop t] is the predicted return address (0 when empty-ish). *)
val pop : t -> int

val flush : t -> unit
val depth : t -> int

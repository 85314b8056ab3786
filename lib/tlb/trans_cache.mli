(** Translation cache: fully associative cache of intermediate page-walk
    steps (Figure 4: 24 entries per intermediate translation step), letting
    the walker skip upper page-table levels. *)

type t

(** [create ~entries_per_level ~levels] — RiscyOO: 24 entries, 2
    intermediate levels (root and mid). *)
val create : entries_per_level:int -> levels:int -> t

(** [lookup t ~level ~prefix] — can the walker skip to [level]?  Touches
    LRU on hit. *)
val lookup : t -> level:int -> prefix:int -> bool

val insert : t -> level:int -> prefix:int -> unit

(** [flush t] — purge support; one cycle (small FA structure). *)
val flush : t -> unit

val occupancy : t -> int

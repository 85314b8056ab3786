(** TLB timing structure: set-associative (or fully associative with
    [sets = 1]) with LRU replacement, tracking which virtual pages have
    cached translations.  Timing-only — the functional simulator holds the
    actual translations.

    Purge (paper Sections 6 and 7.1): L1 TLBs are fully associative and
    flush in one cycle; the L2 TLB discards one set per cycle
    ([flush_set]).  RiscyOO's LRU is {e self-cleaning}: once all lines of a
    set are invalid, fills proceed in a predefined order, so invalidation
    alone scrubs the replacement metadata — [lru_signature] lets tests
    verify that. *)

type config = { sets : int; ways : int }

(** Figure 4: 32-entry fully associative L1 TLBs. *)
val l1_config : config

(** Figure 4: 1024-entry 4-way L2 TLB. *)
val l2_config : config

type t

val create : config -> t
val sets : t -> int

(** [lookup t ~vpage] — hit (touches LRU) or miss. *)
val lookup : t -> vpage:int -> bool

(** [insert t ~vpage] fills the translation, evicting LRU if needed. *)
val insert : t -> vpage:int -> unit

(** [flush_all t] invalidates everything at once (L1 TLBs). *)
val flush_all : t -> unit

(** [flush_set t ~set] invalidates one set (L2 TLB: one set per cycle). *)
val flush_set : t -> set:int -> unit

val occupancy : t -> int

(** [lru_signature t] hashes the replacement metadata of {e invalid} state:
    after a full flush the signature equals that of a fresh TLB. *)
val lru_signature : t -> int

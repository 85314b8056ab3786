(** Replacement policies.

    The purge analysis in Section 6 of the paper distinguishes policies by
    how much program-dependent state they carry:
    - RiscyOO's caches use {e pseudo-random} replacement, which keeps no
      per-line state; purge only needs to reseed nothing (the LFSR-style
      stream is program-independent here because it advances per
      replacement {e decision}, which the purge resets).
    - TLBs use {e LRU}, whose per-set ordering is program-dependent and is
      "self-cleaning": invalidating all lines of a set makes fills follow a
      predefined order, scrubbing the replacement metadata. *)

type t

val pseudo_random : ways:int -> sets:int -> seed:int -> t
val lru : ways:int -> sets:int -> t

(** [victim t ~set ~invalid_way] picks the way to replace: an invalid way
    when one exists, otherwise by policy. *)
val victim : t -> set:int -> invalid_way:int option -> int

(** [touch t ~set ~way] records a use (LRU bookkeeping; no-op for random). *)
val touch : t -> set:int -> way:int -> unit

(** [scrub t] erases all program-dependent policy state: resets LRU orders
    to the fill order and reseeds the pseudo-random stream to its public
    initial value.  Called by purge. *)
val scrub : t -> unit

(** [state_signature t] is a hash of the internal policy state, used by
    tests to check that purge leaves the policy in a canonical public
    state. *)
val state_signature : t -> int

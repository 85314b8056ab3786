(** Fixed-size domain pool with deterministic fan-in.

    A pool owns [domains - 1] worker domains (the caller participates as the
    final worker while a job is in flight), created once and reused across
    jobs, so repeated sweeps pay the domain-spawn cost only once.  Work is
    handed out as integer shard indices [0 .. n-1] drawn from a shared atomic
    cursor; results land in a caller-side array slot per index, so the output
    order is the input order no matter which domain ran which shard.

    With [domains <= 1] the pool spawns nothing and [map] degrades to a plain
    serial loop on the calling domain — this is the reproducibility fallback
    used by [dune runtest], where no [Domain.spawn] must happen.

    The functions passed to [map] must not share mutable state across shards
    unless that state is itself domain-safe; the simulator jobs built on top
    of this pool allocate all of their state per shard. *)

type t

val create : domains:int -> t
(** [create ~domains] makes a pool that runs jobs on [max domains 1]
    domains in total (including the caller).  It returns once every
    worker domain has started, so a signal handler installed afterwards
    never runs on a half-initialised domain. *)

val domains : t -> int
(** Number of domains that participate in a job, including the caller. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [[| f 0; ...; f (n-1) |]].  Shards run concurrently
    on the pool's domains; the result array is always in index order.  If any
    shard raises, [map] re-raises the first exception recorded (by shard
    index) after all in-flight shards have drained. *)

val run_list : t -> 'a list -> ('a -> 'b) -> 'b list
(** [run_list t xs f] is [map] over a list, preserving order. *)

val shutdown : t -> unit
(** Join all worker domains.  The pool must not be used afterwards.
    Idempotent. *)

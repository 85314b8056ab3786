(** Log2-bucketed distributions of non-negative integer samples (latencies,
    occupancies, retry counts).

    Bucket 0 holds the value 0; bucket [i >= 1] holds values in
    [[2^(i-1), 2^i)].  Adding a sample is a handful of integer ops, cheap
    enough to leave enabled on the simulator's hot paths. *)

type t

val create : unit -> t

(** [add t v] records one sample.  Negative values clamp to 0. *)
val add : t -> int -> unit

val count : t -> int
val sum : t -> int

(** [min t] / [max t] are the extreme recorded samples; 0 when empty. *)
val min : t -> int

val max : t -> int

(** [mean t] is 0.0 when empty. *)
val mean : t -> float

(** Number of log2 buckets (bucket 0 holds exactly [{0}]; bucket [i]
    holds [[2^(i-1), 2^i)]). *)
val nbuckets : int

(** [bucket_of v] is the bucket index a sample lands in. *)
val bucket_of : int -> int

(** [bucket_lo i] / [bucket_hi i] are the inclusive bounds of bucket [i]. *)
val bucket_lo : int -> int

val bucket_hi : int -> int

(** [quantile t q] (with [0 < q <= 1]) is an upper bound for the
    [q]-quantile sample: the smaller of the holding bucket's inclusive
    upper bound and the recorded maximum.  0 when the histogram is
    empty. *)
val quantile : t -> float -> int

val p50 : t -> int
val p95 : t -> int
val p99 : t -> int

(** [buckets t] lists the non-empty buckets as [(lo, hi, count)],
    ascending. *)
val buckets : t -> (int * int * int) list

val reset : t -> unit

(** [merge ~into src] adds [src]'s buckets and totals into [into]. *)
val merge : into:t -> t -> unit

(** One-line summary: [n=… mean=… p50=… p95=… p99=… max=…]. *)
val pp : Format.formatter -> t -> unit

(** Summary as a JSON object (count/sum/mean/min/max/p50/p95/p99 and the
    non-empty buckets). *)
val to_json : t -> Json.t

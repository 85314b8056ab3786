(** Named counters and simple summary statistics for simulator runs.

    Each simulated component owns a [t]; the benchmark harness reads the
    counters back to compute the paper's metrics (instructions, cycles,
    misses per kilo-instruction, stall fractions).  Components resolve a
    {!counter} handle per name once, when they are created, and {!bump}
    it on their tick paths, so a simulated cycle never hashes a name.

    A counter exists (shows in {!names}, {!to_assoc}, {!copy}, ...) once
    it has been written: bumped, or touched by [incr], [add] or [set].
    Resolving a handle alone leaves the table's contents unchanged. *)

type t

val create : unit -> t

(** A handle on one named counter of one table. *)
type counter

(** [counter t name] resolves [name]'s handle.  The handle stays bound
    to [t] across {!reset}. *)
val counter : t -> string -> counter

(** [bump c] adds one to the handle's counter. *)
val bump : counter -> unit

(** [incr t name] adds one to counter [name], creating it at zero first. *)
val incr : t -> string -> unit

(** [add t name k] adds [k]. *)
val add : t -> string -> int -> unit

(** [get t name] is the current value, 0 if never touched. *)
val get : t -> string -> int

(** [set t name v] overwrites the counter. *)
val set : t -> string -> int -> unit

(** [reset t] zeroes every counter. *)
val reset : t -> unit

(** [names t] is the sorted list of counter names. *)
val names : t -> string list

(** [per_kilo t ~num ~den] is [1000 * num / den] as a float, 0 when the
    denominator counter is zero — the paper's "per thousand instructions"
    metric. *)
val per_kilo : t -> num:string -> den:string -> float

(** [merge ~into src] adds every counter of [src] into [into]. *)
val merge : into:t -> t -> unit

(** [copy t] is an independent snapshot. *)
val copy : t -> t

(** [diff t ~baseline] is a new table holding [t - baseline] per counter
    (counters absent from [baseline] count from zero). *)
val diff : t -> baseline:t -> t

(** [to_assoc t] is every counter as [(name, value)], sorted by name —
    the one-call accessor for exporters (no [names]+[get] pairing). *)
val to_assoc : t -> (string * int) list

(** Aligned two-column dump; the name column is sized to the longest
    counter name. *)
val pp : Format.formatter -> t -> unit

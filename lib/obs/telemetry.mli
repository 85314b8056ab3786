(** Streaming JSONL telemetry snapshots.

    One schema-versioned JSON object per line, emitted every [every]
    machine cycles while a run is in progress: counter deltas since the
    previous snapshot, cumulative occupancy / quiet-cycle summaries, and
    (unless deterministic) a [host] section with wall-clock time and
    simulated kilocycles per host second ([kcps]).  [mi6_sim top]
    renders a live table from the stream; [json_check --telemetry]
    validates one.

    {b Schema version policy} ([schema] field, currently
    ["mi6.telemetry/2"]): adding fields is backward-compatible and keeps
    the version; removing or re-typing a field bumps it.  Consumers must
    ignore unknown fields and reject unknown versions.

    Deterministic mode omits every host-time-derived field, so two runs
    of the same cell produce byte-identical streams — the sweep uses it
    to keep per-cell telemetry files independent of [--jobs]. *)

val schema_version : string

type t

(** Disabled: [maybe_emit] is one branch. *)
val null : t

(** [create ~every ~path ()] opens [path] (truncating) and snapshots
    every [every] cycles.  [deterministic] (default false) omits the
    [host] section. *)
val create : ?deterministic:bool -> every:int -> path:string -> unit -> t

val enabled : t -> bool
val every : t -> int

(** Snapshots emitted so far. *)
val snapshots : t -> int

(** [maybe_emit t ~cycle ...] emits a snapshot when [cycle] is a nonzero
    multiple of [every]; [counters] is forced only then (pass the full
    sorted counter view, e.g. [Stats.to_assoc]). *)
val maybe_emit :
  t ->
  cycle:int ->
  instrs:int ->
  counters:(unit -> (string * int) list) ->
  occupancy:Occupancy.t ->
  unit

(** Flushes and closes the stream (no final snapshot). *)
val close : t -> unit

(** [validate_snapshot ?expect_seq j] — schema, required fields, and
    (when given) the expected sequence number. *)
val validate_snapshot : ?expect_seq:int -> Json.t -> (unit, string) result

(** [validate_file ~path] — every line parses and validates, [seq] is
    dense from 0, cycles strictly increase.  Returns the snapshot
    count. *)
val validate_file : path:string -> (int, string) result

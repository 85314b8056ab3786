(** Domain-parallel sweeps over the (variant × bench × seed) grid with a
    deterministic fan-in.

    A sweep enumerates its cells in canonical order (bench name, then
    variant name, then seed), fans them out over a {!Pool} — each cell
    runs a fully isolated simulator instance with its own [Stats] /
    [Metrics] / stream state — and reduces the per-cell registries by
    folding {!Mi6_obs.Metrics.merge} in that same canonical order.  The
    result (and so {!to_json}) is byte-identical no matter how many
    domains ran the cells, which is what the serial-vs-parallel CI gate
    checks. *)

module Config = Mi6_core.Config
module Spec = Mi6_workload.Spec

type cell = { variant : Config.variant; bench : Spec.bench; seed : int }

(** [wall_s] is the host seconds the cell took inside its pool job. *)
type outcome = {
  cell : cell;
  result : Mi6_core.Tmachine.result;
  wall_s : float;
}

(** [cells ~variants ~benches ~seeds] is the full grid in canonical
    order: benches by {!Spec.name}, variants by {!Config.variant_name},
    seeds [0 .. seeds-1], seed fastest.  Duplicates in the inputs are
    dropped.  [seeds] defaults to 1 (the canonical stream only). *)
val cells :
  ?seeds:int -> variants:Config.variant list -> benches:Spec.bench list ->
  unit -> cell list

(** ["bench/variant"] or ["bench/variant#seed"] for nonzero seeds. *)
val cell_name : cell -> string

(** [run pool ~warmup ~measure cells] runs every cell (in parallel when
    the pool has more than one domain) and returns outcomes in the given
    cell order.  [cells] may be any list, not only a {!cells} grid.

    [telemetry] (a base path) streams one deterministic-mode
    {!Mi6_obs.Telemetry} JSONL file per cell to
    [base ^ "#" ^ cell_name] (with ['/'] flattened to ['_']), a snapshot
    every [telemetry_every] cycles (default 10000).  Deterministic mode
    omits host-derived fields, so the file set is byte-identical for
    every pool size. *)
val run :
  Pool.t ->
  ?telemetry:string ->
  ?telemetry_every:int ->
  warmup:int ->
  measure:int ->
  cell list ->
  outcome list

(** The per-cell telemetry file path [run] derives from [base]. *)
val telemetry_path : base:string -> cell -> string

(** Fold every outcome's registry into a fresh accumulator registry, in
    list order.  Counter sums commute, so any permutation of the same
    outcomes exports identically. *)
val merged_metrics : outcome list -> Mi6_obs.Metrics.t

(** Full sweep snapshot: sweep parameters, one compact row per cell
    (bench / variant / seed / cycles / instrs / ipc / llc_mpki), and the
    merged registry.  Deliberately excludes wall-clock time and job
    count, so serial and parallel runs serialize to the same bytes. *)
val to_json : warmup:int -> measure:int -> outcome list -> Mi6_obs.Json.t

(** One {!Mi6_obs.Perfdb} record per outcome (bench names gain a
    ["#seed"] suffix for nonzero seeds), for the cross-run history.
    Records carry no host section: a cell's [wall_s] depends on the
    pool size and host load; callers that want one attach it. *)
val to_perfdb_records :
  run_id:string -> commit:string -> outcome list -> Mi6_obs.Perfdb.record list

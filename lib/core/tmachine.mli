(** The timing machine: OoO cores (each with private L1 I/D, TLBs, and
    walker) around the shared LLC and DRAM controller, advanced in
    lock-step — plus the experiment runner used by the benchmark harness
    to reproduce the paper's Figures 5-13.

    The evaluation methodology mirrors the paper's: each SPEC model runs
    alone on one core of a variant machine (Section 7 approximated its
    16-core conclusions the same way on a single FPGA core), with a warmup
    window excluded from measurement. *)

type t

(** Cores a machine can have: core [i] owns its own block of DRAM
    regions ([8i+1] to [8i+7] of {!Mi6_mem.Addr.default_regions}), and
    the 64 default regions hold 8 blocks. *)
val max_cores : int

(** [create ?trace timing ~streams ~stats] builds a machine with one core
    per stream; core [i] pulls its µops straight from [streams.(i)].
    Raises [Invalid_argument] with more than {!max_cores} streams.
    Nothing rewinds a machine: the simulator is deterministic, so a run
    is reproduced by building a fresh machine from the same inputs.
    [trace] (default {!Trace.null}) is shared by every
    component for cycle-stamped event capture; [occupancy] samples
    structure occupancy and classifies quiet cycles, [telemetry] streams
    periodic JSONL snapshots — each defaults to its disabled
    singleton. *)
val create :
  ?trace:Trace.t ->
  ?occupancy:Occupancy.t ->
  ?telemetry:Telemetry.t ->
  Config.timing ->
  streams:(unit -> Uop.t option) array ->
  stats:Stats.t ->
  t

val tick : t -> unit
val now : t -> int
val core : t -> int -> Core.t
val finished : t -> bool

(** Committed instructions summed over all cores. *)
val committed : t -> int

(** The machine's state folds, one per component, labelled ["core0"],
    ["l1d.0"], ["l1i.0"], …, ["llc"] (cores cover their walkers; the LLC
    covers the links and the DRAM controller).  Bisect hashes them per
    section every cycle to find and name the diverging component, and
    renders them for slice reports. *)
val sections : t -> (string * (Mi6_util.Statesig.acc -> unit)) list

(** [structural_signature t] hashes every section in order
    ({!Mi6_util.Statesig.hash}); two consecutive cycles with equal
    signatures advanced nothing but the clock (the quiet-cycle
    criterion). *)
val structural_signature : t -> int

(** [dump_state t] renders every section, one line each; the
    quiet-cycle property test byte-compares consecutive dumps as the
    oracle, and the determinism property compares two fresh machines'
    dumps after every tick. *)
val dump_state : t -> string

(** [run t ~max_cycles] ticks until every core finishes; returns cycles.
    Raises [Failure] on timeout. *)
val run : t -> max_cycles:int -> int

(** Result of a measured single-core run. *)
type result = {
  cycles : int;  (** measured-window cycles *)
  ticked : int;  (** cycles the machine ran, warmup included *)
  instrs : int;  (** measured-window committed instructions *)
  stats : Stats.t;  (** measured-window counter deltas *)
  metrics : Metrics.t;
      (** full-machine registry: the counter table plus per-core load/
          purge/walk, per-L1 miss-latency, and LLC-occupancy histograms,
          and the trace-ring gauges [trace.events] /
          [trace.dropped_events] (nonzero drops invalidate
          timeline-equality analyses) *)
}

val ipc : result -> float

(** [mpki result counter] — events per kilo-instruction in the window. *)
val mpki : result -> string -> float

(** [run_spec ~variant ~bench ~warmup ~measure] runs a SPEC model on a
    variant machine: [warmup] µops untimed, then [measure] µops
    measured.  [seed] (default 0) is a deterministic offset on the
    bench's canonical stream seed: 0 is the canonical stream, any other
    value a reproducible perturbation — sweep cells use it to sample
    independent streams of the same model. *)
val run_spec :
  ?trace:Trace.t ->
  ?occupancy:Occupancy.t ->
  ?telemetry:Telemetry.t ->
  ?seed:int ->
  variant:Config.variant ->
  bench:Mi6_workload.Spec.bench ->
  warmup:int ->
  measure:int ->
  unit ->
  result

(** [spec_stream ?seed ~core ~bench ~limit ()] — the µop stream
    [run_spec] drives: [bench]'s synthetic model confined to [core]'s
    region block, ending after [limit] µops; raises [Invalid_argument]
    when [core >= max_cores].  Exposed for tests that
    need to drive {!create}/{!tick} directly. *)
val spec_stream :
  ?seed:int ->
  core:int ->
  bench:Mi6_workload.Spec.bench ->
  limit:int ->
  unit ->
  unit ->
  Uop.t option

(** [run_stream ~timing ~stream ~warmup] — same measurement protocol
    for an arbitrary µop stream (ablations, tests): [warmup] µops
    untimed, then a measured window that the stream's own end closes
    (a stream of [warmup + measure] µops measures [measure]). *)
val run_stream :
  ?trace:Trace.t ->
  ?occupancy:Occupancy.t ->
  ?telemetry:Telemetry.t ->
  timing:Config.timing ->
  stream:(unit -> Uop.t option) ->
  warmup:int ->
  unit ->
  result

(** [run_multi ~timing ~benches ~warmup ~measure] — a multiprogrammed
    multiprocessor run: one SPEC model per core, each confined to its own
    disjoint block of DRAM regions (code, data, kernel, and page tables
    all private).  Per-core measured windows are cut when that core passes
    its own warmup / measure instruction counts.  This is the evaluation
    the paper calls ideal but could not fit on one FPGA (Section 7.2).
    The shared [stats] table is returned in each result (counters are
    machine-wide). *)
val run_multi :
  ?trace:Trace.t ->
  ?occupancy:Occupancy.t ->
  ?telemetry:Telemetry.t ->
  timing:Config.timing ->
  benches:Mi6_workload.Spec.bench array ->
  warmup:int ->
  measure:int ->
  unit ->
  result array

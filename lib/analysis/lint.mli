(** Static linter for the paper's hardware structural invariants.

    The dynamic machinery (lib/obs Audit, Noninterference, Difftest)
    demonstrates timing independence {e after} simulating; these checks
    validate a machine configuration {e before} a single cycle runs:

    - {b MSHR sizing} (Section 5.1): the LLC must never have more
      outstanding misses than the DRAM controller can sink without
      reordering across security domains — [#MSHR <= d_max / 2];
    - {b LLC set partitioning} (Sections 5.2, 7.2): the index function
      must split the sets into at least two disjoint region classes that
      tile the whole cache, so no two differently-classed DRAM regions
      can evict each other's lines;
    - {b MSHR partitioning and the Figure 3 structures}: every
      timing-independence knob of the secure LLC must be on, and
      statically partitioned MSHRs must divide evenly among ports;
    - {b purge coverage} (Sections 6, 7.1): the core must purge on trap
      boundaries, and [purge_floor] must cover the slowest per-core
      structure at its hardware flush rate (the catalog below mirrors
      Figure 4's structure sizes);
    - {b DRAM-region ownership} (Section 6.1): region permission masks of
      distinct protection domains must be pairwise disjoint and cover
      every region exactly once, with region 0 held by the monitor.

    All entry points are pure: they inspect configuration values and
    never construct a simulator. *)

type finding = {
  check : string;  (** stable check identifier, e.g. ["mshr-vs-dram"] *)
  subject : string;  (** what was linted, e.g. a config or witness name *)
  message : string;
}

(** Per-core stateful structures and how a purge covers them: either
    drained during quiesce or flushed at [rate] entries/cycle. *)
type coverage = Drained | Flushed of { entries : int; rate : int }

type structure = { s_name : string; s_coverage : coverage }

(** The purge list for a core+L1 configuration.  Exposed so tests can
    assert the catalog stays in sync with Figure 4. *)
val purge_list : core:Core_config.t -> l1:L1.config -> structure list

(** Cycles the slowest flushed structure needs — the lower bound
    [purge_floor] must meet. *)
val required_purge_floor : core:Core_config.t -> l1:L1.config -> int

(** [lint_timing ~name t] checks a machine configuration that claims to
    be secure.  [name] labels findings (a variant name such as
    ["MI6"]). *)
val lint_timing :
  ?geometry:Addr.regions -> name:string -> Config.timing -> finding list

(** [lint_partitions ~geometry ~name idx] — just the set-partition
    disjointness/tiling check for an index function (sampled
    exhaustively over line numbers of every region). *)
val lint_partitions :
  geometry:Addr.regions -> name:string -> Index.t -> finding list

(** [lint_region_masks ~subject masks] — pairwise Bitvec disjointness of
    labelled permission masks, flagging the first shared region of any
    overlapping pair. *)
val lint_region_masks :
  subject:string -> (string * Bitvec.t) list -> finding list

(** [lint_ledger ledger] — monitor invariants over a DRAM-region
    ownership ledger: region 0 belongs to the monitor; every region has
    an owner; per-owner masks are pairwise disjoint and tile DRAM.
    Declared read shares ({!Region.share}) are admitted — access masks
    may overlap exactly on shared regions — but a grant on the monitor's
    region 0 is flagged ([shared-monitor-region]). *)
val lint_ledger : Region.t -> finding list

val pp_finding : Format.formatter -> finding -> unit
val finding_to_json : finding -> Json.t

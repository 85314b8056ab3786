(** Structure-occupancy sampling and the quiet-cycle detector.

    The machine calls {!sample} once per cycle with each structure's
    current occupancy (log2-histogrammed) and {!note_cycle} with its
    structural signature plus the cycle's CPI-stack attribution.  The
    signature is the hash reading of the components' state folds (see
    {!Mi6_util.Statesig}); the labelled dump the quiet-cycle oracle
    compares is the render reading of the same folds.  A cycle whose signature equals the previous
    cycle's mutated no structure — nothing but the clock advanced — and
    counts as {e quiet}, i.e. fast-forwardable by an event-driven core.
    Quiet counts are kept per stall cause so the fast-forward payoff can
    be attributed (purge and LLC/DRAM stalls are mostly quiet; commit
    cycles never are).

    Excluded from "structure", and so from both the signature and the
    dump (they only ever change in cycles that also move a queue or a
    state machine): branch predictors, TLB/translation-cache contents and
    LRU, cache data arrays and replacement metadata, physical-register
    scoreboards, and all observability state (stats, histograms, trace
    rings).

    The disabled singleton {!null} makes every probe one branch. *)

type t

val null : t
val create : unit -> t
val enabled : t -> bool

(** One occupancy sample per structure, called once per machine cycle. *)
val sample :
  t -> rob:int -> iq:int -> lq:int -> sq:int -> sb:int -> mshr:int -> unit

(** [note_cycle t ~signature ~cause] classifies the just-finished cycle.
    [cause] indexes {!Cpistack.categories} (out-of-range values count as
    ["other"]). *)
val note_cycle : t -> signature:int -> cause:int -> unit

val cycles : t -> int
val quiet_cycles : t -> int
val quiet_fraction : t -> float

(** [(cause, quiet, total)] per cause seen at least once,
    {!Cpistack.categories} order. *)
val by_cause : t -> (string * int * int) list

(** Register the occupancy histograms ([occupancy.*]) and quiet-cycle
    gauges ([quiet.*]) into a metrics registry. *)
val register : t -> Metrics.t -> unit

val to_json : t -> Json.t

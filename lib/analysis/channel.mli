(** Lowering taint findings to microarchitectural channels — the bridge
    between the static analyzer's vocabulary ({!Taint.kind}) and the
    dynamic {!Mi6_obs.Audit}'s (which LLC structure first shows the
    divergence).

    {!infer} answers "through which hardware structures {e can} this
    finding leak", resolving the finding's address value set against the
    machine's geometry: an access confined to a single cache line cannot
    signal through the set index, one confined to a single page cannot
    signal through the walker.  {!closes} answers "does {e this}
    configuration close that channel" from the same {!Mi6_core.Config}
    the dynamic machine runs: a channel that a {!Lint.lint_timing}
    finding leaves open ({!of_lint_check}) is open, and the set-index
    probe and flush-on-trap decide the rest.  {!open_channels} combines
    the two (a speculative memory finding dies entirely under NONSPEC,
    which never issues a wrong-path memory access).

    The type extends the Audit vocabulary with the two front-end
    predictor channels ([Btb], [Rsb]) that the dynamic audit cannot
    localize (predictors are per-core state, not observable LLC
    traffic) but the static side can name for [jalr]/[ret] findings. *)

type t =
  | Arbiter  (** LLC input arbitration slot *)
  | Mshr  (** LLC miss-status registers *)
  | Uq_dq  (** LLC upgrade/DRAM queues *)
  | Dram  (** DRAM controller scheduling *)
  | Cache  (** LLC set index (evictions) *)
  | Walk  (** page-table walker traffic *)
  | Purge  (** purge timing *)
  | Btb  (** branch target buffer (front end) *)
  | Rsb  (** return stack buffer (front end) *)

val all : t list

(** Audit names for the shared channels ("llc-mshr", "cache-fill", …)
    plus ["btb"] / ["rsb"]. *)
val name : t -> string

val of_name : string -> t option

(** [None] for the front-end channels the Audit cannot observe. *)
val to_audit : t -> Audit.channel option

(** [infer ~timing f] — the channels finding [f] can leak through on a
    machine with [timing]'s geometry, deduplicated, in {!all} order.
    Sound over-approximation: contains every channel the dynamic audit
    can localize this leak to. *)
val infer : timing:Config.timing -> Taint.finding -> t list

(** [closes ~timing ch] — does this configuration shut channel [ch]?
    Never for a channel a {!Lint.lint_timing} finding maps to.  Applying
    [~timing] runs the linter once (a few milliseconds), so apply it once
    and ask about many channels. *)
val closes : timing:Config.timing -> t -> bool

(** [infer] minus the channels [timing] closes; empty for speculative
    memory findings when [nonspec_mem] is set.  Like {!closes}, apply
    [~timing] once and reuse the function for every finding. *)
val open_channels : timing:Config.timing -> Taint.finding -> t list

(** Map a hardware-lint check identifier ({!Lint.finding}[.check]) to
    the channel left open when that check fails. *)
val of_lint_check : string -> t option

(** JSON array of channel names. *)
val to_json : t list -> Json.t

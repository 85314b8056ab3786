(** Cross-run bisection and causal slice reports.

    Runs two machines in lockstep while a {!Mi6_obs.Replay} flight
    recorder checkpoints each side periodically, locates the first cycle
    at which their structure state disagrees, and renders a causal
    slice: the diverging component, a field-level diff of its labelled
    state dump, the in-flight µops on both sides, and the last few
    trace events each side emitted.

    Two comparison oracles, chosen automatically from the machines'
    cycle-0 signatures:

    - [signature] — identical configurations (the secret-pair mode):
      whole-machine [structural_signature] equality, compared at
      checkpoint boundaries, with a restore-and-re-execute binary search
      inside the offending interval.  Assumes diverged states do not
      reconverge to signature equality exactly at a boundary.
    - [activity] — structurally different variants (e.g. BASE vs
      F+P+M+A) hash differently from reset, so the oracle is each
      cycle's per-component activity pattern (which sections' signatures
      changed, plus committed count); the per-cycle scan yields the
      first divergent cycle directly. *)

type checkpoint_stats = {
  cs_interval : int;
  cs_taken : int;  (** checkpoints taken over both recorders *)
  cs_retained : int;  (** checkpoints live in the rings at the end *)
  cs_mem_high_water_words : int;
      (** peak [Obj.reachable_words] of both rings — the recorder's
          memory cost, exported to the perf DB *)
  cs_probes : int;  (** restore + re-execute probes during the search *)
}

type component_diff = {
  cd_component : string;
  cd_dump_a : string;
  cd_dump_b : string;
  cd_first_diff : string;  (** excerpt around the first differing byte *)
}

type slice = {
  s_cycle : int;  (** first divergent cycle *)
  s_oracle : string;  (** ["signature"] or ["activity"] *)
  s_component : string;  (** first diverging section label *)
  s_components : string list;
  s_audit_channels : string list;
      (** audit channels hosted by [s_component] — cross-checkable
          against {!Mi6_obs.Audit} verdicts *)
  s_checkpoint_cycle : int;  (** checkpoint the slice replayed from *)
  s_diffs : component_diff list;
  s_uops_a : string list;  (** in-flight µops, side A *)
  s_uops_b : string list;
  s_trace_a : string list;  (** last [window] trace events, side A *)
  s_trace_b : string list;
}

type outcome = Clean of { cycles_run : int } | Diverged of slice

type report = {
  r_label_a : string;
  r_label_b : string;
  r_outcome : outcome;
  r_stats : checkpoint_stats;
}

val diverged : report -> bool

(** The audit channels resident in a signature-section component
    (["llc"], ["l1d.0"], ["core0"], …) — lets CI assert that the
    bisector's diverging component agrees with the auditor's leaking
    channel. *)
val audit_channels_of_component : string -> Audit.channel list

(** [run ~label_a ~label_b a b] — both machines must be fresh (cycle 0)
    and share a component shape (same core count).  [interval] is the
    checkpoint period, [ring] the per-side ring capacity, [window] the
    trace-tail length in the slice, [max_cycles] the scan budget (a
    budget exhaustion reports [Clean] with the cycles run).  Pass the
    [Trace.t] each machine was created with via [trace_a] / [trace_b]
    to include trace tails in the slice. *)
val run :
  ?interval:int ->
  ?ring:int ->
  ?window:int ->
  ?max_cycles:int ->
  ?trace_a:Trace.t ->
  ?trace_b:Trace.t ->
  label_a:string ->
  label_b:string ->
  Tmachine.t ->
  Tmachine.t ->
  report

(** [slice_at ~recorder m ~cycle] — single-run slice: restore [m] to the
    recorder's nearest checkpoint at or before [cycle], re-execute to
    [cycle], and render the in-flight µops, trace tail, and component
    state as text.  Used by the differential tester to annotate qcheck
    counterexamples.  Raises [Invalid_argument] if [cycle] precedes the
    recorder's retained window. *)
val slice_at :
  ?window:int ->
  ?trace:Trace.t ->
  recorder:Tmachine.checkpoint Mi6_obs.Replay.t ->
  Tmachine.t ->
  cycle:int ->
  string

val schema : string

(** Schema ["mi6.bisect/1"]. *)
val report_to_json : report -> Json.t

val pp_report : Format.formatter -> report -> unit

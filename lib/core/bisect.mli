(** Cross-run bisection and causal slice reports.

    Runs two machines in lockstep from reset, compares them after every
    cycle, and at the first cycle where they disagree renders a causal
    slice from the live machines: the diverging component, a
    field-level diff of its labelled state dump, the in-flight µops on
    both sides, and the last few trace events each side emitted.
    Nothing is rewound, so no checkpoint is ever taken.

    Two comparison oracles, chosen automatically from the machines'
    cycle-0 signatures:

    - [signature] — identical configurations (the secret-pair mode):
      per-section {!Mi6_util.Statesig} signatures must be equal after
      every cycle; the first cycle with a differing section is the
      divergence, and the differing sections are the components.
    - [activity] — structurally different variants (e.g. BASE vs
      F+P+M+A) hash differently from reset, so the oracle is each
      cycle's per-component activity pattern (which sections' signatures
      changed, plus committed count). *)

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
  s_diffs : component_diff list;
  s_uops_a : string list;  (** in-flight µops, side A *)
  s_uops_b : string list;
  s_trace_a : string list;  (** last [window] trace events, side A *)
  s_trace_b : string list;
}

type outcome = Clean of { cycles_run : int } | Diverged of slice

type report = { r_label_a : string; r_label_b : string; r_outcome : outcome }

val diverged : report -> bool

(** The audit channels resident in a signature-section component
    (["llc"], ["l1d.0"], ["core0"], …) — lets CI assert that the
    bisector's diverging component agrees with the auditor's leaking
    channel. *)
val audit_channels_of_component : string -> Audit.channel list

(** [run ~label_a ~label_b a b] — both machines must be fresh (cycle 0)
    and share a component shape (same core count).  [window] is the
    trace-tail length in the slice, [max_cycles] the scan budget (a
    budget exhaustion reports [Clean] with the cycles run).  Pass the
    [Trace.t] each machine was created with via [trace_a] / [trace_b]
    to include trace tails in the slice. *)
val run :
  ?window:int ->
  ?max_cycles:int ->
  ?trace_a:Trace.t ->
  ?trace_b:Trace.t ->
  label_a:string ->
  label_b:string ->
  Tmachine.t ->
  Tmachine.t ->
  report

(** [slice_text m] — single-run slice of [m] at its current cycle: the
    in-flight µops, the last [window] events of [trace], and every
    component's state, as text.  The differential tester prints it
    alongside a shrunk counterexample. *)
val slice_text : ?window:int -> ?trace:Trace.t -> Tmachine.t -> string

val schema : string

(** Schema ["mi6.bisect/2"]. *)
val report_to_json : report -> Json.t

val pp_report : Format.formatter -> report -> unit

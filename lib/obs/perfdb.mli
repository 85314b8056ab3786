(** Cross-run performance history: an append-only JSONL database of
    bench results plus the regression comparator behind
    [bench/compare.exe].

    Every benchmark-harness invocation appends one {!record} per
    (variant, bench) pair, all sharing a fresh [run_id]; {!compare_runs}
    diffs the records of two runs that share variant, bench and
    instruction count, under configurable thresholds so CI can fail on a
    cycle-count or IPC regression.  Records carry the CPI stack and key
    histogram quantiles so a regression can be attributed, not just
    detected. *)

(** Host-side cost of producing the record: how fast the {e simulator}
    ran, as opposed to how fast the simulated machine was. *)
type host = {
  wall_s : float;  (** run wall-clock seconds *)
  kips : float;  (** simulated kilo-instructions per host second *)
}

(** [host ~wall_s ~instrs] — the host section of a run that simulated
    [instrs] instructions in [wall_s] seconds; [kips] is 0 when [wall_s]
    is not positive.  Count every instruction simulated, warmup
    included. *)
val host : wall_s:float -> instrs:int -> host

type record = {
  run_id : string;  (** shared by every record of one harness invocation *)
  commit : string;  (** git HEAD at the time of the run, or ["unknown"] *)
  variant : string;
  bench : string;
  cycles : int;
  instrs : int;
  ipc : float;
  cpi : (string * int) list;  (** CPI-stack category -> cycles *)
  quantiles : (string * (int * int * int)) list;
      (** histogram name -> (p50, p95, p99) *)
  host : host option;
      (** absent in records written before host-cost tracking or with
          profiling off — readers must treat [None] as "unknown" *)
}

val record_to_json : record -> Json.t

(** [record_of_json j] — [Error msg] when a required field is missing or
    ill-typed. *)
val record_of_json : Json.t -> (record, string) result

(** [append ~path records] appends one compact JSON line per record
    (creating the file if needed). *)
val append : path:string -> record list -> unit

(** [load ~path] — all records, file order.  Blank lines are skipped;
    an unparseable line raises [Failure] with its line number.  A
    missing file is an empty history. *)
val load : path:string -> record list

(** Run ids in first-appearance order. *)
val run_ids : record list -> string list

(** Records belonging to one run, file order. *)
val run : record list -> run_id:string -> record list

(** [latest_two records] — [(previous, latest)] when the history holds
    at least two distinct run ids. *)
val latest_two : record list -> (record list * record list) option

(** [next_run_id records ~commit] — a fresh sequential id,
    ["NNNN-commit"]. *)
val next_run_id : record list -> commit:string -> string

(** [pairs ~old_run ~new_run] — each record of [new_run] with the first
    record of [old_run] of the same variant, bench and instruction count,
    in [new_run] order; records without a partner are left out.  Runs of
    different lengths are different experiments and never pair. *)
val pairs : old_run:record list -> new_run:record list -> (record * record) list

(** One threshold violation found by {!compare_runs}. *)
type regression = {
  r_variant : string;
  r_bench : string;
  r_instrs : int;
  r_metric : string;  (** ["cycles"], ["ipc"], or ["kips"] *)
  r_old : float;
  r_new : float;
  r_delta_pct : float;  (** signed; positive = more cycles / less IPC *)
}

(** [compare_runs ~old_run ~new_run] — threshold violations over the
    record {!pairs} of the two runs.  [max_cycle_regress_pct]
    (default 5.0) bounds the cycle-count increase; [max_ipc_drop_pct]
    (default 5.0) bounds the IPC decrease.  [max_kips_drop_pct] (default
    50.0) bounds the {e host}-speed drop when both records carry a
    {!host} section — deliberately generous, so shared-CI wall-clock
    noise never fires it but an order-of-magnitude simulator slowdown
    does. *)
val compare_runs :
  ?max_cycle_regress_pct:float ->
  ?max_ipc_drop_pct:float ->
  ?max_kips_drop_pct:float ->
  old_run:record list ->
  new_run:record list ->
  unit ->
  regression list

val pp_regression : Format.formatter -> regression -> unit

(** Current git commit hash read straight from [root]/.git (default
    ["."]) without shelling out; ["unknown"] when unreadable. *)
val git_commit : ?root:string -> unit -> string

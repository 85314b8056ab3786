type t = Arbiter | Mshr | Uq_dq | Dram | Cache | Walk | Purge | Btb | Rsb

let all = [ Arbiter; Mshr; Uq_dq; Dram; Cache; Walk; Purge; Btb; Rsb ]

let rank = function
  | Arbiter -> 0
  | Mshr -> 1
  | Uq_dq -> 2
  | Dram -> 3
  | Cache -> 4
  | Walk -> 5
  | Purge -> 6
  | Btb -> 7
  | Rsb -> 8

let to_audit = function
  | Arbiter -> Some Audit.Arbiter
  | Mshr -> Some Audit.Mshr
  | Uq_dq -> Some Audit.Uq_dq
  | Dram -> Some Audit.Dram
  | Cache -> Some Audit.Cache
  | Walk -> Some Audit.Walk
  | Purge -> Some Audit.Purge
  | Btb | Rsb -> None

let name ch =
  match ch with
  | Btb -> "btb"
  | Rsb -> "rsb"
  | _ -> Audit.channel_name (Option.get (to_audit ch))

let of_name s = List.find_opt (fun ch -> name ch = s) all

let norm l = List.sort_uniq (fun a b -> compare (rank a) (rank b)) l

(* Everything a memory access's timing travels through on its way to
   DRAM.  Which of these actually separates two secrets depends on the
   configuration ({!closes}); statically they are all candidates. *)
let mem_side = [ Arbiter; Mshr; Uq_dq; Dram; Cache ]

let shift_of bytes =
  let rec go s n = if n <= 1 then s else go (s + 1) (n / 2) in
  go 0 bytes

let line_shift = shift_of Addr.line_bytes
let page_shift = shift_of Addr.page_bytes

(* Can the finding's address set reach >= 2 units of [shift] granularity?
   No target set (branch/div findings) or an unbounded one counts as
   multi: the access pattern is not confined. *)
let multi_unit (f : Taint.finding) shift =
  match f.Taint.target with
  | None -> true
  | Some v -> (
    match Vset.unit_count v ~width:(max 1 f.Taint.width) ~shift with
    | None -> true
    | Some n -> n >= 2)

let is_ret (i : Instr.t) =
  match i with
  | Instr.Jalr { rd; rs1; _ } -> rd = Reg.x0 && rs1 = Reg.ra
  | _ -> false

let infer ~(timing : Config.timing) (f : Taint.finding) =
  let walk = if multi_unit f page_shift then [ Walk ] else [] in
  let base =
    match f.Taint.kind with
    | Taint.Load_address | Taint.Store_address ->
      (if multi_unit f line_shift then mem_side else []) @ walk
    | Taint.Shared_write | Taint.Shared_read ->
      (* A shared-region access contends with the other enclave's own
         accesses even at a single public line. *)
      mem_side @ walk
    | Taint.Branch_condition | Taint.Variable_latency ->
      (* Divergent execution reshapes the whole downstream access
         stream; on a flushing core the purge points shift too. *)
      mem_side @ [ Walk ]
      @ (if timing.Config.core.Core_config.flush_on_trap then [ Purge ] else [])
    | Taint.Jump_target ->
      let front = if f.Taint.rsb || is_ret f.Taint.instr then Rsb else Btb in
      (front :: mem_side) @ [ Walk ]
  in
  norm (if f.Taint.rsb then Rsb :: base else base)

let of_lint_check = function
  | "llc-mshr-sharing" | "mshr-partitioning" | "mshr-banking" -> Some Mshr
  | "llc-arbiter" -> Some Arbiter
  | "llc-shared-uq" | "llc-dq-port" | "llc-shared-downgrade" -> Some Uq_dq
  | "mshr-vs-dram" -> Some Dram
  | "llc-partition" -> Some Cache
  | "purge-on-trap" | "purge-floor" -> Some Purge
  | "monitor-region" | "region-coverage" | "region-overlap"
  | "region-mask-width" | "shared-monitor-region" | "shared-owner" ->
    (* Ownership/ledger violations expose cross-domain DRAM placement. *)
    Some Dram
  | _ -> None

(* The linter decides every channel one of [lint_timing]'s checks maps
   to ({!of_lint_check}): a flagged channel is open.  Two verdicts it
   has no check for come from the configuration itself: the set-index
   probe and flush-on-trap.  The lint pass runs once, when [~timing] is
   applied. *)
let closes ~(timing : Config.timing) =
  let flagged =
    List.filter_map
      (fun (f : Lint.finding) -> of_lint_check f.Lint.check)
      (Lint.lint_timing ~name:"channel" timing)
  in
  let index = timing.Config.llc.Llc.index in
  let rec closes ch =
    (not (List.mem ch flagged))
    &&
    match ch with
    | Cache ->
      (* The linter checks that the index is a partition; the probe
         checks that two lines with equal flat index in adjacent DRAM
         regions land in different sets (Section 7.2). *)
      let lines_per_region =
        Addr.region_base Addr.default_regions 1 / Addr.line_bytes
      in
      Index.index index ~line:0 <> Index.index index ~line:lines_per_region
    | Walk ->
      (* Walker traffic is ordinary cached memory traffic; it is isolated
         exactly when the set index and the DRAM path are. *)
      closes Cache && closes Dram
    | Btb | Rsb ->
      (* Flush-on-trap resets the predictors at every domain crossing
         (Section 6). *)
      timing.Config.core.Core_config.flush_on_trap
    | Arbiter | Mshr | Uq_dq | Dram | Purge -> true
  in
  closes

let open_channels ~timing =
  let closes = closes ~timing in
  fun (f : Taint.finding) ->
  let mem_kind =
    match f.Taint.kind with
    | Taint.Load_address | Taint.Store_address | Taint.Shared_read
    | Taint.Shared_write ->
      true
    | _ -> false
  in
  if
    f.Taint.speculative && mem_kind
    && timing.Config.core.Core_config.nonspec_mem
  then
    (* NONSPEC renames memory only at an empty ROB: a wrong-path memory
       access never issues, so the transient transmitter is gone. *)
    []
  else List.filter (fun ch -> not (closes ch)) (infer ~timing f)

let to_json chs = Json.List (List.map (fun ch -> Json.String (name ch)) chs)

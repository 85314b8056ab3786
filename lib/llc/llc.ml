type security = {
  partitioned_mshrs : bool;
  round_robin_arbiter : bool;
  split_uq : bool;
  per_partition_downgrade : bool;
  dq_retry : bool;
}

let baseline_security =
  {
    partitioned_mshrs = false;
    round_robin_arbiter = false;
    split_uq = false;
    per_partition_downgrade = false;
    dq_retry = false;
  }

let mi6_security =
  {
    partitioned_mshrs = true;
    round_robin_arbiter = true;
    split_uq = true;
    per_partition_downgrade = true;
    dq_retry = true;
  }

type config = {
  index : Index.t;
  ways : int;
  mshrs : int;
  mshr_banks : int;
  strict_bank_stall : bool;
  pipeline_latency : int;
  cores : int;
  repl_seed : int;
}

let default_config ~cores =
  {
    index = Index.flat ~set_bits:10;
    ways = 16;
    mshrs = 16;
    mshr_banks = 1;
    strict_bank_stall = false;
    pipeline_latency = 4;
    cores;
    repl_seed = 0x22;
  }

type line_meta = {
  mutable dirty : bool;
  mutable owner : int option;
  sharers : Bitvec.t;
}

type dq_kind = Dq_read | Dq_wb

type phase =
  | P_pipe  (** traversing the cache-access pipeline *)
  | P_blocked  (** same-line / same-way conflict; parked on another MSHR *)
  | P_wait_retry  (** queued for pipeline re-entry *)
  | P_wait_downgrade of { victim : bool }
  | P_in_dq
  | P_wait_dram
  | P_dram_arrived  (** response buffered in the MSHR, awaiting pipeline *)
  | P_wait_uq

type entry = {
  e_core : int;
  e_line : int;
  e_to : Msi.t;
  mutable e_phase : phase;
  mutable e_set : int;
  mutable e_way : int; (* -1 until reserved *)
  mutable e_locks_way : bool;
  mutable e_needs_wb : bool;
  mutable e_wb_line : int;
  mutable e_retry : bool; (* MI6 retry bit (Figure 3) *)
  mutable e_pending : Bitvec.t; (* cores still to answer a downgrade *)
  mutable e_to_send : (int * int * Msi.t) list; (* core, line, to_s *)
  mutable e_blocked : int list; (* MSHR idxs parked on this entry *)
  mutable e_dq_kind : dq_kind;
}

type pipe_msg =
  | M_creq of int
  | M_retry of int
  | M_cresp of int * Msg.child_resp
  | M_dram of int

(* Counter handles, resolved once per LLC. *)
type counters = {
  c_requests : Stats.counter;
  c_mshr_alloc_stalls : Stats.counter;
  c_arb_idle_slots : Stats.counter;
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_replacements : Stats.counter;
  c_writebacks : Stats.counter;
  c_all_ways_locked : Stats.counter;
  c_downgrades_sent : Stats.counter;
  c_responses_sent : Stats.counter;
  c_uq_hol_blocks : Stats.counter;
  c_dram_backpressure_stalls : Stats.counter;
  c_dq_retries : Stats.counter;
  c_dq_double_dequeues : Stats.counter;
}

let counters stats =
  let c = Stats.counter stats in
  {
    c_requests = c "llc.requests";
    c_mshr_alloc_stalls = c "llc.mshr_alloc_stalls";
    c_arb_idle_slots = c "llc.arb_idle_slots";
    c_hits = c "llc.hits";
    c_misses = c "llc.misses";
    c_replacements = c "llc.replacements";
    c_writebacks = c "llc.writebacks";
    c_all_ways_locked = c "llc.all_ways_locked";
    c_downgrades_sent = c "llc.downgrades_sent";
    c_responses_sent = c "llc.responses_sent";
    c_uq_hol_blocks = c "llc.uq_hol_blocks";
    c_dram_backpressure_stalls = c "llc.dram_backpressure_stalls";
    c_dq_retries = c "llc.dq_retries";
    c_dq_double_dequeues = c "llc.dq_double_dequeues";
  }

type t = {
  cfg : config;
  sec : security;
  links : Link.t array;
  dram : Controller.t;
  ctr : counters;
  array : line_meta Sram.t;
  repl : Replacement.t;
  entries : entry option array;
  (* Indices derived from [entries], kept in step with every phase change
     and allocation so arbitration never rescans the MSHR file;
     [restore] recomputes them. *)
  arrived : int array; (* per core: entries in P_dram_arrived *)
  free : int array; (* per (MSHR partition, bank): unallocated entries *)
  respond : tag:int -> line:int -> unit; (* DRAM response sink *)
  pipe : (int * pipe_msg) Fifo.t; (* exit cycle, message *)
  retryq : int Fifo.t array; (* per core *)
  uqs : int Fifo.t array; (* 1 (shared) or per core *)
  dq : int Fifo.t;
  mutable dq_pending_read : int; (* baseline 2-cycle wb+read dequeue; -1 none *)
  port_used : bool array; (* per-core outgoing port, per cycle *)
  (* Observability *)
  trace : Trace.t;
  selfprof : Selfprof.t;
  mutable tnow : int; (* current cycle, for probes deep in the pipeline *)
  mutable live : int; (* allocated MSHR entries (avoids a per-tick scan) *)
  occ_hist : Histogram.t; (* MSHR occupancy, sampled once per tick *)
}

(* MSHR partitions: one per core when partitioned, else one shared
   file.  A core allocates only in its partition's index range. *)
let partition t core = if t.sec.partitioned_mshrs then core else 0
let per_core_mshrs t = t.cfg.mshrs / t.cfg.cores
let entry_lo t core = if t.sec.partitioned_mshrs then core * per_core_mshrs t else 0

let entry_hi t core =
  if t.sec.partitioned_mshrs then (core + 1) * per_core_mshrs t else t.cfg.mshrs

let bank_of_set t set = set land (t.cfg.mshr_banks - 1)

(* [free] slot counting the free entries of [core]'s partition in [bank]. *)
let free_slot t ~core ~bank = (partition t core * t.cfg.mshr_banks) + bank

(* Recompute the derived indices from the MSHR file. *)
let recount t =
  Array.fill t.arrived 0 (Array.length t.arrived) 0;
  Array.fill t.free 0 (Array.length t.free) 0;
  Array.iteri
    (fun i eo ->
      match eo with
      | Some e ->
        if e.e_phase = P_dram_arrived then
          t.arrived.(e.e_core) <- t.arrived.(e.e_core) + 1
      | None ->
        let k =
          free_slot t ~core:(i / per_core_mshrs t) ~bank:(i mod t.cfg.mshr_banks)
        in
        t.free.(k) <- t.free.(k) + 1)
    t.entries

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) cfg ~security
    ~links ~dram ~stats =
  if Array.length links <> cfg.cores then
    invalid_arg "Llc.create: one link per core required";
  if cfg.mshrs mod cfg.mshr_banks <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly into banks";
  if security.partitioned_mshrs && cfg.mshrs mod cfg.cores <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly across cores";
  let sets = Index.sets cfg.index in
  let entries = Array.make cfg.mshrs None in
  let arrived = Array.make cfg.cores 0 in
  let respond ~tag ~line =
    match entries.(tag) with
    | Some e ->
      assert (e.e_line = line);
      (* No backpressure on the DRAM response: buffered in the MSHR. *)
      e.e_phase <- P_dram_arrived;
      arrived.(e.e_core) <- arrived.(e.e_core) + 1
    | None -> failwith "Llc: dangling MSHR index"
  in
  let partitions = if security.partitioned_mshrs then cfg.cores else 1 in
  let t =
    {
      cfg;
      sec = security;
      links;
      dram;
      ctr = counters stats;
      array = Sram.create ~sets ~ways:cfg.ways;
      repl =
        Replacement.pseudo_random ~ways:cfg.ways ~sets ~seed:cfg.repl_seed;
      entries;
      arrived;
      free = Array.make (partitions * cfg.mshr_banks) 0;
      respond;
      pipe = Fifo.create ~capacity:(cfg.pipeline_latency + 2);
      retryq = Array.init cfg.cores (fun _ -> Fifo.create ~capacity:cfg.mshrs);
      uqs =
        (if security.split_uq then
           Array.init cfg.cores (fun _ ->
               Fifo.create ~capacity:(cfg.mshrs / cfg.cores))
         else [| Fifo.create ~capacity:cfg.mshrs |]);
      dq = Fifo.create ~capacity:cfg.mshrs;
      dq_pending_read = -1;
      port_used = Array.make cfg.cores false;
      trace;
      selfprof;
      tnow = 0;
      live = 0;
      occ_hist = Histogram.create ();
    }
  in
  recount t;
  t

let mshr_occupancy t = t.occ_hist
let live_mshrs t = t.live

let entry t idx =
  match t.entries.(idx) with
  | Some e -> e
  | None -> failwith "Llc: dangling MSHR index"

let set_of t line = Index.index t.cfg.index ~line

(* ------------------------------------------------------------------ *)
(* MSHR allocation                                                     *)
(* ------------------------------------------------------------------ *)

let free_in_bank t core bank = t.free.(free_slot t ~core ~bank)

let free_mshrs_for t ~core ~line =
  let bank = bank_of_set t (set_of t line) in
  if t.cfg.strict_bank_stall then begin
    (* Pessimistic model: any full bank blocks everything. *)
    let all_ok = ref true in
    for b = 0 to t.cfg.mshr_banks - 1 do
      if free_in_bank t core b = 0 then all_ok := false
    done;
    if !all_ok then free_in_bank t core bank else 0
  end
  else free_in_bank t core bank

let is_free t i = match t.entries.(i) with None -> true | Some _ -> false

(* Allocates the lowest free entry of the core's partition in the line's
   bank; -1 when none is available. *)
let alloc_mshr t ~core ~line ~to_s =
  if free_mshrs_for t ~core ~line = 0 then -1
  else begin
    let bank = bank_of_set t (set_of t line) in
    let i = ref (entry_lo t core) in
    while not (is_free t !i && !i mod t.cfg.mshr_banks = bank) do
      incr i
    done;
    let i = !i in
    let e =
      {
        e_core = core;
        e_line = line;
        e_to = to_s;
        e_phase = P_pipe;
        e_set = -1;
        e_way = -1;
        e_locks_way = false;
        e_needs_wb = false;
        e_wb_line = -1;
        e_retry = false;
        e_pending = Bitvec.create t.cfg.cores;
        e_to_send = [];
        e_blocked = [];
        e_dq_kind = Dq_read;
      }
    in
    t.entries.(i) <- Some e;
    t.live <- t.live + 1;
    let k = free_slot t ~core ~bank in
    t.free.(k) <- t.free.(k) - 1;
    if Trace.active t.trace Trace.Llc then
      Trace.emit t.trace ~now:t.tnow (Trace.Mshr_alloc { core; idx = i; line });
    i
  end

(* The (highest-indexed) entry locking [way] of [set], or -1. *)
let way_locker t set way =
  let found = ref (-1) in
  for i = 0 to Array.length t.entries - 1 do
    match t.entries.(i) with
    | Some e when e.e_locks_way && e.e_set = set && e.e_way = way -> found := i
    | _ -> ()
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Queue helpers                                                       *)
(* ------------------------------------------------------------------ *)

let uq_for t core = if t.sec.split_uq then t.uqs.(core) else t.uqs.(0)

let enqueue_uq t idx =
  let e = entry t idx in
  e.e_phase <- P_wait_uq;
  Fifo.enq (uq_for t e.e_core) idx

let enqueue_retry t idx =
  let e = entry t idx in
  e.e_phase <- P_wait_retry;
  Fifo.enq t.retryq.(e.e_core) idx

let park_on t ~blocker ~parked =
  let b = entry t blocker in
  let p = entry t parked in
  p.e_phase <- P_blocked;
  b.e_blocked <- parked :: b.e_blocked

let free_entry t idx =
  let e = entry t idx in
  List.iter (fun w -> enqueue_retry t w) e.e_blocked;
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now:t.tnow
      (Trace.Mshr_free { core = e.e_core; idx });
  t.entries.(idx) <- None;
  t.live <- t.live - 1;
  let k = free_slot t ~core:e.e_core ~bank:(idx mod t.cfg.mshr_banks) in
  t.free.(k) <- t.free.(k) + 1

(* ------------------------------------------------------------------ *)
(* Directory / replacement bookkeeping                                 *)
(* ------------------------------------------------------------------ *)

let fresh_meta t = { dirty = false; owner = None; sharers = Bitvec.create t.cfg.cores }

(* Targets that must be downgraded before granting [to_s] to [core]. *)
let downgrade_targets t meta ~core ~to_s ~line =
  ignore t;
  match to_s with
  | Msi.M ->
    let acc = ref [] in
    Bitvec.iter_set
      (fun c -> if c <> core then acc := (c, line, Msi.I) :: !acc)
      meta.sharers;
    (match meta.owner with
    | Some c when c <> core -> acc := (c, line, Msi.I) :: !acc
    | _ -> ());
    List.rev !acc
  | Msi.S -> (
    match meta.owner with
    | Some c when c <> core -> [ (c, line, Msi.S) ]
    | _ -> [])
  | Msi.I -> []

let owned_by meta core = match meta.owner with Some c -> c = core | None -> false

let apply_cresp_to_directory t core (resp : Msg.child_resp) =
  let set = set_of t resp.Msg.line in
  let way = Sram.find t.array ~set ~tag:resp.Msg.line in
  if way >= 0 then begin
    let meta = Sram.meta t.array ~set ~way in
    if resp.Msg.dirty then meta.dirty <- true;
    match resp.Msg.to_s with
    | Msi.I ->
      if owned_by meta core then meta.owner <- None;
      if Bitvec.get meta.sharers core then Bitvec.clear meta.sharers core
    | Msi.S ->
      if owned_by meta core then meta.owner <- None;
      Bitvec.set meta.sharers core
    | Msi.M -> ()
  end

(* Replacement completed: victim gone, line slot reserved for the miss. *)
let complete_replacement t idx ~victim_dirty =
  let e = entry t idx in
  Sram.invalidate t.array ~set:e.e_set ~way:e.e_way;
  e.e_needs_wb <- victim_dirty;
  e.e_dq_kind <- (if victim_dirty then Dq_wb else Dq_read);
  if victim_dirty then Stats.bump t.ctr.c_writebacks;
  e.e_phase <- P_in_dq;
  Fifo.enq t.dq idx

(* ------------------------------------------------------------------ *)
(* Pipeline-exit processing                                            *)
(* ------------------------------------------------------------------ *)

(* An active transaction on [line] other than [idx], or -1.  Parked
   (P_blocked) entries are passive and must not themselves act as
   blockers, or two same-line entries could park on each other. *)
let same_line_blocker t idx line =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.entries do
    (match t.entries.(!i) with
    | Some o when !i <> idx && o.e_line = line -> (
      match o.e_phase with P_blocked -> () | _ -> found := !i)
    | _ -> ());
    incr i
  done;
  !found

(* Lowest invalid way of [set] that no transaction locks, or -1. *)
let unlocked_invalid_way t set =
  let w = ref 0 in
  while
    !w < t.cfg.ways
    && (Sram.valid t.array ~set ~way:!w || way_locker t set !w >= 0)
  do
    incr w
  done;
  if !w < t.cfg.ways then !w else -1

(* The policy's victim, or the next way after it that no transaction
   locks; -1 when every way is locked. *)
let unlocked_victim t set =
  let pick = Replacement.victim t.repl ~set ~invalid_way:None in
  let way = ref (-1) and tries = ref 0 in
  while !way < 0 && !tries < t.cfg.ways do
    let w = (pick + !tries) mod t.cfg.ways in
    if way_locker t set w < 0 then way := w;
    incr tries
  done;
  !way

let request_hit t idx e ~set ~way =
  Stats.bump t.ctr.c_hits;
  e.e_way <- way;
  Replacement.touch t.repl ~set ~way;
  match
    downgrade_targets t (Sram.meta t.array ~set ~way) ~core:e.e_core ~to_s:e.e_to
      ~line:e.e_line
  with
  | [] -> enqueue_uq t idx
  | targets ->
    e.e_locks_way <- true;
    List.iter (fun (c, _, _) -> Bitvec.set e.e_pending c) targets;
    e.e_to_send <- targets;
    e.e_phase <- P_wait_downgrade { victim = false }

let request_miss t idx e ~set =
  Stats.bump t.ctr.c_misses;
  (* Find an invalid, unlocked way; otherwise pick a victim among
     unlocked ways. *)
  let way = unlocked_invalid_way t set in
  if way >= 0 then begin
    e.e_way <- way;
    e.e_locks_way <- true;
    e.e_dq_kind <- Dq_read;
    e.e_phase <- P_in_dq;
    Fifo.enq t.dq idx
  end
  else begin
    let way = unlocked_victim t set in
    if way < 0 then begin
      (* Every way locked by an in-flight transaction: retry. *)
      Stats.bump t.ctr.c_all_ways_locked;
      enqueue_retry t idx
    end
    else begin
      let victim_tag = Sram.tag t.array ~set ~way
      and vmeta = Sram.meta t.array ~set ~way in
      Stats.bump t.ctr.c_replacements;
      e.e_way <- way;
      e.e_locks_way <- true;
      e.e_wb_line <- victim_tag;
      match
        downgrade_targets t vmeta ~core:(-1) ~to_s:Msi.M ~line:victim_tag
      with
      | [] -> complete_replacement t idx ~victim_dirty:vmeta.dirty
      | targets ->
        e.e_needs_wb <- vmeta.dirty;
        List.iter (fun (c, _, _) -> Bitvec.set e.e_pending c) targets;
        e.e_to_send <- targets;
        e.e_phase <- P_wait_downgrade { victim = true }
    end
  end

let process_request t idx =
  let e = entry t idx in
  if e.e_retry then begin
    (* MI6 retry pass: the writeback already went out; this is now a pure
       miss that re-enters DQ for the DRAM read (Figure 3). *)
    e.e_retry <- false;
    e.e_dq_kind <- Dq_read;
    e.e_phase <- P_in_dq;
    Fifo.enq t.dq idx
  end
  else begin
    let set = set_of t e.e_line in
    e.e_set <- set;
    (* Same-line conflict with another active transaction: park. *)
    let blocker = same_line_blocker t idx e.e_line in
    if blocker >= 0 then park_on t ~blocker ~parked:idx
    else begin
      let way = Sram.find t.array ~set ~tag:e.e_line in
      if way < 0 then request_miss t idx e ~set
      else begin
        let blocker = way_locker t set way in
        if blocker >= 0 && blocker <> idx then park_on t ~blocker ~parked:idx
        else request_hit t idx e ~set ~way
      end
    end
  end

(* The first entry waiting on [core]'s downgrade response for
   [resp]'s line consumes it; -1 when none does. *)
let cresp_claimant t core (resp : Msg.child_resp) =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.entries do
    (match t.entries.(!i) with
    | Some ({ e_phase = P_wait_downgrade { victim }; _ } as e) ->
      let wanted_line = if victim then e.e_wb_line else e.e_line in
      if wanted_line = resp.Msg.line && Bitvec.get e.e_pending core then
        found := !i
    | _ -> ());
    incr i
  done;
  !found

let process_cresp t core (resp : Msg.child_resp) =
  (* A waiting MSHR consumes the response first (so it can account the
     dirty bit into the replacement), then the directory is updated. *)
  let idx = cresp_claimant t core resp in
  if idx < 0 then apply_cresp_to_directory t core resp
  else begin
    let e = entry t idx in
    Bitvec.clear e.e_pending core;
    apply_cresp_to_directory t core resp;
    if Bitvec.is_empty e.e_pending then
      match e.e_phase with
      | P_wait_downgrade { victim = true } ->
        let vdirty =
          e.e_needs_wb
          ||
          let way = Sram.find t.array ~set:e.e_set ~tag:e.e_wb_line in
          way >= 0 && (Sram.meta t.array ~set:e.e_set ~way).dirty
        in
        complete_replacement t idx ~victim_dirty:vdirty
      | _ -> enqueue_uq t idx
  end

let process_dram t idx =
  let e = entry t idx in
  Sram.fill t.array ~set:e.e_set ~way:e.e_way ~tag:e.e_line (fresh_meta t);
  Replacement.touch t.repl ~set:e.e_set ~way:e.e_way;
  enqueue_uq t idx

let process_exit t = function
  | M_creq idx | M_retry idx -> process_request t idx
  | M_cresp (core, resp) -> process_cresp t core resp
  | M_dram idx -> process_dram t idx

(* ------------------------------------------------------------------ *)
(* Pipeline entry arbitration                                          *)
(* ------------------------------------------------------------------ *)

(* Lowest-indexed entry of [core] holding a buffered DRAM response, or
   -1; the per-core count skips the scan when there is none. *)
let dram_arrived_for t core =
  if t.arrived.(core) = 0 then -1
  else begin
    let found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < Array.length t.entries do
      (match t.entries.(!i) with
      | Some { e_phase = P_dram_arrived; e_core; _ } when e_core = core ->
        found := !i
      | _ -> ());
      incr i
    done;
    !found
  end

let msg_kind = function
  | M_creq _ -> "req"
  | M_retry _ -> "retry"
  | M_cresp _ -> "resp"
  | M_dram _ -> "dram"

let msg_core t = function
  | M_creq idx | M_retry idx | M_dram idx -> (entry t idx).e_core
  | M_cresp (c, _) -> c

let admit t ~now msg =
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now
      (Trace.Arb_grant { core = msg_core t msg; kind = msg_kind msg });
  Fifo.enq t.pipe (now + t.cfg.pipeline_latency, msg)

(* One admission attempt per message class for [core]: each dequeues and
   admits its message and returns [true], or returns [false]. *)
let admit_dram t ~now core =
  let idx = dram_arrived_for t core in
  idx >= 0
  && begin
    (entry t idx).e_phase <- P_pipe;
    t.arrived.(core) <- t.arrived.(core) - 1;
    admit t ~now (M_dram idx);
    true
  end

let admit_retry t ~now core =
  Fifo.can_deq t.retryq.(core)
  && begin
    let idx = Fifo.deq t.retryq.(core) in
    (entry t idx).e_phase <- P_pipe;
    admit t ~now (M_retry idx);
    true
  end

let admit_cresp t ~now core =
  let rs = t.links.(core).Link.rs in
  Fifo.can_deq rs
  && begin
    admit t ~now (M_cresp (core, Fifo.deq rs));
    true
  end

(* Upgrade requests need an MSHR. *)
let admit_creq t ~now core =
  match Fifo.peek_opt t.links.(core).Link.rq with
  | None -> false
  | Some req ->
    let idx = alloc_mshr t ~core ~line:req.Msg.line ~to_s:req.Msg.to_s in
    if idx >= 0 then begin
      ignore (Fifo.deq t.links.(core).Link.rq);
      Stats.bump t.ctr.c_requests;
      admit t ~now (M_creq idx);
      true
    end
    else begin
      Stats.bump t.ctr.c_mshr_alloc_stalls;
      false
    end

(* [admit_class] on cores [c], [c + 1], ... until one admits. *)
let rec first_core t ~now admit_class c =
  c < t.cfg.cores && (admit_class t ~now c || first_core t ~now admit_class (c + 1))

let enter_pipeline t ~now =
  if t.sec.round_robin_arbiter then begin
    (* Cycle T admits only core T mod N; an idle slot is wasted
       (Section 5.4.3). *)
    let core = now mod t.cfg.cores in
    if
      not
        (admit_dram t ~now core || admit_retry t ~now core
        || admit_cresp t ~now core || admit_creq t ~now core)
    then begin
      Stats.bump t.ctr.c_arb_idle_slots;
      if Trace.active t.trace Trace.Llc then
        Trace.emit t.trace ~now (Trace.Arb_idle { core })
    end
  end
  else
    (* Baseline two-level mux: message-type priority (DRAM responses,
       downgrade responses, retries, upgrade requests), then core
       index. *)
    ignore
      (first_core t ~now admit_dram 0
      || first_core t ~now admit_cresp 0
      || first_core t ~now admit_retry 0
      || first_core t ~now admit_creq 0)

let advance_pipeline t ~now =
  match Fifo.peek_opt t.pipe with
  | Some (exit_at, msg) when exit_at <= now ->
    ignore (Fifo.deq t.pipe);
    process_exit t msg
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Downgrade-L1 logic                                                  *)
(* ------------------------------------------------------------------ *)

(* Send one pending downgrade request from the entries in [lo, hi). *)
let downgrade_scan t ~lo ~hi =
  let sent = ref false in
  let i = ref lo in
  while (not !sent) && !i < hi do
    (match t.entries.(!i) with
    | Some e -> (
      match e.e_to_send with
      | (target, line, to_s) :: rest ->
        if
          (not t.port_used.(target))
          && Fifo.can_enq t.links.(target).Link.p2c
        then begin
          Fifo.enq t.links.(target).Link.p2c (Msg.Downgrade_req { line; to_s });
          Stats.bump t.ctr.c_downgrades_sent;
          t.port_used.(target) <- true;
          e.e_to_send <- rest;
          sent := true
        end
      | [] -> ())
    | None -> ());
    incr i
  done

let downgrade_logic t =
  if t.sec.per_partition_downgrade then
    for core = 0 to t.cfg.cores - 1 do
      downgrade_scan t ~lo:(entry_lo t core) ~hi:(entry_hi t core)
    done
  else downgrade_scan t ~lo:0 ~hi:t.cfg.mshrs

(* ------------------------------------------------------------------ *)
(* UQ dequeue                                                          *)
(* ------------------------------------------------------------------ *)

let grant_directory t idx =
  let e = entry t idx in
  let meta = Sram.meta t.array ~set:e.e_set ~way:e.e_way in
  match e.e_to with
  | Msi.M ->
    meta.owner <- Some e.e_core;
    Bitvec.clear meta.sharers e.e_core
  | Msi.S -> Bitvec.set meta.sharers e.e_core
  | Msi.I -> ()

let try_send_response t idx =
  let e = entry t idx in
  let c = e.e_core in
  if (not t.port_used.(c)) && Fifo.can_enq t.links.(c).Link.p2c then begin
    grant_directory t idx;
    Fifo.enq t.links.(c).Link.p2c
      (Msg.Upgrade_resp { line = e.e_line; to_s = e.e_to });
    Stats.bump t.ctr.c_responses_sent;
    if Trace.active t.trace Trace.Llc then
      Trace.emit t.trace ~now:t.tnow
        (Trace.Uq_send { core = c; line = e.e_line });
    t.port_used.(c) <- true;
    e.e_locks_way <- false;
    free_entry t idx;
    true
  end
  else false

let uq_dequeue t =
  if t.sec.split_uq then
    for c = 0 to Array.length t.uqs - 1 do
      match Fifo.peek_opt t.uqs.(c) with
      | Some idx -> if try_send_response t idx then ignore (Fifo.deq t.uqs.(c))
      | None -> ()
    done
  else
    match Fifo.peek_opt t.uqs.(0) with
    | Some idx ->
      if try_send_response t idx then ignore (Fifo.deq t.uqs.(0))
      else Stats.bump t.ctr.c_uq_hol_blocks
    | None -> ()

(* ------------------------------------------------------------------ *)
(* DQ dequeue                                                          *)
(* ------------------------------------------------------------------ *)

let dq_dequeue t ~now =
  if t.dq_pending_read >= 0 then begin
    (* Baseline second dequeue cycle: the port is still busy sending the
       DRAM read of a writeback+read pair (the Section 5.4.2 leak). *)
    if Controller.can_accept t.dram then begin
      let idx = t.dq_pending_read in
      let e = entry t idx in
      Controller.accept t.dram ~now
        { Controller.read = true; line = e.e_line; tag = idx };
      e.e_phase <- P_wait_dram;
      t.dq_pending_read <- -1
    end
    else Stats.bump t.ctr.c_dram_backpressure_stalls
  end
  else begin
    match Fifo.peek_opt t.dq with
    | None -> ()
    | Some idx -> (
      let e = entry t idx in
      match e.e_dq_kind with
      | Dq_read ->
        if Controller.can_accept t.dram then begin
          ignore (Fifo.deq t.dq);
          Controller.accept t.dram ~now
            { Controller.read = true; line = e.e_line; tag = idx };
          e.e_phase <- P_wait_dram
        end
        else Stats.bump t.ctr.c_dram_backpressure_stalls
      | Dq_wb ->
        if Controller.can_accept t.dram then begin
          ignore (Fifo.deq t.dq);
          Controller.accept t.dram ~now
            { Controller.read = false; line = e.e_wb_line; tag = idx };
          if t.sec.dq_retry then begin
            (* One-cycle dequeue: set the retry bit and re-enter the
               pipeline as a pure miss (Figure 3). *)
            e.e_retry <- true;
            Stats.bump t.ctr.c_dq_retries;
            if Trace.active t.trace Trace.Llc then
              Trace.emit t.trace ~now
                (Trace.Dq_retry { core = e.e_core; idx });
            enqueue_retry t idx
          end
          else begin
            (* Baseline: block the DQ port next cycle for the read. *)
            t.dq_pending_read <- idx;
            Stats.bump t.ctr.c_dq_double_dequeues
          end
        end
        else Stats.bump t.ctr.c_dram_backpressure_stalls)
  end

(* ------------------------------------------------------------------ *)
(* Tick                                                                *)
(* ------------------------------------------------------------------ *)

let tick t ~now =
  t.tnow <- now;
  Histogram.add t.occ_hist t.live;
  (* Downgrades, responses and the DQ all belong to allocated MSHRs;
     with none allocated there is nothing for them to do. *)
  if t.live > 0 then begin
    Array.fill t.port_used 0 (Array.length t.port_used) false;
    downgrade_logic t;
    uq_dequeue t
  end;
  advance_pipeline t ~now;
  enter_pipeline t ~now;
  if t.live > 0 then dq_dequeue t ~now;
  let p = Selfprof.switch t.selfprof Selfprof.ph_dram in
  Controller.tick t.dram ~now ~respond:t.respond;
  Selfprof.restore t.selfprof p

let busy t =
  Array.exists (fun e -> e <> None) t.entries
  || Fifo.length t.pipe > 0
  || Controller.outstanding t.dram > 0
  || Array.exists (fun l -> Fifo.length l.Link.rq > 0 || Fifo.length l.Link.rs > 0) t.links

let probe t ~line = Sram.find t.array ~set:(set_of t line) ~tag:line >= 0

let invalidate_region t ~geometry ~region =
  if busy t then failwith "Llc.invalidate_region: LLC not quiescent";
  let to_drop = ref [] in
  Sram.iter_valid
    (fun set way tag meta ->
      if Addr.region_of geometry (tag * Addr.line_bytes) = region then begin
        (* The monitor descheduled and purged the domain's cores first, so
           no L1 may still hold the line. *)
        if meta.owner <> None || not (Bitvec.is_empty meta.sharers) then
          failwith "Llc.invalidate_region: line still shared by an L1";
        to_drop := (set, way) :: !to_drop
      end)
    t.array;
  List.iter (fun (set, way) -> Sram.invalidate t.array ~set ~way) !to_drop

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything behavior-relevant, including what the state fold
   excludes: the tag array with its mutable directory metadata, the
   replacement state, and the occupancy histogram.  The child links are
   captured here because the LLC owns the links array (the L1s share the
   same Link.t values).  [port_used] is per-cycle scratch refilled in
   every tick before anything reads it and needs no capture; the
   derived indices ([arrived], [free]) are recomputed from the entries. *)

let copy_meta m = { m with sharers = Bitvec.copy m.sharers }
let copy_entry e = { e with e_pending = Bitvec.copy e.e_pending }

type link_ck = {
  lk_rq : Msg.child_req list;
  lk_rs : Msg.child_resp list;
  lk_p2c : Msg.parent_msg list;
}

type checkpoint = {
  ck_array : line_meta Sram.checkpoint;
  ck_repl : Replacement.checkpoint;
  ck_entries : entry option array;
  ck_pipe : (int * pipe_msg) list;
  ck_retryq : int list array;
  ck_uqs : int list array;
  ck_dq : int list;
  ck_dq_pending_read : int;
  ck_links : link_ck array;
  ck_dram : Controller.checkpoint;
  ck_tnow : int;
  ck_live : int;
  ck_occ_hist : Histogram.t;
}

let save t =
  {
    ck_array = Sram.save ~copy:copy_meta t.array;
    ck_repl = Replacement.save t.repl;
    ck_entries = Array.map (Option.map copy_entry) t.entries;
    ck_pipe = Fifo.to_list t.pipe;
    ck_retryq = Array.map Fifo.to_list t.retryq;
    ck_uqs = Array.map Fifo.to_list t.uqs;
    ck_dq = Fifo.to_list t.dq;
    ck_dq_pending_read = t.dq_pending_read;
    ck_links =
      Array.map
        (fun l ->
          {
            lk_rq = Fifo.to_list l.Link.rq;
            lk_rs = Fifo.to_list l.Link.rs;
            lk_p2c = Fifo.to_list l.Link.p2c;
          })
        t.links;
    ck_dram = Controller.save t.dram;
    ck_tnow = t.tnow;
    ck_live = t.live;
    ck_occ_hist = Histogram.copy t.occ_hist;
  }

let restore t ck =
  Sram.restore ~copy:copy_meta t.array ck.ck_array;
  Replacement.restore t.repl ck.ck_repl;
  Array.iteri (fun i e -> t.entries.(i) <- Option.map copy_entry e) ck.ck_entries;
  Fifo.assign t.pipe ck.ck_pipe;
  Array.iteri (fun i xs -> Fifo.assign t.retryq.(i) xs) ck.ck_retryq;
  Array.iteri (fun i xs -> Fifo.assign t.uqs.(i) xs) ck.ck_uqs;
  Fifo.assign t.dq ck.ck_dq;
  t.dq_pending_read <- ck.ck_dq_pending_read;
  Array.iteri
    (fun i lk ->
      Fifo.assign t.links.(i).Link.rq lk.lk_rq;
      Fifo.assign t.links.(i).Link.rs lk.lk_rs;
      Fifo.assign t.links.(i).Link.p2c lk.lk_p2c)
    ck.ck_links;
  Controller.restore t.dram ck.ck_dram;
  t.tnow <- ck.ck_tnow;
  t.live <- ck.ck_live;
  recount t;
  Histogram.restore ~into:t.occ_hist ck.ck_occ_hist

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle signature and labelled dump)           *)
(* ------------------------------------------------------------------ *)

(* MSHRs, every queue (pipeline, retry, UQ, DQ), the child links, and
   the DRAM controller.  The cache array, directory metadata, and
   replacement state are excluded: they only change in cycles that also
   move an MSHR or a queue.  [port_used] is per-cycle scratch refilled
   each tick before use and is likewise excluded. *)

let phase_code = function
  | P_pipe -> 0
  | P_blocked -> 1
  | P_wait_retry -> 2
  | P_wait_downgrade { victim } -> if victim then 4 else 3
  | P_in_dq -> 5
  | P_wait_dram -> 6
  | P_dram_arrived -> 7
  | P_wait_uq -> 8

let sig_msi = function Msi.M -> 2 | Msi.S -> 1 | Msi.I -> 0

let state t s =
  let open Statesig in
  (* Queues render as "x;" runs; their lengths reach the hash through
     [len]. *)
  let ints q =
    len s (Fifo.length q);
    Fifo.iter (item s) q
  in
  let msgs q =
    len s (Fifo.length q);
    Fifo.iter (fun m -> item s (Hashtbl.hash m)) q
  in
  int s "llc.live=" t.live;
  lit s " entries[";
  Array.iter
    (function
      | None -> none s "-"
      | Some e ->
        int s "(ph=" (phase_code e.e_phase);
        int s " c=" e.e_core;
        int s " l=" e.e_line;
        int s " to=" (sig_msi e.e_to);
        int s " s=" e.e_set;
        int s " w=" e.e_way;
        bool s " lk=" e.e_locks_way;
        bool s " wb=" e.e_needs_wb;
        int s "@" e.e_wb_line;
        bool s " r=" e.e_retry;
        int s " p=" (Hashtbl.hash e.e_pending);
        int s " ts=" (List.length e.e_to_send);
        lit s "[";
        List.iter (fun x -> item s (Hashtbl.hash x)) e.e_to_send;
        items s "] blk[" e.e_blocked;
        int s "] dq=" (match e.e_dq_kind with Dq_read -> 0 | Dq_wb -> 1);
        lit s ")")
    t.entries;
  int s "] pipe=" (Fifo.length t.pipe);
  lit s "[";
  Fifo.iter
    (fun (exit_at, msg) ->
      int s "(" exit_at;
      int s "," (Hashtbl.hash msg);
      lit s ")")
    t.pipe;
  lit s "] retryq[";
  Array.iter
    (fun q ->
      ints q;
      lit s "|")
    t.retryq;
  lit s "] uqs[";
  Array.iter
    (fun q ->
      ints q;
      lit s "|")
    t.uqs;
  lit s "] dq[";
  ints t.dq;
  lit s "] dqp=";
  if t.dq_pending_read < 0 then none s "-" else int s "" t.dq_pending_read;
  lit s " links[";
  Array.iter
    (fun l ->
      lit s "rq=";
      msgs l.Link.rq;
      lit s " rs=";
      msgs l.Link.rs;
      lit s " p2c=";
      msgs l.Link.p2c;
      lit s "|")
    t.links;
  lit s "] dram=";
  Controller.state t.dram s

let sb_tag = 1 lsl 41
let never = max_int

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type rob_state = Rs_waiting | Rs_issued | Rs_done

(* One ROB slot.  Every slot is created in [create] and rewritten at
   rename; it is live while it lies in [rob_head, rob_head + rob_count).
   [dst], [old], [lq] and [sq] are -1 for "none". *)
type rob_slot = {
  mutable u : Uop.t;
  mutable dst : int; (* physical destination *)
  mutable old : int; (* previous mapping of the dst, freed at commit *)
  mutable srcs : int array; (* renamed sources, [srcs.(0 .. nsrc - 1)] *)
  mutable nsrc : int;
  mutable lq : int; (* LQ slot of a load *)
  mutable sq : int; (* SQ slot of a store *)
  mutable state : rob_state;
  mutable mispredict : bool;
}

type purge_phase = Pp_none | Pp_quiesce | Pp_flush of int (* start cycle *)

type purge_kind = Pk_enter | Pk_exit | Pk_external

type predictor_ctx = {
  px_tournament : Tournament.snapshot;
  px_btb : Btb.snapshot;
}

(* An issue queue: ROB indices, oldest first, in [slots.(0 .. n - 1)].
   A scan that finds no entry ready arms the queue: no entry can be
   ready before [skip_until], so the scans before it are skipped.  A
   pushed entry ready earlier lowers [skip_until]; the fall of a
   [ready_at] one of its entries waits on sets it to 0.  [bit] is the
   queue's bit in the core's [waiters] masks. *)
type iq = {
  slots : int array;
  mutable n : int;
  mutable skip_until : int;
  bit : int;
}

(* Pending events on a timing wheel.  Bucket [c land mask] holds the
   events that run at cycle [c], in insertion order, for each [c] in
   (ran, ran + buckets); [ran] is the last cycle whose events have run.
   An event due at or before [ran] (a zero delay after this cycle's
   events ran) runs at [ran + 1], as it would have under a scan of every
   pending event each cycle.  An event is four ints in its bucket: the
   cycle it is due, its insertion number, its kind and its argument
   (see [run_event]). *)
type wheel = {
  mutable buckets : int array array;
  mutable counts : int array; (* events per bucket *)
  mutable mask : int;
  mutable ran : int;
  mutable seq : int; (* next insertion number *)
  mutable pending : int;
}

(* Event kinds.  The argument is a ROB index, or a page for the I-side
   kinds. *)
let ev_exec_done = 0 (* an ALU, branch or jump µop finishes *)
let ev_store_addr = 1 (* a translated store address enters the SQ *)
let ev_load_forwarded = 2 (* a forwarded load completes *)
let ev_load_port = 3 (* a load retries the D-cache port *)
let ev_dtlb_l2 = 4 (* the L2 TLB answers a D-side miss *)
let ev_dtlb_walk = 5 (* a D-side walk waits for a walker slot *)
let ev_itlb_l2 = 6 (* the L2 TLB answers an I-side miss *)
let ev_itlb_walk = 7 (* an I-side walk waits for a walker slot *)

(* Counter handles, resolved once per core. *)
type counters = {
  c_cycles : Stats.counter;
  c_fetched : Stats.counter;
  c_branches : Stats.counter;
  c_mispredicts : Stats.counter;
  c_btb_jump_misses : Stats.counter;
  c_ras_mispredicts : Stats.counter;
  c_itlb_misses : Stats.counter;
  c_dtlb_misses : Stats.counter;
  c_l2tlb_misses : Stats.counter;
  c_store_forwards : Stats.counter;
  c_sb_full_stalls : Stats.counter;
  c_traps : Stats.counter;
  c_purges : Stats.counter;
  c_purge_stall_cycles : Stats.counter;
  c_predictor_restores : Stats.counter;
  c_cpi : Stats.counter array; (* indexed like [cpi_counters] *)
}

type t = {
  cfg : Core_config.t;
  l1i : L1.t;
  l1d : L1.t;
  stream : unit -> Uop.t option;
  ctr : counters;
  (* Front end *)
  btb : Btb.t;
  tournament : Tournament.t;
  ras : Ras.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  l2tlb : Tlb.t;
  tcache : Trans_cache.t;
  ptw : Ptw.t;
  ptw_issue : line:int -> id:int -> bool; (* walker's D-cache port *)
  (* Fetch queue: a ring of fetched µops, each with the mispredict flag
     fetch gave it. *)
  fq_uops : Uop.t array;
  fq_mispredict : bool array;
  mutable fq_head : int;
  mutable fq_len : int;
  mutable stream_done : bool;
  mutable fetch_stall_until : int;
  mutable fetch_blocked_on_resolve : bool;
  mutable fetch_blocked_on_trap : bool;
  mutable fetch_wait_icache : bool;
  mutable fetch_wait_itlb : bool;
  mutable last_fetch_line : int;
  mutable last_fetch_page : int;
  (* Rename / backend *)
  rob : rob_slot array;
  mutable rob_head : int;
  mutable rob_tail : int;
  mutable rob_count : int;
  map_table : int array; (* logical -> phys *)
  free_list : Ring.t;
  ready_at : int array; (* per phys reg *)
  (* Per ROB slot: the cycle its µop has every source, the latest of
     their [ready_at]; [never] while one is unknown, and then recomputed
     by each scan of its issue queue. *)
  rdy : int array;
  (* Per physical register, one byte: the [bit]s of the issue queues
     holding an entry blocked on it, which its [ready_at]'s fall
     disarms. *)
  waiters : Bytes.t;
  iq_alu : iq array;
  iq_mem : iq;
  iq_fp : iq;
  lq : bool array; (* slot busy *)
  mutable lq_free : int; (* slots not busy *)
  lq_rob : int array; (* per LQ slot: ROB index of its load, -1 when free *)
  (* SQ: a ring of [sq_count] stores from [sq_head]. *)
  sq_line : int array;
  sq_ready : bool array; (* address translated; false when free *)
  mutable sq_head : int;
  mutable sq_tail : int;
  mutable sq_count : int;
  sb : bool array; (* store buffer slots busy *)
  sb_lines : int array; (* line held by each store-buffer slot *)
  sb_pending : Ring.t; (* sb slots waiting to drain *)
  mutable dtlb_outstanding : int;
  wheel : wheel; (* deferred events *)
  mutable purge : purge_phase;
  mutable purge_kind : purge_kind;
  mutable saved_predictors : predictor_ctx option;
  mutable purge_requested : bool;
  mutable committed : int;
  mutable now : int;
  (* Observability *)
  trace : Trace.t;
  id : int; (* core index, for trace attribution *)
  mutable last_cpi : int; (* Cpistack category index of the last tick *)
  mutable purge_started : int;
  lq_issued_at : int array; (* per LQ slot: cycle the load issued *)
  load_lat : Histogram.t; (* load issue-to-complete, cache path only *)
  purge_lat : Histogram.t; (* full purge duration *)
  mutable on_commit : Uop.t -> unit; (* retirement probe, default no-op *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Counter names indexed by Cpistack.categories order:
   base / mispredict / l1_miss / llc_dram / tlb_walk / purge / other. *)
let cpi_counters =
  [|
    "core.cpi.base";
    "core.cpi.mispredict";
    "core.cpi.l1_miss";
    "core.cpi.llc_dram";
    "core.cpi.tlb_walk";
    "core.cpi.purge";
    "core.cpi.other";
  |]

let counters stats =
  let c = Stats.counter stats in
  {
    c_cycles = c "core.cycles";
    c_fetched = c "core.fetched";
    c_branches = c "core.branches";
    c_mispredicts = c "core.mispredicts";
    c_btb_jump_misses = c "core.btb_jump_misses";
    c_ras_mispredicts = c "core.ras_mispredicts";
    c_itlb_misses = c "core.itlb_misses";
    c_dtlb_misses = c "core.dtlb_misses";
    c_l2tlb_misses = c "core.l2tlb_misses";
    c_store_forwards = c "core.store_forwards";
    c_sb_full_stalls = c "core.sb_full_stalls";
    c_traps = c "core.traps";
    c_purges = c "core.purges";
    c_purge_stall_cycles = c "core.purge_stall_cycles";
    c_predictor_restores = c "core.predictor_restores";
    c_cpi = Array.map c cpi_counters;
  }

(* Fills slots that hold no µop yet. *)
let no_uop = { Uop.pc = 0; kind = Uop.Enter_kernel; dst = None; srcs = [] }

let new_slot () =
  {
    u = no_uop;
    dst = -1;
    old = -1;
    srcs = Array.make 2 0;
    nsrc = 0;
    lq = -1;
    sq = -1;
    state = Rs_waiting;
    mispredict = false;
  }

let wheel_create size =
  {
    buckets = Array.make size [||]; (* each grows on its first event *)
    counts = Array.make size 0;
    mask = size - 1;
    ran = -1;
    seq = 0;
    pending = 0;
  }

let iq_create cap i = { slots = Array.make cap 0; n = 0; skip_until = 0; bit = 1 lsl i }

let fetch_queue_entries = 16

let create ?(trace = Trace.null) ?(id = 0) cfg ~l1i ~l1d ~stream ~stats
    ~pt_base_line =
  let tcache = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  let phys_regs = cfg.Core_config.phys_regs in
  let free_list = Ring.create phys_regs in
  for p = 32 to phys_regs - 1 do
    Ring.push free_list p
  done;
  let ptw_issue ~line ~id =
    L1.can_accept l1d
    && begin
      L1.request l1d ~line ~store:false ~id;
      true
    end
  in
  let alu_pipes = cfg.Core_config.alu_pipes in
  (* One [waiters] bit per issue queue: the ALUs', FP, memory. *)
  if alu_pipes + 2 > 8 then invalid_arg "Core.create: at most 6 ALU pipes";
  let iq = iq_create cfg.Core_config.iq_entries in
  {
    cfg;
    l1i;
    l1d;
    stream;
    ctr = counters stats;
    btb = Btb.create ();
    tournament = Tournament.create ();
    ras = Ras.create ();
    itlb = Tlb.create Tlb.l1_config;
    dtlb = Tlb.create Tlb.l1_config;
    l2tlb = Tlb.create Tlb.l2_config;
    tcache;
    ptw =
      Ptw.create ~trace ~core:id ~max_walks:2 ~tcache ~pt_base_line
        ~table_window_lines:4096 ();
    ptw_issue;
    fq_uops = Array.make fetch_queue_entries no_uop;
    fq_mispredict = Array.make fetch_queue_entries false;
    fq_head = 0;
    fq_len = 0;
    stream_done = false;
    fetch_stall_until = 0;
    fetch_blocked_on_resolve = false;
    fetch_blocked_on_trap = false;
    fetch_wait_icache = false;
    fetch_wait_itlb = false;
    last_fetch_line = -1;
    last_fetch_page = -1;
    rob = Array.init cfg.Core_config.rob_entries (fun _ -> new_slot ());
    rob_head = 0;
    rob_tail = 0;
    rob_count = 0;
    map_table = Array.init 32 (fun i -> i);
    free_list;
    ready_at = Array.make phys_regs 0;
    rdy = Array.make cfg.Core_config.rob_entries never;
    waiters = Bytes.make phys_regs '\000';
    iq_alu = Array.init alu_pipes iq;
    iq_fp = iq alu_pipes;
    iq_mem = iq (alu_pipes + 1);
    lq = Array.make cfg.Core_config.lq_entries false;
    lq_free = cfg.Core_config.lq_entries;
    lq_rob = Array.make cfg.Core_config.lq_entries (-1);
    sq_line = Array.make cfg.Core_config.sq_entries 0;
    sq_ready = Array.make cfg.Core_config.sq_entries false;
    sq_head = 0;
    sq_tail = 0;
    sq_count = 0;
    sb = Array.make cfg.Core_config.sb_entries false;
    sb_lines = Array.make cfg.Core_config.sb_entries 0;
    sb_pending = Ring.create cfg.Core_config.sb_entries;
    dtlb_outstanding = 0;
    wheel = wheel_create 32;
    purge = Pp_none;
    purge_kind = Pk_external;
    saved_predictors = None;
    purge_requested = false;
    committed = 0;
    now = 0;
    trace;
    id;
    last_cpi = 6;
    on_commit = ignore;
    purge_started = 0;
    lq_issued_at = Array.make cfg.Core_config.lq_entries 0;
    load_lat = Histogram.create ();
    purge_lat = Histogram.create ();
  }

let committed_instructions t = t.committed
let set_on_commit t f = t.on_commit <- f
let purging t = match t.purge with Pp_none -> false | _ -> true
let load_latency t = t.load_lat
let purge_latency t = t.purge_lat
let walk_latency t = Ptw.walk_latency t.ptw

let purge_kind_name = function
  | Pk_enter -> "enter"
  | Pk_exit -> "exit"
  | Pk_external -> "external"

let begin_purge t kind =
  t.purge <- Pp_quiesce;
  t.purge_kind <- kind;
  t.purge_started <- t.now;
  if Trace.active t.trace Trace.Purge then begin
    Trace.emit t.trace ~now:t.now
      (Trace.Purge_begin { core = t.id; kind = purge_kind_name kind });
    Trace.emit t.trace ~now:t.now
      (Trace.Purge_phase { core = t.id; phase = "quiesce" })
  end

let predictor_signature t =
  (Tournament.state_signature t.tournament * 31)
  + (Btb.occupancy t.btb * 7)
  + Ras.depth t.ras

let request_purge t = t.purge_requested <- true

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

(* File an event under the cycle it runs at.  The caller guarantees that
   cycle lies in the window. *)
let wheel_file w ~at ~seq ~kind ~arg =
  let b = Int.max at (w.ran + 1) land w.mask in
  let n = w.counts.(b) in
  if 4 * n = Array.length w.buckets.(b) then begin
    let bigger = Array.make (Int.max 16 (8 * n)) 0 in
    Array.blit w.buckets.(b) 0 bigger 0 (4 * n);
    w.buckets.(b) <- bigger
  end;
  let bucket = w.buckets.(b) and o = 4 * n in
  bucket.(o) <- at;
  bucket.(o + 1) <- seq;
  bucket.(o + 2) <- kind;
  bucket.(o + 3) <- arg;
  w.counts.(b) <- n + 1;
  w.pending <- w.pending + 1

(* Every pending event as (at, seq, kind, arg), newest first: the order
   the state fold reads. *)
let pending_events w =
  let acc = ref [] in
  Array.iteri
    (fun b n ->
      let bucket = w.buckets.(b) in
      for i = 0 to n - 1 do
        let o = 4 * i in
        acc :=
          (bucket.(o), bucket.(o + 1), bucket.(o + 2), bucket.(o + 3)) :: !acc
      done)
    w.counts;
  List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) !acc

(* Refile [evs] (oldest first) as the only pending events, on at least
   [size] buckets. *)
let wheel_rebuild w ~size evs =
  if size > Array.length w.buckets then begin
    w.buckets <- Array.make size [||];
    w.counts <- Array.make size 0;
    w.mask <- size - 1
  end
  else Array.fill w.counts 0 (Array.length w.counts) 0;
  w.pending <- 0;
  List.iter (fun (at, seq, kind, arg) -> wheel_file w ~at ~seq ~kind ~arg) evs

let after t delay kind arg =
  let w = t.wheel in
  let at = t.now + delay and seq = w.seq in
  w.seq <- w.seq + 1;
  let span = Int.max at (w.ran + 1) - w.ran in
  if span >= Array.length w.buckets then begin
    (* Beyond the window: double the wheel until it fits. *)
    let size = ref (Array.length w.buckets) in
    while span >= !size do
      size := 2 * !size
    done;
    wheel_rebuild w ~size:!size (List.rev (pending_events w))
  end;
  wheel_file w ~at ~seq ~kind ~arg

(* ------------------------------------------------------------------ *)
(* ROB helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rob_full t = t.rob_count = Array.length t.rob
let rob_empty t = t.rob_count = 0

(* [idx] holds an in-flight µop. *)
let rob_live t idx =
  let n = Array.length t.rob in
  (idx - t.rob_head + n) mod n < t.rob_count

(* The latest [ready_at] of [e]'s sources: [never] while one is
   unknown, 0 for none. *)
let srcs_ready_at t e =
  let r = ref 0 and i = ref 0 in
  while !r < never && !i < e.nsrc do
    r := Int.max !r t.ready_at.(e.srcs.(!i));
    incr i
  done;
  !r

(* [e]'s first source whose [ready_at] is unknown, or -1. *)
let first_unknown t e =
  let p = ref (-1) and i = ref 0 in
  while !p < 0 && !i < e.nsrc do
    if t.ready_at.(e.srcs.(!i)) = never then p := e.srcs.(!i);
    incr i
  done;
  !p

(* Caches and returns the ready cycle of the µop at ROB slot [idx]
   ([srcs_ready_at] in one pass), queued in [q]; blocked, it puts [q] on
   its first unknown source's [waiters]. *)
let cache_ready t q idx =
  let e = t.rob.(idx) in
  let r = ref 0 and i = ref 0 in
  while !r < never && !i < e.nsrc do
    let p = e.srcs.(!i) in
    r := Int.max !r t.ready_at.(p);
    if !r = never then
      Bytes.set_uint8 t.waiters p (Bytes.get_uint8 t.waiters p lor q.bit);
    incr i
  done;
  t.rdy.(idx) <- !r;
  !r

let disarm q waiters = if waiters land q.bit <> 0 then q.skip_until <- 0

(* A physical register's [ready_at] falls from [never] exactly once per
   allocation: at issue for an ALU, branch or jump µop, at completion or
   forwarding for a load.  The fall disarms every queue holding an entry
   blocked on it. *)
let set_ready t p at =
  t.ready_at.(p) <- at;
  let m = Bytes.get_uint8 t.waiters p in
  if m <> 0 then begin
    Bytes.set_uint8 t.waiters p 0;
    for i = 0 to Array.length t.iq_alu - 1 do
      disarm t.iq_alu.(i) m
    done;
    disarm t.iq_fp m;
    disarm t.iq_mem m
  end

let mark_done t idx =
  let e = t.rob.(idx) in
  e.state <- Rs_done;
  if e.dst >= 0 then set_ready t e.dst (Int.min t.ready_at.(e.dst) t.now)

let mem_addr e =
  match e.u.Uop.kind with
  | Uop.Load { addr } | Uop.Store { addr } -> addr
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Translation (D-side)                                                *)
(* ------------------------------------------------------------------ *)

(* Store-to-load forwarding: an older SQ entry with a ready address on the
   same line forwards, as does a store-buffer entry that has retired but
   not yet drained to the D-cache.  (Timing model: unknown older store
   addresses do not block the load — RiscyOO issues loads
   speculatively.) *)
let forwardable t line =
  (* Only in-flight stores have a ready address: scan the SQ's window. *)
  let nsq = Array.length t.sq_line in
  let found = ref false and k = ref 0 in
  while (not !found) && !k < t.sq_count do
    let i = t.sq_head + !k in
    let i = if i >= nsq then i - nsq else i in
    found := t.sq_ready.(i) && t.sq_line.(i) = line;
    incr k
  done;
  let i = ref 0 in
  while (not !found) && !i < Array.length t.sb do
    found := t.sb.(!i) && t.sb_lines.(!i) = line;
    incr i
  done;
  !found

(* The load at [idx] asks the D-cache, or retries next cycle when the
   port is busy. *)
let load_port t idx =
  if L1.can_accept t.l1d then begin
    let e = t.rob.(idx) in
    L1.request t.l1d ~line:(mem_addr e lsr 6) ~store:false ~id:e.lq
  end
  else after t 1 ev_load_port idx

(* The memory µop at [idx] has its translation: a store's address
   enters the SQ a cycle later; a load forwards or goes to the
   D-cache. *)
let translated t idx =
  let e = t.rob.(idx) in
  match e.u.Uop.kind with
  | Uop.Store _ -> after t 1 ev_store_addr idx
  | Uop.Load { addr } ->
    if forwardable t (addr lsr 6) then begin
      Stats.bump t.ctr.c_store_forwards;
      after t 1 ev_load_forwarded idx
    end
    else load_port t idx
  | _ -> assert false

(* Hardware walk for the memory µop at [idx]; waits for a walker slot if
   both are busy. *)
let start_dwalk t idx =
  if Ptw.can_start t.ptw then begin
    let vpage = mem_addr t.rob.(idx) / 4096 in
    Ptw.start t.ptw ~vpage ~on_done:(fun ~reads:_ ->
        Tlb.insert t.l2tlb ~vpage;
        Tlb.insert t.dtlb ~vpage;
        t.dtlb_outstanding <- t.dtlb_outstanding - 1;
        translated t idx)
  end
  else after t 1 ev_dtlb_walk idx

(* Attempt to begin translation for the memory µop at [idx]; [translated]
   runs when the translation is available.  Returns false when the DTLB
   cannot take another miss this cycle (caller retries next cycle). *)
let translate_d t idx =
  let vpage = mem_addr t.rob.(idx) / 4096 in
  if Tlb.lookup t.dtlb ~vpage then begin
    translated t idx;
    true
  end
  else if t.dtlb_outstanding >= t.cfg.Core_config.dtlb_misses then false
  else begin
    Stats.bump t.ctr.c_dtlb_misses;
    t.dtlb_outstanding <- t.dtlb_outstanding + 1;
    after t t.cfg.Core_config.l2tlb_latency ev_dtlb_l2 idx;
    true
  end

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

let start_iwalk t page =
  if Ptw.can_start t.ptw then
    Ptw.start t.ptw ~vpage:page ~on_done:(fun ~reads:_ ->
        Tlb.insert t.l2tlb ~vpage:page;
        Tlb.insert t.itlb ~vpage:page;
        t.fetch_wait_itlb <- false)
  else after t 1 ev_itlb_walk page

(* Handle I-side line/page transitions; true when the µop's line is
   available this cycle. *)
let fetch_mem_ok t (u : Uop.t) =
  let line = u.Uop.pc lsr 6 in
  let page = u.Uop.pc lsr 12 in
  if t.fetch_wait_icache || t.fetch_wait_itlb then false
  else if line = t.last_fetch_line then true
  else begin
    (* Page transition first: I-TLB. *)
    if page <> t.last_fetch_page && not (Tlb.lookup t.itlb ~vpage:page) then begin
      Stats.bump t.ctr.c_itlb_misses;
      t.fetch_wait_itlb <- true;
      after t t.cfg.Core_config.l2tlb_latency ev_itlb_l2 page;
      false
    end
    else begin
      if page <> t.last_fetch_page then t.last_fetch_page <- page;
      (* I-cache: pipelined hits are free; misses stall fetch. *)
      if L1.try_hit t.l1i ~line then begin
        t.last_fetch_line <- line;
        (* Next-line instruction prefetch (RiscyOO fetches ahead). *)
        if L1.probe t.l1i ~line:(line + 1) = Msi.I && L1.can_accept t.l1i
        then L1.request t.l1i ~line:(line + 1) ~store:false ~id:1;
        true
      end
      else if L1.can_accept t.l1i then begin
        L1.request t.l1i ~line ~store:false ~id:0;
        t.fetch_wait_icache <- true;
        t.last_fetch_line <- line;
        (if L1.probe t.l1i ~line:(line + 1) = Msi.I && L1.can_accept t.l1i
         then L1.request t.l1i ~line:(line + 1) ~store:false ~id:1);
        false
      end
      else false
    end
  end

(* Branch prediction at fetch: trains the structures and reports whether
   fetch must stall (resolution-based redirect) or take a small
   decode-time redirect. *)
type fetch_outcome = F_ok | F_stall_until_resolve | F_decode_redirect

let predict_control t (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Branch { taken; target } ->
    Stats.bump t.ctr.c_branches;
    let pred_dir = Tournament.predict t.tournament ~pc:u.Uop.pc in
    let btb_target = Btb.predict t.btb ~pc:u.Uop.pc in
    Tournament.update t.tournament ~pc:u.Uop.pc ~taken;
    if taken then Btb.update t.btb ~pc:u.Uop.pc ~target;
    if pred_dir <> taken || (taken && btb_target <> target) then begin
      Stats.bump t.ctr.c_mispredicts;
      F_stall_until_resolve
    end
    else F_ok
  | Uop.Jump { target; kind } -> (
    match kind with
    | `Plain | `Call ->
      if kind = `Call then Ras.push t.ras (u.Uop.pc + 4);
      let hit = Btb.predict t.btb ~pc:u.Uop.pc = target in
      Btb.update t.btb ~pc:u.Uop.pc ~target;
      if hit then F_ok
      else begin
        Stats.bump t.ctr.c_btb_jump_misses;
        F_decode_redirect
      end
    | `Return ->
      let pred = Ras.pop t.ras in
      if pred = target then F_ok
      else begin
        Stats.bump t.ctr.c_ras_mispredicts;
        Stats.bump t.ctr.c_mispredicts;
        F_stall_until_resolve
      end)
  | _ -> F_ok

(* Ring position of the [i]th oldest fetch-queue entry. *)
let fq_slot t i = (t.fq_head + i) mod fetch_queue_entries

let fetch_stage t =
  if
    t.now >= t.fetch_stall_until
    && (not t.fetch_blocked_on_resolve)
    && (not t.fetch_blocked_on_trap)
    && not t.stream_done
  then begin
    let budget = ref t.cfg.Core_config.fetch_width in
    let stop = ref false in
    while !budget > 0 && (not !stop) && t.fq_len < fetch_queue_entries do
      match t.stream () with
      | None ->
        t.stream_done <- true;
        stop := true
      | Some u ->
        (* The µop is "fetched" only if its I-line is ready; otherwise it
           still enters the fetch queue but fetch stalls behind it.  We
           model by consuming it and stalling afterwards. *)
        let mem_ok = fetch_mem_ok t u in
        Stats.bump t.ctr.c_fetched;
        let mispredicted = ref false in
        (match u.Uop.kind with
        | Uop.Branch _ | Uop.Jump _ -> (
          match predict_control t u with
          | F_ok -> ()
          | F_stall_until_resolve ->
            mispredicted := true;
            t.fetch_blocked_on_resolve <- true;
            stop := true
          | F_decode_redirect ->
            t.fetch_stall_until <- t.now + t.cfg.Core_config.decode_redirect;
            stop := true)
        | Uop.Enter_kernel | Uop.Exit_kernel ->
          (* Trap boundary: fetch may not run ahead into the handler (or
             back into user code) until the trap is delivered — i.e. the
             marker reaches rename with an empty ROB.  Letting the front
             end prefetch across the boundary while the older µops drain
             would warm the next domain's I-lines by an amount that
             depends on the drain, an interrupt-schedule side channel
             the purge could never scrub. *)
          t.fetch_blocked_on_trap <- true;
          stop := true
        | Uop.Alu _ | Uop.Load _ | Uop.Store _ -> ());
        let s = fq_slot t t.fq_len in
        t.fq_uops.(s) <- u;
        t.fq_mispredict.(s) <- !mispredicted;
        t.fq_len <- t.fq_len + 1;
        if not mem_ok then stop := true else decr budget
    done
  end

(* ------------------------------------------------------------------ *)
(* Rename / dispatch                                                   *)
(* ------------------------------------------------------------------ *)

(* Lowest free LQ slot, or -1. *)
let alloc_lq t =
  let i = ref 0 in
  while !i < Array.length t.lq && t.lq.(!i) do
    incr i
  done;
  if !i < Array.length t.lq then !i else -1

(* The pushed entry's ready cycle is cached as a scan would cache it,
   so an armed queue stays armed until the earlier of its cycle and the
   entry's. *)
let iq_push t q idx =
  q.slots.(q.n) <- idx;
  q.n <- q.n + 1;
  q.skip_until <- Int.min q.skip_until (cache_ready t q idx)

let iq_remove_at q j =
  for k = j to q.n - 2 do
    q.slots.(k) <- q.slots.(k + 1)
  done;
  q.n <- q.n - 1

(* The shorter ALU issue queue (the lowest-numbered among equals). *)
let shortest_alu_iq t =
  let best = ref 0 in
  for i = 1 to Array.length t.iq_alu - 1 do
    if t.iq_alu.(i).n < t.iq_alu.(!best).n then best := i
  done;
  t.iq_alu.(!best)

let dispatch_iq t idx (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> iq_push t t.iq_mem idx
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> iq_push t t.iq_fp idx
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ -> iq_push t (shortest_alu_iq t) idx
  | Uop.Enter_kernel | Uop.Exit_kernel -> ()

let iq_has_room t (u : Uop.t) =
  let cap = t.cfg.Core_config.iq_entries in
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> t.iq_mem.n < cap
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> t.iq_fp.n < cap
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ -> (shortest_alu_iq t).n < cap
  | Uop.Enter_kernel | Uop.Exit_kernel -> true

(* Rename logical [regs] into [e.srcs] from position [i] on, growing the
   array for a µop with more sources than any before it in this slot. *)
let rec rename_srcs t e i = function
  | [] -> e.nsrc <- i
  | r :: rest ->
    if i = Array.length e.srcs then begin
      let bigger = Array.make (2 * i) 0 in
      Array.blit e.srcs 0 bigger 0 i;
      e.srcs <- bigger
    end;
    e.srcs.(i) <- t.map_table.(r);
    rename_srcs t e (i + 1) rest

let rename_stage t =
  let budget = ref t.cfg.Core_config.fetch_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && t.fq_len > 0 && not (rob_full t) do
    let u = t.fq_uops.(t.fq_head) in
    let is_marker =
      match u.Uop.kind with
      | Uop.Enter_kernel | Uop.Exit_kernel -> true
      | _ -> false
    in
    let nonspec_block =
      t.cfg.Core_config.nonspec_mem && Uop.is_mem u && not (rob_empty t)
    in
    let marker_block = is_marker && not (rob_empty t) in
    let needs_dst = match u.Uop.dst with Some _ -> true | None -> false in
    let sq_needed = match u.Uop.kind with Uop.Store _ -> true | _ -> false in
    let lq_needed = match u.Uop.kind with Uop.Load _ -> true | _ -> false in
    if
      nonspec_block || marker_block
      || (needs_dst && t.free_list.Ring.len = 0)
      || (not (iq_has_room t u))
      || (sq_needed && t.sq_count = Array.length t.sq_line)
      || (lq_needed && t.lq_free = 0)
    then stop := true
    else begin
      let mispredict = t.fq_mispredict.(t.fq_head) in
      t.fq_head <- fq_slot t 1;
      t.fq_len <- t.fq_len - 1;
      if is_marker then begin
        (* Serialized trap boundary: costs the trap latency and, in FLUSH
           variants, triggers the purge state machine.  Nothing younger
           may rename this cycle (the purge needs an empty machine). *)
        t.committed <- t.committed + 1;
        t.on_commit u;
        Stats.bump t.ctr.c_traps;
        (* Trap delivered: the front end redirects into the handler and
           pays the refill penalty (absorbed by the purge stall on the
           flushing variants). *)
        t.fetch_blocked_on_trap <- false;
        t.fetch_stall_until <-
          Int.max t.fetch_stall_until (t.now + t.cfg.Core_config.redirect_penalty);
        if t.cfg.Core_config.flush_on_trap then begin
          begin_purge t
            (match u.Uop.kind with
            | Uop.Enter_kernel -> Pk_enter
            | _ -> Pk_exit);
          stop := true
        end
      end
      else begin
        let idx = t.rob_tail in
        let e = t.rob.(idx) in
        e.u <- u;
        (* Sources read the map before the destination is renamed. *)
        rename_srcs t e 0 u.Uop.srcs;
        (match u.Uop.dst with
        | None ->
          e.dst <- -1;
          e.old <- -1
        | Some d ->
          let p = Ring.pop t.free_list in
          e.dst <- p;
          e.old <- t.map_table.(d);
          t.map_table.(d) <- p;
          t.ready_at.(p) <- never);
        if lq_needed then begin
          let s = alloc_lq t in
          t.lq.(s) <- true;
          t.lq_free <- t.lq_free - 1;
          t.lq_rob.(s) <- idx;
          e.lq <- s
        end
        else e.lq <- -1;
        (match u.Uop.kind with
        | Uop.Store { addr } ->
          let s = t.sq_tail in
          t.sq_line.(s) <- addr lsr 6;
          t.sq_ready.(s) <- false;
          t.sq_tail <- (s + 1) mod Array.length t.sq_line;
          t.sq_count <- t.sq_count + 1;
          e.sq <- s
        | _ -> e.sq <- -1);
        e.state <- Rs_waiting;
        e.mispredict <- mispredict;
        t.rob_tail <- (idx + 1) mod Array.length t.rob;
        t.rob_count <- t.rob_count + 1;
        dispatch_iq t idx u
      end;
      decr budget
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue / execute                                                     *)
(* ------------------------------------------------------------------ *)

(* Position of the oldest issuable entry of [q], or -1.  Every queued
   entry is waiting (issue removes it, or reverts it on a D-TLB stall),
   so readiness is its sources' alone.  A scan that finds none arms the
   queue at the earliest ready cycle it saw, each blocked entry waiting
   on a source. *)
let pick_ready t q =
  if t.now < q.skip_until then -1
  else begin
    let found = ref (-1) and j = ref 0 and next = ref never in
    while !found < 0 && !j < q.n do
      let idx = q.slots.(!j) in
      let r = t.rdy.(idx) in
      let r = if r < never then r else cache_ready t q idx in
      if r <= t.now then found := !j else next := Int.min !next r;
      incr j
    done;
    if !found < 0 then q.skip_until <- !next;
    !found
  end

let issue_alu_like t idx =
  let e = t.rob.(idx) in
  e.state <- Rs_issued;
  let latency =
    match e.u.Uop.kind with
    | Uop.Alu { latency; _ } -> latency
    | Uop.Branch _ | Uop.Jump _ -> 1
    | _ -> assert false
  in
  if e.dst >= 0 then set_ready t e.dst (t.now + latency);
  after t latency ev_exec_done idx

(* Address generation + translation.  A store "executes" when its
   address is translated and entered into the SQ. *)
let issue_mem t idx =
  let e = t.rob.(idx) in
  e.state <- Rs_issued;
  if e.lq >= 0 then t.lq_issued_at.(e.lq) <- t.now;
  if not (translate_d t idx) then e.state <- Rs_waiting (* retry *)

let issue_alu_iq t q =
  let j = pick_ready t q in
  if j >= 0 then begin
    let idx = q.slots.(j) in
    iq_remove_at q j;
    issue_alu_like t idx
  end

let issue_stage t =
  for i = 0 to Array.length t.iq_alu - 1 do
    issue_alu_iq t t.iq_alu.(i)
  done;
  issue_alu_iq t t.iq_fp;
  let q = t.iq_mem in
  let j = pick_ready t q in
  if j >= 0 then begin
    let idx = q.slots.(j) in
    issue_mem t idx;
    (* Leave in the queue on a DTLB-port stall (state reverted). *)
    match t.rob.(idx).state with
    | Rs_waiting -> ()
    | _ -> iq_remove_at q j
  end

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let run_event t kind arg =
  if kind = ev_exec_done then begin
    let e = t.rob.(arg) in
    e.state <- Rs_done;
    (* Control resolution restarts a stalled front end. *)
    match e.u.Uop.kind with
    | Uop.Branch _ | Uop.Jump _ ->
      if e.mispredict then begin
        e.mispredict <- false;
        t.fetch_blocked_on_resolve <- false;
        t.fetch_stall_until <-
          Int.max t.fetch_stall_until (t.now + t.cfg.Core_config.redirect_penalty)
      end
    | _ -> ()
  end
  else if kind = ev_store_addr then begin
    let e = t.rob.(arg) in
    t.sq_ready.(e.sq) <- true;
    e.state <- Rs_done
  end
  else if kind = ev_load_forwarded then mark_done t arg
  else if kind = ev_load_port then load_port t arg
  else if kind = ev_dtlb_l2 then begin
    let vpage = mem_addr t.rob.(arg) / 4096 in
    if Tlb.lookup t.l2tlb ~vpage then begin
      Tlb.insert t.dtlb ~vpage;
      t.dtlb_outstanding <- t.dtlb_outstanding - 1;
      translated t arg
    end
    else begin
      Stats.bump t.ctr.c_l2tlb_misses;
      start_dwalk t arg
    end
  end
  else if kind = ev_dtlb_walk then start_dwalk t arg
  else if kind = ev_itlb_l2 then begin
    if Tlb.lookup t.l2tlb ~vpage:arg then begin
      Tlb.insert t.itlb ~vpage:arg;
      t.fetch_wait_itlb <- false
    end
    else start_iwalk t arg
  end
  else if kind = ev_itlb_walk then start_iwalk t arg
  else invalid_arg "Core.run_event"

(* Run every event due by [t.now], oldest first.  Ticking cycle after
   cycle, the due events are exactly the next cycle's bucket. *)
let run_events t =
  let w = t.wheel in
  if t.now = w.ran + 1 then begin
    w.ran <- t.now;
    let b = t.now land w.mask in
    let n = w.counts.(b) in
    if n > 0 then begin
      (* Detached first: events file new events in later cycles, so
         never in this bucket, possibly into a regrown wheel. *)
      let bucket = w.buckets.(b) in
      w.counts.(b) <- 0;
      w.pending <- w.pending - n;
      for i = 0 to n - 1 do
        run_event t bucket.((4 * i) + 2) bucket.((4 * i) + 3)
      done
    end
  end
  else begin
    (* A skipped or repeated cycle: every event due by now runs, in
       insertion order, and the rest are refiled around the new [ran]. *)
    let due, rest =
      List.partition (fun (at, _, _, _) -> at <= t.now) (pending_events w)
    in
    w.ran <- Int.max w.ran t.now;
    wheel_rebuild w ~size:(Array.length w.buckets) (List.rev rest);
    List.iter (fun (_, _, kind, arg) -> run_event t kind arg) (List.rev due)
  end

(* ------------------------------------------------------------------ *)
(* Store buffer                                                        *)
(* ------------------------------------------------------------------ *)

(* Lowest free store-buffer slot, or -1. *)
let alloc_sb t =
  let i = ref 0 in
  while !i < Array.length t.sb && t.sb.(!i) do
    incr i
  done;
  if !i < Array.length t.sb then !i else -1

let sb_stage t =
  if t.sb_pending.Ring.len > 0 && L1.can_accept t.l1d then begin
    let slot = Ring.pop t.sb_pending in
    L1.request t.l1d ~line:t.sb_lines.(slot) ~store:true ~id:(sb_tag lor slot)
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let commit_stage t =
  let budget = ref t.cfg.Core_config.commit_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && not (rob_empty t) do
    let e = t.rob.(t.rob_head) in
    if e.state <> Rs_done then stop := true
    else begin
      (* A store needs a store-buffer slot; the SB drains in
         background. *)
      let can_retire =
        e.sq < 0
        ||
        let slot = alloc_sb t in
        if slot >= 0 then begin
          t.sb.(slot) <- true;
          t.sb_lines.(slot) <- t.sq_line.(e.sq);
          Ring.push t.sb_pending slot;
          true
        end
        else begin
          Stats.bump t.ctr.c_sb_full_stalls;
          false
        end
      in
      if not can_retire then stop := true
      else begin
        if e.old >= 0 then Ring.push t.free_list e.old;
        if e.lq >= 0 then begin
          t.lq.(e.lq) <- false;
          t.lq_free <- t.lq_free + 1;
          t.lq_rob.(e.lq) <- -1
        end;
        if e.sq >= 0 then begin
          t.sq_ready.(e.sq) <- false;
          t.sq_head <- (t.sq_head + 1) mod Array.length t.sq_line;
          t.sq_count <- t.sq_count - 1
        end;
        t.rob_head <- (t.rob_head + 1) mod Array.length t.rob;
        t.rob_count <- t.rob_count - 1;
        t.committed <- t.committed + 1;
        t.on_commit e.u;
        decr budget
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Purge state machine (Section 6 / 7.1)                               *)
(* ------------------------------------------------------------------ *)

let count_busy a =
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) then incr n
  done;
  !n

let backend_quiescent t =
  rob_empty t
  && Ring.is_empty t.sb_pending
  && count_busy t.sb = 0
  && L1.in_flight t.l1d = 0
  && L1.in_flight t.l1i = 0
  && Ptw.active_walks t.ptw = 0
  && t.dtlb_outstanding = 0
  && t.wheel.pending = 0

let purge_stage t =
  match t.purge with
  | Pp_none -> ()
  | Pp_quiesce ->
    Stats.bump t.ctr.c_purge_stall_cycles;
    if backend_quiescent t then begin
      L1.begin_flush t.l1i;
      L1.begin_flush t.l1d;
      if Trace.active t.trace Trace.Purge then
        Trace.emit t.trace ~now:t.now
          (Trace.Purge_phase { core = t.id; phase = "flush" });
      t.purge <- Pp_flush t.now
    end
  | Pp_flush started ->
    Stats.bump t.ctr.c_purge_stall_cycles;
    (* One line per cycle per L1; TLB sets and predictor entries flush in
       parallel within the purge floor. *)
    let i_done = if L1.is_flushing t.l1i then L1.flush_step t.l1i else true in
    let d_done = if L1.is_flushing t.l1d then L1.flush_step t.l1d else true in
    if i_done && d_done && t.now - started >= t.cfg.Core_config.purge_floor
    then begin
      (* Predictor handling: the optional save/restore extension keeps a
         domain's own predictor state across the kernel excursion; the
         kernel itself always starts from the public reset state. *)
      let sr = t.cfg.Core_config.save_restore_predictors in
      (match (sr, t.purge_kind, t.saved_predictors) with
      | true, Pk_enter, _ ->
        t.saved_predictors <-
          Some
            {
              px_tournament = Tournament.snapshot t.tournament;
              px_btb = Btb.snapshot t.btb;
            };
        Tournament.flush t.tournament;
        Btb.flush t.btb
      | true, Pk_exit, Some ctx ->
        Tournament.restore t.tournament ctx.px_tournament;
        Btb.restore t.btb ctx.px_btb;
        t.saved_predictors <- None;
        Stats.bump t.ctr.c_predictor_restores
      | _ ->
        t.saved_predictors <- None;
        Tournament.flush t.tournament;
        Btb.flush t.btb);
      Ras.flush t.ras;
      Tlb.flush_all t.itlb;
      Tlb.flush_all t.dtlb;
      Tlb.flush_all t.l2tlb;
      Trans_cache.flush t.tcache;
      t.last_fetch_line <- -1;
      t.last_fetch_page <- -1;
      Stats.bump t.ctr.c_purges;
      let dur = t.now - t.purge_started in
      Histogram.add t.purge_lat dur;
      if Trace.active t.trace Trace.Purge then
        Trace.emit t.trace ~now:t.now
          (Trace.Purge_end { core = t.id; cycles = dur });
      t.purge <- Pp_none
    end

(* L1.flush_step raises when not flushing; during Pp_flush both are.  The
   two flush_step calls above also send the per-line eviction notices that
   make L1 flushes cost one LLC message per line (Section 7.1). *)

(* ------------------------------------------------------------------ *)
(* CPI-stack attribution                                               *)
(* ------------------------------------------------------------------ *)

(* Top-down attribution: every tick is charged to exactly one
   [core.cpi.*] counter, so within any measurement window the seven
   buckets sum to the cycle count by construction (mi6_sim profile and
   the regression DB rely on that invariant).  Priority order: useful
   commit beats everything; a purge explains any stall during it; an
   empty ROB is a front-end problem (redirect refill, I-cache miss,
   I-TLB refill); otherwise the ROB head names the bottleneck — memory
   stalls split into TLB-walk, L1-miss (served within the LLC round
   trip) and LLC/DRAM (older than the round-trip hint). *)
let attribute_cycle t ~committed_before =
  let cat =
    if t.committed > committed_before then 0 (* base *)
    else if purging t then 5 (* purge *)
    else if rob_empty t then
      if t.fetch_blocked_on_resolve || t.now < t.fetch_stall_until then
        1 (* mispredict *)
      else if t.fetch_wait_icache then 2 (* l1_miss *)
      else if t.fetch_wait_itlb then 4 (* tlb_walk *)
      else 6 (* other *)
    else begin
      let e = t.rob.(t.rob_head) in
      match e.u.Uop.kind with
      | (Uop.Load _ | Uop.Store _) when e.state <> Rs_done ->
        if t.dtlb_outstanding > 0 || Ptw.active_walks t.ptw > 0 then
          4 (* tlb_walk *)
        else if e.lq >= 0 && e.state = Rs_issued then
          if t.now - t.lq_issued_at.(e.lq) > t.cfg.Core_config.llc_roundtrip_hint
          then 3 (* llc_dram *)
          else 2 (* l1_miss *)
        else 6
      | _ -> 6
    end
  in
  t.last_cpi <- cat;
  Stats.bump t.ctr.c_cpi.(cat)

(* The stall category (Cpistack.categories index) the last tick was
   attributed to; feeds the per-cause quiet-cycle accounting. *)
let last_cycle_cause t = t.last_cpi

(* ------------------------------------------------------------------ *)
(* Tick and completions                                                *)
(* ------------------------------------------------------------------ *)

(* What every tick does first, busy or waiting out a purge floor: the
   clock, the cycle counter, the periodic ROB sample and the due events
   (none while a floor is waited out, so there it only advances the
   wheel). *)
let open_cycle t ~now =
  t.now <- now;
  Stats.bump t.ctr.c_cycles;
  if now land 255 = 0 && Trace.active t.trace Trace.Core then
    Trace.emit t.trace ~now
      (Trace.Counter { core = t.id; name = "rob"; value = t.rob_count });
  run_events t

let tick t ~now =
  let committed_before = t.committed in
  open_cycle t ~now;
  (match t.purge with
  | Pp_quiesce | Pp_flush _ ->
    (* The core idles while purging; only the drain machinery runs. *)
    sb_stage t;
    Ptw.tick t.ptw ~issue:t.ptw_issue;
    commit_stage t;
    purge_stage t
  | Pp_none ->
    if t.purge_requested then begin
      t.purge_requested <- false;
      begin_purge t Pk_external;
      purge_stage t
    end
    else begin
      commit_stage t;
      issue_stage t;
      sb_stage t;
      Ptw.tick t.ptw ~issue:t.ptw_issue;
      rename_stage t;
      fetch_stage t
    end);
  attribute_cycle t ~committed_before

(* A core in [Pp_flush] whose L1 flushes are done is waiting out the
   floor: it reached [Pp_flush] with [backend_quiescent] (no ROB entry,
   store-buffer slot, walk, D-TLB miss, event or L1 request left), the
   purge branch of [tick] neither fetches, renames nor issues, and the
   flushing L1s took no request, so until the floor ends each tick only
   counts. *)
let floor_end t =
  match t.purge with
  | Pp_flush started
    when not (L1.is_flushing t.l1i || L1.is_flushing t.l1d) ->
    started + t.cfg.Core_config.purge_floor
  | _ -> -1

let wait_floor t ~now =
  open_cycle t ~now;
  Stats.bump t.ctr.c_purge_stall_cycles;
  attribute_cycle t ~committed_before:t.committed

let mem_complete t ~now ~id =
  t.now <- Int.max t.now now;
  if id land Ptw.id_tag <> 0 then Ptw.mem_response ~now t.ptw ~id
  else if id land sb_tag <> 0 then t.sb.(id land lnot sb_tag) <- false
  else begin
    (* Load completion: the ROB entry owning this LQ slot. *)
    let idx = t.lq_rob.(id) in
    if idx < 0 || t.rob.(idx).lq <> id || t.rob.(idx).state <> Rs_issued then
      failwith "Core.mem_complete: orphan load completion";
    let e = t.rob.(idx) in
    e.state <- Rs_done;
    Histogram.add t.load_lat (now - t.lq_issued_at.(id));
    if e.dst >= 0 then set_ready t e.dst now
  end

let icache_complete t ~id =
  (* id 1 completions are prefetches; only the demand line unblocks
     fetch. *)
  if id = 0 then t.fetch_wait_icache <- false

let finished t =
  t.stream_done && rob_empty t && t.fq_len = 0
  && backend_quiescent t
  && (not (purging t))
  && not t.purge_requested

(* ------------------------------------------------------------------ *)
(* Occupancy probes and invariants                                     *)
(* ------------------------------------------------------------------ *)

let rob_occupancy t = t.rob_count

let iq_occupancy t =
  Array.fold_left (fun n q -> n + q.n) (t.iq_mem.n + t.iq_fp.n) t.iq_alu

let lq_occupancy t = Array.length t.lq - t.lq_free
let sq_occupancy t = t.sq_count
let sb_occupancy t = count_busy t.sb

let rob_state_name = function
  | Rs_waiting -> "waiting"
  | Rs_issued -> "issued"
  | Rs_done -> "done"

(* In-flight (renamed, not yet retired) µops oldest-first, with the ROB
   state of each; causal-slice reports render these. *)
let in_flight_uops t =
  List.init t.rob_count (fun i ->
      let e = t.rob.((t.rob_head + i) mod Array.length t.rob) in
      (e.u, rob_state_name e.state))

let check_invariants t =
  let exception Broken of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Broken m)) fmt in
  try
    (* Every physical register is free, mapped, or the old mapping of an
       in-flight µop, in exactly one of these places. *)
    let places = Array.make t.cfg.Core_config.phys_regs 0 in
    let place p = places.(p) <- places.(p) + 1 in
    for i = 0 to Ring.length t.free_list - 1 do
      place (Ring.get t.free_list i 0)
    done;
    Array.iter place t.map_table;
    let stores = ref 0 in
    for i = 0 to t.rob_count - 1 do
      let e = t.rob.((t.rob_head + i) mod Array.length t.rob) in
      if e.old >= 0 then place e.old;
      if e.sq >= 0 then incr stores
    done;
    Array.iteri
      (fun p n ->
        if n <> 1 then fail "physical register %d is in %d places" p n)
      places;
    (* Every busy LQ slot names a live load that points back at it. *)
    Array.iteri
      (fun s busy ->
        let idx = t.lq_rob.(s) in
        if not busy then begin
          if idx <> -1 then fail "free LQ slot %d names ROB %d" s idx
        end
        else if idx < 0 || not (rob_live t idx) then
          fail "LQ slot %d names ROB %d, not in flight" s idx
        else begin
          let e = t.rob.(idx) in
          (match e.u.Uop.kind with
          | Uop.Load _ -> ()
          | _ -> fail "LQ slot %d names ROB %d, not a load" s idx);
          if e.lq <> s then
            fail "LQ slot %d names ROB %d, whose LQ slot is %d" s idx e.lq
        end)
      t.lq;
    if t.sq_count <> !stores then
      fail "SQ count %d, but %d stores in flight" t.sq_count !stores;
    (* [forwardable] scans the SQ window alone. *)
    let nsq = Array.length t.sq_line in
    Array.iteri
      (fun i ready ->
        if ready && (i - t.sq_head + nsq) mod nsq >= t.sq_count then
          fail "SQ slot %d is ready outside the window" i)
      t.sq_ready;
    let free = Array.length t.lq - count_busy t.lq in
    if t.lq_free <> free then fail "LQ free count %d, recount %d" t.lq_free free;
    (match Ptw.check_invariants t.ptw with Ok () -> () | Error m -> fail "%s" m);
    (* Every queued entry is in flight and waiting, and a ready cycle
       cached other than [never] is its sources' latest [ready_at].  In
       a queue armed past this cycle none is ready before the cycle it
       skips to, and a blocked one waits on its first unknown source,
       whose fall will disarm the queue. *)
    let iq name q =
      for j = 0 to q.n - 1 do
        let idx = q.slots.(j) in
        if not (rob_live t idx) then fail "%s holds ROB %d, not in flight" name idx;
        let e = t.rob.(idx) in
        if e.state <> Rs_waiting then fail "%s holds ROB %d, not waiting" name idx;
        let r = srcs_ready_at t e in
        if t.rdy.(idx) < never && t.rdy.(idx) <> r then
          fail "ROB %d caches ready cycle %d, sources ready at %d" idx
            t.rdy.(idx) r;
        if q.skip_until > t.now then begin
          if r < q.skip_until then
            fail "%s skips until %d, but ROB %d is ready at %d" name
              q.skip_until idx r;
          let p = first_unknown t e in
          if p >= 0 && Bytes.get_uint8 t.waiters p land q.bit = 0 then
            fail "%s skips until %d, but ROB %d's source p%d does not wake it"
              name q.skip_until idx p
        end
      done
    in
    Array.iteri (fun i q -> iq (Printf.sprintf "ALU queue %d" i) q) t.iq_alu;
    iq "FP queue" t.iq_fp;
    iq "memory queue" t.iq_mem;
    Ok ()
  with Broken m -> Error m

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle signature and labelled dump)           *)
(* ------------------------------------------------------------------ *)

(* The fold covers everything whose change means the cycle did work:
   fetch queue and front-end waits, ROB contents and cursors, issue
   queues, LQ/SQ/SB, pending-event times, walker slots, purge machinery,
   and the committed count.  Renaming state (map table, free list,
   ready_at), predictors, TLB/translation-cache contents and
   [lq_issued_at] are excluded: they only change in cycles that also
   move an included structure.  Events fold only their scheduled times,
   which is sound because every retry path reschedules at a strictly
   later cycle.  Slots outside the ROB, SQ and fetch-queue windows fold
   as empty. *)

let rob_state_code = function Rs_waiting -> 0 | Rs_issued -> 1 | Rs_done -> 2

let purge_code = function
  | Pp_none -> 0
  | Pp_quiesce -> 1
  | Pp_flush start -> 2 + start

let purge_kind_code = function Pk_enter -> 0 | Pk_exit -> 1 | Pk_external -> 2

let state t s =
  let open Statesig in
  int s "core" t.id;
  int s " fq=" t.fq_len;
  lit s "[";
  for i = 0 to t.fq_len - 1 do
    let j = fq_slot t i in
    int s "(" (Hashtbl.hash t.fq_uops.(j));
    bool s "," t.fq_mispredict.(j);
    lit s ")"
  done;
  bool s "] sd=" t.stream_done;
  int s " fsu=" t.fetch_stall_until;
  bool s " fbr=" t.fetch_blocked_on_resolve;
  bool s " fbt=" t.fetch_blocked_on_trap;
  bool s " fwi=" t.fetch_wait_icache;
  bool s " fwt=" t.fetch_wait_itlb;
  int s " lfl=" t.last_fetch_line;
  int s " lfp=" t.last_fetch_page;
  int s " rob=" t.rob_head;
  int s "/" t.rob_tail;
  int s "/" t.rob_count;
  lit s "[";
  Array.iteri
    (fun idx e ->
      if not (rob_live t idx) then none s "-"
      else begin
        int s "(" (Hashtbl.hash e.u);
        int s " d=" e.dst;
        int s " o=" e.old;
        lit s " s=[";
        len s e.nsrc;
        for i = 0 to e.nsrc - 1 do
          item s e.srcs.(i)
        done;
        int s "] l=" e.lq;
        int s " q=" e.sq;
        int s " st=" (rob_state_code e.state);
        bool s " m=" e.mispredict;
        lit s ")"
      end)
    t.rob;
  (* Issue queues and events fold newest first, as lists did. *)
  let iq q =
    len s q.n;
    for j = q.n - 1 downto 0 do
      item s q.slots.(j)
    done
  in
  lit s "] iq[";
  Array.iter
    (fun q ->
      iq q;
      lit s "|")
    t.iq_alu;
  iq t.iq_mem;
  lit s "|";
  iq t.iq_fp;
  lit s "] lq[";
  Array.iter (flag s) t.lq;
  int s "] sq=" t.sq_head;
  int s "/" t.sq_tail;
  int s "/" t.sq_count;
  lit s "[";
  let nsq = Array.length t.sq_line in
  for i = 0 to nsq - 1 do
    if (i - t.sq_head + nsq) mod nsq >= t.sq_count then none s "-"
    else begin
      int s "(" t.sq_line.(i);
      bool s "," t.sq_ready.(i);
      lit s ")"
    end
  done;
  lit s "] sb[";
  Array.iteri
    (fun k busy ->
      if busy then item s t.sb_lines.(k) else none s "-;")
    t.sb;
  lit s "] sbp[";
  len s (Ring.length t.sb_pending);
  for i = 0 to Ring.length t.sb_pending - 1 do
    item s (Ring.get t.sb_pending i 0)
  done;
  int s "] dtlb=" t.dtlb_outstanding;
  items s " ev["
    (List.map (fun (at, _, _, _) -> at) (pending_events t.wheel));
  int s "] pg=" (purge_code t.purge);
  int s " pk=" (purge_kind_code t.purge_kind);
  bool s " sp=" (t.saved_predictors <> None);
  bool s " pr=" t.purge_requested;
  int s " com=" t.committed;
  int s " ps=" t.purge_started;
  lit s " ";
  Ptw.state t.ptw s

let sb_tag = 1 lsl 41
let never = max_int

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type rob_state = Rs_waiting | Rs_issued | Rs_done

type rob_entry = {
  u : Uop.t;
  dst_phys : int option;
  old_phys : int option; (* previous mapping of the dst, freed at commit *)
  src_phys : int list;
  lq_slot : int option;
  sq_slot : int option;
  mutable state : rob_state;
  mutable mispredict : bool;
}

type sq_entry = { sq_line : int; mutable sq_addr_ready : bool }

type purge_phase = Pp_none | Pp_quiesce | Pp_flush of int (* start cycle *)

type purge_kind = Pk_enter | Pk_exit | Pk_external

type predictor_ctx = {
  px_tournament : Tournament.snapshot;
  px_btb : Btb.snapshot;
}

(* An issue queue: ROB indices, oldest first, in [slots.(0 .. n - 1)]. *)
type iq = { slots : int array; mutable n : int }

(* A deferred continuation, due at cycle [ev_at]; [ev_seq] numbers the
   events in insertion order. *)
type event = { ev_at : int; ev_seq : int; ev_k : unit -> unit }

(* Pending events on a timing wheel.  Bucket [c land mask] holds the
   events that run at cycle [c], in insertion order, for each [c] in
   (ran, ran + buckets); [ran] is the last cycle whose events have run.
   An event due at or before [ran] (a zero delay after this cycle's
   events ran) runs at [ran + 1], as it would have under a scan of every
   pending event each cycle. *)
type wheel = {
  mutable buckets : event array array;
  mutable counts : int array;
  mutable mask : int;
  mutable ran : int;
  mutable seq : int; (* next insertion number *)
  mutable pending : int;
}

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
  fetch_q : rob_ref Fifo.t;
  mutable stream_done : bool;
  mutable fetch_stall_until : int;
  mutable fetch_blocked_on_resolve : bool;
  mutable fetch_blocked_on_trap : bool;
  mutable fetch_wait_icache : bool;
  mutable fetch_wait_itlb : bool;
  mutable last_fetch_line : int;
  mutable last_fetch_page : int;
  (* Rename / backend *)
  rob : rob_entry option array;
  mutable rob_head : int;
  mutable rob_tail : int;
  mutable rob_count : int;
  map_table : int array; (* logical -> phys *)
  free_list : int Queue.t;
  ready_at : int array; (* per phys reg *)
  iq_alu : iq array;
  iq_mem : iq;
  iq_fp : iq;
  lq : bool array; (* slot busy *)
  lq_rob : int array; (* per LQ slot: ROB index of its load, -1 when free *)
  sq : sq_entry option array;
  mutable sq_head : int;
  mutable sq_tail : int;
  mutable sq_count : int;
  sb : bool array; (* store buffer slots busy *)
  sb_lines : int array; (* line held by each store-buffer slot *)
  sb_pending : int Queue.t; (* sb slots waiting to drain *)
  mutable dtlb_outstanding : int;
  wheel : wheel; (* deferred continuations *)
  mutable purge : purge_phase;
  mutable purge_kind : purge_kind;
  mutable saved_predictors : predictor_ctx option;
  mutable purge_requested : bool;
  mutable committed : int;
  mutable now : int;
  (* Observability *)
  trace : Trace.t;
  selfprof : Selfprof.t;
  id : int; (* core index, for trace attribution *)
  mutable last_cpi : int; (* Cpistack category index of the last tick *)
  mutable purge_started : int;
  lq_issued_at : int array; (* per LQ slot: cycle the load issued *)
  load_lat : Histogram.t; (* load issue-to-complete, cache path only *)
  purge_lat : Histogram.t; (* full purge duration *)
  mutable on_commit : Uop.t -> unit; (* retirement probe, default no-op *)
}

and rob_ref = { pre_uop : Uop.t; pre_mispredict : bool }

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

let no_event = { ev_at = 0; ev_seq = 0; ev_k = ignore }

let wheel_create size =
  {
    buckets = Array.make size [||]; (* each grows on its first event *)
    counts = Array.make size 0;
    mask = size - 1;
    ran = -1;
    seq = 0;
    pending = 0;
  }

let iq_create cap = { slots = Array.make cap 0; n = 0 }

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null) ?(id = 0) cfg
    ~l1i ~l1d ~stream ~stats ~pt_base_line =
  let tcache = Trans_cache.create ~entries_per_level:24 ~levels:2 in
  let free_list = Queue.create () in
  for p = 32 to cfg.Core_config.phys_regs - 1 do
    Queue.add p free_list
  done;
  let ptw_issue ~line ~id =
    L1.can_accept l1d
    && begin
      L1.request l1d ~line ~store:false ~id;
      true
    end
  in
  let iq () = iq_create cfg.Core_config.iq_entries in
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
    fetch_q = Fifo.create ~capacity:16;
    stream_done = false;
    fetch_stall_until = 0;
    fetch_blocked_on_resolve = false;
    fetch_blocked_on_trap = false;
    fetch_wait_icache = false;
    fetch_wait_itlb = false;
    last_fetch_line = -1;
    last_fetch_page = -1;
    rob = Array.make cfg.Core_config.rob_entries None;
    rob_head = 0;
    rob_tail = 0;
    rob_count = 0;
    map_table = Array.init 32 (fun i -> i);
    free_list;
    ready_at = Array.make cfg.Core_config.phys_regs 0;
    iq_alu = Array.init cfg.Core_config.alu_pipes (fun _ -> iq ());
    iq_mem = iq ();
    iq_fp = iq ();
    lq = Array.make cfg.Core_config.lq_entries false;
    lq_rob = Array.make cfg.Core_config.lq_entries (-1);
    sq = Array.make cfg.Core_config.sq_entries None;
    sq_head = 0;
    sq_tail = 0;
    sq_count = 0;
    sb = Array.make cfg.Core_config.sb_entries false;
    sb_lines = Array.make cfg.Core_config.sb_entries 0;
    sb_pending = Queue.create ();
    dtlb_outstanding = 0;
    wheel = wheel_create 32;
    purge = Pp_none;
    purge_kind = Pk_external;
    saved_predictors = None;
    purge_requested = false;
    committed = 0;
    now = 0;
    trace;
    selfprof;
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
let purging t = t.purge <> Pp_none
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

(* File [ev] under the cycle it runs at.  The caller guarantees that
   cycle lies in the window. *)
let wheel_file w ev =
  let b = (max ev.ev_at (w.ran + 1)) land w.mask in
  let n = w.counts.(b) in
  if n = Array.length w.buckets.(b) then begin
    let bigger = Array.make (max 4 (2 * n)) no_event in
    Array.blit w.buckets.(b) 0 bigger 0 n;
    w.buckets.(b) <- bigger
  end;
  w.buckets.(b).(n) <- ev;
  w.counts.(b) <- n + 1;
  w.pending <- w.pending + 1

(* Every pending event, newest first: the order the signature folds. *)
let pending_events w =
  let acc = ref [] in
  Array.iteri
    (fun b n ->
      for i = 0 to n - 1 do
        acc := w.buckets.(b).(i) :: !acc
      done)
    w.counts;
  List.sort (fun a b -> compare b.ev_seq a.ev_seq) !acc

(* Refile [evs] (oldest first) as the only pending events, on at least
   [size] buckets. *)
let wheel_rebuild w ~size evs =
  if size > Array.length w.buckets then begin
    w.buckets <- Array.make size [||];
    w.counts <- Array.make size 0;
    w.mask <- size - 1
  end
  else begin
    Array.iter (fun bucket -> Array.fill bucket 0 (Array.length bucket) no_event) w.buckets;
    Array.fill w.counts 0 (Array.length w.counts) 0
  end;
  w.pending <- 0;
  List.iter (wheel_file w) evs

let after t delay k =
  let w = t.wheel in
  let ev = { ev_at = t.now + delay; ev_seq = w.seq; ev_k = k } in
  w.seq <- w.seq + 1;
  let span = max ev.ev_at (w.ran + 1) - w.ran in
  if span >= Array.length w.buckets then begin
    (* Beyond the window: double the wheel until it fits. *)
    let size = ref (Array.length w.buckets) in
    while span >= !size do
      size := 2 * !size
    done;
    wheel_rebuild w ~size:!size (List.rev (pending_events w))
  end;
  wheel_file w ev

(* Run every event due by [t.now], oldest first.  Ticking cycle after
   cycle, the due events are exactly the next cycle's bucket. *)
let run_events t =
  let w = t.wheel in
  if t.now = w.ran + 1 then begin
    w.ran <- t.now;
    let b = t.now land w.mask in
    let n = w.counts.(b) in
    if n > 0 then begin
      (* Detached first: continuations file new events in later cycles,
         possibly into a regrown wheel. *)
      let bucket = w.buckets.(b) in
      w.counts.(b) <- 0;
      w.pending <- w.pending - n;
      for i = 0 to n - 1 do
        let ev = bucket.(i) in
        bucket.(i) <- no_event;
        ev.ev_k ()
      done
    end
  end
  else begin
    (* A skipped or repeated cycle: every event due by now runs, in
       insertion order, and the rest are refiled around the new [ran]. *)
    let due, rest =
      List.partition (fun ev -> ev.ev_at <= t.now) (pending_events w)
    in
    w.ran <- max w.ran t.now;
    wheel_rebuild w ~size:(Array.length w.buckets) (List.rev rest);
    List.iter (fun ev -> ev.ev_k ()) (List.rev due)
  end

(* ------------------------------------------------------------------ *)
(* Translation (D-side)                                                *)
(* ------------------------------------------------------------------ *)

(* Attempt to begin translation; [k] fires when the translation is
   available.  Returns false when the DTLB cannot take another miss this
   cycle (caller retries next cycle). *)
let translate_d t ~addr ~k =
  let vpage = addr / 4096 in
  if Tlb.lookup t.dtlb ~vpage then begin
    k ();
    true
  end
  else if t.dtlb_outstanding >= t.cfg.Core_config.dtlb_misses then false
  else begin
    Stats.bump t.ctr.c_dtlb_misses;
    t.dtlb_outstanding <- t.dtlb_outstanding + 1;
    after t t.cfg.Core_config.l2tlb_latency (fun () ->
        if Tlb.lookup t.l2tlb ~vpage then begin
          Tlb.insert t.dtlb ~vpage;
          t.dtlb_outstanding <- t.dtlb_outstanding - 1;
          k ()
        end
        else begin
          Stats.bump t.ctr.c_l2tlb_misses;
          (* Hardware walk; waits for a walker slot if both are busy. *)
          let rec start_walk () =
            if Ptw.can_start t.ptw then
              Ptw.start t.ptw ~vpage ~on_done:(fun ~reads:_ ->
                  Tlb.insert t.l2tlb ~vpage;
                  Tlb.insert t.dtlb ~vpage;
                  t.dtlb_outstanding <- t.dtlb_outstanding - 1;
                  k ())
            else after t 1 start_walk
          in
          start_walk ()
        end);
    true
  end

(* ------------------------------------------------------------------ *)
(* ROB helpers                                                         *)
(* ------------------------------------------------------------------ *)

let rob_entry t idx =
  match t.rob.(idx) with
  | Some e -> e
  | None -> failwith "Core: dangling ROB index"

let rob_full t = t.rob_count = Array.length t.rob
let rob_empty t = t.rob_count = 0

let rec srcs_ready t = function
  | [] -> true
  | p :: rest -> t.ready_at.(p) <= t.now && srcs_ready t rest

let mark_done t idx =
  let e = rob_entry t idx in
  e.state <- Rs_done;
  match e.dst_phys with
  | Some p -> t.ready_at.(p) <- min t.ready_at.(p) t.now
  | None -> ()

let set_dst_ready_at t e at =
  match e.dst_phys with
  | Some p -> t.ready_at.(p) <- at
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fetch                                                               *)
(* ------------------------------------------------------------------ *)

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
      after t t.cfg.Core_config.l2tlb_latency (fun () ->
          if Tlb.lookup t.l2tlb ~vpage:page then begin
            Tlb.insert t.itlb ~vpage:page;
            t.fetch_wait_itlb <- false
          end
          else begin
            let rec start_walk () =
              if Ptw.can_start t.ptw then
                Ptw.start t.ptw ~vpage:page ~on_done:(fun ~reads:_ ->
                    Tlb.insert t.l2tlb ~vpage:page;
                    Tlb.insert t.itlb ~vpage:page;
                    t.fetch_wait_itlb <- false)
              else after t 1 start_walk
            in
            start_walk ()
          end);
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

let predicts target = function Some p -> p = target | None -> false

let predict_control t (u : Uop.t) =
  match u.Uop.kind with
  | Uop.Branch { taken; target } ->
    Stats.bump t.ctr.c_branches;
    let pred_dir = Tournament.predict t.tournament ~pc:u.Uop.pc in
    let btb_target = Btb.predict t.btb ~pc:u.Uop.pc in
    Tournament.update t.tournament ~pc:u.Uop.pc ~taken;
    if taken then Btb.update t.btb ~pc:u.Uop.pc ~target;
    if pred_dir <> taken || (taken && not (predicts target btb_target)) then begin
      Stats.bump t.ctr.c_mispredicts;
      F_stall_until_resolve
    end
    else F_ok
  | Uop.Jump { target; kind } -> (
    match kind with
    | `Plain | `Call ->
      if kind = `Call then Ras.push t.ras (u.Uop.pc + 4);
      let hit = predicts target (Btb.predict t.btb ~pc:u.Uop.pc) in
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

let fetch_stage t =
  if
    t.now >= t.fetch_stall_until
    && (not t.fetch_blocked_on_resolve)
    && (not t.fetch_blocked_on_trap)
    && not t.stream_done
  then begin
    let budget = ref t.cfg.Core_config.fetch_width in
    let stop = ref false in
    while !budget > 0 && (not !stop) && Fifo.can_enq t.fetch_q do
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
        Fifo.enq t.fetch_q { pre_uop = u; pre_mispredict = !mispredicted };
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

let iq_push q idx =
  q.slots.(q.n) <- idx;
  q.n <- q.n + 1

let iq_remove_at q j =
  Array.blit q.slots (j + 1) q.slots j (q.n - j - 1);
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
  | Uop.Load _ | Uop.Store _ -> iq_push t.iq_mem idx
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> iq_push t.iq_fp idx
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ -> iq_push (shortest_alu_iq t) idx
  | Uop.Enter_kernel | Uop.Exit_kernel -> ()

let iq_has_room t (u : Uop.t) =
  let cap = t.cfg.Core_config.iq_entries in
  match u.Uop.kind with
  | Uop.Load _ | Uop.Store _ -> t.iq_mem.n < cap
  | Uop.Alu { pipe = Uop.Pipe_fp; _ } -> t.iq_fp.n < cap
  | Uop.Alu _ | Uop.Branch _ | Uop.Jump _ -> (shortest_alu_iq t).n < cap
  | Uop.Enter_kernel | Uop.Exit_kernel -> true

(* The physical registers currently mapped to logical [regs]. *)
let rec phys_of_regs t = function
  | [] -> []
  | r :: rest -> t.map_table.(r) :: phys_of_regs t rest

let rename_stage t =
  let budget = ref t.cfg.Core_config.fetch_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && Fifo.can_deq t.fetch_q do
    let { pre_uop = u; pre_mispredict } = Fifo.peek t.fetch_q in
    let is_mem = Uop.is_mem u in
    let is_marker =
      match u.Uop.kind with
      | Uop.Enter_kernel | Uop.Exit_kernel -> true
      | _ -> false
    in
    let nonspec_block =
      t.cfg.Core_config.nonspec_mem && is_mem && not (rob_empty t)
    in
    let marker_block = is_marker && not (rob_empty t) in
    let needs_dst = u.Uop.dst <> None in
    let sq_needed = match u.Uop.kind with Uop.Store _ -> true | _ -> false in
    let lq_needed = match u.Uop.kind with Uop.Load _ -> true | _ -> false in
    if
      rob_full t || nonspec_block || marker_block
      || (needs_dst && Queue.is_empty t.free_list)
      || (not (iq_has_room t u))
      || (sq_needed && t.sq_count = Array.length t.sq)
      || (lq_needed && alloc_lq t < 0)
    then stop := true
    else begin
      ignore (Fifo.deq t.fetch_q);
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
          max t.fetch_stall_until (t.now + t.cfg.Core_config.redirect_penalty);
        if t.cfg.Core_config.flush_on_trap then begin
          begin_purge t
            (match u.Uop.kind with
            | Uop.Enter_kernel -> Pk_enter
            | _ -> Pk_exit);
          stop := true
        end
      end
      else begin
        let src_phys = phys_of_regs t u.Uop.srcs in
        let dst_phys, old_phys =
          match u.Uop.dst with
          | None -> (None, None)
          | Some d ->
            let p = Queue.pop t.free_list in
            let old = t.map_table.(d) in
            t.map_table.(d) <- p;
            t.ready_at.(p) <- never;
            (Some p, Some old)
        in
        let idx = t.rob_tail in
        let lq_slot =
          if lq_needed then begin
            let s = alloc_lq t in
            t.lq.(s) <- true;
            t.lq_rob.(s) <- idx;
            Some s
          end
          else None
        in
        let sq_slot =
          if sq_needed then begin
            let s = t.sq_tail in
            t.sq_tail <- (t.sq_tail + 1) mod Array.length t.sq;
            t.sq_count <- t.sq_count + 1;
            (match u.Uop.kind with
            | Uop.Store { addr } ->
              t.sq.(s) <- Some { sq_line = addr lsr 6; sq_addr_ready = false }
            | _ -> assert false);
            Some s
          end
          else None
        in
        t.rob.(idx) <-
          Some
            {
              u;
              dst_phys;
              old_phys;
              src_phys;
              lq_slot;
              sq_slot;
              state = Rs_waiting;
              mispredict = pre_mispredict;
            };
        t.rob_tail <- (t.rob_tail + 1) mod Array.length t.rob;
        t.rob_count <- t.rob_count + 1;
        dispatch_iq t idx u
      end;
      decr budget
    end
  done

(* ------------------------------------------------------------------ *)
(* Issue / execute                                                     *)
(* ------------------------------------------------------------------ *)

(* Position of the oldest issuable entry of [q], or -1. *)
let pick_ready t q =
  let found = ref (-1) and j = ref 0 in
  while !found < 0 && !j < q.n do
    let e = rob_entry t q.slots.(!j) in
    if e.state = Rs_waiting && srcs_ready t e.src_phys then found := !j;
    incr j
  done;
  !found

(* Store-to-load forwarding: an older SQ entry with a ready address on the
   same line forwards, as does a store-buffer entry that has retired but
   not yet drained to the D-cache.  (Timing model: unknown older store
   addresses do not block the load — RiscyOO issues loads
   speculatively.) *)
let forwardable t line =
  let found = ref false in
  for i = 0 to Array.length t.sq - 1 do
    match t.sq.(i) with
    | Some s when s.sq_addr_ready && s.sq_line = line -> found := true
    | _ -> ()
  done;
  for i = 0 to Array.length t.sb - 1 do
    if t.sb.(i) && t.sb_lines.(i) = line then found := true
  done;
  !found

let issue_alu_like t idx =
  let e = rob_entry t idx in
  e.state <- Rs_issued;
  let latency =
    match e.u.Uop.kind with
    | Uop.Alu { latency; _ } -> latency
    | Uop.Branch _ | Uop.Jump _ -> 1
    | _ -> assert false
  in
  set_dst_ready_at t e (t.now + latency);
  after t latency (fun () ->
      e.state <- Rs_done;
      (* Control resolution restarts a stalled front end. *)
      match e.u.Uop.kind with
      | Uop.Branch _ | Uop.Jump _ ->
        if e.mispredict then begin
          e.mispredict <- false;
          t.fetch_blocked_on_resolve <- false;
          t.fetch_stall_until <-
            max t.fetch_stall_until
              (t.now + t.cfg.Core_config.redirect_penalty)
        end
      | _ -> ())

let issue_mem t idx =
  let e = rob_entry t idx in
  e.state <- Rs_issued;
  match e.u.Uop.kind with
  | Uop.Store { addr } ->
    (* Address generation + translation; the store "executes" when its
       address is translated and entered into the SQ. *)
    let k () =
      after t 1 (fun () ->
          (match e.sq_slot with
          | Some s -> (
            match t.sq.(s) with
            | Some sq -> sq.sq_addr_ready <- true
            | None -> assert false)
          | None -> assert false);
          e.state <- Rs_done)
    in
    if not (translate_d t ~addr ~k) then e.state <- Rs_waiting (* retry *)
  | Uop.Load { addr } ->
    (match e.lq_slot with
    | Some s -> t.lq_issued_at.(s) <- t.now
    | None -> ());
    let line = addr lsr 6 in
    let k () =
      if forwardable t line then begin
        Stats.bump t.ctr.c_store_forwards;
        after t 1 (fun () -> mark_done t idx)
      end
      else begin
        let lq_slot = match e.lq_slot with Some s -> s | None -> assert false in
        let rec try_cache () =
          if L1.can_accept t.l1d then
            L1.request t.l1d ~line ~store:false ~id:lq_slot
          else after t 1 try_cache
        in
        try_cache ()
      end
    in
    if not (translate_d t ~addr ~k) then e.state <- Rs_waiting
  | _ -> assert false

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
    match (rob_entry t idx).state with
    | Rs_waiting -> ()
    | _ -> iq_remove_at q j
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
  if (not (Queue.is_empty t.sb_pending)) && L1.can_accept t.l1d then begin
    let slot = Queue.pop t.sb_pending in
    L1.request t.l1d ~line:t.sb_lines.(slot) ~store:true ~id:(sb_tag lor slot)
  end

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let commit_stage t =
  let budget = ref t.cfg.Core_config.commit_width in
  let stop = ref false in
  while !budget > 0 && (not !stop) && not (rob_empty t) do
    match t.rob.(t.rob_head) with
    | None -> assert false
    | Some e ->
      if e.state <> Rs_done then stop := true
      else begin
        let can_retire =
          match e.u.Uop.kind with
          | Uop.Store _ -> (
            (* Needs a store-buffer slot; the SB drains in background. *)
            let slot = alloc_sb t in
            if slot >= 0 then begin
              t.sb.(slot) <- true;
              (match e.sq_slot with
              | Some s -> (
                match t.sq.(s) with
                | Some sq -> t.sb_lines.(slot) <- sq.sq_line
                | None -> assert false)
              | None -> assert false);
              Queue.add slot t.sb_pending;
              true
            end
            else begin
              Stats.bump t.ctr.c_sb_full_stalls;
              false
            end)
          | _ -> true
        in
        if not can_retire then stop := true
        else begin
          (match e.old_phys with
          | Some p -> Queue.add p t.free_list
          | None -> ());
          (match e.lq_slot with
          | Some s ->
            t.lq.(s) <- false;
            t.lq_rob.(s) <- -1
          | None -> ());
          (match e.sq_slot with
          | Some s ->
            t.sq.(s) <- None;
            t.sq_head <- (t.sq_head + 1) mod Array.length t.sq;
            t.sq_count <- t.sq_count - 1
          | None -> ());
          t.rob.(t.rob_head) <- None;
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

let backend_quiescent t =
  rob_empty t
  && Queue.is_empty t.sb_pending
  && Array.for_all not t.sb
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
      let e = rob_entry t t.rob_head in
      match e.u.Uop.kind with
      | (Uop.Load _ | Uop.Store _) when e.state <> Rs_done ->
        if t.dtlb_outstanding > 0 || Ptw.active_walks t.ptw > 0 then
          4 (* tlb_walk *)
        else begin
          match (e.u.Uop.kind, e.lq_slot, e.state) with
          | Uop.Load _, Some s, Rs_issued ->
            if t.now - t.lq_issued_at.(s) > t.cfg.Core_config.llc_roundtrip_hint
            then 3 (* llc_dram *)
            else 2 (* l1_miss *)
          | _ -> 6
        end
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

let tick t ~now =
  t.now <- now;
  let committed_before = t.committed in
  Stats.bump t.ctr.c_cycles;
  if now land 255 = 0 && Trace.active t.trace Trace.Core then
    Trace.emit t.trace ~now
      (Trace.Counter { core = t.id; name = "rob"; value = t.rob_count });
  (* Host-cost attribution: the stages run strictly in sequence, so a
     plain [switch] per stage suffices; [p0] (normally [harness]) is
     restored on exit. *)
  let sp = t.selfprof in
  let p0 = Selfprof.switch sp Selfprof.ph_exec in
  run_events t;
  (match t.purge with
  | Pp_quiesce | Pp_flush _ ->
    (* The core idles while purging; only the drain machinery runs. *)
    ignore (Selfprof.switch sp Selfprof.ph_mem);
    sb_stage t;
    ignore (Selfprof.switch sp Selfprof.ph_ptw);
    Ptw.tick t.ptw ~issue:t.ptw_issue;
    ignore (Selfprof.switch sp Selfprof.ph_commit);
    commit_stage t;
    ignore (Selfprof.switch sp Selfprof.ph_purge);
    purge_stage t
  | Pp_none ->
    if t.purge_requested then begin
      t.purge_requested <- false;
      ignore (Selfprof.switch sp Selfprof.ph_purge);
      begin_purge t Pk_external;
      purge_stage t
    end
    else begin
      ignore (Selfprof.switch sp Selfprof.ph_commit);
      commit_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_issue);
      issue_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_mem);
      sb_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_ptw);
      Ptw.tick t.ptw ~issue:t.ptw_issue;
      ignore (Selfprof.switch sp Selfprof.ph_rename);
      rename_stage t;
      ignore (Selfprof.switch sp Selfprof.ph_fetch);
      fetch_stage t
    end);
  attribute_cycle t ~committed_before;
  Selfprof.restore sp p0

let mem_complete t ~now ~id =
  t.now <- max t.now now;
  if id land Ptw.id_tag <> 0 then Ptw.mem_response ~now t.ptw ~id
  else if id land sb_tag <> 0 then t.sb.(id land lnot sb_tag) <- false
  else begin
    (* Load completion: the ROB entry owning this LQ slot. *)
    let idx = t.lq_rob.(id) in
    match if idx >= 0 then t.rob.(idx) else None with
    | Some ({ lq_slot = Some s; state = Rs_issued; _ } as e) when s = id ->
      e.state <- Rs_done;
      Histogram.add t.load_lat (now - t.lq_issued_at.(id));
      set_dst_ready_at t e now
    | _ -> failwith "Core.mem_complete: orphan load completion"
  end

let icache_complete t ~id =
  (* id 1 completions are prefetches; only the demand line unblocks
     fetch. *)
  if id = 0 then t.fetch_wait_icache <- false

let finished t =
  t.stream_done && rob_empty t && Fifo.is_empty t.fetch_q
  && backend_quiescent t && t.purge = Pp_none
  && not t.purge_requested

(* ------------------------------------------------------------------ *)
(* Occupancy probes                                                    *)
(* ------------------------------------------------------------------ *)

let rob_occupancy t = t.rob_count

let iq_occupancy t =
  Array.fold_left (fun n q -> n + q.n) (t.iq_mem.n + t.iq_fp.n) t.iq_alu

let count_busy a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a
let lq_occupancy t = count_busy t.lq
let sq_occupancy t = t.sq_count
let sb_occupancy t = count_busy t.sb

(* In-flight (renamed, not yet retired) µops oldest-first, with the ROB
   state of each; causal-slice reports render these. *)
let in_flight_uops t =
  let n = Array.length t.rob in
  let rec go i cnt acc =
    if cnt = 0 then List.rev acc
    else
      match t.rob.(i) with
      | Some e ->
        let st =
          match e.state with
          | Rs_waiting -> "waiting"
          | Rs_issued -> "issued"
          | Rs_done -> "done"
        in
        go ((i + 1) mod n) (cnt - 1) ((e.u, st) :: acc)
      | None -> go ((i + 1) mod n) cnt acc
  in
  go t.rob_head t.rob_count []

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

(* Deferred-event closures and walker continuations capture the
   ROB-entry and SQ-entry records themselves, so the checkpoint keeps
   those records (not copies) together with the values of their mutable
   fields, and [restore] writes the fields back in place.  A checkpoint
   is therefore only valid on the [t] it was saved from.  The µop
   stream, L1s, stats and trace are owned by the machine, which
   checkpoints them alongside.  [on_commit] is a harness probe, not
   machine state, and is left untouched. *)

type rob_ck = {
  rk_entry : rob_entry;
  rk_state : rob_state;
  rk_mispredict : bool;
}

type sq_ck = { qk_entry : sq_entry; qk_addr_ready : bool }

type predictor_ck = {
  pk_btb : Btb.snapshot;
  pk_tournament : Tournament.snapshot;
  pk_ras : Ras.snapshot;
}

type checkpoint = {
  ck_fetch_q : rob_ref list;
  ck_stream_done : bool;
  ck_fetch_stall_until : int;
  ck_fetch_blocked_on_resolve : bool;
  ck_fetch_blocked_on_trap : bool;
  ck_fetch_wait_icache : bool;
  ck_fetch_wait_itlb : bool;
  ck_last_fetch_line : int;
  ck_last_fetch_page : int;
  ck_rob : rob_ck option array;
  ck_rob_head : int;
  ck_rob_tail : int;
  ck_rob_count : int;
  ck_map_table : int array;
  ck_free_list : int list;
  ck_ready_at : int array;
  ck_iq_alu : int array array;
  ck_iq_mem : int array;
  ck_iq_fp : int array;
  ck_lq : bool array;
  ck_sq : sq_ck option array;
  ck_sq_head : int;
  ck_sq_tail : int;
  ck_sq_count : int;
  ck_sb : bool array;
  ck_sb_lines : int array;
  ck_sb_pending : int list;
  ck_dtlb_outstanding : int;
  ck_events : event list; (* newest first *)
  ck_events_ran : int;
  ck_events_seq : int;
  ck_purge : purge_phase;
  ck_purge_kind : purge_kind;
  ck_saved_predictors : predictor_ctx option;
  ck_purge_requested : bool;
  ck_committed : int;
  ck_now : int;
  ck_predictors : predictor_ck option; (* None iff deliberately omitted *)
  ck_itlb : Tlb.checkpoint;
  ck_dtlb : Tlb.checkpoint;
  ck_l2tlb : Tlb.checkpoint;
  ck_tcache : Trans_cache.checkpoint;
  ck_ptw : Ptw.checkpoint;
  ck_last_cpi : int;
  ck_purge_started : int;
  ck_lq_issued_at : int array;
  ck_load_lat : Histogram.t;
  ck_purge_lat : Histogram.t;
}

let iq_contents q = Array.sub q.slots 0 q.n

let iq_assign q a =
  Array.blit a 0 q.slots 0 (Array.length a);
  q.n <- Array.length a

let save ?(omit_predictors = false) t =
  {
    ck_fetch_q = Fifo.to_list t.fetch_q;
    ck_stream_done = t.stream_done;
    ck_fetch_stall_until = t.fetch_stall_until;
    ck_fetch_blocked_on_resolve = t.fetch_blocked_on_resolve;
    ck_fetch_blocked_on_trap = t.fetch_blocked_on_trap;
    ck_fetch_wait_icache = t.fetch_wait_icache;
    ck_fetch_wait_itlb = t.fetch_wait_itlb;
    ck_last_fetch_line = t.last_fetch_line;
    ck_last_fetch_page = t.last_fetch_page;
    ck_rob =
      Array.map
        (Option.map (fun e ->
             { rk_entry = e; rk_state = e.state; rk_mispredict = e.mispredict }))
        t.rob;
    ck_rob_head = t.rob_head;
    ck_rob_tail = t.rob_tail;
    ck_rob_count = t.rob_count;
    ck_map_table = Array.copy t.map_table;
    ck_free_list = List.of_seq (Queue.to_seq t.free_list);
    ck_ready_at = Array.copy t.ready_at;
    ck_iq_alu = Array.map iq_contents t.iq_alu;
    ck_iq_mem = iq_contents t.iq_mem;
    ck_iq_fp = iq_contents t.iq_fp;
    ck_lq = Array.copy t.lq;
    ck_sq =
      Array.map
        (Option.map (fun s -> { qk_entry = s; qk_addr_ready = s.sq_addr_ready }))
        t.sq;
    ck_sq_head = t.sq_head;
    ck_sq_tail = t.sq_tail;
    ck_sq_count = t.sq_count;
    ck_sb = Array.copy t.sb;
    ck_sb_lines = Array.copy t.sb_lines;
    ck_sb_pending = List.of_seq (Queue.to_seq t.sb_pending);
    ck_dtlb_outstanding = t.dtlb_outstanding;
    ck_events = pending_events t.wheel;
    ck_events_ran = t.wheel.ran;
    ck_events_seq = t.wheel.seq;
    ck_purge = t.purge;
    ck_purge_kind = t.purge_kind;
    ck_saved_predictors = t.saved_predictors;
    ck_purge_requested = t.purge_requested;
    ck_committed = t.committed;
    ck_now = t.now;
    ck_predictors =
      (if omit_predictors then None
       else
         Some
           {
             pk_btb = Btb.snapshot t.btb;
             pk_tournament = Tournament.snapshot t.tournament;
             pk_ras = Ras.snapshot t.ras;
           });
    ck_itlb = Tlb.save t.itlb;
    ck_dtlb = Tlb.save t.dtlb;
    ck_l2tlb = Tlb.save t.l2tlb;
    ck_tcache = Trans_cache.save t.tcache;
    ck_ptw = Ptw.save t.ptw;
    ck_last_cpi = t.last_cpi;
    ck_purge_started = t.purge_started;
    ck_lq_issued_at = Array.copy t.lq_issued_at;
    ck_load_lat = Histogram.copy t.load_lat;
    ck_purge_lat = Histogram.copy t.purge_lat;
  }

let restore t ck =
  Fifo.assign t.fetch_q ck.ck_fetch_q;
  t.stream_done <- ck.ck_stream_done;
  t.fetch_stall_until <- ck.ck_fetch_stall_until;
  t.fetch_blocked_on_resolve <- ck.ck_fetch_blocked_on_resolve;
  t.fetch_blocked_on_trap <- ck.ck_fetch_blocked_on_trap;
  t.fetch_wait_icache <- ck.ck_fetch_wait_icache;
  t.fetch_wait_itlb <- ck.ck_fetch_wait_itlb;
  t.last_fetch_line <- ck.ck_last_fetch_line;
  t.last_fetch_page <- ck.ck_last_fetch_page;
  Array.iteri
    (fun i slot ->
      t.rob.(i) <-
        Option.map
          (fun rk ->
            rk.rk_entry.state <- rk.rk_state;
            rk.rk_entry.mispredict <- rk.rk_mispredict;
            rk.rk_entry)
          slot)
    ck.ck_rob;
  t.rob_head <- ck.ck_rob_head;
  t.rob_tail <- ck.ck_rob_tail;
  t.rob_count <- ck.ck_rob_count;
  Array.blit ck.ck_map_table 0 t.map_table 0 (Array.length t.map_table);
  Queue.clear t.free_list;
  List.iter (fun p -> Queue.add p t.free_list) ck.ck_free_list;
  Array.blit ck.ck_ready_at 0 t.ready_at 0 (Array.length t.ready_at);
  Array.iteri (fun i q -> iq_assign t.iq_alu.(i) q) ck.ck_iq_alu;
  iq_assign t.iq_mem ck.ck_iq_mem;
  iq_assign t.iq_fp ck.ck_iq_fp;
  Array.blit ck.ck_lq 0 t.lq 0 (Array.length t.lq);
  Array.fill t.lq_rob 0 (Array.length t.lq_rob) (-1);
  Array.iteri
    (fun i slot ->
      match slot with
      | Some { lq_slot = Some s; _ } -> t.lq_rob.(s) <- i
      | _ -> ())
    t.rob;
  Array.iteri
    (fun i slot ->
      t.sq.(i) <-
        Option.map
          (fun qk ->
            qk.qk_entry.sq_addr_ready <- qk.qk_addr_ready;
            qk.qk_entry)
          slot)
    ck.ck_sq;
  t.sq_head <- ck.ck_sq_head;
  t.sq_tail <- ck.ck_sq_tail;
  t.sq_count <- ck.ck_sq_count;
  Array.blit ck.ck_sb 0 t.sb 0 (Array.length t.sb);
  Array.blit ck.ck_sb_lines 0 t.sb_lines 0 (Array.length t.sb_lines);
  Queue.clear t.sb_pending;
  List.iter (fun s -> Queue.add s t.sb_pending) ck.ck_sb_pending;
  t.dtlb_outstanding <- ck.ck_dtlb_outstanding;
  t.wheel.ran <- ck.ck_events_ran;
  t.wheel.seq <- ck.ck_events_seq;
  wheel_rebuild t.wheel ~size:(Array.length t.wheel.buckets)
    (List.rev ck.ck_events);
  t.purge <- ck.ck_purge;
  t.purge_kind <- ck.ck_purge_kind;
  t.saved_predictors <- ck.ck_saved_predictors;
  t.purge_requested <- ck.ck_purge_requested;
  t.committed <- ck.ck_committed;
  t.now <- ck.ck_now;
  (match ck.ck_predictors with
  | Some pk ->
    Btb.restore t.btb pk.pk_btb;
    Tournament.restore t.tournament pk.pk_tournament;
    Ras.restore t.ras pk.pk_ras
  | None -> ());
  Tlb.restore t.itlb ck.ck_itlb;
  Tlb.restore t.dtlb ck.ck_dtlb;
  Tlb.restore t.l2tlb ck.ck_l2tlb;
  Trans_cache.restore t.tcache ck.ck_tcache;
  Ptw.restore t.ptw ck.ck_ptw;
  t.last_cpi <- ck.ck_last_cpi;
  t.purge_started <- ck.ck_purge_started;
  Array.blit ck.ck_lq_issued_at 0 t.lq_issued_at 0
    (Array.length t.lq_issued_at);
  Histogram.restore ~into:t.load_lat ck.ck_load_lat;
  Histogram.restore ~into:t.purge_lat ck.ck_purge_lat

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle signature and labelled dump)           *)
(* ------------------------------------------------------------------ *)

(* The fold covers everything whose change means the cycle did work:
   fetch queue and front-end waits, ROB contents and cursors, issue
   queues, LQ/SQ/SB, pending-event times, walker slots, purge machinery,
   and the committed count.  Renaming state (map table, free list,
   ready_at), predictors, TLB/translation-cache contents and
   [lq_issued_at] are excluded: they only change in cycles that also
   move an included structure.  Event closures cannot be hashed — their
   scheduled times are folded instead, which is sound because every
   retry path reschedules at a strictly later cycle. *)

let rob_state_code = function Rs_waiting -> 0 | Rs_issued -> 1 | Rs_done -> 2

let sig_opt = function None -> -1 | Some v -> v

let purge_code = function
  | Pp_none -> 0
  | Pp_quiesce -> 1
  | Pp_flush start -> 2 + start

let purge_kind_code = function Pk_enter -> 0 | Pk_exit -> 1 | Pk_external -> 2

let state t s =
  let open Statesig in
  int s "core" t.id;
  int s " fq=" (Fifo.length t.fetch_q);
  lit s "[";
  Fifo.iter
    (fun r ->
      int s "(" (Hashtbl.hash r.pre_uop);
      bool s "," r.pre_mispredict;
      lit s ")")
    t.fetch_q;
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
  Array.iter
    (function
      | None -> none s "-"
      | Some e ->
        int s "(" (Hashtbl.hash e.u);
        int s " d=" (sig_opt e.dst_phys);
        int s " o=" (sig_opt e.old_phys);
        items s " s=[" e.src_phys;
        int s "] l=" (sig_opt e.lq_slot);
        int s " q=" (sig_opt e.sq_slot);
        int s " st=" (rob_state_code e.state);
        bool s " m=" e.mispredict;
        lit s ")")
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
  Array.iter
    (function
      | None -> none s "-"
      | Some sq ->
        int s "(" sq.sq_line;
        bool s "," sq.sq_addr_ready;
        lit s ")")
    t.sq;
  lit s "] sb[";
  Array.iteri
    (fun k busy ->
      if busy then item s t.sb_lines.(k) else none s "-;")
    t.sb;
  lit s "] sbp[";
  len s (Queue.length t.sb_pending);
  Queue.iter (item s) t.sb_pending;
  int s "] dtlb=" t.dtlb_outstanding;
  items s " ev[" (List.map (fun ev -> ev.ev_at) (pending_events t.wheel));
  int s "] pg=" (purge_code t.purge);
  int s " pk=" (purge_kind_code t.purge_kind);
  bool s " sp=" (t.saved_predictors <> None);
  bool s " pr=" t.purge_requested;
  int s " com=" t.committed;
  int s " ps=" t.purge_started;
  lit s " ";
  Ptw.state t.ptw s

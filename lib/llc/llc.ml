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
    pipeline_latency = 4;
    cores;
    repl_seed = 0x22;
  }

(* The int bitmasks of pending cores and of directory sharers give each
   port one bit of a word, as a one-word [Bitvec] does. *)
let max_ports = 62

(* MSHR phases, int-coded; the state fold shows these codes. *)
let p_pipe = 0 (* traversing the cache-access pipeline *)
let p_blocked = 1 (* same-line / same-way conflict; parked on another MSHR *)
let p_wait_retry = 2 (* queued for pipeline re-entry *)
let p_wait_downgrade = 3
let p_wait_victim_downgrade = 4
let p_in_dq = 5
let p_wait_dram = 6
let p_dram_arrived = 7 (* response buffered in the MSHR, awaiting pipeline *)
let p_wait_uq = 8

(* One preallocated record per MSHR slot; [e_live] false marks a free
   slot, whose other fields are stale. *)
type entry = {
  mutable e_live : bool;
  mutable e_core : int;
  mutable e_line : int;
  mutable e_to : Msi.t;
  mutable e_phase : int;
  mutable e_set : int;
  mutable e_way : int; (* -1 until reserved *)
  mutable e_locks_way : bool;
  mutable e_needs_wb : bool;
  mutable e_wb_line : int;
  mutable e_retry : bool; (* MI6 retry bit (Figure 3) *)
  mutable e_pending : int; (* bitmask: cores still to answer a downgrade *)
  (* Downgrade requests still to send: to cores
     [e_targets.(e_ts_next .. e_ts_end - 1)], each for [e_ts_line] to
     [e_ts_to]. *)
  e_targets : int array;
  mutable e_ts_next : int;
  mutable e_ts_end : int;
  mutable e_ts_line : int;
  mutable e_ts_to : Msi.t;
  e_blocked : int array; (* MSHR idxs parked on this entry, oldest first *)
  mutable e_nblocked : int;
  mutable e_dq_wb : bool; (* DQ work: writeback (else DRAM read) *)
}

(* Pipeline records are [exit cycle; kind; argument; response]: the
   argument is an MSHR index, or the responding core for [k_cresp], whose
   downgrade response packs as [line lsl 3 lor to_s lsl 1 lor dirty]. *)
let k_creq = 0
let k_retry = 1
let k_cresp = 2
let k_dram = 3

(* The message a pipeline record stands for: the state fold rebuilds and
   hashes these values. *)
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
  array : Sram.t;
  (* Directory, per Sram slot of a valid line: the owner and dirty bit
     in one byte, [(owner + 1) lsl 1 lor dirty] (owner -1: none; at
     most [max_ports] - 1, so it fits), and the sharers' bitmask. *)
  dir : Bytes.t;
  sharers : int array;
  repl : Replacement.t;
  entries : entry array;
  (* Indices derived from [entries], kept in step with every phase change
     and allocation so arbitration never rescans the MSHR file. *)
  mutable live : int; (* allocated MSHR entries *)
  mutable sending : int; (* entries with downgrade requests still to send *)
  arrived : int array; (* per core: entries in p_dram_arrived *)
  mutable arrived_all : int; (* every core's [arrived], summed *)
  free : int array; (* per (MSHR partition, bank): unallocated entries *)
  mutable respond : tag:int -> line:int -> unit; (* DRAM response sink *)
  pipe : Ring.t; (* see [k_creq] *)
  mutable pipe_due : int; (* the oldest [pipe] record's exit cycle; max_int when empty *)
  retryq : Ring.t array; (* per core *)
  mutable retries : int; (* every [retryq]'s length, summed *)
  (* Each port's incoming request and downgrade-response rings, as
     [links.(p).rq] and [links.(p).rs]: the arbiter reads their lengths
     without going through the link. *)
  rqs : Ring.t array;
  rss : Ring.t array;
  uqs : Ring.t array; (* 1 (shared) or per core *)
  dq : Ring.t;
  mutable dq_pending_read : int; (* baseline 2-cycle wb+read dequeue; -1 none *)
  port_used : int array; (* per core: last cycle its outgoing port sent *)
  (* Observability *)
  trace : Trace.t;
  mutable tnow : int; (* current cycle, for probes deep in the pipeline *)
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

(* The derived indices, recounted from the MSHR file:
   (live, sending, arrived, free). *)
let recount t =
  let arrived = Array.make t.cfg.cores 0
  and free = Array.make (Array.length t.free) 0
  and live = ref 0
  and sending = ref 0 in
  Array.iteri
    (fun i e ->
      if e.e_live then begin
        incr live;
        if e.e_ts_next < e.e_ts_end then incr sending;
        if e.e_phase = p_dram_arrived then
          arrived.(e.e_core) <- arrived.(e.e_core) + 1
      end
      else begin
        let part = if t.sec.partitioned_mshrs then i / per_core_mshrs t else 0 in
        let k = (part * t.cfg.mshr_banks) + (i mod t.cfg.mshr_banks) in
        free.(k) <- free.(k) + 1
      end)
    t.entries;
  (!live, !sending, arrived, free)

let dram_response t ~tag ~line =
  let e = t.entries.(tag) in
  if not e.e_live then failwith "Llc: dangling MSHR index";
  assert (e.e_line = line);
  (* No backpressure on the DRAM response: buffered in the MSHR. *)
  e.e_phase <- p_dram_arrived;
  t.arrived.(e.e_core) <- t.arrived.(e.e_core) + 1;
  t.arrived_all <- t.arrived_all + 1

let create ?(trace = Trace.null) cfg ~security ~links ~dram ~stats =
  if cfg.cores > max_ports then
    invalid_arg
      (Printf.sprintf "Llc.create: %d ports, at most %d" cfg.cores max_ports);
  if Array.length links <> cfg.cores then
    invalid_arg "Llc.create: one link per core required";
  if cfg.mshrs mod cfg.mshr_banks <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly into banks";
  if security.partitioned_mshrs && cfg.mshrs mod cfg.cores <> 0 then
    invalid_arg "Llc.create: mshrs must divide evenly across cores";
  let sets = Index.sets cfg.index in
  let entries =
    Array.init cfg.mshrs (fun _ ->
        {
          e_live = false;
          e_core = 0;
          e_line = -1;
          e_to = Msi.I;
          e_phase = p_pipe;
          e_set = -1;
          e_way = -1;
          e_locks_way = false;
          e_needs_wb = false;
          e_wb_line = -1;
          e_retry = false;
          e_pending = 0;
          e_targets = Array.make (cfg.cores + 1) 0;
          e_ts_next = 0;
          e_ts_end = 0;
          e_ts_line = -1;
          e_ts_to = Msi.I;
          e_blocked = Array.make cfg.mshrs 0;
          e_nblocked = 0;
          e_dq_wb = false;
        })
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
      dir = Bytes.make (sets * cfg.ways) '\000' (* no owner, clean *);
      sharers = Array.make (sets * cfg.ways) 0;
      repl =
        Replacement.pseudo_random ~ways:cfg.ways ~sets ~seed:cfg.repl_seed;
      entries;
      live = 0;
      sending = 0;
      arrived = Array.make cfg.cores 0;
      arrived_all = 0;
      free = Array.make (partitions * cfg.mshr_banks) 0;
      respond = (fun ~tag:_ ~line:_ -> ()) (* set below *);
      pipe = Ring.create ~width:4 (cfg.pipeline_latency + 2);
      pipe_due = max_int;
      retryq = Array.init cfg.cores (fun _ -> Ring.create cfg.mshrs);
      retries = 0;
      rqs = Array.map (fun l -> l.Link.rq) links;
      rss = Array.map (fun l -> l.Link.rs) links;
      uqs =
        (if security.split_uq then
           Array.init cfg.cores (fun _ -> Ring.create (cfg.mshrs / cfg.cores))
         else [| Ring.create cfg.mshrs |]);
      dq = Ring.create cfg.mshrs;
      dq_pending_read = -1;
      port_used = Array.make cfg.cores (-1);
      trace;
      tnow = 0;
      occ_hist = Histogram.create ();
    }
  in
  t.respond <- dram_response t;
  let _, _, _, free = recount t in
  Array.blit free 0 t.free 0 (Array.length free);
  t

let mshr_occupancy t = t.occ_hist
let live_mshrs t = t.live
let set_of t line = Index.index t.cfg.index ~line
let slot t ~set ~way = Sram.slot t.array ~set ~way

(* Slot [k]'s owner (-1: none) and dirty bit, from its directory
   byte. *)
let dir_owner t k = (Char.code (Bytes.get t.dir k) lsr 1) - 1
let dir_dirty t k = Char.code (Bytes.get t.dir k) land 1 = 1

let set_dir t k ~owner ~dirty =
  Bytes.set t.dir k (Char.unsafe_chr (((owner + 1) lsl 1) lor Bool.to_int dirty))

(* ------------------------------------------------------------------ *)
(* MSHR allocation                                                     *)
(* ------------------------------------------------------------------ *)

let free_in_bank t core bank = t.free.(free_slot t ~core ~bank)

(* The paper's pessimistic FPGA model: one full bank stalls all
   allocation.  With one bank this is just the partition's free count. *)
let free_mshrs_for t ~core ~line =
  let bank = bank_of_set t (set_of t line) in
  let all_ok = ref true in
  for b = 0 to t.cfg.mshr_banks - 1 do
    if free_in_bank t core b = 0 then all_ok := false
  done;
  if !all_ok then free_in_bank t core bank else 0

(* Allocates the lowest free entry of the core's partition in the line's
   bank; -1 when none is available. *)
let alloc_mshr t ~core ~line ~to_s =
  if free_mshrs_for t ~core ~line = 0 then -1
  else begin
    let bank = bank_of_set t (set_of t line) in
    let i = ref (entry_lo t core) in
    while t.entries.(!i).e_live || !i mod t.cfg.mshr_banks <> bank do
      incr i
    done;
    let i = !i in
    let e = t.entries.(i) in
    e.e_live <- true;
    e.e_core <- core;
    e.e_line <- line;
    e.e_to <- to_s;
    e.e_phase <- p_pipe;
    e.e_set <- -1;
    e.e_way <- -1;
    e.e_locks_way <- false;
    e.e_needs_wb <- false;
    e.e_wb_line <- -1;
    e.e_retry <- false;
    e.e_pending <- 0;
    e.e_ts_next <- 0;
    e.e_ts_end <- 0;
    e.e_nblocked <- 0;
    e.e_dq_wb <- false;
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
    let e = t.entries.(i) in
    if e.e_live && e.e_locks_way && e.e_set = set && e.e_way = way then found := i
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Queue helpers                                                       *)
(* ------------------------------------------------------------------ *)

let uq_for t core = if t.sec.split_uq then t.uqs.(core) else t.uqs.(0)

let enqueue_uq t idx =
  let e = t.entries.(idx) in
  e.e_phase <- p_wait_uq;
  Ring.push (uq_for t e.e_core) idx

let enqueue_retry t idx =
  let e = t.entries.(idx) in
  e.e_phase <- p_wait_retry;
  Ring.push t.retryq.(e.e_core) idx;
  t.retries <- t.retries + 1

let enqueue_dq t idx =
  t.entries.(idx).e_phase <- p_in_dq;
  Ring.push t.dq idx

let park_on t ~blocker ~parked =
  let b = t.entries.(blocker) in
  t.entries.(parked).e_phase <- p_blocked;
  b.e_blocked.(b.e_nblocked) <- parked;
  b.e_nblocked <- b.e_nblocked + 1

let free_entry t idx =
  let e = t.entries.(idx) in
  (* Parked entries retry newest first. *)
  for k = e.e_nblocked - 1 downto 0 do
    enqueue_retry t e.e_blocked.(k)
  done;
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now:t.tnow
      (Trace.Mshr_free { core = e.e_core; idx });
  if e.e_ts_next < e.e_ts_end then t.sending <- t.sending - 1;
  e.e_live <- false;
  t.live <- t.live - 1;
  let k = free_slot t ~core:e.e_core ~bank:(idx mod t.cfg.mshr_banks) in
  t.free.(k) <- t.free.(k) + 1

(* ------------------------------------------------------------------ *)
(* Directory / replacement bookkeeping                                 *)
(* ------------------------------------------------------------------ *)

let add_target e c =
  e.e_targets.(e.e_ts_end) <- c;
  e.e_ts_end <- e.e_ts_end + 1;
  e.e_pending <- e.e_pending lor (1 lsl c)

(* Sets [e]'s downgrade targets, the cores to downgrade before granting
   [to_s] on [line], the line in directory slot [k], to [core]:
   sharers in core order, then the owner.  Returns whether there is
   any. *)
let set_downgrade_targets t e k ~core ~to_s ~line =
  if e.e_ts_next < e.e_ts_end then t.sending <- t.sending - 1;
  e.e_ts_next <- 0;
  e.e_ts_end <- 0;
  let owner = dir_owner t k in
  (match to_s with
  | Msi.M ->
    let sharers = t.sharers.(k) in
    for c = 0 to t.cfg.cores - 1 do
      if c <> core && sharers land (1 lsl c) <> 0 then add_target e c
    done;
    if owner >= 0 && owner <> core then add_target e owner;
    e.e_ts_to <- Msi.I
  | Msi.S ->
    if owner >= 0 && owner <> core then add_target e owner;
    e.e_ts_to <- Msi.S
  | Msi.I -> ());
  e.e_ts_line <- line;
  if e.e_ts_end > 0 then t.sending <- t.sending + 1;
  e.e_ts_end > 0

let apply_cresp_to_directory t core ~line ~to_s ~dirty =
  let set = set_of t line in
  let way = Sram.find t.array ~set ~tag:line in
  if way >= 0 then begin
    let k = slot t ~set ~way in
    let owner = dir_owner t k in
    (* A downgrade to S or I ends [core]'s ownership. *)
    let owner = if to_s <> Msi.M && owner = core then -1 else owner in
    set_dir t k ~owner ~dirty:(dirty || dir_dirty t k);
    match to_s with
    | Msi.I -> t.sharers.(k) <- t.sharers.(k) land lnot (1 lsl core)
    | Msi.S -> t.sharers.(k) <- t.sharers.(k) lor (1 lsl core)
    | Msi.M -> ()
  end

(* Replacement completed: victim gone, line slot reserved for the miss. *)
let complete_replacement t idx ~victim_dirty =
  let e = t.entries.(idx) in
  Sram.invalidate t.array ~set:e.e_set ~way:e.e_way;
  e.e_needs_wb <- victim_dirty;
  e.e_dq_wb <- victim_dirty;
  if victim_dirty then Stats.bump t.ctr.c_writebacks;
  enqueue_dq t idx

(* ------------------------------------------------------------------ *)
(* Pipeline-exit processing                                            *)
(* ------------------------------------------------------------------ *)

(* An active transaction on [line] other than [idx], or -1.  Parked
   (p_blocked) entries are passive and must not themselves act as
   blockers, or two same-line entries could park on each other. *)
let same_line_blocker t idx line =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.entries do
    let o = t.entries.(!i) in
    if o.e_live && !i <> idx && o.e_line = line && o.e_phase <> p_blocked then
      found := !i;
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
  let pick = Replacement.victim t.repl ~set ~invalid_way:(-1) in
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
  if
    set_downgrade_targets t e (slot t ~set ~way) ~core:e.e_core ~to_s:e.e_to
      ~line:e.e_line
  then begin
    e.e_locks_way <- true;
    e.e_phase <- p_wait_downgrade
  end
  else enqueue_uq t idx

let request_miss t idx e ~set =
  Stats.bump t.ctr.c_misses;
  (* Find an invalid, unlocked way; otherwise pick a victim among
     unlocked ways. *)
  let way = unlocked_invalid_way t set in
  if way >= 0 then begin
    e.e_way <- way;
    e.e_locks_way <- true;
    e.e_dq_wb <- false;
    enqueue_dq t idx
  end
  else begin
    let way = unlocked_victim t set in
    if way < 0 then begin
      (* Every way locked by an in-flight transaction: retry. *)
      Stats.bump t.ctr.c_all_ways_locked;
      enqueue_retry t idx
    end
    else begin
      let victim_tag = Sram.tag t.array ~set ~way and k = slot t ~set ~way in
      Stats.bump t.ctr.c_replacements;
      e.e_way <- way;
      e.e_locks_way <- true;
      e.e_wb_line <- victim_tag;
      if set_downgrade_targets t e k ~core:(-1) ~to_s:Msi.M ~line:victim_tag
      then begin
        e.e_needs_wb <- dir_dirty t k;
        e.e_phase <- p_wait_victim_downgrade
      end
      else complete_replacement t idx ~victim_dirty:(dir_dirty t k)
    end
  end

let process_request t idx =
  let e = t.entries.(idx) in
  if e.e_retry then begin
    (* MI6 retry pass: the writeback already went out; this is now a pure
       miss that re-enters DQ for the DRAM read (Figure 3). *)
    e.e_retry <- false;
    e.e_dq_wb <- false;
    enqueue_dq t idx
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

(* The first entry waiting on [core]'s downgrade response for [line]
   consumes it; -1 when none does. *)
let cresp_claimant t core line =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.entries do
    let e = t.entries.(!i) in
    if
      e.e_live
      && (e.e_phase = p_wait_downgrade || e.e_phase = p_wait_victim_downgrade)
    then begin
      let wanted_line =
        if e.e_phase = p_wait_victim_downgrade then e.e_wb_line else e.e_line
      in
      if wanted_line = line && e.e_pending land (1 lsl core) <> 0 then
        found := !i
    end;
    incr i
  done;
  !found

let process_cresp t core ~line ~to_s ~dirty =
  (* A waiting MSHR consumes the response first (so it can account the
     dirty bit into the replacement), then the directory is updated. *)
  let idx = cresp_claimant t core line in
  if idx < 0 then apply_cresp_to_directory t core ~line ~to_s ~dirty
  else begin
    let e = t.entries.(idx) in
    e.e_pending <- e.e_pending land lnot (1 lsl core);
    apply_cresp_to_directory t core ~line ~to_s ~dirty;
    if e.e_pending = 0 then
      if e.e_phase = p_wait_victim_downgrade then begin
        let vdirty =
          e.e_needs_wb
          ||
          let way = Sram.find t.array ~set:e.e_set ~tag:e.e_wb_line in
          way >= 0 && dir_dirty t (slot t ~set:e.e_set ~way)
        in
        complete_replacement t idx ~victim_dirty:vdirty
      end
      else enqueue_uq t idx
  end

let process_dram t idx =
  let e = t.entries.(idx) in
  Sram.fill t.array ~set:e.e_set ~way:e.e_way ~tag:e.e_line;
  let k = slot t ~set:e.e_set ~way:e.e_way in
  set_dir t k ~owner:(-1) ~dirty:false;
  t.sharers.(k) <- 0;
  Replacement.touch t.repl ~set:e.e_set ~way:e.e_way;
  enqueue_uq t idx

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
      let e = t.entries.(!i) in
      if e.e_live && e.e_phase = p_dram_arrived && e.e_core = core then
        found := !i;
      incr i
    done;
    !found
  end

let kind_name kind =
  if kind = k_creq then "req"
  else if kind = k_retry then "retry"
  else if kind = k_cresp then "resp"
  else "dram"

let admit t ~now ~core ~kind ~arg ~resp =
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now (Trace.Arb_grant { core; kind = kind_name kind });
  Ring.push4 t.pipe (now + t.cfg.pipeline_latency) kind arg resp;
  if t.pipe.Ring.len = 1 then t.pipe_due <- now + t.cfg.pipeline_latency

(* One admission attempt per message class for [core]: each dequeues and
   admits its message and returns [true], or returns [false]. *)
let admit_dram t ~now core =
  let idx = dram_arrived_for t core in
  idx >= 0
  && begin
    t.entries.(idx).e_phase <- p_pipe;
    t.arrived.(core) <- t.arrived.(core) - 1;
    t.arrived_all <- t.arrived_all - 1;
    admit t ~now ~core ~kind:k_dram ~arg:idx ~resp:0;
    true
  end

let admit_retry t ~now core =
  t.retryq.(core).Ring.len > 0
  && begin
    let idx = Ring.pop t.retryq.(core) in
    t.retries <- t.retries - 1;
    t.entries.(idx).e_phase <- p_pipe;
    admit t ~now ~core ~kind:k_retry ~arg:idx ~resp:0;
    true
  end

let admit_cresp t ~now core =
  let rs = t.rss.(core) in
  rs.Ring.len > 0
  && begin
    let resp =
      (Link.line rs lsl 3)
      lor (Msi.to_int (Link.to_s rs) lsl 1)
      lor Bool.to_int (Link.dirty rs)
    in
    Ring.drop rs;
    admit t ~now ~core ~kind:k_cresp ~arg:core ~resp;
    true
  end

(* Upgrade requests need an MSHR. *)
let admit_creq t ~now core =
  let rq = t.rqs.(core) in
  rq.Ring.len > 0
  &&
  let idx = alloc_mshr t ~core ~line:(Link.line rq) ~to_s:(Link.to_s rq) in
  if idx >= 0 then begin
    Ring.drop rq;
    Stats.bump t.ctr.c_requests;
    admit t ~now ~core ~kind:k_creq ~arg:idx ~resp:0;
    true
  end
  else begin
    Stats.bump t.ctr.c_mshr_alloc_stalls;
    false
  end

(* Message classes in the baseline mux's priority order: DRAM responses,
   downgrade responses, retries, upgrade requests.  [waiting] reads
   fields only, so the mux calls an admission function only when there
   is a message to admit; [class_waiting] skips a class no core has a
   message in. *)
let[@inline] waiting t cls core =
  match cls with
  | 0 -> t.arrived.(core) > 0
  | 1 -> t.rss.(core).Ring.len > 0
  | 2 -> t.retryq.(core).Ring.len > 0
  | _ -> t.rqs.(core).Ring.len > 0

let[@inline] class_waiting t cls =
  match cls with 0 -> t.arrived_all > 0 | 2 -> t.retries > 0 | _ -> true

(* Some port has a request or a downgrade response on its link. *)
let link_waiting t =
  let p = ref 0 in
  while
    !p < t.cfg.cores && t.rqs.(!p).Ring.len = 0 && t.rss.(!p).Ring.len = 0
  do
    incr p
  done;
  !p < t.cfg.cores

let admit_class t ~now cls core =
  match cls with
  | 0 -> admit_dram t ~now core
  | 1 -> admit_cresp t ~now core
  | 2 -> admit_retry t ~now core
  | _ -> admit_creq t ~now core

(* The round-robin arbiter's slot owner: cycle T admits only core
   T mod N, and an idle slot is wasted (Section 5.4.3). *)
let slot_owner t now = now mod t.cfg.cores

let waste_slot t ~now core =
  Stats.bump t.ctr.c_arb_idle_slots;
  if Trace.active t.trace Trace.Llc then
    Trace.emit t.trace ~now (Trace.Arb_idle { core })

let enter_pipeline t ~now =
  if t.sec.round_robin_arbiter then begin
    let core = slot_owner t now in
    if
      not
        (admit_dram t ~now core || admit_retry t ~now core
        || admit_cresp t ~now core || admit_creq t ~now core)
    then waste_slot t ~now core
  end
  else if t.arrived_all > 0 || t.retries > 0 || link_waiting t then begin
    (* Baseline two-level mux: message-type priority, then core index.
       With no message waiting it admits nothing, so it is not run. *)
    let admitted = ref false and cls = ref 0 in
    while (not !admitted) && !cls < 4 do
      if class_waiting t !cls then begin
        let core = ref 0 in
        while (not !admitted) && !core < t.cfg.cores do
          admitted := waiting t !cls !core && admit_class t ~now !cls !core;
          incr core
        done
      end;
      incr cls
    done
  end

let advance_pipeline t ~now =
  if t.pipe_due <= now then begin
    let kind = Ring.peek t.pipe 1
    and arg = Ring.peek t.pipe 2
    and resp = Ring.peek t.pipe 3 in
    Ring.drop t.pipe;
    t.pipe_due <- (if t.pipe.Ring.len > 0 then Ring.peek t.pipe 0 else max_int);
    if kind = k_cresp then
      process_cresp t arg ~line:(resp lsr 3)
        ~to_s:(Msi.of_int ((resp lsr 1) land 3))
        ~dirty:(resp land 1 = 1)
    else if kind = k_dram then process_dram t arg
    else process_request t arg
  end

(* ------------------------------------------------------------------ *)
(* Downgrade-L1 logic                                                  *)
(* ------------------------------------------------------------------ *)

(* Send one pending downgrade request from the entries in [lo, hi). *)
let downgrade_scan t ~lo ~hi =
  let sent = ref false in
  let i = ref lo in
  while (not !sent) && !i < hi do
    let e = t.entries.(!i) in
    if e.e_live && e.e_ts_next < e.e_ts_end then begin
      let target = e.e_targets.(e.e_ts_next) in
      let link = t.links.(target) in
      if t.port_used.(target) <> t.tnow && Link.can_send link.Link.p2c then begin
        Link.send_parent link ~downgrade:true ~line:e.e_ts_line ~to_s:e.e_ts_to;
        Stats.bump t.ctr.c_downgrades_sent;
        t.port_used.(target) <- t.tnow;
        e.e_ts_next <- e.e_ts_next + 1;
        if e.e_ts_next = e.e_ts_end then t.sending <- t.sending - 1;
        sent := true
      end
    end;
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
  let e = t.entries.(idx) in
  if not (Sram.valid t.array ~set:e.e_set ~way:e.e_way) then
    invalid_arg "Llc: grant on an invalid way";
  let k = slot t ~set:e.e_set ~way:e.e_way in
  match e.e_to with
  | Msi.M ->
    set_dir t k ~owner:e.e_core ~dirty:(dir_dirty t k);
    t.sharers.(k) <- t.sharers.(k) land lnot (1 lsl e.e_core)
  | Msi.S -> t.sharers.(k) <- t.sharers.(k) lor (1 lsl e.e_core)
  | Msi.I -> ()

let try_send_response t idx =
  let e = t.entries.(idx) in
  let c = e.e_core in
  if t.port_used.(c) <> t.tnow && Link.can_send t.links.(c).Link.p2c then begin
    grant_directory t idx;
    Link.send_parent t.links.(c) ~downgrade:false ~line:e.e_line ~to_s:e.e_to;
    Stats.bump t.ctr.c_responses_sent;
    if Trace.active t.trace Trace.Llc then
      Trace.emit t.trace ~now:t.tnow
        (Trace.Uq_send { core = c; line = e.e_line });
    t.port_used.(c) <- t.tnow;
    e.e_locks_way <- false;
    free_entry t idx;
    true
  end
  else false

let uq_dequeue t =
  if t.sec.split_uq then
    for c = 0 to Array.length t.uqs - 1 do
      let q = t.uqs.(c) in
      if q.Ring.len > 0 && try_send_response t (Ring.peek q 0) then
        Ring.drop q
    done
  else
    let q = t.uqs.(0) in
    if q.Ring.len > 0 then
      if try_send_response t (Ring.peek q 0) then Ring.drop q
      else Stats.bump t.ctr.c_uq_hol_blocks

(* ------------------------------------------------------------------ *)
(* DQ dequeue                                                          *)
(* ------------------------------------------------------------------ *)

let dq_dequeue t ~now =
  if t.dq_pending_read >= 0 then begin
    (* Baseline second dequeue cycle: the port is still busy sending the
       DRAM read of a writeback+read pair (the Section 5.4.2 leak). *)
    if Controller.can_accept t.dram then begin
      let idx = t.dq_pending_read in
      let e = t.entries.(idx) in
      Controller.accept t.dram ~now
        { Controller.read = true; line = e.e_line; tag = idx };
      e.e_phase <- p_wait_dram;
      t.dq_pending_read <- -1
    end
    else Stats.bump t.ctr.c_dram_backpressure_stalls
  end
  else if t.dq.Ring.len > 0 then begin
    let idx = Ring.peek t.dq 0 in
    let e = t.entries.(idx) in
    if not (Controller.can_accept t.dram) then
      Stats.bump t.ctr.c_dram_backpressure_stalls
    else if not e.e_dq_wb then begin
      Ring.drop t.dq;
      Controller.accept t.dram ~now
        { Controller.read = true; line = e.e_line; tag = idx };
      e.e_phase <- p_wait_dram
    end
    else begin
      Ring.drop t.dq;
      Controller.accept t.dram ~now
        { Controller.read = false; line = e.e_wb_line; tag = idx };
      if t.sec.dq_retry then begin
        (* One-cycle dequeue: set the retry bit and re-enter the
           pipeline as a pure miss (Figure 3). *)
        e.e_retry <- true;
        Stats.bump t.ctr.c_dq_retries;
        if Trace.active t.trace Trace.Llc then
          Trace.emit t.trace ~now (Trace.Dq_retry { core = e.e_core; idx });
        enqueue_retry t idx
      end
      else begin
        (* Baseline: block the DQ port next cycle for the read. *)
        t.dq_pending_read <- idx;
        Stats.bump t.ctr.c_dq_double_dequeues
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Tick                                                                *)
(* ------------------------------------------------------------------ *)

(* What every tick does first, busy or idle: the clock the probes deep
   in the pipeline read, and one MSHR-occupancy sample. *)
let open_cycle t ~now =
  t.tnow <- now;
  Histogram.add t.occ_hist t.live

let tick t ~now =
  open_cycle t ~now;
  (* Downgrades, responses and the DQ all belong to allocated MSHRs;
     with none allocated there is nothing for them to do. *)
  if t.live > 0 then begin
    if t.sending > 0 then downgrade_logic t;
    uq_dequeue t
  end;
  advance_pipeline t ~now;
  enter_pipeline t ~now;
  if t.live > 0 then dq_dequeue t ~now;
  Controller.tick t.dram ~now ~respond:t.respond

(* Idle, the arbiter admits nothing, so only the round-robin one does
   anything: it wastes the cycle's slot. *)
let tick_idle t ~now =
  open_cycle t ~now;
  if t.sec.round_robin_arbiter then waste_slot t ~now (slot_owner t now)

let busy t =
  let queued = ref false and p = ref 0 in
  while (not !queued) && !p < Array.length t.links do
    let l = t.links.(!p) in
    queued :=
      l.Link.rq.Ring.len > 0 || l.Link.rs.Ring.len > 0 || l.Link.p2c.Ring.len > 0;
    incr p
  done;
  !queued || t.live > 0 || t.pipe.Ring.len > 0
  || Controller.outstanding t.dram > 0

let probe t ~line = Sram.find t.array ~set:(set_of t line) ~tag:line >= 0

let invalidate_region t ~geometry ~region =
  if busy t then failwith "Llc.invalidate_region: LLC not quiescent";
  let in_region set way =
    Sram.valid t.array ~set ~way
    && Addr.region_of geometry (Sram.tag t.array ~set ~way * Addr.line_bytes)
       = region
  in
  let sets = Sram.sets t.array in
  (* Check every line before dropping any. *)
  for set = 0 to sets - 1 do
    for way = 0 to t.cfg.ways - 1 do
      let k = slot t ~set ~way in
      (* The monitor descheduled and purged the domain's cores first, so
         no L1 may still hold the line. *)
      if in_region set way && (dir_owner t k >= 0 || t.sharers.(k) <> 0) then
        failwith "Llc.invalidate_region: line still shared by an L1"
    done
  done;
  for set = 0 to sets - 1 do
    for way = 0 to t.cfg.ways - 1 do
      if in_region set way then Sram.invalidate t.array ~set ~way
    done
  done

(* ------------------------------------------------------------------ *)
(* Structure state (quiet-cycle signature and labelled dump)           *)
(* ------------------------------------------------------------------ *)

(* MSHRs, every queue (pipeline, retry, UQ, DQ), the child links, and
   the DRAM controller.  The cache array, directory metadata, and
   replacement state are excluded: they only change in cycles that also
   move an MSHR or a queue.  [port_used] only compares with the current
   cycle and is likewise excluded.  The fold hashes the pending cores as
   a [Bitvec], each downgrade still to send as a (core, line, state)
   triple and each pipeline record as a [pipe_msg], so the signature and
   the dump do not depend on the int encodings; parked entries fold
   newest first. *)

let pending_bitvec t e =
  let v = Bitvec.create t.cfg.cores in
  for c = 0 to t.cfg.cores - 1 do
    if e.e_pending land (1 lsl c) <> 0 then Bitvec.set v c
  done;
  v

let pipe_msg t i =
  let kind = Ring.get t.pipe i 1 and arg = Ring.get t.pipe i 2 in
  if kind = k_creq then M_creq arg
  else if kind = k_retry then M_retry arg
  else if kind = k_dram then M_dram arg
  else
    let resp = Ring.get t.pipe i 3 in
    M_cresp
      ( arg,
        { Msg.line = resp lsr 3; to_s = Msi.of_int ((resp lsr 1) land 3);
          dirty = resp land 1 = 1 } )

let state t s =
  let open Statesig in
  (* Queues render as "x;" runs; their lengths reach the hash through
     [len]. *)
  let ints q =
    len s (Ring.length q);
    for i = 0 to Ring.length q - 1 do
      item s (Ring.get q i 0)
    done
  in
  int s "llc.live=" t.live;
  lit s " entries[";
  Array.iter
    (fun e ->
      if not e.e_live then none s "-"
      else begin
        int s "(ph=" e.e_phase;
        int s " c=" e.e_core;
        int s " l=" e.e_line;
        int s " to=" (Msi.to_int e.e_to);
        int s " s=" e.e_set;
        int s " w=" e.e_way;
        bool s " lk=" e.e_locks_way;
        bool s " wb=" e.e_needs_wb;
        int s "@" e.e_wb_line;
        bool s " r=" e.e_retry;
        int s " p=" (Hashtbl.hash (pending_bitvec t e));
        int s " ts=" (e.e_ts_end - e.e_ts_next);
        lit s "[";
        for k = e.e_ts_next to e.e_ts_end - 1 do
          item s (Hashtbl.hash (e.e_targets.(k), e.e_ts_line, e.e_ts_to))
        done;
        lit s "] blk[";
        len s e.e_nblocked;
        for k = e.e_nblocked - 1 downto 0 do
          item s e.e_blocked.(k)
        done;
        int s "] dq=" (Bool.to_int e.e_dq_wb);
        lit s ")"
      end)
    t.entries;
  int s "] pipe=" (Ring.length t.pipe);
  lit s "[";
  for i = 0 to Ring.length t.pipe - 1 do
    int s "(" (Ring.get t.pipe i 0);
    int s "," (Hashtbl.hash (pipe_msg t i));
    lit s ")"
  done;
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
  Array.iter (fun l -> Link.state l s) t.links;
  lit s "] dram=";
  Controller.state t.dram s

(* ------------------------------------------------------------------ *)
(* Bookkeeping checker                                                 *)
(* ------------------------------------------------------------------ *)

let check_invariants t =
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some ("llc: " ^ m)) fmt
  in
  let live, sending, arrived, free = recount t in
  if live <> t.live then fail "live %d, recount %d" t.live live;
  let arrived_all = Array.fold_left ( + ) 0 arrived in
  if arrived_all <> t.arrived_all then
    fail "arrived_all %d, recount %d" t.arrived_all arrived_all;
  let retries = Array.fold_left (fun n q -> n + Ring.length q) 0 t.retryq in
  if retries <> t.retries then fail "retries %d, recount %d" t.retries retries;
  let due = if Ring.length t.pipe > 0 then Ring.get t.pipe 0 0 else max_int in
  if due <> t.pipe_due then fail "pipe_due %d, oldest record's %d" t.pipe_due due;
  if sending <> t.sending then fail "sending %d, recount %d" t.sending sending;
  Array.iteri
    (fun c n ->
      if n <> t.arrived.(c) then
        fail "arrived.(%d) %d, recount %d" c t.arrived.(c) n)
    arrived;
  Array.iteri
    (fun k n ->
      if n <> t.free.(k) then fail "free.(%d) %d, recount %d" k t.free.(k) n)
    free;
  (* Every queued index names a live entry in its queue's phase. *)
  let queued what ~core ~phase idx =
    let e = t.entries.(idx) in
    if not e.e_live then fail "%s holds free MSHR %d" what idx
    else if e.e_phase <> phase then
      fail "%s holds MSHR %d in phase %d" what idx e.e_phase
    else if core >= 0 && e.e_core <> core then
      fail "%s holds core %d's MSHR %d" what e.e_core idx
  in
  let ring what ~core ~phase q =
    for i = 0 to Ring.length q - 1 do
      queued what ~core ~phase (Ring.get q i 0)
    done
  in
  for i = 0 to Ring.length t.pipe - 1 do
    if Ring.get t.pipe i 1 <> k_cresp then
      queued "pipe" ~core:(-1) ~phase:p_pipe (Ring.get t.pipe i 2)
  done;
  Array.iteri
    (fun c q -> ring (Printf.sprintf "retryq.(%d)" c) ~core:c ~phase:p_wait_retry q)
    t.retryq;
  Array.iteri
    (fun c q ->
      let core = if t.sec.split_uq then c else -1 in
      ring (Printf.sprintf "uq.(%d)" c) ~core ~phase:p_wait_uq q)
    t.uqs;
  ring "dq" ~core:(-1) ~phase:p_in_dq t.dq;
  if t.dq_pending_read >= 0 then
    queued "dq_pending_read" ~core:(-1) ~phase:p_in_dq t.dq_pending_read;
  (* No (set, way) is locked twice. *)
  let locks e = e.e_live && e.e_locks_way in
  Array.iteri
    (fun i e ->
      if locks e then
        for j = i + 1 to Array.length t.entries - 1 do
          let o = t.entries.(j) in
          if locks o && o.e_set = e.e_set && o.e_way = e.e_way then
            fail "MSHRs %d and %d both lock set %d way %d" i j e.e_set e.e_way
        done)
    t.entries;
  match !err with None -> Ok () | Some m -> Error m

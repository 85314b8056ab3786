type config = {
  sets : int;
  ways : int;
  mshrs : int;
  hit_latency : int;
  seed : int;
  prefetch_next_line : bool;
}

let default_config =
  { sets = 64; ways = 8; mshrs = 8; hit_latency = 2; seed = 0x11;
    prefetch_next_line = false }

type line_meta = { state : Msi.t }

type mshr = {
  m_line : int;
  m_to : Msi.t;
  m_way : int; (* reserved way for the fill *)
  m_set : int;
  m_born : int; (* alloc cycle, for the miss-latency histogram *)
  mutable m_waiters : int list; (* request ids, completion order *)
}

(* Counter handles, resolved once per cache. *)
type counters = {
  c_accesses : Stats.counter;
  c_hits : Stats.counter;
  c_misses : Stats.counter;
  c_mshr_merges : Stats.counter;
  c_mshr_full_stalls : Stats.counter;
  c_writebacks : Stats.counter;
  c_evictions : Stats.counter;
  c_prefetches : Stats.counter;
}

type t = {
  cfg : config;
  array : line_meta Sram.t;
  repl : Replacement.t;
  link : Link.t;
  ctr : counters;
  trace : Trace.t;
  miss_lat : Histogram.t; (* demand-miss request-to-fill latency *)
  name : string;
  input : Ring.t; (* requests: line, store (0/1), id *)
  mshrs : mshr option array;
  completions : Ring.t; (* id, ready_at; grows when full *)
  mutable flushing : bool;
  mutable flush_cursor : int; (* line index being flushed: set * ways + way *)
}

let create ?(trace = Trace.null) cfg ~link ~stats ~name =
  let c suffix = Stats.counter stats (name ^ suffix) in
  {
    cfg;
    array = Sram.create ~sets:cfg.sets ~ways:cfg.ways;
    repl = Replacement.pseudo_random ~ways:cfg.ways ~sets:cfg.sets ~seed:cfg.seed;
    link;
    ctr =
      {
        c_accesses = c ".accesses";
        c_hits = c ".hits";
        c_misses = c ".misses";
        c_mshr_merges = c ".mshr_merges";
        c_mshr_full_stalls = c ".mshr_full_stalls";
        c_writebacks = c ".writebacks";
        c_evictions = c ".evictions";
        c_prefetches = c ".prefetches";
      };
    trace;
    miss_lat = Histogram.create ();
    name;
    input = Ring.create ~width:3 4;
    mshrs = Array.make cfg.mshrs None;
    completions = Ring.create ~width:2 16;
    flushing = false;
    flush_cursor = 0;
  }

let config t = t.cfg
let can_accept t = (not (Ring.is_full t.input)) && not t.flushing

let request t ~line ~store ~id =
  if not (can_accept t) then failwith "L1.request: not ready";
  Stats.bump t.ctr.c_accesses;
  Ring.push3 t.input line (Bool.to_int store) id

(* Request [id] completes at cycle [at]. *)
let complete_at t id at =
  if Ring.is_full t.completions then Ring.grow t.completions;
  Ring.push2 t.completions id at

(* L1s always use the flat (low-bits) index; sets is a power of two. *)
let set_of t line = line land (t.cfg.sets - 1)

(* Lowest free MSHR index, or -1. *)
let free_mshr t =
  let i = ref 0 in
  while !i < Array.length t.mshrs && Option.is_some t.mshrs.(!i) do
    incr i
  done;
  if !i < Array.length t.mshrs then !i else -1

(* Index of the MSHR tracking [line], or -1. *)
let find_mshr t line =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length t.mshrs do
    (match t.mshrs.(!i) with
    | Some m when m.m_line = line -> found := !i
    | _ -> ());
    incr i
  done;
  !found

let mshr t idx =
  match t.mshrs.(idx) with Some m -> m | None -> assert false

let in_flight t =
  Ring.length t.input
  + Array.fold_left (fun n m -> n + match m with Some _ -> 1 | None -> 0) 0 t.mshrs
  + Ring.length t.completions

(* A way already reserved as the fill target of an in-flight miss must not
   be picked by another miss in the same set. *)
let way_reserved t set way =
  let found = ref false in
  for i = 0 to Array.length t.mshrs - 1 do
    match t.mshrs.(i) with
    | Some m when m.m_set = set && m.m_way = way -> found := true
    | _ -> ()
  done;
  !found

(* A way no line occupies and no in-flight miss has claimed. *)
let way_free t set way =
  (not (Sram.valid t.array ~set ~way)) && not (way_reserved t set way)

let probe t ~line =
  let set = set_of t line in
  let way = Sram.find t.array ~set ~tag:line in
  if way < 0 then Msi.I else (Sram.meta t.array ~set ~way).state

let try_hit t ~line =
  if t.flushing then false
  else begin
    let set = set_of t line in
    let way = Sram.find t.array ~set ~tag:line in
    if way >= 0 then begin
      Stats.bump t.ctr.c_accesses;
      Stats.bump t.ctr.c_hits;
      Replacement.touch t.repl ~set ~way;
      true
    end
    else false
  end

(* Handle one parent->child message if present.  Returns unit; leaves the
   message queued when output backpressure prevents progress. *)
let process_parent t ~now =
  match Fifo.peek_opt t.link.Link.p2c with
  | None -> ()
  | Some (Msg.Upgrade_resp { line; to_s }) ->
    ignore (Fifo.deq t.link.Link.p2c);
    let idx = find_mshr t line in
    (* A response without an MSHR is a protocol violation. *)
    assert (idx >= 0);
    let m = mshr t idx in
    Sram.fill t.array ~set:m.m_set ~way:m.m_way ~tag:line { state = to_s };
    Replacement.touch t.repl ~set:m.m_set ~way:m.m_way;
    if m.m_waiters <> [] then Histogram.add t.miss_lat (now - m.m_born);
    if Trace.active t.trace Trace.L1 then
      Trace.emit t.trace ~now (Trace.Cache_fill { cache = t.name; line });
    List.iter
      (fun id -> complete_at t id (now + t.cfg.hit_latency))
      (List.rev m.m_waiters);
    t.mshrs.(idx) <- None
  | Some (Msg.Downgrade_req { line; to_s }) ->
    if Fifo.can_enq t.link.Link.rs then begin
      ignore (Fifo.deq t.link.Link.p2c);
      let set = set_of t line in
      let way = Sram.find t.array ~set ~tag:line in
      let state = if way < 0 then Msi.I else (Sram.meta t.array ~set ~way).state in
      if Msi.lt to_s state then begin
        let dirty = state = Msi.M in
        if dirty then Stats.bump t.ctr.c_writebacks;
        if to_s = Msi.I then Sram.invalidate t.array ~set ~way
        else Sram.update t.array ~set ~way { state = to_s };
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty }
      end
      else
        (* Already at or below the requested state (e.g. a voluntary
           eviction raced with this request): null response. *)
        Fifo.enq t.link.Link.rs { Msg.line; to_s; dirty = false }
    end

(* Lowest way that holds no line and that no in-flight miss has claimed,
   or -1. *)
let unreserved_invalid_way t set =
  let w = ref 0 in
  while !w < t.cfg.ways && not (way_free t set !w) do
    incr w
  done;
  if !w < t.cfg.ways then !w else -1

(* Replacement victim: the policy's pick, or the next way after it that
   no in-flight miss has claimed; -1 when every way is claimed. *)
let unreserved_victim t set =
  let pick = Replacement.victim t.repl ~set ~invalid_way:None in
  let way = ref (-1) and tries = ref 0 in
  while !way < 0 && !tries < t.cfg.ways do
    let w = (pick + !tries) mod t.cfg.ways in
    if not (way_reserved t set w) then way := w;
    incr tries
  done;
  !way

(* Next-line prefetch: a waiter-less miss for [line], issued only when it
   costs nothing that a demand access needs right now. *)
let try_prefetch t ~now line =
  let set = set_of t line in
  if
    Sram.find t.array ~set ~tag:line < 0
    && find_mshr t line < 0
    && Fifo.can_enq t.link.Link.rq
  then begin
    let idx = free_mshr t in
    (* Prefetches never evict: only fill truly free ways. *)
    let way = if idx < 0 then -1 else unreserved_invalid_way t set in
    if way >= 0 then begin
      Stats.bump t.ctr.c_prefetches;
      t.mshrs.(idx) <-
        Some
          { m_line = line; m_to = Msi.S; m_way = way; m_set = set;
            m_born = now; m_waiters = [] };
      Fifo.enq t.link.Link.rq { Msg.line; from_s = Msi.I; to_s = Msi.S }
    end
  end

(* Evict the valid line in [way] with a downgrade response (clean or
   dirty). *)
let evict t ~set ~way =
  let m = Sram.meta t.array ~set ~way in
  let dirty = m.state = Msi.M in
  if dirty then Stats.bump t.ctr.c_writebacks;
  Stats.bump t.ctr.c_evictions;
  Fifo.enq t.link.Link.rs
    { Msg.line = Sram.tag t.array ~set ~way; to_s = Msi.I; dirty };
  Sram.invalidate t.array ~set ~way

(* Allocate MSHR [idx] for a miss (or S->M upgrade when [present] is the
   line's way) and send the upgrade request; leaves the request queued
   when no way can be reserved this cycle. *)
let start_miss t ~now ~idx ~present ~line ~set ~needed ~id =
  let from_s =
    if present >= 0 then (Sram.meta t.array ~set ~way:present).state else Msi.I
  in
  let way =
    if present >= 0 then present (* S->M upgrade in place *)
    else begin
      let w = unreserved_invalid_way t set in
      if w >= 0 then w
      else begin
        let w = unreserved_victim t set in
        if w >= 0 && Fifo.can_enq t.link.Link.rs then begin
          evict t ~set ~way:w;
          w
        end
        else -1 (* all ways reserved, or no room for the eviction *)
      end
    end
  in
  if way >= 0 then begin
    Ring.drop t.input;
    Stats.bump t.ctr.c_misses;
    if Trace.active t.trace Trace.L1 then
      Trace.emit t.trace ~now (Trace.Cache_miss { cache = t.name; line });
    t.mshrs.(idx) <-
      Some
        { m_line = line; m_to = needed; m_way = way; m_set = set; m_born = now;
          m_waiters = [ id ] };
    Fifo.enq t.link.Link.rq { Msg.line; from_s; to_s = needed };
    if t.cfg.prefetch_next_line then try_prefetch t ~now (line + 1)
  end

(* Try to start the request at the head of the input queue. *)
let process_input t ~now =
  if not (Ring.is_empty t.input) then begin
    let line = Ring.peek t.input 0 and id = Ring.peek t.input 2 in
    let store = Ring.peek t.input 1 = 1 in
    let set = set_of t line in
    let needed = Msi.needed_for ~store in
    let way = Sram.find t.array ~set ~tag:line in
    if way >= 0 && Msi.leq needed (Sram.meta t.array ~set ~way).state then begin
      (* Hit. *)
      Ring.drop t.input;
      Stats.bump t.ctr.c_hits;
      Replacement.touch t.repl ~set ~way;
      complete_at t id (now + t.cfg.hit_latency)
    end
    else begin
      (* Miss or upgrade. *)
      let midx = find_mshr t line in
      if midx >= 0 then begin
        let m = mshr t midx in
        if Msi.leq needed m.m_to then begin
          Ring.drop t.input;
          Stats.bump t.ctr.c_mshr_merges;
          m.m_waiters <- id :: m.m_waiters
        end
        (* else the in-flight grant is too weak (load MSHR, store
           arrives): wait for it to complete, then re-request.
           Head-of-line stall. *)
      end
      else begin
        let idx = free_mshr t in
        if idx < 0 then Stats.bump t.ctr.c_mshr_full_stalls
        else if Fifo.can_enq t.link.Link.rq then
          start_miss t ~now ~idx ~present:way ~line ~set ~needed ~id
      end
    end
  end

let deliver_completions t ~now ~complete =
  while
    (not (Ring.is_empty t.completions)) && Ring.peek t.completions 1 <= now
  do
    let id = Ring.peek t.completions 0 in
    Ring.drop t.completions;
    complete id
  done

let tick t ~now ~complete =
  process_parent t ~now;
  if not t.flushing then process_input t ~now;
  deliver_completions t ~now ~complete

let begin_flush t =
  if in_flight t > 0 then failwith "L1.begin_flush: requests in flight";
  t.flushing <- true;
  t.flush_cursor <- 0

let valid_lines t = Sram.count_valid t.array
let is_flushing t = t.flushing

let flush_step t =
  if not t.flushing then invalid_arg "L1.flush_step: not flushing";
  let ways = t.cfg.ways in
  let total = t.cfg.sets * ways in
  (* Skip invalid slots without consuming cycles beyond this one step. *)
  let cursor = ref t.flush_cursor in
  while
    !cursor < total
    && not (Sram.valid t.array ~set:(!cursor / ways) ~way:(!cursor mod ways))
  do
    incr cursor
  done;
  if !cursor < total then begin
    (* The coherence protocol requires notifying the LLC even for clean
       invalidations (Section 7.1), so each line costs one rs message. *)
    if Fifo.can_enq t.link.Link.rs then begin
      let set = !cursor / ways and way = !cursor mod ways in
      let dirty = (Sram.meta t.array ~set ~way).state = Msi.M in
      if dirty then Stats.bump t.ctr.c_writebacks;
      Fifo.enq t.link.Link.rs
        { Msg.line = Sram.tag t.array ~set ~way; to_s = Msi.I; dirty };
      Sram.invalidate t.array ~set ~way;
      t.flush_cursor <- !cursor + 1
    end;
    (* else: rs backpressured; retry this slot next cycle. *)
    false
  end
  else begin
    Replacement.scrub t.repl;
    t.flushing <- false;
    true
  end

let miss_latency t = t.miss_lat

(* Structure state: the input queue, MSHRs, pending completions, and
   the flush cursor.  The data array and replacement metadata are
   excluded — they only change in cycles that also move an MSHR, a
   queue, or the cursor. *)
let msi_code = function Msi.M -> 2 | Msi.S -> 1 | Msi.I -> 0

let state t s =
  let open Statesig in
  lit s t.name;
  int s ".in=" (Ring.length t.input);
  lit s "[";
  for i = 0 to Ring.length t.input - 1 do
    int s "(" (Ring.get t.input i 0);
    bool s "," (Ring.get t.input i 1 = 1);
    int s "," (Ring.get t.input i 2);
    lit s ")"
  done;
  lit s "] mshrs[";
  Array.iter
    (function
      | None -> none s "-"
      | Some m ->
        int s "(" m.m_line;
        int s "," (msi_code m.m_to);
        int s "," m.m_way;
        int s "," m.m_set;
        int s "," m.m_born;
        items s ",w=" m.m_waiters;
        lit s ")")
    t.mshrs;
  int s "] comp=" (Ring.length t.completions);
  lit s "[";
  for i = 0 to Ring.length t.completions - 1 do
    int s "(" (Ring.get t.completions i 0);
    int s "," (Ring.get t.completions i 1);
    lit s ")"
  done;
  bool s "] flush=" t.flushing;
  int s "@" t.flush_cursor

let id_tag = 1 lsl 40

type walk = {
  vpage : int;
  started_at : int;
  mutable levels_left : int list; (* levels still to read, root first *)
  mutable waiting_mem : bool;
  mutable reads : int;
  on_done : reads:int -> unit;
}

type t = {
  max_walks : int;
  tcache : Trans_cache.t;
  pt_base_line : int;
  window : int;
  slots : walk option array;
  mutable live : int; (* slots holding a walk *)
  trace : Trace.t;
  core : int; (* owning core, for trace attribution *)
  walk_lat : Histogram.t; (* walk start-to-finish latency *)
}

let create ?(trace = Trace.null) ?(core = 0) ~max_walks ~tcache ~pt_base_line
    ~table_window_lines () =
  {
    max_walks;
    tcache;
    pt_base_line;
    window = table_window_lines;
    slots = Array.make max_walks None;
    live = 0;
    trace;
    core;
    walk_lat = Histogram.create ();
  }

let walk_latency t = t.walk_lat

let active_walks t = t.live
let can_start t = t.live < t.max_walks

(* Sv39 structure: level 2 = root (vpn[26:18]), level 1 = mid
   (vpn[26:9]), level 0 = leaf (full vpn).  Each PTE is 8 bytes. *)
let prefix ~level ~vpage =
  match level with
  | 2 -> vpage lsr 18
  | 1 -> vpage lsr 9
  | 0 -> vpage
  | _ -> invalid_arg "Ptw: bad level"

let pte_line t ~level ~vpage =
  let p = prefix ~level ~vpage in
  (* 8 PTEs per 64-byte line. *)
  t.pt_base_line + ((2 - level) * t.window) + (p / 8 mod t.window)

let start ?(now = 0) t ~vpage ~on_done =
  if not (can_start t) then failwith "Ptw.start: no free walk slot";
  if Trace.active t.trace Trace.Ptw then
    Trace.emit t.trace ~now (Trace.Walk_start { core = t.core; vpage });
  (* Translation cache: skipping levels whose prefix is cached. *)
  let levels_left =
    if Trans_cache.lookup t.tcache ~level:1 ~prefix:(prefix ~level:1 ~vpage)
    then [ 0 ]
    else if
      Trans_cache.lookup t.tcache ~level:0 ~prefix:(prefix ~level:2 ~vpage)
      (* tcache level 0 stores root-level (walk level 2) prefixes *)
    then [ 1; 0 ]
    else [ 2; 1; 0 ]
  in
  let rec find i =
    if i >= t.max_walks then assert false
    else match t.slots.(i) with None -> i | Some _ -> find (i + 1)
  in
  let slot = find 0 in
  t.slots.(slot) <-
    Some
      { vpage; started_at = now; levels_left; waiting_mem = false; reads = 0;
        on_done };
  t.live <- t.live + 1

let tick t ~issue =
  (* Issue at most one PTE read per cycle, lowest slot first. *)
  if t.live > 0 then begin
    let issued = ref false and i = ref 0 in
    while (not !issued) && !i < Array.length t.slots do
      (match t.slots.(!i) with
      | Some ({ waiting_mem = false; levels_left = level :: _; _ } as w) ->
        if issue ~line:(pte_line t ~level ~vpage:w.vpage) ~id:(id_tag lor !i)
        then begin
          w.waiting_mem <- true;
          issued := true
        end
      | _ -> ());
      incr i
    done
  end

let mem_response ?(now = 0) t ~id =
  let slot = id land lnot id_tag in
  match t.slots.(slot) with
  | None -> failwith "Ptw.mem_response: no walk in slot"
  | Some w -> (
    if not w.waiting_mem then failwith "Ptw.mem_response: not waiting";
    w.waiting_mem <- false;
    w.reads <- w.reads + 1;
    match w.levels_left with
    | [] -> assert false
    | _ :: (_ :: _ as rest) -> w.levels_left <- rest
    | [ _ ] ->
      (* Walk complete: populate the translation cache. *)
      w.levels_left <- [];
      Trans_cache.insert t.tcache ~level:0
        ~prefix:(prefix ~level:2 ~vpage:w.vpage);
      Trans_cache.insert t.tcache ~level:1
        ~prefix:(prefix ~level:1 ~vpage:w.vpage);
      Histogram.add t.walk_lat (now - w.started_at);
      if Trace.active t.trace Trace.Ptw then
        Trace.emit t.trace ~now
          (Trace.Walk_end { core = t.core; vpage = w.vpage; reads = w.reads });
      t.slots.(slot) <- None;
      t.live <- t.live - 1;
      w.on_done ~reads:w.reads)

let check_invariants t =
  let n = ref 0 in
  Array.iter (function Some _ -> incr n | None -> ()) t.slots;
  if !n = t.live then Ok ()
  else Error (Printf.sprintf "ptw: live %d, recount %d" t.live !n)

(* Structure state: the walk slots.  The translation cache and latency
   histogram are excluded — they only change when a walk also
   completes. *)
let state t s =
  let open Statesig in
  lit s "ptw[";
  Array.iter
    (function
      | None -> none s "-"
      | Some w ->
        int s "(v=" w.vpage;
        int s " s=" w.started_at;
        items s " ll=[" w.levels_left;
        bool s "] wm=" w.waiting_mem;
        int s " r=" w.reads;
        lit s ")")
    t.slots;
  lit s "]"

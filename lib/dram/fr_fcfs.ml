type req = { read : bool; line : int; tag : int }

type config = {
  banks : int;
  row_lines : int;
  hit_latency : int;
  miss_latency : int;
  max_outstanding : int;
}

let default_config =
  {
    banks = 8;
    row_lines = 128; (* 8 KB rows *)
    hit_latency = 60;
    miss_latency = 120;
    max_outstanding = 24;
  }

type waiting = { w_req : req; w_seq : int }

type bank = {
  mutable open_row : int option;
  mutable busy_until : int;
  mutable current : (req * int) option; (* request in service, done_at *)
}

type t = {
  cfg : config;
  reads : Stats.counter;
  writes : Stats.counter;
  row_hits : Stats.counter;
  row_misses : Stats.counter;
  trace : Trace.t;
  banks : bank array;
  mutable queue : waiting list; (* arrival order, oldest first *)
  mutable seq : int;
  mutable accepted_at : int;
  ready : Ring.t; (* (line, tag) of completed reads, pending respond *)
}

let create ?(trace = Trace.null) cfg ~stats =
  {
    cfg;
    reads = Stats.counter stats "dram.reads";
    writes = Stats.counter stats "dram.writes";
    row_hits = Stats.counter stats "dram.row_hits";
    row_misses = Stats.counter stats "dram.row_misses";
    trace;
    banks =
      Array.init cfg.banks (fun _ ->
          { open_row = None; busy_until = 0; current = None });
    queue = [];
    seq = 0;
    accepted_at = -1;
    ready = Ring.create ~width:2 cfg.max_outstanding;
  }

let bank_of (cfg : config) ~line = line land (cfg.banks - 1)
let row_of (cfg : config) ~line = line / cfg.banks / cfg.row_lines

let outstanding t =
  List.length t.queue
  + Array.fold_left
      (fun n b -> n + match b.current with Some _ -> 1 | None -> 0)
      0 t.banks
  + Ring.length t.ready

let can_accept t = outstanding t < t.cfg.max_outstanding

let accept t ~now req =
  if not (can_accept t) then failwith "Fr_fcfs.accept: backpressured";
  if t.accepted_at = now then failwith "Fr_fcfs.accept: two requests in one cycle";
  t.accepted_at <- now;
  Stats.bump (if req.read then t.reads else t.writes);
  t.queue <- t.queue @ [ { w_req = req; w_seq = t.seq } ];
  t.seq <- t.seq + 1

(* FR-FCFS scheduling: for each idle bank, prefer the oldest request that
   hits the open row; otherwise the oldest request for that bank. *)
let schedule_bank t ~now bi bank =
  let for_bank =
    List.filter (fun w -> bank_of t.cfg ~line:w.w_req.line = bi) t.queue
  in
  let pick =
    let hits =
      List.filter
        (fun w -> bank.open_row = Some (row_of t.cfg ~line:w.w_req.line))
        for_bank
    in
    match (hits, for_bank) with
    | w :: _, _ -> Some (w, true)
    | [], w :: _ -> Some (w, false)
    | [], [] -> None
  in
  match pick with
  | None -> ()
  | Some (w, row_hit) ->
    t.queue <- List.filter (fun x -> x.w_seq <> w.w_seq) t.queue;
    let lat = if row_hit then t.cfg.hit_latency else t.cfg.miss_latency in
    Stats.bump (if row_hit then t.row_hits else t.row_misses);
    if Trace.active t.trace Trace.Dram then
      Trace.emit t.trace ~now
        (Trace.Dram_cmd
           { bank = bi; read = w.w_req.read; row_hit; line = w.w_req.line });
    bank.open_row <- Some (row_of t.cfg ~line:w.w_req.line);
    bank.current <- Some (w.w_req, now + lat)

let tick t ~now ~respond =
  for bi = 0 to Array.length t.banks - 1 do
    let bank = t.banks.(bi) in
    if t.queue <> [] && bank.current = None && bank.busy_until <= now then
      schedule_bank t ~now bi bank
  done;
  (* Collect finished bank operations. *)
  for bi = 0 to Array.length t.banks - 1 do
    let bank = t.banks.(bi) in
    match bank.current with
    | Some (req, done_at) when done_at <= now ->
      bank.current <- None;
      bank.busy_until <- now;
      if req.read then Ring.push2 t.ready req.line req.tag
    | _ -> ()
  done;
  (* One response per cycle on the shared data bus. *)
  if not (Ring.is_empty t.ready) then begin
    let line = Ring.peek t.ready 0 and tag = Ring.peek t.ready 1 in
    Ring.drop t.ready;
    respond ~tag ~line
  end

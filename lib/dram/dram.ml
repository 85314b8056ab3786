type req = { read : bool; line : int; tag : int }

type inflight = { req : req; done_at : int }

type t = {
  lat : int;
  max_outstanding : int;
  reads : Stats.counter;
  writes : Stats.counter;
  trace : Trace.t;
  q : inflight Fifo.t;
  mutable accepted_at : int; (* cycle of last accept, for 1/cycle limit *)
}

let create ?(trace = Trace.null) ~latency ~max_outstanding ~stats () =
  if latency <= 0 || max_outstanding <= 0 then invalid_arg "Dram.create";
  {
    lat = latency;
    max_outstanding;
    reads = Stats.counter stats "dram.reads";
    writes = Stats.counter stats "dram.writes";
    trace;
    q = Fifo.create ~capacity:max_outstanding;
    accepted_at = -1;
  }

let outstanding t = Fifo.length t.q

let can_accept t = Fifo.length t.q < t.max_outstanding

let accept t ~now req =
  if not (can_accept t) then failwith "Dram.accept: backpressured";
  if t.accepted_at = now then failwith "Dram.accept: two requests in one cycle";
  t.accepted_at <- now;
  Stats.bump (if req.read then t.reads else t.writes);
  if Trace.active t.trace Trace.Dram then
    Trace.emit t.trace ~now
      (Trace.Dram_cmd { bank = 0; read = req.read; row_hit = false; line = req.line });
  Fifo.enq t.q { req; done_at = now + t.lat }

(* Constant latency + in-order acceptance means the head is always the
   next to complete. *)
let rec drain_writes t ~now =
  match Fifo.peek_opt t.q with
  | Some { req = { read = false; _ }; done_at } when done_at <= now ->
    ignore (Fifo.deq t.q);
    drain_writes t ~now
  | _ -> ()

let tick t ~now ~respond =
  drain_writes t ~now;
  match Fifo.peek_opt t.q with
  | Some { req = { read = true; line; tag }; done_at } when done_at <= now ->
    ignore (Fifo.deq t.q);
    respond ~tag ~line;
    drain_writes t ~now
  | _ -> ()

(* Checkpoint/restore: queue contents plus the accept-rate limiter. *)
type checkpoint = { ck_q : inflight list; ck_accepted_at : int }

let save t = { ck_q = Fifo.to_list t.q; ck_accepted_at = t.accepted_at }

let restore t ck =
  Fifo.assign t.q ck.ck_q;
  t.accepted_at <- ck.ck_accepted_at

(* Structure state: the in-flight queue is the only cross-cycle mutable
   state (accepted_at only changes when the queue does). *)
let state t s =
  let open Statesig in
  int s "dram.q=" (Fifo.length t.q);
  lit s "[";
  Fifo.iter
    (fun { req = { read; line; tag }; done_at } ->
      bool s "(" read;
      int s "," line;
      int s "," tag;
      int s "," done_at;
      lit s ")")
    t.q;
  lit s "]"

type t = {
  lat : int;
  max_outstanding : int;
  reads : Stats.counter;
  writes : Stats.counter;
  trace : Trace.t;
  q : Ring.t; (* in flight, oldest first: read (0/1), line, tag, done_at *)
  mutable head_done : int; (* done_at of the oldest request; max_int: none *)
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
    q = Ring.create ~width:4 max_outstanding;
    head_done = max_int;
    accepted_at = -1;
  }

let outstanding t = Ring.length t.q

let can_accept t = t.q.Ring.len < t.max_outstanding

let accept t ~now ~read ~line ~tag =
  if not (can_accept t) then failwith "Dram.accept: backpressured";
  if t.accepted_at = now then failwith "Dram.accept: two requests in one cycle";
  t.accepted_at <- now;
  Stats.bump (if read then t.reads else t.writes);
  if Trace.active t.trace Trace.Dram then
    Trace.emit t.trace ~now
      (Trace.Dram_cmd { bank = 0; read; row_hit = false; line });
  Ring.push4 t.q (Bool.to_int read) line tag (now + t.lat);
  if t.q.Ring.len = 1 then t.head_done <- now + t.lat

let drop t =
  Ring.drop t.q;
  t.head_done <- (if t.q.Ring.len > 0 then Ring.peek t.q 3 else max_int)

(* Constant latency + in-order acceptance means the head is always the
   next to complete. *)
let drain_writes t ~now =
  while t.head_done <= now && Ring.peek t.q 0 = 0 do
    drop t
  done

let tick t ~now ~respond =
  drain_writes t ~now;
  if t.head_done <= now then begin
    let line = Ring.peek t.q 1 and tag = Ring.peek t.q 2 in
    drop t;
    respond ~tag ~line;
    drain_writes t ~now
  end

(* Structure state: the in-flight queue is the only cross-cycle mutable
   state (accepted_at and head_done only change when the queue does). *)
let state t s =
  let open Statesig in
  int s "dram.q=" (Ring.length t.q);
  lit s "[";
  for i = 0 to Ring.length t.q - 1 do
    bool s "(" (Ring.get t.q i 0 = 1);
    int s "," (Ring.get t.q i 1);
    int s "," (Ring.get t.q i 2);
    int s "," (Ring.get t.q i 3);
    lit s ")"
  done;
  lit s "]"

(* Each FIFO is a ring of three-int records: line, target state
   ([Msi.to_int]), then the from-state (rq), the dirty bit (rs) or the
   kind (p2c: 0 upgrade response, 1 downgrade request). *)
type t = { rq : Ring.t; rs : Ring.t; p2c : Ring.t }

let create ~depth =
  {
    rq = Ring.create ~width:3 depth;
    rs = Ring.create ~width:3 depth;
    p2c = Ring.create ~width:3 depth;
  }

let can_send q = q.Ring.len < q.Ring.cap
let line q = Ring.peek q 0
let to_s q = Msi.of_int (Ring.peek q 1)
let dirty q = Ring.peek q 2 = 1
let is_downgrade q = Ring.peek q 2 = 1

let send_req t ~line ~from_s ~to_s =
  Ring.push3 t.rq line (Msi.to_int to_s) (Msi.to_int from_s)

let send_resp t ~line ~to_s ~dirty =
  Ring.push3 t.rs line (Msi.to_int to_s) (Bool.to_int dirty)

let send_parent t ~downgrade ~line ~to_s =
  Ring.push3 t.p2c line (Msi.to_int to_s) (Bool.to_int downgrade)

(* The [i]th oldest message of each ring, as the [Msg] value the state
   fold hashes. *)
let req_at q i : Msg.child_req =
  { line = Ring.get q i 0; to_s = Msi.of_int (Ring.get q i 1);
    from_s = Msi.of_int (Ring.get q i 2) }

let resp_at q i : Msg.child_resp =
  { line = Ring.get q i 0; to_s = Msi.of_int (Ring.get q i 1);
    dirty = Ring.get q i 2 = 1 }

let parent_at q i : Msg.parent_msg =
  let line = Ring.get q i 0 and to_s = Msi.of_int (Ring.get q i 1) in
  if Ring.get q i 2 = 1 then Downgrade_req { line; to_s }
  else Upgrade_resp { line; to_s }

let state t s =
  let open Statesig in
  let msgs q at =
    len s (Ring.length q);
    for i = 0 to Ring.length q - 1 do
      item s (Hashtbl.hash (at q i))
    done
  in
  lit s "rq=";
  msgs t.rq req_at;
  lit s " rs=";
  msgs t.rs resp_at;
  lit s " p2c=";
  msgs t.p2c parent_at;
  lit s "|"

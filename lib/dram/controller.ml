type req = Fr_fcfs.req = { read : bool; line : int; tag : int }

type t = Const of Dram.t | Reorder of Fr_fcfs.t

let constant ?trace ~latency ~max_outstanding ~stats () =
  Const (Dram.create ?trace ~latency ~max_outstanding ~stats ())

let reordering ?trace cfg ~stats = Reorder (Fr_fcfs.create ?trace cfg ~stats)

let can_accept = function
  | Const d -> Dram.can_accept d
  | Reorder d -> Fr_fcfs.can_accept d

let accept t ~now req =
  match t with
  | Const d -> Dram.accept d ~now ~read:req.read ~line:req.line ~tag:req.tag
  | Reorder d -> Fr_fcfs.accept d ~now req

let tick t ~now ~respond =
  match t with
  | Const d -> Dram.tick d ~now ~respond
  | Reorder d -> Fr_fcfs.tick d ~now ~respond

let outstanding = function
  | Const d -> Dram.outstanding d
  | Reorder d -> Fr_fcfs.outstanding d

(* Only the constant-latency model describes its state: the reordering
   one runs in the DRAM-bank channel demonstration alone, which never
   signs or dumps a machine. *)
let state t s =
  match t with
  | Const d -> Dram.state d s
  | Reorder _ -> invalid_arg "Controller.state: reordering controller"

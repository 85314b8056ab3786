type pipe_class = Pipe_alu | Pipe_mem | Pipe_fp

type kind =
  | Alu of { latency : int; pipe : pipe_class }
  | Load of { addr : int }
  | Store of { addr : int }
  | Branch of { taken : bool; target : int }
  | Jump of { target : int; kind : [ `Plain | `Call | `Return ] }
  | Enter_kernel
  | Exit_kernel

type t = {
  pc : int;
  kind : kind;
  dst : int option;
  srcs : int list;
}

let is_mem u = match u.kind with Load _ | Store _ -> true | _ -> false

let next_pc u =
  match u.kind with
  | Branch { taken = true; target; _ } -> target
  | Jump { target; _ } -> target
  | Alu _ | Load _ | Store _ | Branch { taken = false; _ } | Enter_kernel
  | Exit_kernel ->
    u.pc + 4

let to_string u =
  let dst = match u.dst with None -> "-" | Some d -> Printf.sprintf "x%d" d in
  let srcs = String.concat "," (List.map (Printf.sprintf "x%d") u.srcs) in
  let kind =
    match u.kind with
    | Alu { latency; _ } -> Printf.sprintf "alu[%d]" latency
    | Load { addr } -> Printf.sprintf "load 0x%x" addr
    | Store { addr } -> Printf.sprintf "store 0x%x" addr
    | Branch { taken; target } ->
      Printf.sprintf "branch %s 0x%x" (if taken then "T" else "N") target
    | Jump { target; kind } ->
      Printf.sprintf "jump%s 0x%x"
        (match kind with `Plain -> "" | `Call -> ".call" | `Return -> ".ret")
        target
    | Enter_kernel -> "enter_kernel"
    | Exit_kernel -> "exit_kernel"
  in
  Printf.sprintf "0x%x: %s dst=%s srcs=[%s]" u.pc kind dst srcs

let alu ?(latency = 1) ?(pipe = Pipe_alu) ~pc ~dst ~srcs () =
  { pc; kind = Alu { latency; pipe }; dst = Some dst; srcs }

let load ~pc ~addr ~dst ~srcs () =
  { pc; kind = Load { addr }; dst = Some dst; srcs }

let store ~pc ~addr ~srcs () = { pc; kind = Store { addr }; dst = None; srcs }

let branch ~pc ~taken ~target ~srcs () =
  { pc; kind = Branch { taken; target }; dst = None; srcs }

let jump ~pc ~target ~kind () =
  {
    pc;
    kind = Jump { target; kind };
    dst = (match kind with `Call -> Some 1 | _ -> None);
    srcs = (match kind with `Return -> [ 1 ] | _ -> []);
  }

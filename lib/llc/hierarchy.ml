type dram_kind =
  | Const_dram of { latency : int; max_outstanding : int }
  | Reorder_dram of Fr_fcfs.config

type t = {
  l1s : L1.t array;
  llc : Llc.t;
  mutable clock : int;
  completions : (int * int) list ref array; (* reversed *)
  (* Per-core L1 completion sinks, built once: they stamp completions
     with the current [clock]. *)
  sinks : (int -> unit) array;
}

let create ?(trace = Trace.null) ?(l1 = L1.default_config) ~llc:llc_cfg
    ~security ~dram ~stats () =
  let n = llc_cfg.Llc.cores in
  let links = Array.init n (fun _ -> Link.create ~depth:4) in
  let dram_ctrl =
    match dram with
    | Const_dram { latency; max_outstanding } ->
      Controller.constant ~trace ~latency ~max_outstanding ~stats ()
    | Reorder_dram cfg -> Controller.reordering ~trace cfg ~stats
  in
  let llc = Llc.create ~trace llc_cfg ~security ~links ~dram:dram_ctrl ~stats in
  let l1s =
    Array.init n (fun i ->
        L1.create ~trace l1 ~link:links.(i) ~stats
          ~name:(Printf.sprintf "l1.%d" i))
  in
  let t =
    { l1s; llc; clock = 0; completions = Array.init n (fun _ -> ref []);
      sinks = Array.make n ignore }
  in
  for core = 0 to n - 1 do
    let out = t.completions.(core) in
    t.sinks.(core) <- (fun id -> out := (id, t.clock) :: !out)
  done;
  t

let now t = t.clock
let l1 t ~core = t.l1s.(core)
let llc t = t.llc
let can_accept t ~core = L1.can_accept t.l1s.(core)

let request t ~core ~line ~store ~id =
  L1.request t.l1s.(core) ~line ~store ~id

let tick t =
  let now = t.clock in
  for core = 0 to Array.length t.l1s - 1 do
    L1.tick t.l1s.(core) ~now ~complete:t.sinks.(core)
  done;
  Llc.tick t.llc ~now;
  t.clock <- now + 1

let take_completions t ~core =
  let out = List.rev !(t.completions.(core)) in
  t.completions.(core) := [];
  out

let quiescent t =
  (not (Llc.busy t.llc))
  && Array.for_all (fun c -> L1.in_flight c = 0) t.l1s

let run_until_quiescent t ~max_cycles =
  let start = t.clock in
  let rec go () =
    if quiescent t then t.clock - start
    else if t.clock - start >= max_cycles then
      failwith "Hierarchy.run_until_quiescent: timeout (possible deadlock)"
    else begin
      tick t;
      go ()
    end
  in
  go ()

type step = {
  s_pc : int;
  s_instr : Instr.t;
  s_next_pc : int;
  s_accesses : Fsim.access list;
}

type arch_state = {
  regs : int64 array;
  csrs : (string * int64) list;
  data_image : string;
  stores : (int * int) list;
}

type func_run = { steps : step list; arch : arch_state }

exception Stuck of string

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

(* Curated CSR comparison set: trap bookkeeping and scratch state, but not
   the free-running counters (cycle/instret depend on step counts the two
   models have no reason to share). *)
let csr_set =
  [
    ("mstatus", Csr.mstatus);
    ("mscratch", Csr.mscratch);
    ("mepc", Csr.mepc);
    ("mcause", Csr.mcause);
  ]

let run_func ?(init_regs = []) ~program ~data_base ~data_bytes ~max_steps () =
  let geometry = Addr.default_regions in
  let mem = Phys_mem.create ~size_bytes:geometry.Addr.dram_bytes in
  let fsim = Fsim.create ~regions:geometry ~mem ~hartid:0 () in
  Fsim.load_program fsim program;
  let state = Fsim.state fsim in
  List.iter (fun (r, v) -> Cpu_state.set_reg state r v) init_regs;
  Cpu_state.set_pc state (Int64.of_int program.Asm.base);
  let steps = ref [] in
  let halted = ref false in
  let budget = ref max_steps in
  while (not !halted) && !budget > 0 do
    decr budget;
    let r = Fsim.step fsim in
    (match r.Fsim.trap with
    | Some _ -> stuck "trap at pc 0x%Lx" r.Fsim.pc
    | None -> ());
    match r.Fsim.executed with
    | None -> stuck "fetch fault at pc 0x%Lx" r.Fsim.pc
    | Some Instr.Wfi -> halted := true
    | Some i ->
      steps :=
        {
          s_pc = Int64.to_int r.Fsim.pc;
          s_instr = i;
          s_next_pc = Int64.to_int (Cpu_state.pc state);
          s_accesses = r.Fsim.accesses;
        }
        :: !steps
  done;
  if not !halted then stuck "no wfi within %d steps" max_steps;
  let steps = List.rev !steps in
  let stores =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (a : Fsim.access) ->
            match a.Fsim.kind with
            | Fsim.Store -> Some (a.Fsim.paddr, a.Fsim.width)
            | _ -> None)
          s.s_accesses)
      steps
  in
  let arch =
    {
      regs = Array.init 32 (fun i -> Cpu_state.get_reg state i);
      csrs = List.map (fun (n, c) -> (n, Cpu_state.csr_raw state c)) csr_set;
      data_image = Phys_mem.read_string mem data_base data_bytes;
      stores;
    }
  in
  { steps; arch }

let arch_diff a b =
  let reg_diff =
    let rec go i =
      if i >= 32 then None
      else if a.regs.(i) <> b.regs.(i) then
        Some (Printf.sprintf "x%d: 0x%Lx vs 0x%Lx" i a.regs.(i) b.regs.(i))
      else go (i + 1)
    in
    go 0
  in
  match reg_diff with
  | Some _ as d -> d
  | None -> (
    match
      List.find_opt
        (fun ((n, v), (n', v')) -> n <> n' || v <> v')
        (List.combine a.csrs b.csrs)
    with
    | Some ((n, v), (_, v')) ->
      Some (Printf.sprintf "csr %s: 0x%Lx vs 0x%Lx" n v v')
    | None ->
      if a.data_image <> b.data_image then Some "data window images differ"
      else if a.stores <> b.stores then Some "store logs differ"
      else None)

let arch_equal a b = arch_diff a b = None

(* ------------------------------------------------------------------ *)
(* Committed path -> µop stream                                        *)
(* ------------------------------------------------------------------ *)

(* Timing-model latencies for the ALU-class µop buckets; only relative
   magnitude matters here. *)
let muldiv_latency = function
  | Instr.Mul | Instr.Mulh | Instr.Mulhsu | Instr.Mulhu -> 4
  | Instr.Div | Instr.Divu | Instr.Rem | Instr.Remu -> 16

let muldiv_w_latency = function
  | Instr.Mulw -> 4
  | Instr.Divw | Instr.Divuw | Instr.Remw | Instr.Remuw -> 16

let first_access steps_accesses kind =
  List.find_opt (fun (a : Fsim.access) -> a.Fsim.kind = kind) steps_accesses

let to_uops run ~func_code_base ~func_data_base =
  (* Core 0's private regions of the timing machine (tmachine.ml lays a
     core's block out as code, data, ..., kernel). *)
  let geometry = Addr.default_regions in
  let code_base = Addr.region_base geometry 1 in
  let data_base = Addr.region_base geometry 2 in
  let map_pc pc = code_base + (pc - func_code_base) in
  let map_data a = data_base + (a - func_data_base) in
  List.map
    (fun s ->
      let pc = map_pc s.s_pc in
      let dst = Option.value (Instr.dest s.s_instr) ~default:0 in
      let srcs = Instr.sources s.s_instr in
      match s.s_instr with
      | Instr.Branch { offset; _ } ->
        let taken = s.s_next_pc <> s.s_pc + 4 in
        Uop.branch ~pc ~taken ~target:(map_pc (s.s_pc + offset)) ~srcs ()
      | Instr.Jal { rd; _ } ->
        let kind = if rd = 1 then `Call else `Plain in
        Uop.jump ~pc ~target:(map_pc s.s_next_pc) ~kind ()
      | Instr.Jalr { rd; rs1; _ } ->
        let kind = if rd = 0 && rs1 = 1 then `Return else `Plain in
        Uop.jump ~pc ~target:(map_pc s.s_next_pc) ~kind ()
      | Instr.Load _ -> (
        match first_access s.s_accesses Fsim.Load with
        | Some a -> Uop.load ~pc ~addr:(map_data a.Fsim.paddr) ~dst ~srcs ()
        | None -> stuck "load at 0x%x emitted no access" s.s_pc)
      | Instr.Store _ -> (
        match first_access s.s_accesses Fsim.Store with
        | Some a -> Uop.store ~pc ~addr:(map_data a.Fsim.paddr) ~srcs ()
        | None -> stuck "store at 0x%x emitted no access" s.s_pc)
      | Instr.Muldiv { op; _ } ->
        Uop.alu ~latency:(muldiv_latency op) ~pc ~dst ~srcs ()
      | Instr.Muldiv_w { op; _ } ->
        Uop.alu ~latency:(muldiv_w_latency op) ~pc ~dst ~srcs ()
      | _ -> Uop.alu ~pc ~dst ~srcs ())
    run.steps

(* ------------------------------------------------------------------ *)
(* Retiring the stream through a variant machine                       *)
(* ------------------------------------------------------------------ *)

type ooo_run = { committed : Uop.t list; cycles : int }

let run_ooo ?trace ~variant uops =
  let stats = Stats.create () in
  let timing = Config.timing ~cores:1 variant in
  let remaining = ref uops in
  let stream () =
    match !remaining with
    | [] -> None
    | u :: tl ->
      remaining := tl;
      Some u
  in
  let m = Tmachine.create ?trace timing ~streams:[| stream |] ~stats in
  let committed = ref [] in
  Core.set_on_commit (Tmachine.core m 0) (fun u -> committed := u :: !committed);
  let cycles = Tmachine.run m ~max_cycles:4_000_000 in
  { committed = List.rev !committed; cycles }

let uop_to_string = Uop.to_string

let first_mismatch ~expected ~actual =
  let rec go i es actuals =
    match (es, actuals) with
    | [], [] -> None
    | _ :: _, [] | [], _ :: _ -> Some i
    | e :: es', a :: actuals' ->
      if e = a then go (i + 1) es' actuals' else Some i
  in
  go 0 expected actual

(* Two passes from reset, nothing rewound: the first finds the cycle at
   which retirement [index] happens (the last retirement when [index] is
   past the end, the final cycle when nothing retires), the second ticks
   a fresh, traced machine to that cycle and renders the causal slice
   there — what qcheck prints alongside a shrunk counterexample. *)
let explain_divergence ?(window = 16) ~variant ~index uops =
  let machine ?trace () =
    Tmachine.create ?trace
      (Config.timing ~cores:1 variant)
      ~streams:[| Seq.to_dispenser (List.to_seq uops) |]
      ~stats:(Stats.create ())
  in
  let m = machine () in
  let retired = ref 0 and retire_cycle = ref None in
  Core.set_on_commit (Tmachine.core m 0) (fun _ ->
      if !retired <= index then retire_cycle := Some (Tmachine.now m);
      incr retired);
  let budget = ref 4_000_000 in
  while !retired <= index && (not (Tmachine.finished m)) && !budget > 0 do
    Tmachine.tick m;
    decr budget
  done;
  let cycle = Option.value !retire_cycle ~default:(Tmachine.now m) in
  let trace = Trace.create ~capacity:4096 () in
  let m = machine ~trace () in
  while Tmachine.now m < cycle && not (Tmachine.finished m) do
    Tmachine.tick m
  done;
  Bisect.slice_text ~window ~trace m

let compare_commits ~expected ~actual =
  let rec go i es actuals =
    match (es, actuals) with
    | [], [] -> Ok ()
    | e :: _, [] ->
      Error
        (Printf.sprintf "retirement stream short: expected #%d %s, got end"
           i (uop_to_string e))
    | [], a :: _ ->
      Error
        (Printf.sprintf "retirement stream long: extra #%d %s" i
           (uop_to_string a))
    | e :: es', a :: actuals' ->
      if e = a then go (i + 1) es' actuals'
      else
        Error
          (Printf.sprintf "retirement #%d: expected %s, got %s" i
             (uop_to_string e) (uop_to_string a))
  in
  go 0 expected actual

type t = {
  cores : Core.t array;
  mem : Hierarchy.t; (* core i on ports 2i (D) and 2i + 1 (I) *)
  stats : Stats.t;
  trace : Trace.t;
  occupancy : Occupancy.t;
  telemetry : Telemetry.t;
  observed : bool; (* either observer is enabled *)
  sections : (string * (Statesig.acc -> unit)) list;
  (* Ticks before this cycle only wait out purge floors (see [tick]). *)
  mutable idle_until : int;
}

(* Per-core protection-domain region block: core i owns regions
   8i+1..8i+7 (region 0 stays the monitor's).  Within the block: code,
   data, kernel, and page tables each get their own region, so domains
   are fully disjoint — including the page-table lines the walkers
   touch.  The default geometry's 64 regions hold 8 blocks. *)
let max_cores = Addr.default_regions.Addr.region_count / 8

let region_block core =
  if core >= max_cores then
    invalid_arg
      (Printf.sprintf "Tmachine: core %d has no region block (at most %d cores)"
         core max_cores);
  (8 * core) + 1

let code_base ~core = Addr.region_base Addr.default_regions (region_block core)
let data_base ~core = Addr.region_base Addr.default_regions (region_block core + 1)
let kernel_base ~core = Addr.region_base Addr.default_regions (region_block core + 3)

let pt_base_line ~core =
  Addr.region_base Addr.default_regions (region_block core + 4)
  / Addr.line_bytes

let create ?(trace = Trace.null) ?(occupancy = Occupancy.null)
    ?(telemetry = Telemetry.null) (timing : Config.timing) ~streams ~stats =
  let n = Array.length streams in
  if timing.Config.llc.Llc.cores <> 2 * n then
    invalid_arg "Tmachine.create: llc config port count mismatch";
  let mem = Hierarchy.create ~trace timing ~stats in
  let l1 i port = Hierarchy.l1 mem ~core:((2 * i) + port) in
  let cores =
    Array.init n (fun i ->
        Core.create ~trace ~id:i timing.Config.core ~l1i:(l1 i 1) ~l1d:(l1 i 0)
          ~stream:streams.(i)
          ~stats
          ~pt_base_line:(pt_base_line ~core:i))
  in
  Array.iteri
    (fun i core ->
      Hierarchy.connect mem ~core:(2 * i) (fun id ->
          Core.mem_complete core ~now:(Hierarchy.now mem) ~id);
      Hierarchy.connect mem ~core:((2 * i) + 1) (fun id ->
          Core.icache_complete core ~id))
    cores;
  (* One labelled state fold per component: the cores (each covering its
     own walker), the data then the instruction L1s, and the LLC (which
     also folds the links and the DRAM controller). *)
  let l1s port = List.init n (fun i -> l1 i port) in
  let sections =
    List.mapi (fun i c -> (Printf.sprintf "core%d" i, Core.state c))
      (Array.to_list cores)
    @ List.map (fun l -> (L1.name l, L1.state l)) (l1s 0 @ l1s 1)
    @ [ ("llc", Llc.state (Hierarchy.llc mem)) ]
  in
  let observed = Occupancy.enabled occupancy || Telemetry.enabled telemetry in
  { cores; mem; stats; trace; occupancy; telemetry; observed; sections;
    idle_until = 0 }

(* Registry over every component's counters and distributions; values are
   read at export time, so build it once and export after the run. *)
let metrics m ~stats =
  let reg = Metrics.create () in
  Metrics.add_stats reg ~scope:"" stats;
  Array.iteri
    (fun i c ->
      let name fmt = Printf.sprintf fmt i in
      Metrics.add_histogram reg
        ~name:(name "core.%d.load_latency")
        (Core.load_latency c);
      Metrics.add_histogram reg
        ~name:(name "core.%d.purge_cycles")
        (Core.purge_latency c);
      Metrics.add_histogram reg
        ~name:(name "core.%d.walk_latency")
        (Core.walk_latency c))
    m.cores;
  for p = 0 to (2 * Array.length m.cores) - 1 do
    let l = Hierarchy.l1 m.mem ~core:p in
    Metrics.add_histogram reg ~name:(L1.name l ^ ".miss_latency")
      (L1.miss_latency l)
  done;
  Metrics.add_histogram reg ~name:"llc.mshr_occupancy"
    (Llc.mshr_occupancy (Hierarchy.llc m.mem));
  (* A silently overflowed trace ring invalidates timeline analyses
     (audits compare streams event-for-event), so the drop count rides
     along with every metrics export. *)
  Metrics.set_int reg ~name:"trace.events" (Trace.length m.trace);
  Metrics.set_int reg ~name:"trace.dropped_events" (Trace.dropped m.trace);
  List.iter
    (fun (kind, n) ->
      Metrics.set_int reg ~name:("trace.dropped." ^ kind) n)
    (Trace.dropped_by_kind m.trace);
  if Occupancy.enabled m.occupancy then Occupancy.register m.occupancy reg;
  reg

let now t = Hierarchy.now t.mem
let core t i = t.cores.(i)

let sections t = t.sections

let structural_signature t =
  Statesig.hash (fun s -> List.iter (fun (_, fold) -> fold s) t.sections)

let dump_state t =
  String.concat "\n" (List.map (fun (_, fold) -> Statesig.render fold) t.sections)

let committed t =
  let n = ref 0 in
  for i = 0 to Array.length t.cores - 1 do
    n := !n + Core.committed_instructions t.cores.(i)
  done;
  !n

(* The earliest floor end when every core is waiting out its purge floor
   and the memory side is quiescent, else -1.  Until that cycle no core
   issues a request, so the memory side stays quiescent, and every tick
   only counts. *)
let idle_span_end t =
  let e = ref max_int and i = ref 0 in
  while !e >= 0 && !i < Array.length t.cores do
    e := Int.min !e (Core.floor_end t.cores.(!i));
    incr i
  done;
  if !e >= 0 && !e > now t && Hierarchy.quiescent t.mem then !e else -1

(* The Occupancy and Telemetry observers, after either kind of tick. *)
let observe t =
  if Occupancy.enabled t.occupancy then begin
    let rob = ref 0 and iq = ref 0 and lq = ref 0 and sq = ref 0 and sb = ref 0 in
    Array.iter
      (fun c ->
        rob := !rob + Core.rob_occupancy c;
        iq := !iq + Core.iq_occupancy c;
        lq := !lq + Core.lq_occupancy c;
        sq := !sq + Core.sq_occupancy c;
        sb := !sb + Core.sb_occupancy c)
      t.cores;
    Occupancy.sample t.occupancy ~rob:!rob ~iq:!iq ~lq:!lq ~sq:!sq ~sb:!sb
      ~mshr:(Llc.live_mshrs (Hierarchy.llc t.mem));
    Occupancy.note_cycle t.occupancy ~signature:(structural_signature t)
      ~cause:(Core.last_cycle_cause t.cores.(0))
  end;
  if Telemetry.enabled t.telemetry then
    Telemetry.maybe_emit t.telemetry ~cycle:(now t) ~instrs:(committed t)
      ~counters:(fun () -> Stats.to_assoc t.stats)
      ~occupancy:t.occupancy

let tick t =
  let cycle = now t in
  if cycle < t.idle_until then begin
    for i = 0 to Array.length t.cores - 1 do
      Core.wait_floor t.cores.(i) ~now:cycle
    done;
    Hierarchy.tick_idle t.mem
  end
  else begin
    for i = 0 to Array.length t.cores - 1 do
      Core.tick t.cores.(i) ~now:cycle
    done;
    Hierarchy.tick t.mem;
    t.idle_until <- idle_span_end t
  end;
  if t.observed then observe t

let finished t =
  let i = ref 0 in
  while !i < Array.length t.cores && Core.finished t.cores.(!i) do
    incr i
  done;
  !i = Array.length t.cores

let run t ~max_cycles =
  let start = now t in
  while (not (finished t)) && now t - start < max_cycles do
    tick t
  done;
  if not (finished t) then failwith "Tmachine.run: cycle budget exhausted";
  now t - start

type result = {
  cycles : int;
  ticked : int;
  instrs : int;
  stats : Stats.t;
  metrics : Metrics.t;
}

let ipc r = if r.cycles = 0 then 0.0 else float_of_int r.instrs /. float_of_int r.cycles

let mpki r counter =
  if r.instrs = 0 then 0.0
  else 1000.0 *. float_of_int (Stats.get r.stats counter) /. float_of_int r.instrs

let run_stream ?trace ?occupancy ?telemetry ~timing ~stream ~warmup () =
  let stats = Stats.create () in
  let m =
    create ?trace ?occupancy ?telemetry timing ~streams:[| stream |] ~stats
  in
  let c = m.cores.(0) in
  let snap = ref None in
  let budget = 400_000_000 in
  while (not (finished m)) && now m < budget do
    tick m;
    match !snap with
    | None when Core.committed_instructions c >= warmup ->
      snap := Some (now m, Core.committed_instructions c, Stats.copy stats)
    | _ -> ()
  done;
  if not (finished m) then failwith "Tmachine.run_stream: cycle budget exhausted";
  let finish ~cycles ~instrs ~stats:window =
    let reg = metrics m ~stats:window in
    Metrics.set_int reg ~name:"run.cycles" cycles;
    Metrics.set_int reg ~name:"run.instrs" instrs;
    { cycles; ticked = now m; instrs; stats = window; metrics = reg }
  in
  match !snap with
  | None ->
    (* Warmup longer than the stream: measure everything. *)
    finish ~cycles:(now m)
      ~instrs:(Core.committed_instructions c)
      ~stats:(Stats.copy stats)
  | Some (cycle0, instrs0, base) ->
    finish ~cycles:(now m - cycle0)
      ~instrs:(Core.committed_instructions c - instrs0)
      ~stats:(Stats.diff stats ~baseline:base)

let spec_stream ?(seed = 0) ~core ~bench ~limit () =
  let data_base = data_base ~core
  and code_base = code_base ~core
  and kernel_base = kernel_base ~core in
  let gen =
    if seed = 0 then
      Mi6_workload.Synth.for_bench bench ~data_base ~code_base ~kernel_base
    else
      (* Seed offsets perturb the bench's canonical seed deterministically,
         giving sweep cells independent-but-reproducible streams. *)
      Mi6_workload.Synth.create
        (Mi6_workload.Spec.params bench)
        ~seed:(Mi6_workload.Spec.seed bench + (seed * 0x9e3779b9))
        ~data_base ~code_base ~kernel_base
  in
  Mi6_workload.Synth.stream gen ~limit

let run_spec ?trace ?occupancy ?telemetry ?seed ~variant ~bench ~warmup
    ~measure () =
  let timing = Config.timing ~cores:1 variant in
  let stream = spec_stream ?seed ~core:0 ~bench ~limit:(warmup + measure) () in
  run_stream ?trace ?occupancy ?telemetry ~timing ~stream ~warmup ()

(* Multiprogrammed run: one SPEC model per core, each confined to its own
   region block — the multiprocessor methodology the paper could not fit
   on its FPGA (Section 7.2). *)
let run_multi ?trace ~timing ~benches ~warmup ~measure () =
  let n = Array.length benches in
  let stats = Stats.create () in
  let streams =
    Array.init n (fun i ->
        spec_stream ~core:i ~bench:benches.(i) ~limit:(warmup + measure) ())
  in
  let m = create ?trace timing ~streams ~stats in
  let snaps = Array.make n None in
  let fins = Array.make n None in
  let budget = 600_000_000 in
  while (not (finished m)) && now m < budget do
    tick m;
    Array.iteri
      (fun i core ->
        let c = Core.committed_instructions core in
        (match snaps.(i) with
        | None when c >= warmup -> snaps.(i) <- Some (now m, c)
        | _ -> ());
        match fins.(i) with
        | None when c >= warmup + measure -> fins.(i) <- Some (now m, c)
        | _ -> ())
      m.cores
  done;
  if not (finished m) then failwith "Tmachine.run_multi: budget exhausted";
  let reg = metrics m ~stats in
  Array.init n (fun i ->
      let cycle0, instr0 = Option.value snaps.(i) ~default:(0, 0) in
      let cycle1, instr1 =
        Option.value fins.(i)
          ~default:(now m, Core.committed_instructions m.cores.(i))
      in
      { cycles = cycle1 - cycle0; ticked = now m; instrs = instr1 - instr0;
        stats; metrics = reg })

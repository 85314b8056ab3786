(* Rewindable µop stream.  The cores capture their stream closures at
   [create], so rewinding has to happen {e behind} those closures: each
   raw stream is wrapped in a cursor + log.  Until the first machine
   checkpoint nothing is recorded (zero steady-state cost); from the
   first [save] on, every µop pulled from the raw stream is logged, and
   [restore] just moves the cursor back — replayed pulls are served from
   the log, byte-identical, until the cursor catches up with the raw
   stream again. *)
type rstream = {
  raw : unit -> Uop.t option;
  mutable buf : Uop.t option array; (* grow-on-demand log *)
  mutable start : int; (* stream position of buf.(0) *)
  mutable stored : int; (* log entries *)
  mutable pos : int; (* next position to serve *)
  mutable recording : bool;
}

let make_rstream raw =
  { raw; buf = [||]; start = 0; stored = 0; pos = 0; recording = false }

let rstream_pull rs () =
  let item =
    if rs.pos < rs.start + rs.stored then rs.buf.(rs.pos - rs.start)
    else begin
      let v = rs.raw () in
      if rs.recording then begin
        if rs.stored = Array.length rs.buf then begin
          let nbuf = Array.make (max 64 (2 * rs.stored)) None in
          Array.blit rs.buf 0 nbuf 0 rs.stored;
          rs.buf <- nbuf
        end;
        rs.buf.(rs.stored) <- v;
        rs.stored <- rs.stored + 1
      end
      else rs.start <- rs.start + 1 (* not logged: start tracks pos *);
      v
    end
  in
  rs.pos <- rs.pos + 1;
  item

type t = {
  cores : Core.t array;
  l1ds : L1.t array;
  l1is : L1.t array;
  llc : Llc.t;
  stats : Stats.t;
  trace : Trace.t;
  selfprof : Selfprof.t;
  occupancy : Occupancy.t;
  telemetry : Telemetry.t;
  rstreams : rstream array;
  sections : (string * (Statesig.acc -> unit)) list;
  mutable clock : int;
  (* Per-core L1 completion sinks, built once: D-side completions carry
     the current [clock]. *)
  complete_d : (int -> unit) array;
  complete_i : (int -> unit) array;
}

(* Per-core protection-domain region block: core i owns regions
   8i+1..8i+7 (region 0 stays the monitor's).  Within the block: code,
   data, kernel, and page tables each get their own region, so domains
   are fully disjoint — including the page-table lines the walkers
   touch. *)
let region_block core = (8 * core) + 1

let code_base ~core = Addr.region_base Addr.default_regions (region_block core)
let data_base ~core = Addr.region_base Addr.default_regions (region_block core + 1)
let kernel_base ~core = Addr.region_base Addr.default_regions (region_block core + 3)

let pt_base_line ~core =
  Addr.region_base Addr.default_regions (region_block core + 4)
  / Addr.line_bytes

let create ?(trace = Trace.null) ?(selfprof = Selfprof.null)
    ?(occupancy = Occupancy.null) ?(telemetry = Telemetry.null)
    (timing : Config.timing) ~streams ~stats =
  let n = Array.length streams in
  let ports = 2 * n in
  if timing.Config.llc.Llc.cores <> ports then
    invalid_arg "Tmachine.create: llc config port count mismatch";
  let links = Array.init ports (fun _ -> Link.create ~depth:4) in
  let dram =
    Controller.constant ~trace ~latency:timing.Config.dram_latency
      ~max_outstanding:timing.Config.dram_outstanding ~stats ()
  in
  let llc =
    Llc.create ~trace ~selfprof timing.Config.llc
      ~security:timing.Config.llc_security ~links ~dram ~stats
  in
  let l1ds =
    Array.init n (fun i ->
        L1.create ~trace timing.Config.l1 ~link:links.(2 * i) ~stats
          ~name:(Printf.sprintf "l1d.%d" i))
  in
  let l1is =
    Array.init n (fun i ->
        L1.create ~trace timing.Config.l1
          ~link:links.((2 * i) + 1)
          ~stats
          ~name:(Printf.sprintf "l1i.%d" i))
  in
  let rstreams = Array.map make_rstream streams in
  let cores =
    Array.init n (fun i ->
        Core.create ~trace ~selfprof ~id:i timing.Config.core ~l1i:l1is.(i)
          ~l1d:l1ds.(i)
          ~stream:(rstream_pull rstreams.(i))
          ~stats
          ~pt_base_line:(pt_base_line ~core:i))
  in
  (* One labelled state fold per component: the cores (each covering its
     own walker), both L1s per core, and the LLC (which also folds the
     links and the DRAM controller). *)
  let section fmt fold xs =
    Array.to_list (Array.mapi (fun i x -> (Printf.sprintf fmt i, fold x)) xs)
  in
  let sections =
    section "core%d" Core.state cores
    @ section "l1d.%d" L1.state l1ds
    @ section "l1i.%d" L1.state l1is
    @ [ ("llc", Llc.state llc) ]
  in
  let t =
    { cores; l1ds; l1is; llc; stats; trace; selfprof; occupancy; telemetry;
      rstreams; sections; clock = 0; complete_d = Array.make n ignore;
      complete_i = Array.make n ignore }
  in
  Array.iteri
    (fun i core ->
      t.complete_d.(i) <- (fun id -> Core.mem_complete core ~now:t.clock ~id);
      t.complete_i.(i) <- (fun id -> Core.icache_complete core ~id))
    cores;
  t

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
  Array.iteri
    (fun i l ->
      Metrics.add_histogram reg
        ~name:(Printf.sprintf "l1d.%d.miss_latency" i)
        (L1.miss_latency l))
    m.l1ds;
  Array.iteri
    (fun i l ->
      Metrics.add_histogram reg
        ~name:(Printf.sprintf "l1i.%d.miss_latency" i)
        (L1.miss_latency l))
    m.l1is;
  Metrics.add_histogram reg ~name:"llc.mshr_occupancy"
    (Llc.mshr_occupancy m.llc);
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

let now t = t.clock
let core t i = t.cores.(i)

let sections t = t.sections

let structural_signature t =
  Statesig.hash (fun s -> List.iter (fun (_, fold) -> fold s) t.sections)

let dump_state t =
  String.concat "\n" (List.map (fun (_, fold) -> Statesig.render fold) t.sections)

let committed t =
  Array.fold_left (fun n c -> n + Core.committed_instructions c) 0 t.cores

(* ------------------------------------------------------------------ *)
(* Checkpoint / restore                                                *)
(* ------------------------------------------------------------------ *)

type checkpoint = {
  ck_clock : int;
  ck_cores : Core.checkpoint array;
  ck_l1ds : L1.checkpoint array;
  ck_l1is : L1.checkpoint array;
  ck_llc : Llc.checkpoint;
  ck_stats : Stats.t;
  ck_trace : Trace.checkpoint;
  ck_streams : int array; (* rstream cursor positions *)
}

let save ?omit_predictors t =
  (* First save turns stream logging on; positions at or after this
     point are replayable. *)
  Array.iter (fun rs -> rs.recording <- true) t.rstreams;
  {
    ck_clock = t.clock;
    ck_cores = Array.map (Core.save ?omit_predictors) t.cores;
    ck_l1ds = Array.map L1.save t.l1ds;
    ck_l1is = Array.map L1.save t.l1is;
    ck_llc = Llc.save t.llc;
    ck_stats = Stats.copy t.stats;
    ck_trace = Trace.save t.trace;
    ck_streams = Array.map (fun rs -> rs.pos) t.rstreams;
  }

let restore t ck =
  t.clock <- ck.ck_clock;
  Array.iteri (fun i c -> Core.restore t.cores.(i) c) ck.ck_cores;
  Array.iteri (fun i c -> L1.restore t.l1ds.(i) c) ck.ck_l1ds;
  Array.iteri (fun i c -> L1.restore t.l1is.(i) c) ck.ck_l1is;
  Llc.restore t.llc ck.ck_llc;
  Stats.restore ~into:t.stats ck.ck_stats;
  Trace.restore t.trace ck.ck_trace;
  Array.iteri
    (fun i p ->
      let rs = t.rstreams.(i) in
      if p < rs.start then
        invalid_arg "Tmachine.restore: stream position predates the log";
      rs.pos <- p)
    ck.ck_streams

let checkpoint_cycle ck = ck.ck_clock

let tick t =
  let now = t.clock in
  let sp = t.selfprof in
  for i = 0 to Array.length t.cores - 1 do
    Core.tick t.cores.(i) ~now;
    let p = Selfprof.switch sp Selfprof.ph_l1 in
    L1.tick t.l1ds.(i) ~now ~complete:t.complete_d.(i);
    L1.tick t.l1is.(i) ~now ~complete:t.complete_i.(i);
    Selfprof.restore sp p
  done;
  let p = Selfprof.switch sp Selfprof.ph_llc in
  Llc.tick t.llc ~now;
  Selfprof.restore sp p;
  t.clock <- now + 1;
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
      ~mshr:(Llc.live_mshrs t.llc);
    Occupancy.note_cycle t.occupancy ~signature:(structural_signature t)
      ~cause:(Core.last_cycle_cause t.cores.(0))
  end;
  if Telemetry.enabled t.telemetry then
    Telemetry.maybe_emit t.telemetry ~cycle:t.clock ~instrs:(committed t)
      ~counters:(fun () -> Stats.to_assoc t.stats)
      ~occupancy:t.occupancy ~selfprof:t.selfprof

let finished t = Array.for_all Core.finished t.cores

let run t ~max_cycles =
  let start = t.clock in
  while (not (finished t)) && t.clock - start < max_cycles do
    tick t
  done;
  if not (finished t) then failwith "Tmachine.run: cycle budget exhausted";
  t.clock - start

type result = {
  cycles : int;
  instrs : int;
  stats : Stats.t;
  metrics : Metrics.t;
}

let ipc r = if r.cycles = 0 then 0.0 else float_of_int r.instrs /. float_of_int r.cycles

let mpki r counter =
  if r.instrs = 0 then 0.0
  else 1000.0 *. float_of_int (Stats.get r.stats counter) /. float_of_int r.instrs

let run_stream ?trace ?selfprof ?occupancy ?telemetry ~timing ~stream ~warmup
    ~measure () =
  ignore measure;
  let stats = Stats.create () in
  let m =
    create ?trace ?selfprof ?occupancy ?telemetry timing ~streams:[| stream |]
      ~stats
  in
  let c = m.cores.(0) in
  let snap = ref None in
  let budget = 400_000_000 in
  Selfprof.run_begin m.selfprof;
  while (not (finished m)) && m.clock < budget do
    tick m;
    if m.clock land 0xFFFF = 0 then
      Selfprof.sample m.selfprof ~cycles:m.clock ~instrs:(committed m);
    if !snap = None && Core.committed_instructions c >= warmup then
      snap := Some (m.clock, Core.committed_instructions c, Stats.copy stats)
  done;
  Selfprof.run_end m.selfprof ~cycles:m.clock ~instrs:(committed m);
  if not (finished m) then failwith "Tmachine.run_stream: cycle budget exhausted";
  let finish ~cycles ~instrs ~stats:window =
    let reg = metrics m ~stats:window in
    Metrics.set_int reg ~name:"run.cycles" cycles;
    Metrics.set_int reg ~name:"run.instrs" instrs;
    { cycles; instrs; stats = window; metrics = reg }
  in
  match !snap with
  | None ->
    (* Warmup longer than the stream: measure everything. *)
    finish ~cycles:m.clock
      ~instrs:(Core.committed_instructions c)
      ~stats:(Stats.copy stats)
  | Some (cycle0, instrs0, base) ->
    finish ~cycles:(m.clock - cycle0)
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

let run_spec ?trace ?selfprof ?occupancy ?telemetry ?seed ~variant ~bench
    ~warmup ~measure () =
  let timing = Config.timing ~cores:1 variant in
  let stream = spec_stream ?seed ~core:0 ~bench ~limit:(warmup + measure) () in
  run_stream ?trace ?selfprof ?occupancy ?telemetry ~timing ~stream ~warmup
    ~measure ()

(* Multiprogrammed run: one SPEC model per core, each confined to its own
   region block — the multiprocessor methodology the paper could not fit
   on its FPGA (Section 7.2). *)
let run_multi ?trace ?selfprof ?occupancy ?telemetry ~timing ~benches ~warmup
    ~measure () =
  let n = Array.length benches in
  let stats = Stats.create () in
  let streams =
    Array.init n (fun i ->
        spec_stream ~core:i ~bench:benches.(i) ~limit:(warmup + measure) ())
  in
  let m = create ?trace ?selfprof ?occupancy ?telemetry timing ~streams ~stats in
  let snaps = Array.make n None in
  let fins = Array.make n None in
  let budget = 600_000_000 in
  Selfprof.run_begin m.selfprof;
  while (not (finished m)) && m.clock < budget do
    tick m;
    if m.clock land 0xFFFF = 0 then
      Selfprof.sample m.selfprof ~cycles:m.clock ~instrs:(committed m);
    Array.iteri
      (fun i core ->
        let c = Core.committed_instructions core in
        if snaps.(i) = None && c >= warmup then
          snaps.(i) <- Some (m.clock, c);
        if fins.(i) = None && c >= warmup + measure then
          fins.(i) <- Some (m.clock, c))
      m.cores
  done;
  Selfprof.run_end m.selfprof ~cycles:m.clock ~instrs:(committed m);
  if not (finished m) then failwith "Tmachine.run_multi: budget exhausted";
  let reg = metrics m ~stats in
  Array.init n (fun i ->
      let cycle0, instr0 = Option.value snaps.(i) ~default:(0, 0) in
      let cycle1, instr1 =
        Option.value fins.(i)
          ~default:(m.clock, Core.committed_instructions m.cores.(i))
      in
      { cycles = cycle1 - cycle0; instrs = instr1 - instr0; stats;
        metrics = reg })

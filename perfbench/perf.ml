(* MI6 simulator benchmark.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE]

   Runs one workload as a closed loop for S seconds (default 20): the
   next operation starts when the previous one finishes, on one domain,
   or on a two-domain pool for sweep-fig13.  The workload's inputs come
   from --seed alone (0 is each generator's canonical stream).  Prints
   "name value unit" for every metric, then one JSON line with the
   verdict and the metrics; writes the full record, host tag and exact
   simulated results included, to FILE (default BENCH_perf.json).

   --trace 0 reports the end-to-end metrics.  --trace 1 reruns the same
   work with the sampling profiler on, reports the per-layer metrics,
   and writes the per-op spans to FILE with .json replaced by
   .trace.jsonl.  README.md explains the workloads and every metric. *)

open Mi6_util
open Mi6_core
module Spec = Mi6_workload.Spec
module Json = Mi6_obs.Json
module Pool = Mi6_exec.Pool
module Sweep = Mi6_exec.Sweep
module Body = Mi6_progen.Body

let now_ns = Prof.now_ns
let word_bytes = Sys.word_size / 8

(* ------------------------------------------------------------------ *)
(* Operations and the closed loop                                      *)
(* ------------------------------------------------------------------ *)

type op = {
  index : int;  (** position in the workload's sequence of ops *)
  label : string;  (** the configuration, cell, or ni1: schedule run *)
  domain : int;
  start_ns : int;
  end_ns : int;
  paused_ns : int;  (** calibration chunks taken inside the op *)
  cycles : int;  (** simulated cycles the op accounts for *)
  instrs : int;  (** simulated instructions committed in them *)
  failure : string option;
  spans : (string * int * int) list;  (** child spans, in call order *)
}

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

(* Runs one operation; [f] returns its (cycles, instructions) and may
   wrap the calls it makes into a layer in [t.span name]. *)
let run_op ~index ~label f =
  let spans = ref [] in
  let span name g =
    let s = now_ns () in
    let r = g () in
    spans := (name, s, now_ns ()) :: !spans;
    r
  in
  let spent = Calib.spent_ns () in
  let start_ns = now_ns () in
  let result = try Ok (f { span }) with e -> Error (Printexc.to_string e) in
  let end_ns = now_ns () in
  let paused_ns = Calib.spent_ns () - spent in
  let cycles, instrs, failure =
    match result with
    | Ok (c, i) -> (c, i, None)
    | Error msg -> (0, 0, Some msg)
  in
  { index; label; domain = (Domain.self () :> int); start_ns; end_ns;
    paused_ns; cycles; instrs; failure; spans = List.rev !spans }

(* Ops [0, 1, ...] until the deadline has passed and at least [min_ops]
   ran: the first [min_ops] are the exact prefix every run completes. *)
let serial_loop ~deadline ~min_ops op =
  let rec go i acc =
    if i >= min_ops && now_ns () >= deadline then List.rev acc
    else begin
      let o = op i in
      Calib.maybe_chunk ();
      go (i + 1) (o :: acc)
    end
  in
  go 0 []

(* What the host did during the timed window. *)
type window = {
  start_ns : int;
  wall_ns : int;
  cpu_s : float;  (** process CPU time, every domain *)
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  samples : int array;  (** profiler samples per {!Prof.layers} entry *)
  prof_ns : int;  (** time spent in the profiler's handler *)
}

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [timed_window ~seconds ~trace f] runs [f deadline] as the timed
   window, with the profiler on when tracing. *)
let timed_window ~seconds ~trace f =
  let g0 = Gc.quick_stat () and c0 = cpu_seconds () in
  if trace then Prof.start ();
  let start = now_ns () in
  let r = f (start + (seconds * 1_000_000_000)) in
  let wall_ns = now_ns () - start in
  if trace then Prof.stop ();
  let g1 = Gc.quick_stat () and c1 = cpu_seconds () in
  ( r,
    {
      start_ns = start;
      wall_ns;
      cpu_s = c1 -. c0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      samples = (if trace then Prof.samples () else [||]);
      prof_ns = (if trace then Prof.overhead_ns () else 0);
    } )

(* Set-up is everything a run does before its first op: building the
   machines, streams or schedules, and warming them up (a process's first
   simulated cycles run slower while its heap grows and its caches fill).
   It is repeated and timed like an op, calibration chunks left out, and
   [setup_s] is the median repetition.  The building alone takes a few
   milliseconds of memory-bound work, which heavy contention slowed by up
   to 2x where the calibration loop slowed by 1.4x; with the warm-up a
   repetition lasts long enough for the calibration to hold.  A full
   major GC before each repetition frees the previous one's state, so that
   each starts from the same heap.  The last repetition's state is the
   one the workload runs on. *)
let setup_reps = 3

let repeat_setup ?(discard = ignore) setup =
  let rec go k reps =
    Gc.full_major ();
    let spent = Calib.spent_ns () in
    let start_ns = now_ns () in
    let st = setup () in
    let end_ns = now_ns () in
    let rep =
      { index = -1; label = "set-up"; domain = (Domain.self () :> int);
        start_ns; end_ns; paused_ns = Calib.spent_ns () - spent; cycles = 0;
        instrs = 0; failure = None; spans = [] }
    in
    if k = 1 then (List.rev (rep :: reps), st)
    else begin
      discard st;
      go (k - 1) (rep :: reps)
    end
  in
  go setup_reps []

(* How a workload's ops are reduced to the reported host times (see
   [end_to_end]). *)
type statistic =
  | Quiet_blocks  (** blocks of one prefix of consecutive ops *)
  | Quiet_cells  (** each grid cell's quickest run *)

(* What a workload hands back to the reporting code. *)
type outcome = {
  setup : op list;  (** the set-up repetitions *)
  ops : op list;
  statistic : statistic;
  prefix : int;  (** ops in the exact prefix: a block, or one grid pass *)
  domains : int;
  win : window;
  prefix_cycles : int;  (** simulated cycles over the exact prefix *)
  prefix_instrs : int;
  exact : Json.t;  (** deterministic results over the exact prefix *)
  checks : (string * bool) list;
  notes : (string * Json.t) list;
}

(* ------------------------------------------------------------------ *)
(* spec-mem / spec-ilp: long single-core SPEC-model runs, sliced       *)
(* ------------------------------------------------------------------ *)

let slice = 10_000
let spec_warmup = 100_000
let spec_prefix = 64
let slice_budget = 5_000_000

type sim = {
  s_label : string;
  m : Tmachine.t;
  stats : Stats.t;
  mutable cycle0 : int;
  mutable instr0 : int;
  mutable base : Stats.t;
}

let config_label (bench, variant) =
  Spec.name bench ^ "/" ^ Config.variant_name variant

(* The machine [Tmachine.run_spec] builds, driven by the benchmark so
   that it can cut the run into timed slices. *)
let sim ~seed ~limit (bench, variant) =
  let stats = Stats.create () in
  let stream = Tmachine.spec_stream ~seed ~core:0 ~bench ~limit () in
  let m =
    Tmachine.create (Config.timing ~cores:1 variant) ~streams:[| stream |]
      ~stats
  in
  { s_label = config_label (bench, variant); m; stats; cycle0 = 0; instr0 = 0;
    base = Stats.create () }

(* Ticks until [target] instructions have committed or the stream ends,
   taking a calibration chunk when one is due. *)
let advance s ~target =
  let start = Tmachine.now s.m in
  while Tmachine.committed s.m < target && not (Tmachine.finished s.m) do
    if Tmachine.now s.m - start >= slice_budget then
      failwith
        (Printf.sprintf "%s: %d cycles without reaching %d instructions"
           s.s_label slice_budget target);
    if Tmachine.now s.m land 4095 = 0 then Calib.maybe_chunk ();
    Tmachine.tick s.m
  done

(* Opens the measured window exactly where [Tmachine.run_stream] does:
   after the tick that brings committed instructions to [warmup]. *)
let warm s ~warmup =
  advance s ~target:warmup;
  s.cycle0 <- Tmachine.now s.m;
  s.instr0 <- Tmachine.committed s.m;
  s.base <- Stats.copy s.stats

let slice_op s =
  let c0 = Tmachine.now s.m and i0 = Tmachine.committed s.m in
  advance s ~target:(i0 + slice);
  (Tmachine.now s.m - c0, Tmachine.committed s.m - i0)

let measured s =
  ( Tmachine.now s.m - s.cycle0,
    Tmachine.committed s.m - s.instr0,
    Stats.diff s.stats ~baseline:s.base )

let stats_digest ~cycles ~instrs stats =
  Stats.to_assoc stats
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ";"
  |> Printf.sprintf "%d %d %s" cycles instrs
  |> Digest.string |> Digest.to_hex

(* Exact description of one measured window: what a simulator-only
   change must leave identical. *)
let window_json ~label (cycles, instrs, stats) =
  let cpi =
    Mi6_obs.Cpistack.of_counters ~label ~total:cycles (Stats.to_assoc stats)
  in
  let mpki name =
    Json.Float (1000.0 *. float_of_int (Stats.get stats name) /. float_of_int instrs)
  in
  Json.Obj
    [
      ("config", Json.String label);
      ("cycles", Json.Int cycles);
      ("instrs", Json.Int instrs);
      ("digest", Json.String (stats_digest ~cycles ~instrs stats));
      ( "cpi",
        Json.Obj
          (List.map
             (fun c -> (c, Json.Float (Mi6_obs.Cpistack.share cpi c)))
             Mi6_obs.Cpistack.categories) );
      ( "mpki",
        Json.Obj
          [
            ("branch", mpki "core.mispredicts");
            ("l1d", mpki "l1d.0.misses");
            ("l1i", mpki "l1i.0.misses");
            ("llc", mpki "llc.misses");
          ] );
    ]

(* The benchmark's own loop must measure exactly what the library's
   does: a short window through both, compared counter for counter. *)
let check_against_run_spec ~seed (bench, variant) =
  let warmup = 10_000 and measure = 30_000 in
  let s = sim ~seed ~limit:(warmup + measure) (bench, variant) in
  warm s ~warmup;
  while not (Tmachine.finished s.m) do
    ignore (slice_op s)
  done;
  let cycles, instrs, stats = measured s in
  let r = Tmachine.run_spec ~seed ~variant ~bench ~warmup ~measure () in
  cycles = r.Tmachine.cycles
  && instrs = r.Tmachine.instrs
  && Stats.to_assoc stats = Stats.to_assoc r.Tmachine.stats

let spec configs ~seed ~seconds ~trace =
  let setup, sims =
    repeat_setup (fun () ->
        let sims = Array.of_list (List.map (sim ~seed ~limit:max_int) configs) in
        Array.iter (fun s -> warm s ~warmup:spec_warmup) sims;
        sims)
  in
  let at_prefix = ref [] in
  let ops, win =
    timed_window ~seconds ~trace (fun deadline ->
        serial_loop ~deadline ~min_ops:spec_prefix (fun i ->
            let s = sims.(i mod Array.length sims) in
            let op = run_op ~index:i ~label:s.s_label (fun _ -> slice_op s) in
            if i = spec_prefix - 1 then
              at_prefix :=
                Array.to_list (Array.map (fun s -> (s.s_label, measured s)) sims);
            op))
  in
  let prefix_cycles, prefix_instrs =
    List.fold_left
      (fun (c, i) (_, (c', i', _)) -> (c + c', i + i'))
      (0, 0) !at_prefix
  in
  let checks =
    List.map
      (fun cfg ->
        ( "loop equals Tmachine.run_spec on " ^ config_label cfg,
          check_against_run_spec ~seed cfg ))
      configs
  in
  {
    setup;
    ops;
    statistic = Quiet_blocks;
    prefix = spec_prefix;
    domains = 1;
    win;
    prefix_cycles;
    prefix_instrs;
    exact =
      Json.Obj
        [
          ("prefix_ops", Json.Int spec_prefix);
          ( "windows",
            Json.List
              (List.map (fun (label, w) -> window_json ~label w) !at_prefix) );
        ];
    checks;
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* sweep-fig13: the Figure 13 grid on a domain pool                    *)
(* ------------------------------------------------------------------ *)

(* Figures use cells of 200k + 500k (bench/main.exe) or 200k + 1M
   (mi6_sim sweep) instructions; a grid pass of those takes longer than a
   window.  Between 300k- and 1M-instruction cells the layers' shares of
   host time agree within a point (README). *)
let sweep_warmup = 20_000
let sweep_measure = 300_000
let paper_fpma_avg = 16.4

(* Grid passes queued for the window: more than any run reaches.  Cells
   past the deadline are skipped, which costs a clock read each. *)
let sweep_passes = 10

(* [Tmachine.run_spec] of one cell, driven by the benchmark so that it
   can take calibration chunks inside the cell; the sweep compares its
   first cell with [Tmachine.run_spec] itself. *)
let run_cell cell =
  let s =
    sim ~seed:cell.Sweep.seed ~limit:(sweep_warmup + sweep_measure)
      (cell.Sweep.bench, cell.Sweep.variant)
  in
  warm s ~warmup:sweep_warmup;
  advance s ~target:max_int;
  measured s

let sweep ~seed ~seconds ~trace =
  let grid =
    Sweep.cells ~variants:[ Config.Base; Config.Fpma ] ~benches:Spec.all ()
  in
  let prefix = List.length grid in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  (* The warm-up runs one cell per domain from a pass the window never
     reaches. *)
  let setup, (pool, cells) =
    repeat_setup
      ~discard:(fun (pool, _) -> Pool.shutdown pool)
      (fun () ->
        let pool = Pool.create ~domains in
        let cells =
          Array.of_list
            (List.concat
               (List.init sweep_passes (fun k ->
                    List.map
                      (fun c -> { c with Sweep.seed = (seed * 1000) + k })
                      grid)))
        in
        let n = Array.length cells in
        ignore (Pool.map pool domains (fun d -> run_cell cells.(n - 1 - d)));
        (pool, cells))
  in
  let n = Array.length cells in
  let done_ops = Array.make n None in
  let first_pass = Array.make prefix None in
  let cell_op i =
    let cell = cells.(i) in
    let name = Sweep.cell_name cell in
    run_op ~index:i ~label:name (fun _ ->
        let ((cycles, instrs, _) as w) = run_cell cell in
        if i < prefix then first_pass.(i) <- Some (cell, w);
        if abs (instrs - sweep_measure) > 2 then
          failwith
            (Printf.sprintf "%s measured %d instructions, not %d" name instrs
               sweep_measure);
        (cycles, instrs))
  in
  let (), win =
    timed_window ~seconds ~trace (fun deadline ->
        ignore
          (Pool.map pool n (fun i ->
               if i < prefix || now_ns () < deadline then begin
                 done_ops.(i) <- Some (cell_op i);
                 Calib.maybe_chunk ()
               end)))
  in
  Pool.shutdown pool;
  let ops = List.filter_map Fun.id (Array.to_list done_ops) in
  let outcomes = List.filter_map Fun.id (Array.to_list first_pass) in
  let sum f = List.fold_left (fun a (_, w) -> a + f w) 0 outcomes in
  let cycles_of variant bench =
    List.find_map
      (fun (c, (cycles, _, _)) ->
        if c.Sweep.variant = variant && c.Sweep.bench = bench then
          Some (float_of_int cycles)
        else None)
      outcomes
  in
  let overheads =
    List.filter_map
      (fun b ->
        match (cycles_of Config.Base b, cycles_of Config.Fpma b) with
        | Some base, Some fpma -> Some (100.0 *. (fpma -. base) /. base)
        | _ -> None)
      Spec.all
  in
  let fpma_avg =
    List.fold_left ( +. ) 0.0 overheads
    /. float_of_int (max 1 (List.length overheads))
  in
  (* A pool cell must equal a serial [Tmachine.run_spec], counter for
     counter. *)
  let serial_matches =
    match outcomes with
    | [] -> false
    | (c, (cycles, instrs, stats)) :: _ ->
      let r =
        Tmachine.run_spec ~seed:c.Sweep.seed ~variant:c.Sweep.variant
          ~bench:c.Sweep.bench ~warmup:sweep_warmup ~measure:sweep_measure ()
      in
      r.Tmachine.cycles = cycles
      && r.Tmachine.instrs = instrs
      && Stats.to_assoc r.Tmachine.stats = Stats.to_assoc stats
  in
  let cells_json =
    Json.List
      (List.map (fun (c, w) -> window_json ~label:(Sweep.cell_name c) w) outcomes)
  in
  {
    setup;
    ops;
    statistic = Quiet_cells;
    prefix;
    domains;
    win;
    prefix_cycles = sum (fun (c, _, _) -> c);
    prefix_instrs = sum (fun (_, i, _) -> i);
    exact =
      Json.Obj
        [
          ("prefix_ops", Json.Int prefix);
          ( "cells_digest",
            Json.String (Digest.to_hex (Digest.string (Json.to_string cells_json))) );
          ("fpma_overhead_pct", Json.Float fpma_avg);
          ("paper_err_pp", Json.Float (Float.abs (fpma_avg -. paper_fpma_avg)));
        ];
    checks =
      [
        ("first pass complete", List.length outcomes = prefix);
        ("pool cell equals serial Tmachine.run_spec", serial_matches);
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* ni-fpma: interrupt-schedule noninterference checks                  *)
(* ------------------------------------------------------------------ *)

(* Ni_known.schedules schedules are drawn in set-up; a run that gets
   through them all starts over at the first. *)
let ni_prefix = 200
let ni_warmup = 50

(* The BASE counterexample committed under examples/ni/: a known leak
   that every run must still find. *)
let base_counterexample = "ni1:BASE:b0:-:probe"

let last_exit bounds = List.fold_left (fun m (_, e) -> max m e) 0 bounds

let commits obs =
  List.fold_left (fun n w -> n + w.Schedule.w_commits) 0 obs

let ni ~seed ~seconds ~trace =
  let stream = Ni_known.stream_of_seed seed in
  let listed = Ni_known.falsifying ~stream in
  let expected = Hashtbl.create 16 in
  Result.iter (List.iter (fun (i, sched) -> Hashtbl.replace expected i sched)) listed;
  let known = ref [] in
  let first = ref None in
  let prefix_buf = Buffer.create 65536 in
  let prefix_cycles = ref 0 and prefix_instrs = ref 0 in
  (* [Schedule.check], spelled out so that the op can count the cycles
     both machines ran; the first op is compared with [Body.check]. *)
  let check (t : tracer) s =
    let body = t.span "body" (fun () -> Body.uops_of_seed s.Schedule.body_seed) in
    let timing = Config.timing ~cores:1 s.Schedule.variant in
    let obs, bounds = t.span "run-body" (fun () -> Schedule.run ~timing ~body s) in
    let ref_obs, ref_bounds =
      t.span "run-reference" (fun () ->
          Schedule.run ~timing ~body:(Schedule.reference_body (List.length body)) s)
    in
    ( obs,
      ref_obs,
      last_exit bounds + last_exit ref_bounds,
      (2 * List.length body) + commits obs + commits ref_obs )
  in
  (* The warm-up checks the last schedules. *)
  let setup, schedules =
    repeat_setup (fun () ->
        let schedules = Ni_known.draw ~stream in
        for k = 1 to ni_warmup do
          ignore
            (check { span = (fun _ g -> g ()) }
               schedules.(Array.length schedules - k));
          Calib.maybe_chunk ()
        done;
        schedules)
  in
  let n = Array.length schedules in
  (* An op fails when its verdict differs from the expected one: a
     falsification that is not listed in ni-fpma-known.txt, or a listed
     one that no longer falsifies. *)
  let ni_op i =
    let s = schedules.(i mod n) in
    run_op ~index:i ~label:(Schedule.to_string s) (fun t ->
        let obs, ref_obs, cycles, instrs = check t s in
        let leaked = obs <> ref_obs in
        if i = 0 then first := Some (s, leaked, obs, ref_obs);
        if i < ni_prefix then begin
          Buffer.add_string prefix_buf (Schedule.to_string s);
          Buffer.add_string prefix_buf (if leaked then " leak " else " ok ");
          Buffer.add_string prefix_buf
            (Json.to_string (Schedule.observation_to_json obs));
          Buffer.add_char prefix_buf '\n';
          prefix_cycles := !prefix_cycles + cycles;
          prefix_instrs := !prefix_instrs + instrs
        end;
        (match (leaked, Hashtbl.mem expected (i mod n)) with
        | true, true -> known := Schedule.to_string s :: !known
        | true, false -> failwith "F+P+M+A noninterference falsified"
        | false, true -> failwith "listed as falsifying, but no longer falsifies"
        | false, false -> ());
        (cycles, instrs))
  in
  let ops, win =
    timed_window ~seconds ~trace (fun deadline ->
        serial_loop ~deadline ~min_ops:ni_prefix ni_op)
  in
  let first_matches =
    match !first with
    | None -> false
    | Some (s, leaked, obs, ref_obs) ->
      let v = Body.check s in
      v.Schedule.v_falsified = leaked
      && v.Schedule.v_obs = obs
      && v.Schedule.v_ref_obs = ref_obs
  in
  let round_trips =
    List.for_all
      (fun op ->
        match Schedule.of_string op.label with
        | Ok s -> Schedule.to_string s = op.label
        | Error _ -> false)
      ops
  in
  let base_leaks =
    match Schedule.of_string base_counterexample with
    | Ok s -> (Body.check s).Schedule.v_falsified
    | Error _ -> false
  in
  let list_matches =
    match listed with
    | Error msg ->
      prerr_endline ("ni-fpma: " ^ msg);
      false
    | Ok l ->
      List.for_all
        (fun (i, sched) -> i < n && Schedule.to_string schedules.(i) = sched)
        l
  in
  let known = List.rev !known in
  List.iter
    (fun s -> Printf.eprintf "ni-fpma: known falsification reproduced: %s\n%!" s)
    known;
  {
    setup;
    ops;
    statistic = Quiet_blocks;
    prefix = ni_prefix;
    domains = 1;
    win;
    prefix_cycles = !prefix_cycles;
    prefix_instrs = !prefix_instrs;
    exact =
      Json.Obj
        [
          ("prefix_ops", Json.Int ni_prefix);
          ( "verdict_digest",
            Json.String (Digest.to_hex (Digest.string (Buffer.contents prefix_buf))) );
        ];
    checks =
      [
        ("first op equals Body.check", first_matches);
        ("schedule strings round-trip", round_trips);
        (base_counterexample ^ " still falsifies", base_leaks);
        ("ni-fpma-known.txt names the drawn schedules", list_matches);
      ];
    notes =
      [
        ("stream", Json.Int stream);
        ("known_falsified", Json.List (List.map (fun s -> Json.String s) known));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("spec-mem", spec [ (Spec.Mcf, Config.Base); (Spec.Mcf, Config.Fpma) ]);
    ("spec-ilp", spec [ (Spec.Hmmer, Config.Base); (Spec.H264ref, Config.Base) ]);
    ("sweep-fig13", sweep);
    ("ni-fpma", ni);
  ]

let sum_ops f ops = List.fold_left (fun a o -> a + f o) 0 ops

(* Neighbours on a shared host slow it down: core speed drifts over
   minutes, and bursts of a few seconds slow the simulator further.  Each
   op's duration is first scaled by the host speed its calibration chunks
   measured (calib.ml).  The ops are then reduced to the quietest part of
   the run, since interference only ever slows the benchmark down:

   - [Quiet_blocks]: the ops are cut into blocks of one prefix each, the
     same kind of work in every block.  A rate is the upper quartile of
     the blocks' rates and a latency percentile the lower quartile of the
     blocks' percentiles.
   - [Quiet_cells]: a grid pass takes most of a window, so there are too
     few blocks.  Each grid cell's shortest run in the window stands for
     it, and the metrics are taken over that one quickest pass.

   With [norm] false durations are left as measured. *)
let op_seconds ~norm (op : op) =
  let s = float_of_int (op.end_ns - op.start_ns - op.paused_ns) /. 1e9 in
  if norm then
    Calib.scale s
      ~mops:
        (Calib.mops_between ~domain:op.domain
           ~from:(op.start_ns - Calib.period_ns)
           ~until:(op.end_ns + Calib.period_ns) ())
  else s

(* Complete blocks of [size] consecutive ops; the prefix makes one. *)
let blocks ~size xs =
  let rec go acc cur n = function
    | [] -> List.rev acc
    | x :: rest ->
      if n + 1 = size then go (List.rev (x :: cur) :: acc) [] 0 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(* The quickest run of each of the [size] cells of a grid pass. *)
let quickest_cells ~size xs =
  let best = Array.make size None in
  List.iter
    (fun ((t, (op : op)) as x) ->
      let k = op.index mod size in
      match best.(k) with
      | Some (t', _) when t' <= t -> ()
      | _ -> best.(k) <- Some x)
    xs;
  [ List.filter_map Fun.id (Array.to_list best) ]

let nearest_rank q xs =
  let a = Qstat.sorted xs in
  let n = Array.length a in
  a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let end_to_end ~norm o =
  let timed = List.map (fun op -> (op_seconds ~norm op, op)) o.ops in
  let blocks =
    match o.statistic with
    | Quiet_blocks -> blocks ~size:o.prefix timed
    | Quiet_cells -> quickest_cells ~size:o.prefix timed
  in
  let busy b = List.fold_left (fun t (s, _) -> t +. s) 0.0 b in
  (* Work per second of one block, with [domains] ops in flight. *)
  let rate work =
    snd
      (Qstat.quartiles
         (List.map
            (fun b ->
              float_of_int o.domains
              *. List.fold_left (fun w (_, op) -> w +. work op) 0.0 b
              /. busy b)
            blocks))
  in
  let latency_ms q =
    fst
      (Qstat.quartiles
         (List.map (fun b -> 1e3 *. nearest_rank q (List.map fst b)) blocks))
  in
  let cycles = float_of_int (sum_ops (fun op -> op.cycles) o.ops) in
  [
    ("setup_s", "s", Qstat.median (List.map (op_seconds ~norm) o.setup));
    ("ops_per_s", "1/s", rate (fun _ -> 1.0));
    ("op_p50_ms", "ms", latency_ms 0.50);
    ("op_p90_ms", "ms", latency_ms 0.90);
    ("sim_kips", "kinstr/s", rate (fun op -> float_of_int op.instrs) /. 1e3);
    ("sim_kcps", "kcycle/s", rate (fun op -> float_of_int op.cycles) /. 1e3);
    ( "sim_ipc",
      "instr/cycle",
      float_of_int o.prefix_instrs /. float_of_int o.prefix_cycles );
    ( "alloc_b_per_cycle",
      "B/cycle",
      o.win.minor_words *. float_of_int word_bytes /. cycles );
    ( "heap_mb",
      "MB",
      Calib.median_heap_words () *. float_of_int word_bytes
      /. float_of_int (1 lsl 20) );
  ]

(* Layer host time per simulated cycle: each layer's share of the
   profiler's samples times the run's host ns per cycle, taken from
   [sim_kcps] so that the layers sum to the end-to-end figure.  [micro]
   holds the fixed-op-count loops' results and the host speed measured
   before them. *)
let per_layer ~norm o ~kcps (micro, micro_mops) =
  let cycles = float_of_int (sum_ops (fun op -> op.cycles) o.ops) in
  let total = Array.fold_left ( + ) 0 o.win.samples in
  let ns_per_cycle = float_of_int o.domains *. 1e6 /. kcps in
  let layer i name =
    let share =
      if total = 0 then 0.0
      else float_of_int o.win.samples.(i) /. float_of_int total
    in
    (name ^ ".ns_per_cycle", "ns/cycle", share *. ns_per_cycle)
  in
  let micro_scale = if norm then Calib.scale 1.0 ~mops:micro_mops else 1.0 in
  let busy_ns = sum_ops (fun op -> op.end_ns - op.start_ns - op.paused_ns) o.ops in
  Array.to_list (Array.mapi layer Prof.layers)
  @ [
      ( "gc.minor_per_mcycle",
        "count/Mcycle",
        float_of_int o.win.minor_gcs /. cycles *. 1e6 );
      ( "gc.major_per_mcycle",
        "count/Mcycle",
        float_of_int o.win.major_gcs /. cycles *. 1e6 );
      ( "exec.busy_frac",
        "frac",
        float_of_int busy_ns /. float_of_int (o.domains * o.win.wall_ns) );
      ( "trace.overhead_frac",
        "frac",
        float_of_int o.win.prof_ns /. (o.win.cpu_s *. 1e9) );
    ]
  @ List.map (fun (name, unit, v) -> (name, unit, v *. micro_scale)) micro

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* [Json.to_string] rounds floats to six digits; measurements are
   written with all of theirs.  JSON has no NaN or infinity: a
   non-finite value is written as null, which perfcheck reports. *)
let rec json_exact buf = function
  | Json.Float f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Json.Float f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        json_exact buf v)
      vs;
    Buffer.add_char buf ']'
  | Json.Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Json.to_buffer buf (Json.String k);
        Buffer.add_char buf ':';
        json_exact buf v)
      kvs;
    Buffer.add_char buf '}'
  | v -> Json.to_buffer buf v

let to_string_exact v =
  let buf = Buffer.create 4096 in
  json_exact buf v;
  Buffer.contents buf

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
       ms)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write_trace path o =
  let t0 = match o.ops with [] -> 0 | op :: _ -> op.start_ns in
  let buf = Buffer.create (1 lsl 20) in
  let line v =
    json_exact buf v;
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [
         ( "profile_samples",
           Json.Obj
             (Array.to_list
                (Array.mapi
                   (fun i n -> (Prof.layers.(i), Json.Int n))
                   o.win.samples)) );
         ("profiler_ns", Json.Int o.win.prof_ns);
         ("cpu_s", Json.Float o.win.cpu_s);
         ("wall_ns", Json.Int o.win.wall_ns);
       ]);
  List.iteri
    (fun i op ->
      let span (name, s, e) =
        Json.Obj
          [ ("name", Json.String name); ("start_ns", Json.Int (s - t0));
            ("end_ns", Json.Int (e - t0)) ]
      in
      line
        (Json.Obj
           [
             ("op", Json.Int i);
             ("label", Json.String op.label);
             ("domain", Json.Int op.domain);
             ("start_ns", Json.Int (op.start_ns - t0));
             ("end_ns", Json.Int (op.end_ns - t0));
             ("cycles", Json.Int op.cycles);
             ("instrs", Json.Int op.instrs);
             ("failed", Json.Bool (op.failure <> None));
             ("spans", Json.List (List.map span op.spans));
           ]))
    o.ops;
  write_file path (Buffer.contents buf)

(* The host's CPU model for the record's host tag. *)
let cpu_model () =
  let prefix = "model name" in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text -> (
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)
    with
    | Some line -> (
      match String.index_opt line ':' with
      | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
      | None -> "unknown")
    | None -> "unknown")

let usage () =
  prerr_endline
    "usage: perf.exe --workload (spec-mem|spec-ilp|sweep-fig13|ni-fpma) [--seed \
     N] [--seconds S] [--trace 0|1] [--out FILE]";
  exit 2

let () =
  let workload = ref None and seed = ref 0 and seconds = ref 20
  and trace = ref false and out = ref "BENCH_perf.json" in
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match List.assoc_opt w workloads with
      | Some _ -> workload := Some w
      | None -> usage ());
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg v;
      if !seconds < 1 then usage ();
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--out" :: v :: rest ->
      out := v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let name = match !workload with Some w -> w | None -> usage () in
  let start_mops = Calib.measure_now ~n:40 () in
  let o = (List.assoc name workloads) ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let micro =
    if !trace then begin
      let mops = Calib.measure_now () in
      (Micro.all (), mops)
    end
    else ([], Calib.reference_mops)
  in
  let e2e = end_to_end ~norm:true o and raw_e2e = end_to_end ~norm:false o in
  let layer ~norm e2e =
    if !trace then
      let kcps = List.assoc "sim_kcps" (List.map (fun (n, _, v) -> (n, v)) e2e) in
      per_layer ~norm o ~kcps micro
    else []
  in
  let layer = layer ~norm:true e2e and raw_layer = layer ~norm:false raw_e2e in
  let reported = if !trace then layer else e2e in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) reported in
  let failures = List.filter (fun op -> op.failure <> None) o.ops in
  List.iter
    (fun op ->
      Printf.eprintf "%s: op %s failed: %s\n%!" name op.label
        (Option.value op.failure ~default:""))
    failures;
  List.iter
    (fun (check, ok) ->
      if not ok then Printf.eprintf "%s: check failed: %s\n%!" name check)
    o.checks;
  let correct = finite && List.for_all snd o.checks in
  let attempted = List.length o.ops and failed = List.length failures in
  let record =
    Json.Obj
      ([
        ("schema", Json.String "mi6.perf/1");
        ("workload", Json.String name);
        ("seed", Json.Int !seed);
        ("seconds", Json.Int !seconds);
        ("trace", Json.Bool !trace);
        ( "host",
          Json.Obj
            [
              ("commit", Json.String (Mi6_obs.Perfdb.git_commit ()));
              ("cpu", Json.String (cpu_model ()));
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("domains", Json.Int o.domains);
              ("ocaml", Json.String Sys.ocaml_version);
              ("os", Json.String Sys.os_type);
              ("calibration_mops", Json.Float start_mops);
            ] );
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("fail_frac", Json.Float (float_of_int failed /. float_of_int attempted));
        ( "failures",
          Json.List (List.map (fun op -> Json.String op.label) failures) );
        ( "checks",
          Json.List
            (List.map
               (fun (c, ok) ->
                 Json.Obj [ ("check", Json.String c); ("ok", Json.Bool ok) ])
               o.checks) );
        ("window_s", Json.Float (float_of_int o.win.wall_ns /. 1e9));
        ("cpu_s", Json.Float o.win.cpu_s);
        ("profile_samples", Json.Int (Array.fold_left ( + ) 0 o.win.samples));
        ( "window_mops",
          Json.Float
            (Calib.mops_between ~from:o.win.start_ns
               ~until:(o.win.start_ns + o.win.wall_ns) ()) );
        ("calibration_chunks", Json.Int (Calib.count ()));
        ("metrics", metrics_json (e2e @ layer));
        ("raw_metrics", metrics_json (raw_e2e @ raw_layer));
        ("exact", o.exact);
      ]
      @ o.notes)
  in
  write_file !out (to_string_exact record ^ "\n");
  if !trace then
    write_trace (Filename.remove_extension !out ^ ".trace.jsonl") o;
  List.iter (fun (n, unit, v) -> Printf.printf "%s %.6g %s\n" n v unit) reported;
  print_endline
    (to_string_exact
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              metrics_json
                (List.map
                   (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.0))
                   reported) );
          ]))

(* Host-cost self-profiling: where does the simulator (not the simulated
   machine) spend wall time and allocation?

   The profiler is a single-phase stopwatch: at any instant one phase is
   "current", and switching phases charges the elapsed wall time and
   minor-heap allocation to the phase being left.  Stage boundaries in
   [Core.tick] / [Tmachine.tick] / [Llc.tick] switch phases around each
   stage, restoring the previous phase afterwards, so nesting (the DRAM
   controller ticking inside the LLC tick) attributes correctly.

   Time not inside any instrumented segment — stream generation, stats
   bookkeeping, the run loop itself — lands in the [harness] phase, which
   is the current phase between [run_begin] and the first switch.  Because
   every instant of the run window belongs to exactly one phase, the
   per-phase times sum to the measured wall time by construction.

   Like [Trace.null], the disabled singleton makes every probe a single
   branch; an uninstrumented run pays (almost) nothing. *)

let phase_names =
  [|
    "fetch"; "rename"; "issue"; "exec"; "mem"; "commit"; "purge";
    "l1"; "llc"; "dram"; "ptw"; "harness";
  |]

let n_phases = Array.length phase_names

let ph_fetch = 0
let ph_rename = 1
let ph_issue = 2
let ph_exec = 3
let ph_mem = 4
let ph_commit = 5
let ph_purge = 6
let ph_l1 = 7
let ph_llc = 8
let ph_dram = 9
let ph_ptw = 10
let ph_harness = 11

let phase_name i = phase_names.(i)

type t = {
  enabled : bool;
  times : float array; (* seconds charged per phase *)
  allocs : float array; (* minor-heap words charged per phase *)
  mutable cur : int;
  mutable last_t : float;
  mutable last_a : float;
  mutable wall : float; (* accumulated run-window wall seconds *)
  mutable cycles : int; (* cycles ticked inside run windows *)
  mutable instrs : int;
  mutable run_start : float;
  mutable series : (float * int * int) list; (* elapsed_s, cycles, instrs; newest first *)
}

let null =
  {
    enabled = false;
    times = [||];
    allocs = [||];
    cur = ph_harness;
    last_t = 0.0;
    last_a = 0.0;
    wall = 0.0;
    cycles = 0;
    instrs = 0;
    run_start = 0.0;
    series = [];
  }

let create () =
  {
    enabled = true;
    times = Array.make n_phases 0.0;
    allocs = Array.make n_phases 0.0;
    cur = ph_harness;
    last_t = Unix.gettimeofday ();
    last_a = Gc.minor_words ();
    wall = 0.0;
    cycles = 0;
    instrs = 0;
    run_start = 0.0;
    series = [];
  }

let enabled t = t.enabled

let switch t p =
  if not t.enabled then p
  else begin
    let now = Unix.gettimeofday () in
    let a = Gc.minor_words () in
    t.times.(t.cur) <- t.times.(t.cur) +. (now -. t.last_t);
    t.allocs.(t.cur) <- t.allocs.(t.cur) +. (a -. t.last_a);
    let prev = t.cur in
    t.cur <- p;
    t.last_t <- now;
    t.last_a <- a;
    prev
  end

let restore t p = if t.enabled then ignore (switch t p)

let run_begin t =
  if t.enabled then begin
    t.cur <- ph_harness;
    t.last_t <- Unix.gettimeofday ();
    t.last_a <- Gc.minor_words ();
    t.run_start <- t.last_t
  end

let run_end t ~cycles ~instrs =
  if t.enabled then begin
    restore t ph_harness; (* flush the tail into the accumulators *)
    t.wall <- t.wall +. (t.last_t -. t.run_start);
    t.cycles <- t.cycles + cycles;
    t.instrs <- t.instrs + instrs;
    t.series <- (t.last_t -. t.run_start, cycles, instrs) :: t.series
  end

let sample t ~cycles ~instrs =
  if t.enabled then
    t.series <- (Unix.gettimeofday () -. t.run_start, cycles, instrs) :: t.series

let wall_seconds t = t.wall
let cycles t = t.cycles

let phase_seconds t p = if t.enabled then t.times.(p) else 0.0

let bytes_per_word = float_of_int (Sys.word_size / 8)

let phase_alloc_bytes t p =
  if t.enabled then t.allocs.(p) *. bytes_per_word else 0.0

let kips_series t = List.rev t.series

(* Thousands of [n] per host second over all run windows. *)
let per_wall_k t n = if t.wall <= 0.0 then 0.0 else float_of_int n /. t.wall /. 1000.0
let overall_kcps t = per_wall_k t t.cycles

(* (name, seconds, ns/cycle, alloc bytes/cycle) per phase, phase order. *)
let report t =
  let cyc = float_of_int (max 1 t.cycles) in
  List.init n_phases (fun p ->
      ( phase_names.(p),
        phase_seconds t p,
        phase_seconds t p *. 1e9 /. cyc,
        phase_alloc_bytes t p /. cyc ))

let to_json t =
  let cyc = float_of_int (max 1 t.cycles) in
  Json.Obj
    [
      ("wall_s", Json.Float t.wall);
      ("cycles", Json.Int t.cycles);
      ("instrs", Json.Int t.instrs);
      ("kips", Json.Float (per_wall_k t t.instrs));
      ("kcps", Json.Float (overall_kcps t));
      ( "phases",
        Json.Obj
          (List.init n_phases (fun p ->
               ( phase_names.(p),
                 Json.Obj
                   [
                     ("seconds", Json.Float (phase_seconds t p));
                     ("ns_per_cycle", Json.Float (phase_seconds t p *. 1e9 /. cyc));
                     ( "alloc_bytes_per_cycle",
                       Json.Float (phase_alloc_bytes t p /. cyc) );
                   ] ))) );
    ]

(* Tests for the out-of-order core: predictors, pipeline throughput,
   memory path, purge, and the NONSPEC mode. *)

open Mi6_util
open Mi6_cache
open Mi6_llc
open Mi6_ooo
module Config = Mi6_core.Config
module Hierarchy = Mi6_core.Hierarchy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Predictors                                                          *)
(* ------------------------------------------------------------------ *)

let test_tournament_learns_bias () =
  let p = Tournament.create () in
  (* A heavily biased branch must become almost always correct. *)
  let wrong = ref 0 in
  for i = 1 to 1000 do
    ignore i;
    if not (Tournament.predict p ~pc:0x400) then incr wrong;
    Tournament.update p ~pc:0x400 ~taken:true
  done;
  check_bool (Printf.sprintf "bias learned (%d wrong)" !wrong) true (!wrong < 20)

let test_tournament_learns_pattern () =
  let p = Tournament.create () in
  (* Alternating T/N is local-history predictable. *)
  let wrong = ref 0 in
  for i = 1 to 2000 do
    let taken = i mod 2 = 0 in
    if Tournament.predict p ~pc:0x800 <> taken then incr wrong;
    Tournament.update p ~pc:0x800 ~taken
  done;
  check_bool
    (Printf.sprintf "pattern learned (%d wrong of 2000)" !wrong)
    true (!wrong < 100)

let test_tournament_flush_resets () =
  let fresh = Tournament.create () in
  let used = Tournament.create () in
  for i = 1 to 500 do
    Tournament.update used ~pc:(i * 4) ~taken:(i mod 3 = 0)
  done;
  check_bool "trained differs from fresh" true
    (Tournament.state_signature used <> Tournament.state_signature fresh);
  Tournament.flush used;
  check_int "flush restores public state"
    (Tournament.state_signature fresh)
    (Tournament.state_signature used)

let test_btb () =
  let b = Btb.create () in
  check_bool "cold miss" true (Btb.predict b ~pc:0x1000 = -1);
  Btb.update b ~pc:0x1000 ~target:0x2000;
  check_bool "hit" true (Btb.predict b ~pc:0x1000 = 0x2000);
  (* Aliasing: 256 entries x 4-byte instructions = 1 KB stride. *)
  Btb.update b ~pc:(0x1000 + 1024) ~target:0x3000;
  check_bool "alias evicts" true (Btb.predict b ~pc:0x1000 = -1);
  Btb.flush b;
  check_int "flush empties" 0 (Btb.occupancy b)

let test_ras () =
  let r = Ras.create () in
  Ras.push r 100;
  Ras.push r 200;
  check_int "lifo pop" 200 (Ras.pop r);
  check_int "lifo pop 2" 100 (Ras.pop r);
  check_int "empty pop" 0 (Ras.pop r);
  (* Overflow wraps: pushing 9 into 8 entries loses the oldest. *)
  for i = 1 to 9 do
    Ras.push r (i * 10)
  done;
  check_int "depth capped" 8 (Ras.depth r);
  check_int "newest on top" 90 (Ras.pop r)

(* ------------------------------------------------------------------ *)
(* Core harness                                                        *)
(* ------------------------------------------------------------------ *)

(* One core fed [uops], on ports 0 (D) and 1 (I) of a BASE memory
   side. *)
let core_rig ?(cfg = Core_config.default) uops =
  let stats = Stats.create () in
  let h = Hierarchy.create (Config.timing ~cores:1 Config.Base) ~stats in
  let core =
    Core.create cfg ~l1i:(Hierarchy.l1 h ~core:1) ~l1d:(Hierarchy.l1 h ~core:0)
      ~stream:(Seq.to_dispenser (List.to_seq uops))
      ~stats ~pt_base_line:(16 * 1024 * 1024 / 64)
  in
  Hierarchy.connect h ~core:0 (fun id ->
      Core.mem_complete core ~now:(Hierarchy.now h) ~id);
  Hierarchy.connect h ~core:1 (fun id -> Core.icache_complete core ~id);
  (stats, h, core)

let step h core =
  Core.tick core ~now:(Hierarchy.now h);
  Hierarchy.tick h

let run_core ?cfg ?(max_cycles = 2_000_000) uops =
  let stats, h, core = core_rig ?cfg uops in
  while (not (Core.finished core)) && Hierarchy.now h < max_cycles do
    step h core
  done;
  check_bool "core finished" true (Core.finished core);
  (stats, Hierarchy.now h, core)

(* n independent single-cycle ALU ops in a tight code loop footprint. *)
let independent_alus n =
  List.init n (fun i ->
      Uop.alu ~pc:(0x1000 + (i mod 64 * 4)) ~dst:(2 + (i mod 8)) ~srcs:[] ())

let dependent_chain n =
  List.init n (fun i -> Uop.alu ~pc:(0x1000 + (i mod 64 * 4)) ~dst:2 ~srcs:[ 2 ] ())

let test_ipc_independent () =
  let n = 20_000 in
  let _, cycles, core = run_core (independent_alus n) in
  check_int "all committed" n (Core.committed_instructions core);
  let ipc = float_of_int n /. float_of_int cycles in
  check_bool (Printf.sprintf "ipc %.2f near fetch width" ipc) true (ipc > 1.5)

let test_ipc_dependent_chain () =
  let n = 20_000 in
  let _, cycles, _ = run_core (dependent_chain n) in
  let ipc = float_of_int n /. float_of_int cycles in
  check_bool (Printf.sprintf "chain ipc %.2f ~ 1" ipc) true
    (ipc > 0.8 && ipc <= 1.05)

let test_long_latency_alu () =
  (* A chain of 20-cycle (divide-like) ops runs at ~1 per 20 cycles. *)
  let n = 500 in
  let uops =
    List.init n (fun i ->
        Uop.alu ~latency:20 ~pipe:Uop.Pipe_fp ~pc:(0x1000 + (i mod 16 * 4))
          ~dst:2 ~srcs:[ 2 ] ())
  in
  let _, cycles, _ = run_core uops in
  check_bool
    (Printf.sprintf "div chain takes %d cycles for %d ops" cycles n)
    true
    (cycles > n * 18)

(* Deferred completions sit on a timing wheel sized for the common
   latencies; a latency past its window must keep exact timing.  Each
   op of a dependent chain issues [latency] cycles after the previous
   one, so the chains differ by exactly [n * (100 - 20)] cycles. *)
let test_latency_beyond_event_window () =
  let n = 50 in
  let chain latency =
    List.init n (fun i ->
        Uop.alu ~latency ~pipe:Uop.Pipe_fp ~pc:(0x1000 + (i mod 16 * 4)) ~dst:2
          ~srcs:[ 2 ] ())
  in
  let _, c20, _ = run_core (chain 20) in
  let _, c100, _ = run_core (chain 100) in
  check_int "cycles grow by exactly the added latency" (n * 80) (c100 - c20)

(* Ticking only every third cycle, events due in the skipped cycles
   still run, oldest first.  The finishing cycle is the one the model
   reached when it scanned every pending event each tick. *)
let test_skipped_cycles_run_due_events () =
  let n = 300 in
  let _, h, core =
    core_rig
      (List.init n (fun i ->
           if i mod 3 = 0 then
             Uop.load ~pc:(0x1000 + (i mod 64 * 4)) ~addr:(0x20000 + (i * 64))
               ~dst:3 ~srcs:[] ()
           else
             Uop.alu ~latency:(1 + (i mod 5)) ~pc:(0x1000 + (i mod 64 * 4))
               ~dst:2 ~srcs:[ 2; 3 ] ()))
  in
  (* [Hierarchy.tick] advances one cycle at a time, so the memory side
     is ticked component by component, every third cycle too. *)
  let l1d = Hierarchy.l1 h ~core:0 and l1i = Hierarchy.l1 h ~core:1 in
  let cycle = ref 0 in
  while (not (Core.finished core)) && !cycle < 3_000_000 do
    Core.tick core ~now:!cycle;
    L1.tick l1d ~now:!cycle ~complete:(fun id ->
        Core.mem_complete core ~now:!cycle ~id);
    L1.tick l1i ~now:!cycle ~complete:(fun id -> Core.icache_complete core ~id);
    Llc.tick (Hierarchy.llc h) ~now:!cycle;
    cycle := !cycle + 3
  done;
  check_bool "core finished" true (Core.finished core);
  check_int "all committed" n (Core.committed_instructions core);
  check_int "finishing cycle" 2673 !cycle

let test_load_hits_pipeline () =
  (* Loads to one hot line: after warmup they hit in the L1. *)
  let n = 5_000 in
  let uops =
    List.init n (fun i ->
        Uop.load ~pc:(0x1000 + (i mod 32 * 4)) ~addr:0x8000 ~dst:(2 + (i mod 4))
          ~srcs:[] ())
  in
  let stats, cycles, _ = run_core uops in
  check_bool "l1d mostly hits" true
    (Stats.get stats "l1d.0.hits" > (n * 9 / 10));
  (* One mem pipe: at most ~1 load per cycle. *)
  check_bool (Printf.sprintf "cycles %d >= loads" cycles) true (cycles >= n)

let test_load_miss_stream () =
  (* Strided misses: every load a fresh line -> DRAM-bound. *)
  let n = 300 in
  let uops =
    List.init n (fun i ->
        Uop.load ~pc:0x1000 ~addr:(0x100000 + (i * 4096 * 64)) ~dst:2 ~srcs:[] ())
  in
  let stats, cycles, _ = run_core uops in
  check_bool "llc misses dominate" true (Stats.get stats "llc.misses" >= n);
  check_bool
    (Printf.sprintf "cycles %d reflect some MLP" cycles)
    true
    (cycles > n * 10 && cycles < n * 200)

let test_store_forwarding () =
  (* Store then load of the same line: the load forwards, no extra
     D-cache traffic for it. *)
  let uops =
    [
      (* Warm the D-TLB so the store's address is known before the load
         issues (forwarding needs the SQ entry's address ready). *)
      Uop.load ~pc:0x0FF0 ~addr:0x9040 ~dst:2 ~srcs:[] ();
      Uop.alu ~pc:0x0FF4 ~dst:3 ~srcs:[ 2 ] ();
      Uop.store ~pc:0x1000 ~addr:0x9000 ~srcs:[ 3 ] ();
      Uop.alu ~pc:0x1004 ~dst:5 ~srcs:[] ();
      Uop.alu ~pc:0x1008 ~dst:6 ~srcs:[] ();
      (* Shares the store's source so it cannot issue before it. *)
      Uop.load ~pc:0x100C ~addr:0x9000 ~dst:4 ~srcs:[ 3 ] ();
    ]
  in
  let stats, _, _ = run_core uops in
  check_bool "forwarding happened" true (Stats.get stats "core.store_forwards" >= 1)

let test_biased_vs_random_branches () =
  let n = 8_000 in
  let make_branches f =
    List.init n (fun i ->
        Uop.branch ~pc:(0x1000 + (i mod 16 * 4)) ~taken:(f i)
          ~target:(0x1000 + ((i + 1) mod 16 * 4))
          ~srcs:[] ())
  in
  let rng = Rng.of_int 5 in
  let random_outcomes = Array.init n (fun _ -> Rng.bool rng ~p:0.5) in
  let _, cycles_biased, _ = run_core (make_branches (fun _ -> true)) in
  let _, cycles_random, _ =
    run_core (make_branches (fun i -> random_outcomes.(i)))
  in
  check_bool
    (Printf.sprintf "random branches slower (%d vs %d)" cycles_random
       cycles_biased)
    true
    (cycles_random > cycles_biased * 2)

let test_mispredict_counting () =
  (* Deterministic unpredictable pattern -> mispredict counter moves. *)
  let n = 4_000 in
  let rng = Rng.of_int 11 in
  let outcomes = Array.init n (fun _ -> Rng.bool rng ~p:0.5) in
  let uops =
    List.init n (fun i ->
        Uop.branch ~pc:0x2000 ~taken:outcomes.(i) ~target:0x2100 ~srcs:[] ())
  in
  let stats, _, _ = run_core uops in
  let mispredicts = Stats.get stats "core.mispredicts" in
  check_bool
    (Printf.sprintf "%d mispredicts on random pattern" mispredicts)
    true
    (mispredicts > n / 4)

let test_call_return_ras () =
  (* Call/return pairs: the RAS should make returns free. *)
  let uops =
    List.concat
      (List.init 2_000 (fun i ->
           ignore i;
           [
             Uop.jump ~pc:0x1000 ~target:0x4000 ~kind:`Call ();
             Uop.alu ~pc:0x4000 ~dst:3 ~srcs:[] ();
             Uop.jump ~pc:0x4004 ~target:0x1004 ~kind:`Return ();
             Uop.alu ~pc:0x1004 ~dst:4 ~srcs:[] ();
           ]))
  in
  let stats, _, _ = run_core uops in
  check_bool "few ras mispredicts" true
    (Stats.get stats "core.ras_mispredicts" < 50)

(* ------------------------------------------------------------------ *)
(* Purge / FLUSH                                                       *)
(* ------------------------------------------------------------------ *)

let workload_with_traps ~n ~trap_every =
  List.concat
    (List.init n (fun i ->
         let body =
           Uop.alu ~pc:(0x1000 + (i mod 256 * 4)) ~dst:(2 + (i mod 6))
             ~srcs:[] ()
         in
         if i > 0 && i mod trap_every = 0 then
           [
             { Uop.pc = 0x1000; kind = Uop.Enter_kernel; dst = None; srcs = [] };
             { Uop.pc = 0x1000; kind = Uop.Exit_kernel; dst = None; srcs = [] };
             body;
           ]
         else [ body ]))

let test_flush_on_trap_purges () =
  let cfg = { Core_config.default with Core_config.flush_on_trap = true } in
  let stats, _, _ = run_core ~cfg (workload_with_traps ~n:10_000 ~trap_every:5000) in
  check_bool "purges happened" true (Stats.get stats "core.purges" >= 2);
  check_bool "stall cycles at least floor x purges" true
    (Stats.get stats "core.purge_stall_cycles"
    >= 512 * Stats.get stats "core.purges")

let test_flush_slower_than_base () =
  let traps = workload_with_traps ~n:40_000 ~trap_every:1000 in
  let _, base_cycles, _ = run_core traps in
  let cfg = { Core_config.default with Core_config.flush_on_trap = true } in
  let _, flush_cycles, _ = run_core ~cfg traps in
  check_bool
    (Printf.sprintf "flush %d > base %d" flush_cycles base_cycles)
    true
    (flush_cycles > base_cycles)

let test_purge_resets_predictor_state () =
  (* Train predictors with irregular branches, then purge. *)
  let rng = Rng.of_int 3 in
  let cfg = { Core_config.default with Core_config.flush_on_trap = true } in
  let _, h, core =
    core_rig ~cfg
      (List.init 2_001 (fun i ->
           Uop.branch
             ~pc:(0x1000 + (i mod 512 * 4))
             ~taken:(Rng.bool rng ~p:0.5) ~target:0x9000 ~srcs:[] ()))
  in
  let fresh_sig =
    let _, _, fresh = core_rig ~cfg [] in
    Core.predictor_signature fresh
  in
  while (not (Core.finished core)) && Hierarchy.now h < 500_000 do
    step h core
  done;
  check_bool "trained state differs from fresh" true
    (Core.predictor_signature core <> fresh_sig);
  (* Externally requested purge (monitor descheduling). *)
  Core.request_purge core;
  while Core.purging core || not (Core.finished core) do
    if Hierarchy.now h > 600_000 then Alcotest.fail "purge never finished";
    step h core
  done;
  check_int "purged predictor equals fresh" fresh_sig
    (Core.predictor_signature core);
  check_int "L1D empty" 0 (L1.valid_lines (Hierarchy.l1 h ~core:0));
  check_int "L1I empty" 0 (L1.valid_lines (Hierarchy.l1 h ~core:1))

let test_save_restore_reduces_flush_cost () =
  (* The Section 6 optional extension: restoring the user domain's own
     predictor state at trap return cuts FLUSH's cold-start mispredicts
     without weakening isolation (the kernel still starts cold). *)
  let traps = workload_with_traps ~n:60_000 ~trap_every:3_000 in
  let flush_cfg = { Core_config.default with Core_config.flush_on_trap = true } in
  let sr_cfg = { flush_cfg with Core_config.save_restore_predictors = true } in
  let stats_plain, cycles_plain, _ = run_core ~cfg:flush_cfg traps in
  let stats_sr, cycles_sr, _ = run_core ~cfg:sr_cfg traps in
  check_bool "restores happened" true
    (Stats.get stats_sr "core.predictor_restores" > 0);
  check_bool "plain flush never restores" true
    (Stats.get stats_plain "core.predictor_restores" = 0);
  check_bool
    (Printf.sprintf "save/restore not slower (%d vs %d)" cycles_sr cycles_plain)
    true
    (cycles_sr <= cycles_plain);
  check_bool "still purges" true
    (Stats.get stats_sr "core.purges" = Stats.get stats_plain "core.purges")

(* ------------------------------------------------------------------ *)
(* NONSPEC                                                             *)
(* ------------------------------------------------------------------ *)

let test_nonspec_serializes () =
  let n = 3_000 in
  let uops =
    List.init n (fun i ->
        if i mod 3 = 0 then
          Uop.load ~pc:(0x1000 + (i mod 64 * 4)) ~addr:(0x8000 + (i mod 16 * 64))
            ~dst:2 ~srcs:[] ()
        else Uop.alu ~pc:(0x1000 + (i mod 64 * 4)) ~dst:(3 + (i mod 4)) ~srcs:[] ())
  in
  let _, base_cycles, _ = run_core uops in
  let cfg = { Core_config.default with Core_config.nonspec_mem = true } in
  let _, nonspec_cycles, _ = run_core ~cfg uops in
  check_bool
    (Printf.sprintf "nonspec %d much slower than base %d" nonspec_cycles
       base_cycles)
    true
    (nonspec_cycles > base_cycles * 2)

(* ------------------------------------------------------------------ *)
(* Rename bookkeeping invariants                                       *)
(* ------------------------------------------------------------------ *)

module Tmachine = Mi6_core.Tmachine
module Spec = Mi6_workload.Spec

(* A spec stream with a kernel excursion (an Enter_kernel marker, a few
   dozen µops later an Exit_kernel one) every few hundred µops, so traps
   and, on the flushing variants, purges run within a short window. *)
let trapping_stream ~bench ~seed =
  let spec = Tmachine.spec_stream ~seed ~core:0 ~bench ~limit:max_int () in
  let rng = Rng.of_int seed in
  let left = ref (200 + Rng.int rng 1500) and in_kernel = ref false in
  fun () ->
    decr left;
    if !left > 0 then spec ()
    else begin
      in_kernel := not !in_kernel;
      left := if !in_kernel then 20 + Rng.int rng 200 else 200 + Rng.int rng 1500;
      let kind = if !in_kernel then Uop.Enter_kernel else Uop.Exit_kernel in
      Some { Uop.pc = 0x1000; kind; dst = None; srcs = [] }
    end

(* At random stop cycles of random trapping streams on every variant,
   the free list, map table, LQ map and SQ count agree with the ROB
   (Core.check_invariants).  Odd stops also request an external purge,
   so purges run on the non-flushing variants too. *)
let prop_rename_invariants =
  let pick xs i = List.nth xs (i mod List.length xs) in
  QCheck.Test.make ~count:40 ~name:"rename bookkeeping invariants"
    QCheck.(
      quad small_nat small_nat (int_bound 999)
        (list_of_size Gen.(1 -- 4) (int_range 1 12_000)))
    (fun (b, v, seed, stops) ->
      let bench = pick Spec.all b and variant = pick Config.all_variants v in
      let m =
        Tmachine.create
          (Config.timing ~cores:1 variant)
          ~streams:[| trapping_stream ~bench ~seed |]
          ~stats:(Stats.create ())
      in
      let core = Tmachine.core m 0 in
      List.for_all
        (fun stop ->
          while Tmachine.now m < stop do
            Tmachine.tick m
          done;
          match Core.check_invariants core with
          | Ok () ->
            if stop land 1 = 1 then Core.request_purge core;
            true
          | Error msg ->
            QCheck.Test.fail_reportf "%s on %s, cycle %d: %s" (Spec.name bench)
              (Config.variant_name variant) stop msg)
        (List.sort compare stops))

let () =
  Alcotest.run "mi6_ooo"
    [
      ( "predictors",
        [
          Alcotest.test_case "tournament bias" `Quick test_tournament_learns_bias;
          Alcotest.test_case "tournament pattern" `Quick
            test_tournament_learns_pattern;
          Alcotest.test_case "tournament flush" `Quick
            test_tournament_flush_resets;
          Alcotest.test_case "btb" `Quick test_btb;
          Alcotest.test_case "ras" `Quick test_ras;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "independent ipc" `Quick test_ipc_independent;
          Alcotest.test_case "dependent chain ipc" `Quick
            test_ipc_dependent_chain;
          Alcotest.test_case "long latency ops" `Quick test_long_latency_alu;
          Alcotest.test_case "latency beyond event window" `Quick
            test_latency_beyond_event_window;
          Alcotest.test_case "skipped cycles run due events" `Quick
            test_skipped_cycles_run_due_events;
        ] );
      ( "memory",
        [
          Alcotest.test_case "load hits" `Quick test_load_hits_pipeline;
          Alcotest.test_case "load miss stream" `Quick test_load_miss_stream;
          Alcotest.test_case "store forwarding" `Quick test_store_forwarding;
        ] );
      ( "control",
        [
          Alcotest.test_case "biased vs random" `Quick
            test_biased_vs_random_branches;
          Alcotest.test_case "mispredict counting" `Quick
            test_mispredict_counting;
          Alcotest.test_case "call/return ras" `Quick test_call_return_ras;
        ] );
      ( "purge",
        [
          Alcotest.test_case "flush on trap" `Quick test_flush_on_trap_purges;
          Alcotest.test_case "flush slower" `Quick test_flush_slower_than_base;
          Alcotest.test_case "purge resets state" `Quick
            test_purge_resets_predictor_state;
          Alcotest.test_case "save/restore extension" `Quick
            test_save_restore_reduces_flush_cost;
        ] );
      ("nonspec", [ Alcotest.test_case "serializes" `Quick test_nonspec_serializes ]);
      ("invariants", [ QCheck_alcotest.to_alcotest prop_rename_invariants ]);
    ]

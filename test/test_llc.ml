(* Tests for the coherent memory hierarchy: L1s + LLC (Figures 2 and 3)
   + DRAM, driven directly with line requests. *)

open Mi6_util
open Mi6_coherence
open Mi6_cache
open Mi6_llc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let const_dram = Hierarchy.Const_dram { latency = 120; max_outstanding = 24 }

let make ?(cores = 2) ?(security = Llc.baseline_security) ?(llc_mshrs = 16)
    ?(mshr_banks = 1) ?(index = Index.flat ~set_bits:10) () =
  let stats = Stats.create () in
  let llc_cfg =
    {
      (Llc.default_config ~cores) with
      Llc.mshrs = llc_mshrs;
      mshr_banks;
      index;
    }
  in
  let h =
    Hierarchy.create ~llc:llc_cfg ~security ~dram:const_dram ~stats ()
  in
  (h, stats)

(* Issue a single request and run until it completes; returns latency. *)
let timed_access h ~core ~line ~store ~id =
  Hierarchy.request h ~core ~line ~store ~id;
  let issued = Hierarchy.now h in
  let rec wait budget =
    if budget = 0 then Alcotest.fail "request never completed";
    Hierarchy.tick h;
    match Hierarchy.take_completions h ~core with
    | [] -> wait (budget - 1)
    | [ (got, at) ] ->
      check_int "completion id" id got;
      at - issued
    | _ -> Alcotest.fail "unexpected extra completions"
  in
  wait 2000

let test_cold_miss_then_hit () =
  let h, stats = make () in
  let miss_lat = timed_access h ~core:0 ~line:100 ~store:false ~id:1 in
  check_bool
    (Printf.sprintf "miss latency %d covers DRAM" miss_lat)
    true
    (miss_lat >= 120 && miss_lat <= 160);
  let hit_lat = timed_access h ~core:0 ~line:100 ~store:false ~id:2 in
  check_bool (Printf.sprintf "hit latency %d is small" hit_lat) true (hit_lat <= 4);
  check_int "one llc miss" 1 (Stats.get stats "llc.misses");
  check_int "one l1 hit" 1 (Stats.get stats "l1.0.hits")

let test_second_core_miss_hits_llc () =
  let h, _ = make () in
  ignore (timed_access h ~core:0 ~line:7 ~store:false ~id:1);
  (* Core 1 misses its L1 but hits the LLC: much faster than DRAM. *)
  let lat = timed_access h ~core:1 ~line:7 ~store:false ~id:2 in
  check_bool (Printf.sprintf "llc hit latency %d" lat) true
    (lat > 4 && lat < 60)

let test_store_gives_m_state () =
  let h, _ = make () in
  ignore (timed_access h ~core:0 ~line:3 ~store:true ~id:1);
  check_bool "l1 holds M" true (L1.probe (Hierarchy.l1 h ~core:0) ~line:3 = Msi.M);
  check_bool "llc has line" true (Llc.probe (Hierarchy.llc h) ~line:3)

let test_read_downgrades_owner () =
  let h, stats = make () in
  ignore (timed_access h ~core:0 ~line:3 ~store:true ~id:1);
  ignore (timed_access h ~core:1 ~line:3 ~store:false ~id:2);
  check_bool "owner downgraded to S" true
    (L1.probe (Hierarchy.l1 h ~core:0) ~line:3 = Msi.S);
  check_bool "reader has S" true
    (L1.probe (Hierarchy.l1 h ~core:1) ~line:3 = Msi.S);
  check_bool "a downgrade was sent" true
    (Stats.get stats "llc.downgrades_sent" >= 1);
  check_bool "dirty data written back to LLC" true
    (Stats.get stats "l1.0.writebacks" >= 1)

let test_write_invalidates_sharers () =
  let h, _ = make () in
  ignore (timed_access h ~core:0 ~line:3 ~store:false ~id:1);
  ignore (timed_access h ~core:1 ~line:3 ~store:false ~id:2);
  ignore (timed_access h ~core:0 ~line:3 ~store:true ~id:3);
  check_bool "writer has M" true
    (L1.probe (Hierarchy.l1 h ~core:0) ~line:3 = Msi.M);
  check_bool "sharer invalidated" true
    (L1.probe (Hierarchy.l1 h ~core:1) ~line:3 = Msi.I)

let test_l1_eviction_keeps_llc () =
  let h, stats = make () in
  (* L1: 64 sets, 8 ways.  Nine lines mapping to L1 set 0 force one
     eviction; the LLC (1024 sets) keeps them all. *)
  for k = 0 to 8 do
    ignore (timed_access h ~core:0 ~line:(k * 64 * 1024) ~store:false ~id:k)
  done;
  check_bool "l1 evicted something" true (Stats.get stats "l1.0.evictions" >= 1);
  let llc = Hierarchy.llc h in
  for k = 0 to 8 do
    check_bool "llc still holds line" true (Llc.probe llc ~line:(k * 64 * 1024))
  done

let test_llc_replacement_evicts () =
  let h, stats = make () in
  (* 17 lines mapping to LLC set 0 (stride 1024 lines) force one LLC
     replacement; the replaced line must also leave the (inclusive) L1. *)
  for k = 0 to 16 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:false ~id:k)
  done;
  check_bool "llc replaced a line" true (Stats.get stats "llc.replacements" >= 1);
  let llc = Hierarchy.llc h in
  let present = ref 0 in
  let l1_present = ref 0 in
  for k = 0 to 16 do
    if Llc.probe llc ~line:(k * 1024) then incr present;
    if L1.probe (Hierarchy.l1 h ~core:0) ~line:(k * 1024) <> Msi.I then
      incr l1_present
  done;
  check_int "exactly 16 of 17 in llc" 16 !present;
  check_bool "inclusion: L1 subset of LLC" true (!l1_present <= !present)

let test_dirty_llc_victim_written_back () =
  let h, stats = make () in
  (* Dirty a line in the LLC (store, then L1-evict it via L1-set conflicts
     so the dirty data lands in the LLC), then force an LLC replacement of
     that line. *)
  ignore (timed_access h ~core:0 ~line:0 ~store:true ~id:0);
  for k = 1 to 8 do
    (* Same L1 set (stride 64), different LLC sets. *)
    ignore (timed_access h ~core:0 ~line:(k * 64) ~store:false ~id:k)
  done;
  (* Now thrash LLC set 0 (stride 1024 lines = same LLC set): the dirty
     line 0 is either already dirty in the LLC (L1-evicted) or still M in
     the L1, in which case the victim downgrade collects the dirty data —
     both paths end in a DRAM write. *)
  (* Store to every conflicting line so each LLC victim is dirty: the
     first replacement must produce a DRAM write regardless of which way
     the pseudo-random policy picks. *)
  for k = 1 to 20 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:true ~id:(100 + k))
  done;
  check_bool "dram saw a write" true (Stats.get stats "dram.writes" >= 1)

let test_mshr_merge () =
  let h, stats = make () in
  Hierarchy.request h ~core:0 ~line:42 ~store:false ~id:1;
  Hierarchy.tick h;
  (* Second request to the same line while the miss is outstanding. *)
  Hierarchy.request h ~core:0 ~line:42 ~store:false ~id:2;
  let done_ids = ref [] in
  for _ = 1 to 400 do
    Hierarchy.tick h;
    List.iter
      (fun (id, _) -> done_ids := id :: !done_ids)
      (Hierarchy.take_completions h ~core:0)
  done;
  Alcotest.(check (list int)) "both ids complete" [ 1; 2 ]
    (List.sort compare !done_ids);
  check_int "only one llc miss" 1 (Stats.get stats "llc.misses");
  check_bool "merge counted" true (Stats.get stats "l1.0.mshr_merges" >= 1)

let test_llc_mshr_exhaustion_stalls () =
  (* Tiny LLC MSHR file: parallel misses from both cores must hit
     allocation stalls but still all complete. *)
  let h, stats = make ~llc_mshrs:2 () in
  for k = 0 to 5 do
    Hierarchy.request h ~core:0 ~line:(1000 + (k * 1024)) ~store:false ~id:k;
    Hierarchy.request h ~core:1 ~line:(5000 + (k * 1024)) ~store:false
      ~id:(10 + k);
    Hierarchy.tick h
  done;
  ignore (Hierarchy.run_until_quiescent h ~max_cycles:5000);
  check_bool "allocation stalls observed" true
    (Stats.get stats "llc.mshr_alloc_stalls" > 0);
  let c0 = Hierarchy.take_completions h ~core:0 in
  let c1 = Hierarchy.take_completions h ~core:1 in
  check_int "all core0 requests completed" 6 (List.length c0);
  check_int "all core1 requests completed" 6 (List.length c1)

let test_banked_mshr_strict_stall () =
  let h, stats = make ~cores:1 ~llc_mshrs:4 ~mshr_banks:4 () in
  (* All requests map to bank 0 (sets ≡ 0 mod 4): only 1 MSHR usable, and
     with strict stall any full bank freezes allocation. *)
  for k = 0 to 5 do
    Hierarchy.request h ~core:0 ~line:(k * 4096) ~store:false ~id:k;
    Hierarchy.tick h;
    Hierarchy.tick h
  done;
  ignore (Hierarchy.run_until_quiescent h ~max_cycles:8000);
  check_bool "bank conflicts stall allocation" true
    (Stats.get stats "llc.mshr_alloc_stalls" > 0);
  check_int "all done" 6 (List.length (Hierarchy.take_completions h ~core:0))

let test_secure_dq_retry_path () =
  let h, stats = make ~security:Llc.mi6_security ~cores:2 () in
  (* Make LLC set 0 full of dirty lines, then evict: every replacement of
     a dirty victim must go through the one-cycle-dequeue retry path. *)
  for k = 0 to 15 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:true ~id:k)
  done;
  (* L1 evictions push dirty data to LLC; now force LLC replacements. *)
  for k = 16 to 24 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:false ~id:k)
  done;
  check_bool "retry path exercised" true (Stats.get stats "llc.dq_retries" >= 1);
  check_int "baseline double-dequeue never used" 0
    (Stats.get stats "llc.dq_double_dequeues")

let test_baseline_dq_double_dequeue () =
  let h, stats = make ~security:Llc.baseline_security ~cores:2 () in
  for k = 0 to 15 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:true ~id:k)
  done;
  for k = 16 to 24 do
    ignore (timed_access h ~core:0 ~line:(k * 1024) ~store:false ~id:k)
  done;
  check_bool "double dequeue exercised" true
    (Stats.get stats "llc.dq_double_dequeues" >= 1);
  check_int "no retries in baseline" 0 (Stats.get stats "llc.dq_retries")

let test_rr_arbiter_idle_slots () =
  let h, stats = make ~security:Llc.mi6_security ~cores:2 () in
  ignore (timed_access h ~core:0 ~line:9 ~store:false ~id:1);
  (* With two cores and only core 0 active, about half the slots idle. *)
  check_bool "idle slots counted" true (Stats.get stats "llc.arb_idle_slots" > 0)

let test_invalidate_region () =
  let geometry = Mi6_mem.Addr.default_regions in
  let h, _ = make ~cores:2 () in
  let region_lines = geometry.Mi6_mem.Addr.region_bytes / 64 in
  (* Line in region 0 and line in region 1. *)
  ignore (timed_access h ~core:0 ~line:5 ~store:false ~id:1);
  ignore (timed_access h ~core:0 ~line:(region_lines + 5) ~store:false ~id:2);
  let llc = Hierarchy.llc h in
  (* A line still shared by an L1 must make the scrub fail. *)
  (try
     Llc.invalidate_region llc ~geometry ~region:0;
     Alcotest.fail "expected failure: line still in L1"
   with Failure _ -> ());
  (* Purge the L1 so nothing is shared, then scrub region 0. *)
  let l1 = Hierarchy.l1 h ~core:0 in
  L1.begin_flush l1;
  let rec drain budget =
    if budget = 0 then Alcotest.fail "flush did not finish";
    let finished = L1.flush_step l1 in
    Hierarchy.tick h;
    if not finished then drain (budget - 1)
  in
  drain 10_000;
  ignore (Hierarchy.run_until_quiescent h ~max_cycles:1000);
  Llc.invalidate_region llc ~geometry ~region:0;
  check_bool "region-0 line gone" false (Llc.probe llc ~line:5);
  check_bool "region-1 line kept" true (Llc.probe llc ~line:(region_lines + 5))

let test_determinism () =
  let run () =
    let h, _ = make ~security:Llc.mi6_security () in
    let trace = ref [] in
    let rng = Rng.of_int 77 in
    for i = 0 to 50 do
      if Hierarchy.can_accept h ~core:0 then
        Hierarchy.request h ~core:0
          ~line:(Rng.int rng 4096)
          ~store:(Rng.bool rng ~p:0.3) ~id:i;
      Hierarchy.tick h;
      List.iter
        (fun (id, at) -> trace := (id, at) :: !trace)
        (Hierarchy.take_completions h ~core:0)
    done;
    ignore (Hierarchy.run_until_quiescent h ~max_cycles:10_000);
    List.iter
      (fun (id, at) -> trace := (id, at) :: !trace)
      (Hierarchy.take_completions h ~core:0);
    !trace
  in
  check_bool "two identical runs produce identical completion traces" true
    (run () = run ())

(* Liveness + exactly-once completion under random two-core traffic. *)
let prop_random_traffic_completes =
  QCheck.Test.make ~name:"random traffic: every request completes exactly once"
    ~count:30
    QCheck.(pair int (int_range 1 60))
    (fun (seed, nreqs) ->
      let h, _ = make ~security:Llc.mi6_security () in
      let rng = Rng.of_int seed in
      let issued = Array.make 2 0 in
      let completed = Hashtbl.create 64 in
      let next_id = ref 0 in
      while issued.(0) < nreqs || issued.(1) < nreqs do
        for core = 0 to 1 do
          if issued.(core) < nreqs && Hierarchy.can_accept h ~core then begin
            let id = !next_id in
            incr next_id;
            (* Small line pool to provoke conflicts and coherence. *)
            Hierarchy.request h ~core
              ~line:(Rng.int rng 64 * 1024)
              ~store:(Rng.bool rng ~p:0.4)
              ~id;
            issued.(core) <- issued.(core) + 1
          end
        done;
        Hierarchy.tick h;
        for core = 0 to 1 do
          List.iter
            (fun (id, _) ->
              if Hashtbl.mem completed id then failwith "duplicate completion";
              Hashtbl.add completed id ())
            (Hierarchy.take_completions h ~core)
        done
      done;
      ignore (Hierarchy.run_until_quiescent h ~max_cycles:100_000);
      for core = 0 to 1 do
        List.iter
          (fun (id, _) ->
            if Hashtbl.mem completed id then failwith "duplicate completion";
            Hashtbl.add completed id ())
          (Hierarchy.take_completions h ~core)
      done;
      Hashtbl.length completed = 2 * nreqs)

(* Inclusion: the LLC is inclusive of the L1s — any line valid in an L1
   must be present in the LLC, under arbitrary traffic. *)
let prop_inclusion =
  QCheck.Test.make ~name:"LLC inclusion invariant" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let h, _ = make () in
      let rng = Rng.of_int seed in
      let id = ref 0 in
      let lines = Array.init 64 (fun k -> (k mod 24) * 1024 * 3 / 3 + (k * 513)) in
      for _ = 1 to 150 do
        for core = 0 to 1 do
          if Hierarchy.can_accept h ~core then begin
            Hierarchy.request h ~core
              ~line:lines.(Rng.int rng 64)
              ~store:(Rng.bool rng ~p:0.4)
              ~id:!id;
            incr id
          end
        done;
        Hierarchy.tick h
      done;
      ignore (Hierarchy.run_until_quiescent h ~max_cycles:100_000);
      Array.for_all
        (fun line ->
          let in_l1 =
            L1.probe (Hierarchy.l1 h ~core:0) ~line <> Msi.I
            || L1.probe (Hierarchy.l1 h ~core:1) ~line <> Msi.I
          in
          (not in_l1) || Llc.probe (Hierarchy.llc h) ~line)
        lines)

(* Coherence safety: after quiescence, at most one core holds any line in
   M, and M excludes other sharers. *)
let prop_msi_invariant =
  QCheck.Test.make ~name:"MSI single-writer invariant" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let h, _ = make () in
      let rng = Rng.of_int seed in
      let id = ref 0 in
      for _ = 1 to 120 do
        for core = 0 to 1 do
          if Hierarchy.can_accept h ~core then begin
            Hierarchy.request h ~core
              ~line:(Rng.int rng 16 * 1024)
              ~store:(Rng.bool rng ~p:0.5)
              ~id:!id;
            incr id
          end
        done;
        Hierarchy.tick h
      done;
      ignore (Hierarchy.run_until_quiescent h ~max_cycles:100_000);
      let ok = ref true in
      for k = 0 to 15 do
        let line = k * 1024 in
        let s0 = L1.probe (Hierarchy.l1 h ~core:0) ~line in
        let s1 = L1.probe (Hierarchy.l1 h ~core:1) ~line in
        if not (Msi.compatible s0 s1) then ok := false
      done;
      !ok)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Allocation guards                                                   *)
(* ------------------------------------------------------------------ *)

(* An idle cycle must allocate nothing: no closures, options, lists or
   strings built per tick.  The components are wired the way
   [Tmachine.create] wires them, from the public constructors. *)
module Config = Mi6_core.Config
module Controller = Mi6_dram.Controller

let idle_rig (timing : Config.timing) =
  let stats = Stats.create () in
  let links =
    Array.init timing.Config.llc.Llc.cores (fun _ -> Link.create ~depth:4)
  in
  let dram =
    Controller.constant ~latency:timing.Config.dram_latency
      ~max_outstanding:timing.Config.dram_outstanding ~stats ()
  in
  let llc =
    Llc.create timing.Config.llc ~security:timing.Config.llc_security ~links
      ~dram ~stats
  in
  let l1 = L1.create timing.Config.l1 ~link:links.(0) ~stats ~name:"l1d.0" in
  (llc, l1)

let idle_ticks = 10_000

let test_idle_ticks_allocate_nothing (name, timing) () =
  let llc, l1 = idle_rig timing in
  let w0 = Gc.minor_words () in
  for now = 0 to idle_ticks - 1 do
    Llc.tick llc ~now
  done;
  let w1 = Gc.minor_words () in
  for now = 0 to idle_ticks - 1 do
    L1.tick l1 ~now ~complete:ignore
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.)) (name ^ ": idle Llc.tick words") 0. (w1 -. w0);
  Alcotest.(check (float 0.)) (name ^ ": idle L1.tick words") 0. (w2 -. w1)

let alloc_configs =
  [
    ("F+P+M+A", Config.timing ~cores:1 Config.Fpma);
    ("BASE", Config.timing ~cores:1 Config.Base);
    ("secure 2-core", Config.secure_multicore ~cores:2);
  ]

(* A busy cycle allocates nothing either.  A one-core machine runs an
   L1-resident loop of two loads (the second on the line the store
   writes), a store, ALU ops and a taken backward branch, from µops built
   once; the warm-up trains the predictors and fills the caches, TLBs and
   event-wheel buckets.  Only the stream could allocate, and this one
   does not. *)
module Uop = Mi6_ooo.Uop
module Tmachine = Mi6_core.Tmachine

let busy_loop =
  let code = 0x10000 and data = 0x200000 in
  let pc i = code + (4 * i) in
  [|
    Uop.load ~pc:(pc 0) ~addr:data ~dst:5 ~srcs:[ 6 ] ();
    Uop.alu ~pc:(pc 1) ~dst:6 ~srcs:[ 5; 6 ] ();
    Uop.store ~pc:(pc 2) ~addr:(data + 64) ~srcs:[ 6; 7 ] ();
    Uop.alu ~pc:(pc 3) ~dst:7 ~srcs:[ 7 ] ();
    Uop.load ~pc:(pc 4) ~addr:(data + 64) ~dst:8 ~srcs:[ 7 ] ();
    Uop.alu ~latency:3 ~pc:(pc 5) ~dst:9 ~srcs:[ 8; 5 ] ();
    Uop.branch ~pc:(pc 6) ~taken:true ~target:(pc 0) ~srcs:[ 9 ] ();
  |]

let busy_warmup = 20_000

let test_busy_ticks_allocate_nothing variant () =
  let uops = Array.map Option.some busy_loop in
  let next = ref 0 in
  let stream () =
    let u = uops.(!next) in
    next := (!next + 1) mod Array.length uops;
    u
  in
  let m =
    Tmachine.create
      (Config.timing ~cores:1 variant)
      ~streams:[| stream |] ~stats:(Stats.create ())
  in
  for _ = 1 to busy_warmup do
    Tmachine.tick m
  done;
  let c0 = Tmachine.committed m in
  let w0 = Gc.minor_words () in
  for _ = 1 to idle_ticks do
    Tmachine.tick m
  done;
  let w1 = Gc.minor_words () in
  let name = Config.variant_name variant in
  check_bool (name ^ ": loop commits") true (Tmachine.committed m - c0 > idle_ticks / 2);
  Alcotest.(check (float 0.)) (name ^ ": busy Tmachine.tick words") 0. (w1 -. w0)

(* Only the constant-latency controller describes its state; the
   reordering one (the DRAM-bank channel demonstration) refuses rather
   than hand back state it does not capture. *)
let test_reordering_controller_refuses_state () =
  let stats = Stats.create () in
  let reorder = Controller.reordering Mi6_dram.Fr_fcfs.default_config ~stats in
  let const = Controller.constant ~latency:120 ~max_outstanding:24 ~stats () in
  let refuses f =
    Alcotest.check_raises "state"
      (Invalid_argument "Controller.state: reordering controller")
      f
  in
  refuses (fun () -> ignore (Statesig.hash (Controller.state reorder)));
  refuses (fun () -> ignore (Statesig.render (Controller.state reorder)));
  Alcotest.(check string) "constant controller renders" "dram.q=0[]"
    (Statesig.render (Controller.state const))

let () =
  Alcotest.run "mi6_llc"
    [
      ( "basic",
        [
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "llc hit from second core" `Quick
            test_second_core_miss_hits_llc;
          Alcotest.test_case "store gives M" `Quick test_store_gives_m_state;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "read downgrades owner" `Quick
            test_read_downgrades_owner;
          Alcotest.test_case "write invalidates sharers" `Quick
            test_write_invalidates_sharers;
          Alcotest.test_case "l1 eviction keeps llc" `Quick
            test_l1_eviction_keeps_llc;
          Alcotest.test_case "llc replacement" `Quick test_llc_replacement_evicts;
          Alcotest.test_case "dirty victim writeback" `Quick
            test_dirty_llc_victim_written_back;
        ] );
      ( "mshr",
        [
          Alcotest.test_case "merge to one miss" `Quick test_mshr_merge;
          Alcotest.test_case "exhaustion stalls" `Quick
            test_llc_mshr_exhaustion_stalls;
          Alcotest.test_case "strict bank stall" `Quick
            test_banked_mshr_strict_stall;
        ] );
      ( "security_structures",
        [
          Alcotest.test_case "secure dq retry" `Quick test_secure_dq_retry_path;
          Alcotest.test_case "baseline double dequeue" `Quick
            test_baseline_dq_double_dequeue;
          Alcotest.test_case "rr arbiter idles" `Quick test_rr_arbiter_idle_slots;
          Alcotest.test_case "invalidate region" `Quick test_invalidate_region;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "reordering controller refuses state" `Quick
            test_reordering_controller_refuses_state;
        ] );
      ( "properties",
        qsuite
          [ prop_random_traffic_completes; prop_msi_invariant; prop_inclusion ]
      );
      ( "alloc",
        List.map
          (fun ((name, _) as cfg) ->
            Alcotest.test_case ("idle ticks allocate nothing: " ^ name) `Quick
              (test_idle_ticks_allocate_nothing cfg))
          alloc_configs
        @ List.map
            (fun variant ->
              Alcotest.test_case
                ("busy core loop allocates nothing: "
                ^ Config.variant_name variant)
                `Quick
                (test_busy_ticks_allocate_nothing variant))
            [ Config.Base; Config.Fpma ] );
    ]

(* Tests for the coherent memory hierarchy: L1s + LLC (Figures 2 and 3)
   + DRAM, driven directly with line requests. *)

open Mi6_util
open Mi6_coherence
open Mi6_cache
open Mi6_llc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Config = Mi6_core.Config
module Controller = Mi6_dram.Controller
module Hierarchy = Mi6_core.Hierarchy

(* A BASE-timing hierarchy with [cores] LLC ports and the given LLC. *)
let make ?(cores = 2) ?(security = Llc.baseline_security) ?(llc_mshrs = 16)
    ?(mshr_banks = 1) ?(index = Index.flat ~set_bits:10) () =
  let stats = Stats.create () in
  let base = Config.timing ~cores:1 Config.Base in
  let timing =
    {
      base with
      Config.llc =
        { base.Config.llc with Llc.cores; mshrs = llc_mshrs; mshr_banks; index };
      llc_security = security;
    }
  in
  (Hierarchy.create timing ~stats, stats)

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
  check_int "one l1 hit" 1 (Stats.get stats "l1d.0.hits")

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
    (Stats.get stats "l1d.0.writebacks" >= 1)

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
  check_bool "l1 evicted something" true (Stats.get stats "l1d.0.evictions" >= 1);
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
  check_bool "merge counted" true (Stats.get stats "l1d.0.mshr_merges" >= 1)

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

(* Port 2i is core i's data L1 and port 2i + 1 its instruction L1.  A
   connected port hands its sink what [take_completions] would have
   returned, stamped with the same cycle, and leaves nothing to take. *)
let test_ports_and_connect () =
  let fresh () =
    Hierarchy.create (Config.timing ~cores:2 Config.Base)
      ~stats:(Stats.create ())
  in
  let h = fresh () and plain = fresh () in
  Alcotest.(check (list string)) "L1 names in port order"
    [ "l1d.0"; "l1i.0"; "l1d.1"; "l1i.1" ]
    (List.init 4 (fun core -> L1.name (Hierarchy.l1 h ~core)));
  let sunk = ref [] in
  Hierarchy.connect h ~core:2 (fun id -> sunk := (id, Hierarchy.now h) :: !sunk);
  List.iter
    (fun h ->
      Hierarchy.request h ~core:2 ~line:100 ~store:false ~id:7;
      ignore (Hierarchy.run_until_quiescent h ~max_cycles:2000))
    [ h; plain ];
  let completions = Alcotest.(list (pair int int)) in
  Alcotest.check completions "sink gets the unconnected port's completions"
    (Hierarchy.take_completions plain ~core:2)
    !sunk;
  check_int "one completion" 1 (List.length !sunk);
  Alcotest.check completions "nothing left to take" []
    (Hierarchy.take_completions h ~core:2)

(* Pending cores and sharers are int bitmasks, one bit per port: 62
   ports fit, 63 do not. *)
let test_port_limit () =
  let build cores =
    let stats = Stats.create () in
    let cfg = { (Llc.default_config ~cores) with Llc.mshrs = 2 * cores } in
    let links = Array.init cores (fun _ -> Link.create ~depth:4) in
    let dram = Controller.constant ~latency:120 ~max_outstanding:24 ~stats () in
    ignore (Llc.create cfg ~security:Llc.mi6_security ~links ~dram ~stats)
  in
  build Llc.max_ports;
  Alcotest.check_raises "63 ports"
    (Invalid_argument "Llc.create: 63 ports, at most 62")
    (fun () -> build (Llc.max_ports + 1))

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

(* The flat MSHR files keep derived counts, queue contents and way locks
   in step by hand; [check_invariants] recounts them.  Random two-core
   traffic on a small line pool (two LLC sets' worth of conflicting
   lines, all in one L1 set) provokes replacements, parked entries,
   downgrades and retries; both checkers run at random stop cycles, while
   requests arrive and while the hierarchy drains, and once it has. *)
let bookkeeping_configs =
  [|
    ("BASE", fun () -> make ());
    ("MI6", fun () -> make ~security:Llc.mi6_security ());
    ("MISS banks", fun () -> make ~llc_mshrs:12 ~mshr_banks:4 ());
  |]

let check_bookkeeping h ~config =
  let check = function
    | Ok () -> ()
    | Error msg ->
      QCheck.Test.fail_reportf "%s, cycle %d: %s" config (Hierarchy.now h) msg
  in
  check (Llc.check_invariants (Hierarchy.llc h));
  check (L1.check_invariants (Hierarchy.l1 h ~core:0));
  check (L1.check_invariants (Hierarchy.l1 h ~core:1))

let prop_bookkeeping =
  QCheck.Test.make ~name:"MSHR bookkeeping matches a recount" ~count:30
    QCheck.(triple (int_range 0 2) int (int_range 50 800))
    (fun (cfg, seed, ticks) ->
      let config, make_h = bookkeeping_configs.(cfg) in
      let h, _ = make_h () in
      let rng = Rng.of_int seed in
      let id = ref 0 in
      let tick () =
        Hierarchy.tick h;
        if Rng.bool rng ~p:0.25 then check_bookkeeping h ~config
      in
      for _ = 1 to ticks do
        for core = 0 to 1 do
          if Hierarchy.can_accept h ~core && Rng.bool rng ~p:0.5 then begin
            Hierarchy.request h ~core
              ~line:((Rng.int rng 40 * 1024) + Rng.int rng 4)
              ~store:(Rng.bool rng ~p:0.4) ~id:!id;
            incr id
          end
        done;
        tick ()
      done;
      let drain = ref 100_000 in
      while not (Hierarchy.quiescent h) do
        if !drain = 0 then QCheck.Test.fail_reportf "%s: no quiescence" config;
        decr drain;
        tick ()
      done;
      check_bookkeeping h ~config;
      true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Allocation guards                                                   *)
(* ------------------------------------------------------------------ *)

(* An idle cycle must allocate nothing: no closures, options, lists or
   strings built per tick. *)
let idle_ticks = 10_000

let test_idle_ticks_allocate_nothing (name, timing) () =
  let h = Hierarchy.create timing ~stats:(Stats.create ()) in
  let llc = Hierarchy.llc h and l1 = Hierarchy.l1 h ~core:0 in
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

(* A whole idle hierarchy too: the L1 completion sinks are built once,
   not per tick. *)
let test_idle_hierarchy_allocates_nothing () =
  let h, _ = make ~security:Llc.mi6_security () in
  let w0 = Gc.minor_words () in
  for _ = 1 to idle_ticks do
    Hierarchy.tick h
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "idle Hierarchy.tick words" 0. (w1 -. w0)

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
module Core = Mi6_ooo.Core

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

(* Waiting out a purge floor allocates nothing either.  A one-core
   F+P+M+A machine runs a few ALU µops into a trap; once the core waits
   out the floor, every tick until the floor ends is measured. *)
let test_floor_wait_allocates_nothing () =
  let code = 0x10000 in
  let uops =
    Array.map Option.some
      (Array.append
         (Array.init 8 (fun i -> Uop.alu ~pc:(code + (4 * i)) ~dst:5 ~srcs:[] ()))
         [| { Uop.pc = code + 32; kind = Uop.Enter_kernel; dst = None; srcs = [] } |])
  in
  let next = ref 0 in
  let stream () =
    if !next = Array.length uops then None
    else begin
      let u = uops.(!next) in
      incr next;
      u
    end
  in
  let m =
    Tmachine.create
      (Config.timing ~cores:1 Config.Fpma)
      ~streams:[| stream |] ~stats:(Stats.create ())
  in
  let core = Tmachine.core m 0 in
  while Core.floor_end core <= Tmachine.now m && Tmachine.now m < 10_000 do
    Tmachine.tick m
  done;
  let floor_end = Core.floor_end core in
  check_bool "the core waits out a floor" true
    (floor_end - Tmachine.now m > 100);
  let w0 = Gc.minor_words () in
  while Tmachine.now m < floor_end do
    Tmachine.tick m
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "floor-wait Tmachine.tick words" 0. (w1 -. w0)

(* A machine is built twice per noninterference check, so its arrays
   are a per-check cost: words allocated straight into the major heap
   (allocated minus promoted) by a one-core F+P+M+A [Tmachine.create]. *)
let test_create_major_words () =
  let timing = Config.timing ~cores:1 Config.Fpma and stats = Stats.create () in
  let _, p0, j0 = Gc.counters () in
  let m =
    Tmachine.create timing ~streams:[| (fun () -> None) |] ~stats
  in
  let _, p1, j1 = Gc.counters () in
  ignore (Sys.opaque_identity m);
  let words = j1 -. j0 -. (p1 -. p0) in
  check_bool
    (Printf.sprintf "%.0f direct major words (at most 38,157)" words)
    true (words <= 38_157.)

(* The miss path allocates only the request record each DRAM command
   passes to [Controller.accept].  A warmed one-core machine runs a loop
   of independent loads, from µops built once, over a 2 MB line window:
   twice the LLC, so the LLC keeps missing, yet half the L2 TLB's reach
   (256 sets x 4 ways of 4 KB pages), so after the warm-up pass no page
   walk runs. *)
let miss_window_lines = 2 * 1024 * 1024 / 64
let loads_per_iter = 8

let miss_loop () =
  let code = 0x10000 and data = 0x400000 in
  let pc i = code + (4 * i) in
  Array.concat
    (List.init (miss_window_lines / loads_per_iter) (fun k ->
         Array.append
           (Array.init loads_per_iter (fun j ->
                Uop.load ~pc:(pc j)
                  ~addr:(data + (64 * ((k * loads_per_iter) + j)))
                  ~dst:(5 + j) ~srcs:[ 20 ] ()))
           [| Uop.branch ~pc:(pc loads_per_iter) ~taken:true ~target:(pc 0)
                ~srcs:[] () |]))

let test_miss_path_allocation variant () =
  let uops = Array.map Option.some (miss_loop ()) in
  let next = ref 0 in
  let stream () =
    let u = uops.(!next) in
    next := (!next + 1) mod Array.length uops;
    u
  in
  let stats = Stats.create () in
  let m =
    Tmachine.create (Config.timing ~cores:1 variant) ~streams:[| stream |] ~stats
  in
  (* One pass fills the TLBs; the measured window starts in the second. *)
  while Tmachine.committed m < Array.length uops + 1000 do
    Tmachine.tick m
  done;
  let base = Stats.copy stats in
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Tmachine.tick m
  done;
  let w1 = Gc.minor_words () in
  let d = Stats.diff stats ~baseline:base in
  let get = Stats.get d in
  let name = Config.variant_name variant in
  let commands = get "dram.reads" + get "dram.writes" in
  check_bool (name ^ ": the LLC misses") true (get "llc.misses" > 0);
  check_bool
    (Printf.sprintf "%s: %.0f words for %d DRAM commands (at most 4 each)" name
       (w1 -. w0) commands)
    true
    (w1 -. w0 <= 4. *. float_of_int commands)

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
          Alcotest.test_case "ports and connect" `Quick test_ports_and_connect;
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
          Alcotest.test_case "port limit" `Quick test_port_limit;
        ] );
      ( "properties",
        qsuite
          [
            prop_random_traffic_completes;
            prop_msi_invariant;
            prop_inclusion;
            prop_bookkeeping;
          ] );
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
            [ Config.Base; Config.Fpma ]
        @ [
            Alcotest.test_case "idle Hierarchy ticks allocate nothing" `Quick
              test_idle_hierarchy_allocates_nothing;
            Alcotest.test_case "purge-floor wait allocates nothing" `Quick
              test_floor_wait_allocates_nothing;
            Alcotest.test_case "Tmachine.create major-heap words" `Quick
              test_create_major_words;
          ]
        @ List.map
            (fun variant ->
              Alcotest.test_case
                ("LLC miss path allocates one request per DRAM command: "
                ^ Config.variant_name variant)
                `Quick
                (test_miss_path_allocation variant))
            [ Config.Base; Config.Fpma ] );
    ]

(* Golden-run anchors: short runs whose cycle and instruction counts and
   full counter table are pinned to the values the timing model produced
   before its hot paths were reworked.  Any change to the tick paths
   must leave every simulated bit alone; these runs cover each variant's
   LLC configuration, the OoO core on a high-IPC model, and the
   two-core secure machine, the only path that exercises the round-robin
   arbiter, the split UQ and the DQ retry. *)

open Mi6_util
open Mi6_core
module Spec = Mi6_workload.Spec

let warmup = 5_000
let measure = 20_000

(* MD5 of the counter table, one "name=value" line per counter. *)
let digest stats =
  let b = Buffer.create 1024 in
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%d\n" k v) (Stats.to_assoc stats);
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_run label (r : Tmachine.result) ~cycles ~instrs ~md5 =
  Alcotest.(check int) (label ^ " cycles") cycles r.Tmachine.cycles;
  Alcotest.(check int) (label ^ " instrs") instrs r.Tmachine.instrs;
  Alcotest.(check string) (label ^ " counters") md5 (digest r.Tmachine.stats)

(* bench, variant, measured cycles, measured instructions, counter MD5 *)
let spec_anchors =
  [
    (Spec.Mcf, Config.Base, 78881, 19999, "25a6c5c9ce1a589567f18e3588850163");
    (Spec.Mcf, Config.Flush, 78881, 19999, "25a6c5c9ce1a589567f18e3588850163");
    (Spec.Mcf, Config.Part, 78881, 19999, "43d5cafc38f4b175153665f70e0a6107");
    (Spec.Mcf, Config.Miss, 83609, 19999, "8023d6892f06a0c569f857d405fd451e");
    (Spec.Mcf, Config.Arb, 88314, 19999, "0afa211166d7d7b5861c055a565d9700");
    (Spec.Mcf, Config.Nonspec, 267807, 19999, "6041a4165424b0c14918ee6c47036893");
    (Spec.Mcf, Config.Fpma, 93076, 19999, "094a7b9b658e58a2ff86fcfab0d1ff2e");
    (Spec.Hmmer, Config.Base, 30525, 20000, "bab3bde9ddfabf7d189f8e7a2a4ad4d6");
  ]

let spec_case (bench, variant, cycles, instrs, md5) =
  let label = Spec.name bench ^ "/" ^ Config.variant_name variant in
  Alcotest.test_case label `Quick (fun () ->
      check_run label
        (Tmachine.run_spec ~variant ~bench ~warmup ~measure ())
        ~cycles ~instrs ~md5)

(* Per-core windows of a two-core secure machine running gcc and mcf;
   the counter table is machine-wide, so both share one digest. *)
let multi_case =
  Alcotest.test_case "secure 2-core gcc+mcf" `Quick (fun () ->
      let rs =
        Tmachine.run_multi ~variant:Config.Mi6
          ~benches:[| Spec.Gcc; Spec.Mcf |] ~warmup ~measure ()
      in
      let md5 = "69b7fb163f659714460231cbf1e68b99" in
      check_run "core 0 (gcc)" rs.(0) ~cycles:77294 ~instrs:19999 ~md5;
      check_run "core 1 (mcf)" rs.(1) ~cycles:120601 ~instrs:20000 ~md5)

(* State-description anchors: the labelled dump every 97th cycle of a
   20,000-cycle run, and the quiet-cycle count the per-cycle signature
   yields over the same run.  Both come from the components' state folds,
   so a fold that renders or hashes one field differently moves one of
   the two numbers even when no simulated bit changes. *)
let dump_cycles = 20_000
let dump_every = 97

let dump_case label ~timing ~benches ~md5 ~quiet =
  Alcotest.test_case ("dump " ^ label) `Quick (fun () ->
      let occupancy = Mi6_obs.Occupancy.create () in
      let streams =
        Array.mapi
          (fun core bench ->
            Tmachine.spec_stream ~core ~bench ~limit:(warmup + measure) ())
          benches
      in
      let m =
        Tmachine.create ~occupancy timing ~streams ~stats:(Stats.create ())
      in
      let b = Buffer.create (1 lsl 20) in
      while Tmachine.now m < dump_cycles && not (Tmachine.finished m) do
        Tmachine.tick m;
        if Tmachine.now m mod dump_every = 0 then
          Buffer.add_string b (Tmachine.dump_state m)
      done;
      Alcotest.(check int) (label ^ " cycles run") dump_cycles (Tmachine.now m);
      Alcotest.(check string) (label ^ " dumps") md5
        (Digest.to_hex (Digest.string (Buffer.contents b)));
      Alcotest.(check int) (label ^ " quiet cycles") quiet
        (Mi6_obs.Occupancy.quiet_cycles occupancy))

let dump_anchors =
  [
    dump_case "mcf/BASE"
      ~timing:(Config.timing ~cores:1 Config.Base)
      ~benches:[| Spec.Mcf |] ~md5:"d3b5a38b4c0af12cc4b3232a747cce99"
      ~quiet:11338;
    dump_case "mcf/F+P+M+A"
      ~timing:(Config.timing ~cores:1 Config.Fpma)
      ~benches:[| Spec.Mcf |] ~md5:"ca1ba82f40684b36c887ae0ff9ba3908"
      ~quiet:10603;
    dump_case "secure 2-core gcc+mcf"
      ~timing:(Config.timing ~cores:2 Config.Mi6)
      ~benches:[| Spec.Gcc; Spec.Mcf |] ~md5:"8c7c7fd3fbb69a71078b3519a2737b3e"
      ~quiet:5698;
  ]

(* Purge-heavy anchors.  The spec anchors above hardly trap (mcf's
   FLUSH and BASE digests are equal), so these pin the trap and purge
   path: the cycles a core spends waiting out its purge floor, with
   their counters, CPI attribution, occupancy samples and, on the
   round-robin arbiter, the LLC's idle-slot events. *)

module Body = Mi6_progen.Body
module Trace = Mi6_obs.Trace
module Metrics = Mi6_obs.Metrics
module Json = Mi6_obs.Json
module Uop = Mi6_ooo.Uop

let md5 s = Digest.to_hex (Digest.string s)

(* Every buffered event as "cycle kind label", one per line. *)
let trace_digest tr =
  let b = Buffer.create (1 lsl 16) in
  Trace.iter tr (fun ~cycle ev ->
      Printf.bprintf b "%d %s %s\n" cycle (Trace.event_kind_name ev)
        (Trace.event_label ev));
  md5 (Buffer.contents b)

(* Interrupt schedules run once on their enclave body, fully traced, on
   F+P+M+A and on the one-core Figure 3 LLC (the only configuration
   whose idle LLC counts and traces a wasted round-robin slot every
   cycle).  Pinned: the observation and window bounds (one MD5), the
   event count, and an MD5 of every event. *)
let schedule_configs =
  [
    ("F+P+M+A", Config.timing ~cores:1 Config.Fpma);
    ("secure 1-core", Config.timing ~cores:1 Config.Mi6);
  ]

(* config, schedule, observation+bounds MD5, events, events MD5 *)
let schedule_anchors =
  [
    ( "F+P+M+A", "ni1:F+P+M+A:b0:i4=train,c50=sweep:probe",
      "af9ffd27d687ffc75f568425162d1a22", 789,
      "c4c7176a07a80dc9d2fd55c9d6d44a3b" );
    ( "F+P+M+A", "ni1:F+P+M+A:b16220:i2=stores,i38=train:train",
      "872b100dc405148da99921e85aa14d91", 565,
      "8251cfd134b087e0609f9a0989228ed9" );
    ( "F+P+M+A",
      "ni1:F+P+M+A:b40130:i4=train,i29=train,c3503=train,i60=probe:train",
      "e617dff12fd39045e949f7989b159762", 947,
      "eee35de40081e25d7c2a2c28fcb5769f" );
    ( "secure 1-core", "ni1:F+P+M+A:b0:i4=train,c50=sweep:probe",
      "eca064720ece8be1ae2e47715717f75f", 8042,
      "6fabb50360e51077102ae44269b4a5ee" );
    ( "secure 1-core", "ni1:F+P+M+A:b16220:i2=stores,i38=train:train",
      "020f746aaf4e9e22c76ed74334339d0a", 6002,
      "333ded79ed15d6ddc0c5f9d6e7282333" );
    ( "secure 1-core",
      "ni1:F+P+M+A:b40130:i4=train,i29=train,c3503=train,i60=probe:train",
      "6a4520c5067162a610844091ef02e836", 9642,
      "4b64b9bfc50a391d1814fdba18b08ada" );
  ]

let schedule_case (config, sched, obs_md5, events, events_md5) =
  let label = config ^ " " ^ sched in
  Alcotest.test_case label `Quick (fun () ->
      let s =
        match Schedule.of_string sched with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let tr = Trace.create ~capacity:(1 lsl 18) () in
      let obs, bounds =
        Schedule.run ~trace:tr
          ~timing:(List.assoc config schedule_configs)
          ~body:(Body.uops_of_seed s.Schedule.body_seed)
          s
      in
      let seen =
        Json.to_string (Schedule.observation_to_json obs)
        ^ String.concat ";"
            (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) bounds)
      in
      Alcotest.(check int) (label ^ " dropped events") 0 (Trace.dropped tr);
      Alcotest.(check string) (label ^ " observation and bounds") obs_md5
        (md5 seen);
      Alcotest.(check int) (label ^ " events") events (Trace.length tr);
      Alcotest.(check string) (label ^ " event digest") events_md5
        (trace_digest tr))

(* A spec stream with a trap pair every few hundred µops: [Enter_kernel]
   after 200..599 µops, [Exit_kernel] 20..119 µops later, drawn from
   [seed]. *)
let trapping_stream ~core ~bench ~seed ~limit =
  let spec = Tmachine.spec_stream ~core ~bench ~limit () in
  let rng = Rng.of_int seed in
  let left = ref (200 + Rng.int rng 400) and in_kernel = ref false in
  fun () ->
    decr left;
    if !left > 0 then spec ()
    else begin
      in_kernel := not !in_kernel;
      left := if !in_kernel then 20 + Rng.int rng 100 else 200 + Rng.int rng 400;
      let kind = if !in_kernel then Uop.Enter_kernel else Uop.Exit_kernel in
      Some { Uop.pc = 0x1000; kind; dst = None; srcs = [] }
    end

(* One-core trapping runs, measured from reset by [Tmachine.run_stream]
   with the occupancy observer on.  Pinned: cycles, instructions, the
   counter MD5, an MD5 of the full metrics export (the purge-duration,
   LLC-occupancy and occupancy-observer histograms and the quiet-cycle
   gauges by cause), and the quiet-cycle count. *)
let trap_limit = 12_000

let trap_case bench ~cycles ~instrs ~counters ~metrics ~quiet =
  let label = Spec.name bench ^ "/F+P+M+A" in
  Alcotest.test_case ("trapping " ^ label) `Quick (fun () ->
      let occupancy = Mi6_obs.Occupancy.create () in
      let r =
        Tmachine.run_stream ~occupancy
          ~timing:(Config.timing ~cores:1 Config.Fpma)
          ~stream:(trapping_stream ~core:0 ~bench ~seed:3 ~limit:trap_limit)
          ~warmup:0 ()
      in
      check_run label r ~cycles ~instrs ~md5:counters;
      Alcotest.(check string) (label ^ " metrics") metrics
        (md5 (Json.to_string (Metrics.to_json r.Tmachine.metrics)));
      Alcotest.(check int) (label ^ " quiet cycles") quiet
        (Mi6_obs.Occupancy.quiet_cycles occupancy))

(* Two trapping cores on the Figure 3 LLC: the machine idles only while
   both wait out a floor.  Pinned: cycles, instructions, the counter MD5,
   the labelled dump every 97th cycle and the quiet-cycle count. *)
let trap_multi_case ~cycles ~instrs ~counters ~dumps ~quiet =
  Alcotest.test_case "trapping secure 2-core gcc+mcf" `Quick (fun () ->
      let occupancy = Mi6_obs.Occupancy.create () in
      let stats = Stats.create () in
      let streams =
        Array.mapi
          (fun core bench ->
            trapping_stream ~core ~bench ~seed:(core + 3) ~limit:trap_limit)
          [| Spec.Gcc; Spec.Mcf |]
      in
      let m =
        Tmachine.create ~occupancy (Config.timing ~cores:2 Config.Mi6) ~streams
          ~stats
      in
      let b = Buffer.create (1 lsl 20) in
      while not (Tmachine.finished m) do
        Tmachine.tick m;
        if Tmachine.now m mod dump_every = 0 then
          Buffer.add_string b (Tmachine.dump_state m)
      done;
      Alcotest.(check int) "2-core cycles" cycles (Tmachine.now m);
      Alcotest.(check int) "2-core instrs" instrs (Tmachine.committed m);
      Alcotest.(check string) "2-core counters" counters (digest stats);
      Alcotest.(check string) "2-core dumps" dumps (md5 (Buffer.contents b));
      Alcotest.(check int) "2-core quiet cycles" quiet
        (Mi6_obs.Occupancy.quiet_cycles occupancy))

let trap_anchors =
  [
    trap_case Spec.Gcc ~cycles:82418 ~instrs:12052
      ~counters:"8b32d22eb43fb215af2340d31ea3c537"
      ~metrics:"43b2ece4ddba89f5192e56c6c3addd43" ~quiet:46238;
    trap_case Spec.Mcf ~cycles:111351 ~instrs:12052
      ~counters:"7117cac16eb5713b12ad9d7dd98b367f"
      ~metrics:"ba2dfda2132efa1c48ed0ef2434f7eec" ~quiet:64223;
    trap_multi_case ~cycles:121691 ~instrs:24100
      ~counters:"8edd1dc78759d12fb231d9a104130991"
      ~dumps:"850c5a53e67810ec2895301b52c84218" ~quiet:37913;
  ]

let () =
  Alcotest.run "mi6_golden"
    [ ("golden", List.map spec_case spec_anchors @ [ multi_case ]);
      ("dump", dump_anchors);
      ("purge-heavy", List.map schedule_case schedule_anchors @ trap_anchors) ]

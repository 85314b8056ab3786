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
        Tmachine.run_multi ~timing:(Config.secure_multicore ~cores:2)
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
      ~timing:(Config.secure_multicore ~cores:2)
      ~benches:[| Spec.Gcc; Spec.Mcf |] ~md5:"8c7c7fd3fbb69a71078b3519a2737b3e"
      ~quiet:5698;
  ]

let () =
  Alcotest.run "mi6_golden"
    [ ("golden", List.map spec_case spec_anchors @ [ multi_case ]);
      ("dump", dump_anchors) ]

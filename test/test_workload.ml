(* Tests for the synthetic SPEC workload models: determinism, stream
   well-formedness, and that the per-benchmark parameters are realized in
   the generated streams. *)

open Mi6_ooo
open Mi6_workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The generator [Tmachine.spec_stream ~seed] builds, on these bases. *)
let make ?(seed = 0) bench =
  let data_base = 64 * 1024 * 1024 and code_base = 32 * 1024 * 1024 in
  let kernel_base = 128 * 1024 * 1024 in
  if seed = 0 then Synth.for_bench bench ~data_base ~code_base ~kernel_base
  else
    Synth.create (Spec.params bench)
      ~seed:(Spec.seed bench + (seed * 0x9e3779b9))
      ~data_base ~code_base ~kernel_base

let take gen n = List.init n (fun _ -> Synth.next gen)

let test_determinism () =
  List.iter
    (fun b ->
      let a = take (make b) 20_000 in
      let c = take (make b) 20_000 in
      check_bool (Spec.name b ^ " deterministic") true (a = c))
    [ Spec.Gcc; Spec.Astar; Spec.Xalancbmk ]

let test_benchmarks_differ () =
  let a = take (make Spec.Gcc) 5_000 in
  let b = take (make Spec.Mcf) 5_000 in
  check_bool "different benchmarks, different streams" true (a <> b)

let test_stream_limit () =
  let gen = make Spec.Hmmer in
  let s = Synth.stream gen ~limit:100 in
  let n = ref 0 in
  let rec drain () =
    match s () with
    | Some _ ->
      incr n;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "limit respected" 100 !n;
  check_bool "stays exhausted" true (s () = None)

(* Stream anchors: a digest of every field of every µop, for every model
   at its canonical seed and at the one a sweep's seed 1 derives from it.
   200,000 µops take each model through at least one kernel entry and
   exit (hmmer traps every 185,000).  The fields are folded one by one,
   never marshalled: µops share their source lists and destinations, and
   Marshal output shows the sharing. *)
let mix h x = (h lxor x) * 0x100000001b3

let fold_uop h (u : Uop.t) =
  let h = mix h u.Uop.pc in
  let h =
    match u.Uop.kind with
    | Uop.Alu { latency; pipe } ->
      mix (mix (mix h 1) latency)
        (match pipe with Uop.Pipe_alu -> 0 | Uop.Pipe_mem -> 1 | Uop.Pipe_fp -> 2)
    | Uop.Load { addr } -> mix (mix h 2) addr
    | Uop.Store { addr } -> mix (mix h 3) addr
    | Uop.Branch { taken; target } ->
      mix (mix (mix h 4) (Bool.to_int taken)) target
    | Uop.Jump { target; kind } ->
      mix (mix (mix h 5) target)
        (match kind with `Plain -> 0 | `Call -> 1 | `Return -> 2)
    | Uop.Enter_kernel -> mix h 6
    | Uop.Exit_kernel -> mix h 7
  in
  let h = mix h (match u.Uop.dst with None -> -1 | Some d -> d) in
  List.fold_left mix (mix h (List.length u.Uop.srcs)) u.Uop.srcs

let stream_anchors =
  [
    (Spec.Bzip2, "1f7b7e34f7c43918", "4cedb3633c15f663");
    (Spec.Gcc, "58dd66a442c7971d", "404f29d70b28b26f");
    (Spec.Mcf, "448128deac2e5076", "8ad6709730da264");
    (Spec.Gobmk, "13c13d5648bbcfad", "1aa0814ba91c1cab");
    (Spec.Hmmer, "70f292d789a9896a", "51fc2a638a3ff47e");
    (Spec.Sjeng, "156e5899971c7804", "ac8b5004b403a08");
    (Spec.Libquantum, "69a0341380566772", "285f670dd689aa54");
    (Spec.H264ref, "7b85f4654ca1332f", "2ee7e6503d220c39");
    (Spec.Omnetpp, "7eca5f8f2546e09f", "4a6e228d3e05a827");
    (Spec.Astar, "5d9dc319cf77adc1", "5488a5245531d086");
    (Spec.Xalancbmk, "57d5cd2858d27475", "47ab894914e25d0e");
  ]

let test_stream_anchors () =
  check_int "every model anchored" (List.length Spec.all)
    (List.length stream_anchors);
  List.iter
    (fun (b, want0, want1) ->
      List.iter
        (fun (label, seed, want) ->
          let gen = make ~seed b in
          let h = ref 0 and enters = ref 0 and exits = ref 0 in
          for _ = 1 to 200_000 do
            let u = Synth.next gen in
            (match u.Uop.kind with
            | Uop.Enter_kernel -> incr enters
            | Uop.Exit_kernel -> incr exits
            | _ -> ());
            h := fold_uop !h u
          done;
          let name = Spec.name b ^ " " ^ label in
          check_bool (name ^ " enters and leaves the kernel") true
            (!enters > 0 && !exits > 0);
          Alcotest.(check string) (name ^ " stream digest") want
            (Printf.sprintf "%x" !h))
        [ ("seed 0", 0, want0); ("seed 1", 1, want1) ])
    stream_anchors

(* A µop costs its record, its load/store/branch/jump payload and the
   stream's [Some]: at most 10 minor words on average for every model. *)
let test_stream_allocation () =
  List.iter
    (fun b ->
      let s = Synth.stream (make b) ~limit:100_000 in
      let w0 = Gc.minor_words () in
      let rec drain () = match s () with Some _ -> drain () | None -> () in
      drain ();
      let words = (Gc.minor_words () -. w0) /. 100_000.0 in
      check_bool
        (Printf.sprintf "%s: %.2f minor words per µop" (Spec.name b) words)
        true (words <= 10.0))
    Spec.all

(* Count µop classes over a long window and check the parameter targets
   are realized within tolerance. *)
let census bench n =
  let gen = make bench in
  let loads = ref 0 and stores = ref 0 and branches = ref 0 in
  let kernels = ref 0 and jumps = ref 0 in
  for _ = 1 to n do
    match (Synth.next gen).Uop.kind with
    | Uop.Load _ -> incr loads
    | Uop.Store _ -> incr stores
    | Uop.Branch _ -> incr branches
    | Uop.Jump _ -> incr jumps
    | Uop.Enter_kernel -> incr kernels
    | Uop.Exit_kernel | Uop.Alu _ -> ()
  done;
  (!loads, !stores, !branches, !jumps, !kernels)

let test_instruction_mix () =
  let n = 300_000 in
  let p = Spec.params Spec.Gcc in
  let loads, stores, _, _, _ = census Spec.Gcc n in
  let close got want =
    abs_float ((float_of_int got /. float_of_int n) -. want) < 0.08
  in
  check_bool "load fraction realized" true (close loads p.Spec.load_frac);
  check_bool "store fraction realized" true (close stores p.Spec.store_frac)

let test_syscall_rate () =
  let n = 400_000 in
  let p = Spec.params Spec.Xalancbmk in
  let _, _, _, _, kernels = census Spec.Xalancbmk n in
  let expected = n / p.Spec.syscall_every in
  check_bool
    (Printf.sprintf "syscall count %d near %d" kernels expected)
    true
    (abs (kernels - expected) <= max 3 (expected / 3))

let test_control_flow_consistency () =
  (* Outside the kernel (whose trace is synthetic), a taken branch or jump
     must be followed by a µop at its target; a not-taken branch by
     pc+4.  This guarantees the I-stream the core fetches is coherent. *)
  let gen = make Spec.Sjeng in
  let prev = ref None in
  let ok = ref true in
  for _ = 1 to 100_000 do
    let u = Synth.next gen in
    let in_kernel = u.Uop.pc >= 128 * 1024 * 1024 in
    (match !prev with
    | Some p when not in_kernel ->
      let expected = Uop.next_pc p in
      if u.Uop.pc <> expected then ok := false
    | _ -> ());
    (* Kernel µops and markers break the chain deliberately. *)
    prev :=
      (match u.Uop.kind with
      | Uop.Enter_kernel | Uop.Exit_kernel -> None
      | _ when in_kernel -> None
      | _ -> Some u)
  done;
  check_bool "user-code control flow is self-consistent" true !ok

let test_addresses_in_working_set () =
  List.iter
    (fun b ->
      let p = Spec.params b in
      let gen = make b in
      let data_base = 64 * 1024 * 1024 in
      let limit = data_base + (p.Spec.working_set_kb * 1024) + 4096 in
      let ok = ref true in
      for _ = 1 to 100_000 do
        let u = Synth.next gen in
        match u.Uop.kind with
        | Uop.Load { addr } | Uop.Store { addr } ->
          let in_data = addr >= data_base && addr < limit in
          let in_kernel = addr >= 128 * 1024 * 1024 in
          if not (in_data || in_kernel) then ok := false
        | _ -> ()
      done;
      check_bool (Spec.name b ^ " addresses within footprint") true !ok)
    [ Spec.Gcc; Spec.Libquantum; Spec.Mcf ]

let test_chase_loads_are_dependent () =
  (* mcf's pointer chasing must appear as loads whose source register is
     their own destination (serial dependence). *)
  let gen = make Spec.Mcf in
  let dependent = ref 0 in
  for _ = 1 to 100_000 do
    let u = Synth.next gen in
    match u.Uop.kind with
    | Uop.Load _ when u.Uop.dst <> None && u.Uop.srcs = [ 18 ] -> incr dependent
    | _ -> ()
  done;
  check_bool
    (Printf.sprintf "mcf has many dependent loads (%d)" !dependent)
    true (!dependent > 1_000)

let test_all_benchmarks_parseable () =
  List.iter
    (fun b ->
      let p = Spec.params b in
      check_bool (Spec.name b ^ " fractions sane") true
        (p.Spec.load_frac +. p.Spec.store_frac < 0.7
        && p.Spec.stream_frac +. p.Spec.chase_frac +. p.Spec.hot_frac
           +. p.Spec.stack_frac
           <= 1.01
        && p.Spec.working_set_kb > 0
        && p.Spec.hot_set_kb <= p.Spec.working_set_kb);
      check_bool (Spec.name b ^ " roundtrips by name") true
        (Spec.of_name (Spec.name b) = Some b))
    Spec.all

(* Branch-rate property over every benchmark: realized branch fraction is
   within a factor of the parameter (block geometry quantizes it). *)
let prop_branch_rate =
  QCheck.Test.make ~name:"branch rate tracks branch_frac" ~count:11
    (QCheck.make (QCheck.Gen.oneofl Spec.all) ~print:Spec.name)
    (fun b ->
      let p = Spec.params b in
      let _, _, branches, _, _ = census b 150_000 in
      let rate = float_of_int branches /. 150_000.0 in
      rate > p.Spec.branch_frac /. 2.5 && rate < p.Spec.branch_frac *. 1.5)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_workload"
    [
      ( "stream",
        [
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "benchmarks differ" `Quick test_benchmarks_differ;
          Alcotest.test_case "limit" `Quick test_stream_limit;
          Alcotest.test_case "anchors: every model" `Quick test_stream_anchors;
          Alcotest.test_case "allocation per µop" `Quick
            test_stream_allocation;
          Alcotest.test_case "control-flow consistency" `Quick
            test_control_flow_consistency;
        ] );
      ( "model",
        [
          Alcotest.test_case "instruction mix" `Quick test_instruction_mix;
          Alcotest.test_case "syscall rate" `Quick test_syscall_rate;
          Alcotest.test_case "addresses in footprint" `Quick
            test_addresses_in_working_set;
          Alcotest.test_case "dependent chase loads" `Quick
            test_chase_loads_are_dependent;
          Alcotest.test_case "all params sane" `Quick
            test_all_benchmarks_parseable;
        ]
        @ qsuite [ prop_branch_rate ] );
    ]

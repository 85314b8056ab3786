(* The purge instruction, inside and out (paper Sections 6 and 7.1).

     dune exec examples/purge_demo.exe

   Part 1 (functional): purge is machine-mode-only and architecturally a
   no-op — its entire effect is microarchitectural.
   Part 2 (timing): watch a purge execute on the out-of-order core —
   drain, then the parallel flush of L1s / TLBs / predictors at the
   hardware rates, then the cold restart — and see that the
   microarchitectural state afterwards equals a fresh core's public
   state. *)

open Mi6_isa
open Mi6_mem
open Mi6_func
open Mi6_util
open Mi6_cache
open Mi6_ooo
open Mi6_core

let () =
  print_endline "[1] purge at the ISA level";
  let mem = Phys_mem.create ~size_bytes:Addr.default_regions.Addr.dram_bytes in
  let core = Fsim.create ~mem ~hartid:0 () in
  let purges = ref 0 in
  Fsim.set_on_purge core (fun () -> incr purges);
  let prog =
    Asm.assemble ~base:0x1000 Asm.[ Li (Reg.a0, 7); I Purge; Label "end"; I Wfi ]
  in
  Fsim.load_program core prog;
  Cpu_state.set_pc (Fsim.state core) 0x1000L;
  ignore
    (Fsim.run core ~max_steps:10 ~until:(fun f ->
         Cpu_state.pc (Fsim.state f) = Int64.of_int (Asm.lookup prog "end")));
  Printf.printf
    "  machine mode: purge executed (%d microarchitectural flush signal), \
     a0 still %Ld — architecturally invisible\n"
    !purges
    (Cpu_state.get_reg (Fsim.state core) Reg.a0);
  Printf.printf "  encoding: 0x%08x (custom-0 opcode space, %s)\n"
    (Encode.encode Purge)
    "trivially added to any ISA as the paper argues";

  print_endline "\n[2] purge on the out-of-order core";
  (* One core on the MI6 machine's memory side. *)
  let timing = Config.timing ~cores:1 Config.Mi6 in
  let stats = Stats.create () in
  let mem = Hierarchy.create timing ~stats in
  let l1d = Hierarchy.l1 mem ~core:0 and l1i = Hierarchy.l1 mem ~core:1 in
  (* A workload that dirties everything: branches train the predictors,
     loads fill the D-cache and TLBs. *)
  let rng = Rng.of_int 7 in
  let q = Queue.create () in
  for i = 0 to 30_000 do
    if i mod 3 = 0 then
      Queue.add
        (Uop.branch
           ~pc:(0x1000 + (i mod 2048 * 4))
           ~taken:(Rng.bool rng ~p:0.6) ~target:0x9000 ~srcs:[] ())
        q
    else
      Queue.add
        (Uop.load
           ~pc:(0x1000 + (i mod 2048 * 4))
           ~addr:(0x100000 + (Rng.int rng 262144 land lnot 7))
           ~dst:(2 + (i mod 6)) ~srcs:[] ())
        q
  done;
  let stream () = Queue.take_opt q in
  let ooo =
    Core.create Core_config.default ~l1i ~l1d ~stream ~stats
      ~pt_base_line:(Addr.region_base Addr.default_regions 5 / 64)
  in
  Hierarchy.connect mem ~core:0 (fun id ->
      Core.mem_complete ooo ~now:(Hierarchy.now mem) ~id);
  Hierarchy.connect mem ~core:1 (fun id -> Core.icache_complete ooo ~id);
  let step () =
    Core.tick ooo ~now:(Hierarchy.now mem);
    Hierarchy.tick mem
  in
  while not (Core.finished ooo) do
    step ()
  done;
  Printf.printf "  after 30k instructions: L1D holds %d lines, predictor \
                 signature 0x%x\n"
    (L1.valid_lines l1d) (Core.predictor_signature ooo land 0xFFFFFF);
  (* The security monitor deschedules the domain: purge. *)
  let before = Hierarchy.now mem in
  Core.request_purge ooo;
  while Core.purging ooo || not (Core.finished ooo) do
    step ()
  done;
  let fresh_sig =
    let s2 = Stats.create () in
    let mem2 = Hierarchy.create timing ~stats:s2 in
    Core.predictor_signature
      (Core.create Core_config.default ~l1i:(Hierarchy.l1 mem2 ~core:1)
         ~l1d:(Hierarchy.l1 mem2 ~core:0)
         ~stream:(fun () -> None)
         ~stats:s2 ~pt_base_line:0)
  in
  Printf.printf "  purge took %d cycles (>= 512 floor: one L1 line/cycle, \
                 one L2-TLB set/cycle, 8 predictor entries/cycle)\n"
    (Hierarchy.now mem - before);
  Printf.printf "  after purge: L1D %d lines, L1I %d lines, predictor \
                 signature %s fresh core's\n"
    (L1.valid_lines l1d) (L1.valid_lines l1i)
    (if Core.predictor_signature ooo = fresh_sig then "EQUALS" else "differs from");
  if L1.valid_lines l1d = 0 && Core.predictor_signature ooo = fresh_sig then
    print_endline "\npurge_demo: OK"
  else failwith "purge left distinguishable state"

(* Spectre-style attacks against MI6: why control-flow speculation does
   not break enclave isolation here (Sections 2.3, 5.3, 6.1).

     dune exec examples/spectre.exe

   A Spectre attack needs two things: a *transmitter* — speculative
   (wrong-path) accesses in the victim's context that touch memory as a
   function of a secret — and a *receiver* — microarchitectural state the
   attacker can observe (typically cache tag state).  MI6 breaks both:

   1. The per-core DRAM-region check validates EVERY physical access,
      including speculative fetches, loads, and page walks, before it is
      emitted to the memory system (Section 5.3).  A transmitter cannot
      touch memory outside its protection domain, even transiently: the
      access is suppressed, not just faulted after the fact.
   2. Within its own domain, whatever footprint a transmitter leaves lands
      in the domain's private LLC partition and its purged-on-switch
      per-core state, so no receiver in another domain can read it — that
      is the prime+probe result.
   3. The security monitor, which may touch multiple domains, runs with
      speculation off (the NONSPEC mechanism of Section 7.5).

   This example demonstrates (1) on the functional machine with MI6's
   hardware checks, and (2) on the two-core timing machine. *)

open Mi6_isa
open Mi6_mem
open Mi6_func
open Mi6_core

let geometry = Addr.default_regions

let () =
  print_endline "[1] The region check suppresses out-of-domain accesses";
  let mem = Phys_mem.create ~size_bytes:geometry.Addr.dram_bytes in
  let core = Fsim.create ~mem ~hartid:0 () in
  let st = Fsim.state core in
  (* A victim confined to region 2, as an enclave would be. *)
  Cpu_state.set_csr_raw st Csr.mregions (Int64.shift_left 1L 2);
  Cpu_state.set_mode st Priv.Supervisor;
  let base = Addr.region_base geometry 2 in
  (* The "gadget": a load whose address is attacker-controlled (t0).
     Under speculation this is exactly the access a Spectre transmitter
     would issue; in MI6 the hardware validates the physical address
     against mregions before emitting it — speculative or not. *)
  let prog =
    Asm.assemble ~base
      Asm.[ I (Load { kind = Ld; rd = Reg.a0; rs1 = Reg.t0; offset = 0 }) ]
  in
  Fsim.load_program core prog;
  let secret_addr = Addr.region_base geometry 5 + 0x40 in
  Phys_mem.write_u64 mem secret_addr 0x5EC2E7L;
  Cpu_state.set_reg st Reg.t0 (Int64.of_int secret_addr);
  Cpu_state.set_pc st (Int64.of_int base);
  let r = Fsim.step core in
  (match r.Fsim.trap with
  | Some { cause = Priv.Exception Priv.Region_fault; tval; _ } ->
    Printf.printf
      "  load of 0x%Lx (region %d, not ours) -> region fault; emitted \
       memory accesses beyond the fetch: %d\n"
      tval
      (Addr.region_of geometry secret_addr)
      (List.length
         (List.filter (fun a -> a.Fsim.kind <> Fsim.Fetch) r.Fsim.accesses))
  | _ -> failwith "expected a region fault");
  print_endline
    "  -> the would-be transmitter never touches the cache hierarchy:\n\
    \     there is no footprint for any receiver to observe.";

  print_endline
    "\n[2] And within-domain footprints are invisible across domains";
  let receiver_works timing =
    Noninterference.leaks
      [
        Noninterference.prime_probe timing ~secret:true;
        Noninterference.prime_probe timing ~secret:false;
      ]
  in
  let leak_base = receiver_works (Config.timing ~cores:1 Config.Base) in
  let leak_mi6 = receiver_works (Config.timing ~cores:1 Config.Mi6) in
  Printf.printf
    "  receiver (prime+probe) works on baseline: %b; on MI6: %b\n" leak_base
    leak_mi6;
  print_endline
    "\n[3] The monitor itself crosses domains, so it runs with speculation \
     off\n\
    \    (the NONSPEC mode measured in Figure 12; see bench/main.exe fig12).";
  if (not leak_mi6) && leak_base then print_endline "\nspectre: OK"
  else failwith "unexpected leak behaviour"

(* Tests for the mi6_core library: region ledger, measurement,
   attestation, mailboxes, and the security monitor's enclave
   lifecycle — both through the OCaml API and the real ecall ABI. *)

open Mi6_isa
open Mi6_mem
open Mi6_func
open Mi6_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let geometry = Addr.default_regions

(* ------------------------------------------------------------------ *)
(* Region ledger                                                       *)
(* ------------------------------------------------------------------ *)

let test_region_initial_ownership () =
  let r = Region.create geometry in
  check_bool "region 0 is monitor's" true (Region.owner r 0 = Region.Monitor);
  check_bool "region 1 is OS's" true (Region.owner r 1 = Region.Os);
  check_int "os owns all but one" 63 (List.length (Region.owned_by r Region.Os))

let test_region_transfer () =
  let r = Region.create geometry in
  check_bool "transfer 3,4 to enclave" true
    (Region.transfer r ~regions:[ 3; 4 ] ~from_:Region.Os
       ~to_:(Region.Enclave 1));
  check_bool "now owned" true (Region.owner r 3 = Region.Enclave 1);
  (* Double allocation must fail atomically. *)
  check_bool "re-transfer fails" false
    (Region.transfer r ~regions:[ 4; 5 ] ~from_:Region.Os
       ~to_:(Region.Enclave 2));
  check_bool "region 5 untouched by failed transfer" true
    (Region.owner r 5 = Region.Os);
  check_bool "empty transfer fails" false
    (Region.transfer r ~regions:[] ~from_:Region.Os ~to_:(Region.Enclave 2))

let test_region_perm_mask () =
  let r = Region.create geometry in
  ignore
    (Region.transfer r ~regions:[ 2; 5 ] ~from_:Region.Os
       ~to_:(Region.Enclave 7));
  let mask = Region.perm_mask r (Region.Enclave 7) in
  Alcotest.(check int64) "mask has bits 2 and 5" 0x24L mask;
  (* Monitor + OS + enclave masks are pairwise disjoint. *)
  let os = Region.perm_mask r Region.Os in
  let mon = Region.perm_mask r Region.Monitor in
  check_bool "disjoint os/enclave" true (Int64.logand mask os = 0L);
  check_bool "disjoint monitor/os" true (Int64.logand mon os = 0L)

(* Ownership is always a partition: each region has exactly one owner. *)
let prop_region_partition =
  QCheck.Test.make ~name:"region ownership is a partition" ~count:100
    QCheck.(small_list (pair (int_range 0 63) (int_range 1 4)))
    (fun ops ->
      let r = Region.create geometry in
      List.iter
        (fun (region, id) ->
          ignore
            (Region.transfer r ~regions:[ region ] ~from_:Region.Os
               ~to_:(Region.Enclave id)))
        ops;
      let total =
        List.length (Region.owned_by r Region.Monitor)
        + List.length (Region.owned_by r Region.Os)
        + List.fold_left
            (fun acc id ->
              acc + List.length (Region.owned_by r (Region.Enclave id)))
            0 [ 1; 2; 3; 4 ]
      in
      total = 64)

(* ------------------------------------------------------------------ *)
(* Measurement / attestation                                           *)
(* ------------------------------------------------------------------ *)

let test_measurement_determinism () =
  let build () =
    let m = Measurement.start ~evbase:0x10000L ~evsize:0x4000L ~entry:0x10000L in
    Measurement.add_page m ~vaddr:0x10000L ~contents:"code";
    Measurement.add_page m ~vaddr:0x11000L ~contents:"data";
    Measurement.finalize m
  in
  check_string "same inputs, same measurement" (build ()) (build ())

let test_measurement_order_sensitive () =
  let m1 = Measurement.start ~evbase:0L ~evsize:0x2000L ~entry:0L in
  Measurement.add_page m1 ~vaddr:0x0L ~contents:"a";
  Measurement.add_page m1 ~vaddr:0x1000L ~contents:"b";
  let m2 = Measurement.start ~evbase:0L ~evsize:0x2000L ~entry:0L in
  Measurement.add_page m2 ~vaddr:0x1000L ~contents:"b";
  Measurement.add_page m2 ~vaddr:0x0L ~contents:"a";
  check_bool "load order matters" true
    (Measurement.finalize m1 <> Measurement.finalize m2)

let test_measurement_finalize_once () =
  let m = Measurement.start ~evbase:0L ~evsize:0x1000L ~entry:0L in
  ignore (Measurement.finalize m);
  Alcotest.check_raises "add after finalize"
    (Invalid_argument "Measurement: already finalized") (fun () ->
      Measurement.add_page m ~vaddr:0L ~contents:"x")

let test_attestation_roundtrip () =
  let key = "platform" in
  let m = Mi6_util.Sha256.digest "enclave-measurement" in
  let report =
    Attestation.sign ~platform_key:key ~measurement:m ~challenge:"nonce-1"
      ~report_data:"pubkey"
  in
  check_bool "verifies" true
    (Attestation.verify ~platform_key:key ~expected_measurement:m
       ~challenge:"nonce-1" report);
  check_bool "wrong challenge rejected" false
    (Attestation.verify ~platform_key:key ~expected_measurement:m
       ~challenge:"nonce-2" report);
  check_bool "wrong measurement rejected" false
    (Attestation.verify ~platform_key:key
       ~expected_measurement:(Mi6_util.Sha256.digest "other")
       ~challenge:"nonce-1" report);
  check_bool "wrong key rejected" false
    (Attestation.verify ~platform_key:"evil" ~expected_measurement:m
       ~challenge:"nonce-1" report);
  let tampered = { report with Attestation.report_data = "evil" } in
  check_bool "tampered data rejected" false
    (Attestation.verify ~platform_key:key ~expected_measurement:m
       ~challenge:"nonce-1" tampered)

let test_mailbox () =
  let b = Mailbox.create ~capacity:2 () in
  check_bool "send 1" true (Mailbox.send b ~from_:Mailbox.To_os "hello");
  check_bool "send 2" true (Mailbox.send b ~from_:(Mailbox.To_enclave 1) "hi");
  check_bool "full" false (Mailbox.send b ~from_:Mailbox.To_os "x");
  (match Mailbox.recv b with
  | Some (Mailbox.To_os, "hello") -> ()
  | _ -> Alcotest.fail "wrong message order");
  check_int "one pending" 1 (Mailbox.pending b);
  Mailbox.clear b;
  check_bool "cleared" true (Mailbox.recv b = None)

(* ------------------------------------------------------------------ *)
(* Monitor lifecycle via the OCaml API                                 *)
(* ------------------------------------------------------------------ *)

let make_machine ?(cores = 1) () =
  let mem = Phys_mem.create ~size_bytes:geometry.Addr.dram_bytes in
  let fsims = Array.init cores (fun i -> Fsim.create ~mem ~hartid:i ()) in
  let monitor = Monitor.create ~mem ~cores:fsims ~geometry () in
  (mem, fsims, monitor)

(* A tiny enclave: reads the magic word the loader placed in its data
   page, stores it incremented, and exits via SM call 5. *)
let enclave_evbase = 0x4000_0000L

let enclave_program () =
  Asm.assemble ~base:(Int64.to_int enclave_evbase)
    Asm.
      [
        Li (Reg.s0, Int64.to_int enclave_evbase + 0x1000);
        I (Load { kind = Ld; rd = Reg.t0; rs1 = Reg.s0; offset = 0 });
        I (Alu_imm { op = Add; rd = Reg.t0; rs1 = Reg.t0; imm = 1 });
        I (Store { kind = Sd; rs1 = Reg.s0; rs2 = Reg.t0; offset = 8 });
        Li (Reg.a7, 5);
        I Ecall;
      ]

let build_enclave monitor =
  let prog = enclave_program () in
  let code = Asm.to_bytes prog in
  let data =
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical 41L (8 * i)) land 0xFF))
  in
  match
    Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x2000L
      ~entry:enclave_evbase ~regions:[ 8; 9 ]
  with
  | Error _ -> Alcotest.fail "create_enclave failed"
  | Ok id ->
    (match Monitor.load_page monitor id ~vaddr:enclave_evbase ~contents:code with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "load code page failed");
    (match
       Monitor.load_page monitor id
         ~vaddr:(Int64.add enclave_evbase 0x1000L)
         ~contents:data
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "load data page failed");
    (match Monitor.seal monitor id with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "seal failed");
    id

let test_lifecycle_runs_enclave () =
  let mem, fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  check_string "sealed" "sealed" (Monitor.enclave_state_name monitor id);
  (* Give the OS a resume point. *)
  let st = Fsim.state fsims.(0) in
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st 0x1000L;
  (match Monitor.enter monitor ~core:0 id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter failed");
  check_bool "running in user mode" true (Cpu_state.mode st = Priv.User);
  check_bool "domain is enclave" true
    (Monitor.current_domain monitor ~core:0 = Mailbox.To_enclave id);
  check_int "one purge on entry" 1 (Monitor.purges monitor ~core:0);
  (* Run until the enclave exits back to the OS. *)
  let steps =
    Fsim.run fsims.(0) ~max_steps:1000 ~until:(fun _ ->
        Monitor.current_domain monitor ~core:0 = Mailbox.To_os)
  in
  check_bool "enclave exited" true (steps < 1000);
  check_int "purge on exit too" 2 (Monitor.purges monitor ~core:0);
  check_bool "back in supervisor mode" true
    (Cpu_state.mode st = Priv.Supervisor);
  Alcotest.(check int64) "OS resumed with success code" 0L
    (Cpu_state.get_reg st Reg.a0);
  (* The enclave's store must have hit its second region page: 41+1 at
     offset 8 of the data page (pool page 3 = code pt... verify via the
     enclave's own pt: physical location is inside region 8). *)
  let region8 = Addr.region_base geometry 8 in
  let found = ref false in
  for page = 0 to 16 do
    if Phys_mem.read_u64 mem (region8 + (page * 4096) + 8) = 42L then
      found := true
  done;
  check_bool "enclave computed 42 into its private memory" true !found

let test_enclave_memory_isolated_from_os () =
  let _mem, fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  ignore id;
  (* The OS (S-mode) tries to read enclave memory directly: the region
     check must suppress the access and raise a region fault. *)
  let st = Fsim.state fsims.(0) in
  Cpu_state.set_mode st Priv.Supervisor;
  let target = Addr.region_base geometry 8 in
  (* OS code must live in OS-owned memory (region 1). *)
  let os_base = Addr.region_base geometry 1 + 0x2000 in
  let prog =
    Asm.assemble ~base:os_base
      Asm.
        [
          Li (Reg.s0, target);
          I (Load { kind = Ld; rd = Reg.a0; rs1 = Reg.s0; offset = 0 });
        ]
  in
  Fsim.load_program fsims.(0) prog;
  Cpu_state.set_csr_raw st Csr.stvec 0x9000L;
  Cpu_state.set_pc st (Int64.of_int os_base);
  ignore (Fsim.step fsims.(0));
  ignore (Fsim.step fsims.(0));
  let r = Fsim.step fsims.(0) in
  match r.Fsim.trap with
  | Some { cause = Priv.Exception Priv.Region_fault; _ } -> ()
  | _ -> Alcotest.fail "expected region fault for OS access to enclave memory"

let test_overlapping_allocation_rejected () =
  let _mem, _fsims, monitor = make_machine () in
  let mk regions =
    Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x1000L
      ~entry:enclave_evbase ~regions
  in
  (match mk [ 8; 9 ] with Ok _ -> () | Error _ -> Alcotest.fail "first alloc");
  (match mk [ 9; 10 ] with
  | Error Monitor.E_overlap -> ()
  | _ -> Alcotest.fail "expected overlap rejection");
  (* Monitor's own region is never OS-transferable. *)
  match mk [ 0 ] with
  | Error Monitor.E_overlap -> ()
  | _ -> Alcotest.fail "expected monitor region rejection"

let test_destroy_scrubs_and_returns_regions () =
  let mem, _fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  (* The code page is the second page of the enclave's pool (page 0 is
     the root page table). *)
  let code_page = Addr.region_base geometry 8 + 4096 in
  check_bool "enclave data present before destroy" true
    (Phys_mem.read_u64 mem code_page <> 0L);
  let scrubbed = ref [] in
  Monitor.on_scrub monitor (fun rs -> scrubbed := rs @ !scrubbed);
  (match Monitor.destroy monitor id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "destroy failed");
  check_bool "scrub hook saw regions" true
    (List.mem 8 !scrubbed && List.mem 9 !scrubbed);
  check_bool "memory zeroed" true (Phys_mem.read_u64 mem code_page = 0L);
  check_bool "regions back to OS" true
    (Region.owner (Monitor.regions monitor) 8 = Region.Os);
  check_string "dead" "dead" (Monitor.enclave_state_name monitor id);
  (* A new enclave can reuse them. *)
  match
    Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x1000L
      ~entry:enclave_evbase ~regions:[ 8; 9 ]
  with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "reuse after destroy failed"

let test_attestation_through_monitor () =
  let _mem, _fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  let challenge = "fresh-nonce" in
  match Monitor.attest monitor id ~challenge ~report_data:"key" with
  | Error _ -> Alcotest.fail "attest failed"
  | Ok report ->
    let m =
      match Monitor.measurement monitor id with
      | Ok m -> m
      | Error _ -> Alcotest.fail "measurement missing"
    in
    check_bool "verifier accepts" true
      (Attestation.verify
         ~platform_key:(Monitor.platform_key monitor)
         ~expected_measurement:m ~challenge report);
    (* An enclave loaded with different contents yields a different
       measurement. *)
    (match
       Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x1000L
         ~entry:enclave_evbase ~regions:[ 12 ]
     with
    | Ok id2 ->
      ignore (Monitor.load_page monitor id2 ~vaddr:enclave_evbase ~contents:"evil");
      (match Monitor.seal monitor id2 with
      | Ok m2 -> check_bool "different contents, different measurement" true (m2 <> m)
      | Error _ -> Alcotest.fail "seal 2")
    | Error _ -> Alcotest.fail "create 2")

let test_messaging_between_domains () =
  let _mem, _fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  check_bool "os -> enclave" true
    (Monitor.send_msg monitor ~from_:Mailbox.To_os ~to_:(Mailbox.To_enclave id)
       "input");
  (match Monitor.recv_msg monitor ~me:(Mailbox.To_enclave id) with
  | Some (Mailbox.To_os, "input") -> ()
  | _ -> Alcotest.fail "enclave did not receive");
  check_bool "enclave -> os" true
    (Monitor.send_msg monitor ~from_:(Mailbox.To_enclave id) ~to_:Mailbox.To_os
       "result");
  match Monitor.recv_msg monitor ~me:Mailbox.To_os with
  | Some (Mailbox.To_enclave got, "result") -> check_int "sender id" id got
  | _ -> Alcotest.fail "os did not receive"

(* ------------------------------------------------------------------ *)
(* The ecall ABI end-to-end: OS code in S-mode drives the monitor       *)
(* ------------------------------------------------------------------ *)

let test_ecall_abi_lifecycle () =
  let mem, fsims, monitor = make_machine () in
  ignore monitor;
  let st = Fsim.state fsims.(0) in
  (* Stage the enclave image in OS memory at 0x100000 (region 0 is the
     monitor's; 0x100000 is region 0!...  use region 1: 32 MB). *)
  let stage = Addr.region_base geometry 1 + 0x10000 in
  let stage_data = Addr.region_base geometry 1 + 0x12000 in
  let prog = enclave_program () in
  Phys_mem.load_string mem stage (Asm.to_bytes prog);
  Phys_mem.write_u64 mem stage_data 41L;
  (* OS program: create(evbase, evsize, entry, mask{8,9}), load_page,
     seal, enter; after the enclave exits, spin. *)
  let evbase = Int64.to_int enclave_evbase in
  let os_base = Addr.region_base geometry 1 + 0x20000 in
  let os =
    Asm.assemble ~base:os_base
      Asm.
        [
          (* create *)
          Li (Reg.a0, evbase);
          Li (Reg.a1, 0x2000);
          Li (Reg.a2, evbase);
          Li (Reg.a3, 0x300); (* regions 8,9 *)
          Li (Reg.a7, 1);
          I Ecall;
          (* a0 = enclave id; keep in s1 *)
          I (Alu { op = Add; rd = Reg.s1; rs1 = Reg.a0; rs2 = Reg.x0 });
          (* load_page(id, evbase, stage) *)
          I (Alu { op = Add; rd = Reg.a0; rs1 = Reg.s1; rs2 = Reg.x0 });
          Li (Reg.a1, evbase);
          Li (Reg.a2, stage);
          Li (Reg.a7, 2);
          I Ecall;
          (* load_page(id, evbase + 0x1000, stage_data) *)
          I (Alu { op = Add; rd = Reg.a0; rs1 = Reg.s1; rs2 = Reg.x0 });
          Li (Reg.a1, evbase + 0x1000);
          Li (Reg.a2, stage_data);
          Li (Reg.a7, 2);
          I Ecall;
          (* seal(id) *)
          I (Alu { op = Add; rd = Reg.a0; rs1 = Reg.s1; rs2 = Reg.x0 });
          Li (Reg.a7, 3);
          I Ecall;
          (* enter(id) *)
          I (Alu { op = Add; rd = Reg.a0; rs1 = Reg.s1; rs2 = Reg.x0 });
          Li (Reg.a7, 4);
          I Ecall;
          (* resumes here after enclave exit, a0 = 0 *)
          Label "after";
          J "after";
        ]
  in
  Fsim.load_program fsims.(0) os;
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st (Int64.of_int os_base);
  let after = Int64.of_int (Asm.lookup os "after") in
  let steps =
    Fsim.run fsims.(0) ~max_steps:5000 ~until:(fun f ->
        Cpu_state.pc (Fsim.state f) = after
        && Cpu_state.mode (Fsim.state f) = Priv.Supervisor)
  in
  check_bool "OS reached the end of the flow" true (steps < 5000);
  Alcotest.(check int64) "final a0 is 0 (clean enclave exit)" 0L
    (Cpu_state.get_reg st Reg.a0);
  check_int "two purges (enter + exit)" 2 (Monitor.purges monitor ~core:0)

let test_ecall_bad_call_rejected () =
  let _mem, fsims, monitor = make_machine () in
  ignore monitor;
  let st = Fsim.state fsims.(0) in
  let os_base = Addr.region_base geometry 1 + 0x20000 in
  let os =
    Asm.assemble ~base:os_base
      Asm.[ Li (Reg.a7, 99); I Ecall; Label "after"; J "after" ]
  in
  Fsim.load_program fsims.(0) os;
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st (Int64.of_int os_base);
  let after = Int64.of_int (Asm.lookup os "after") in
  ignore
    (Fsim.run fsims.(0) ~max_steps:100 ~until:(fun f ->
         Cpu_state.pc (Fsim.state f) = after));
  Alcotest.(check int64) "invalid call errors" (-1L)
    (Cpu_state.get_reg st Reg.a0)

let test_async_exit_on_interrupt () =
  (* An interrupt during enclave execution must deschedule (purge) and
     hand the OS only a generic "enclave stopped" code — never the
     enclave's pc or fault details (Section 6.1). *)
  let _mem, fsims, monitor = make_machine () in
  let id = build_enclave monitor in
  let st = Fsim.state fsims.(0) in
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st (Int64.of_int (Addr.region_base geometry 1));
  (match Monitor.enter monitor ~core:0 id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter");
  (* Let the enclave run one instruction, then fire the timer. *)
  ignore (Fsim.step fsims.(0));
  Cpu_state.set_csr_raw st Csr.mie (Int64.shift_left 1L 7);
  Fsim.raise_timer_interrupt fsims.(0);
  ignore (Fsim.step fsims.(0));
  check_bool "descheduled to OS" true
    (Monitor.current_domain monitor ~core:0 = Mailbox.To_os);
  check_bool "back in supervisor" true (Cpu_state.mode st = Priv.Supervisor);
  Alcotest.(check int64) "OS sees only the async-exit code" (-7L)
    (Cpu_state.get_reg st Reg.a0);
  check_int "purged on the way out" 2 (Monitor.purges monitor ~core:0);
  (* The enclave is schedulable again. *)
  Fsim.clear_timer_interrupt fsims.(0);
  check_string "sealed again" "sealed" (Monitor.enclave_state_name monitor id)

let test_enclave_fault_hidden_from_os () =
  (* An enclave that faults (here: touching memory outside its regions)
     async-exits with a distinct generic code; the OS never sees the
     faulting address. *)
  let _mem, fsims, monitor = make_machine () in
  let id =
    match
      Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x2000L
        ~entry:enclave_evbase ~regions:[ 8; 9 ]
    with
    | Ok id -> id
    | Error _ -> Alcotest.fail "create"
  in
  (* Code that dereferences OS memory. *)
  let evil =
    Asm.assemble
      ~base:(Int64.to_int enclave_evbase)
      Asm.
        [
          Li (Reg.s0, Addr.region_base geometry 1);
          I (Load { kind = Ld; rd = Reg.a0; rs1 = Reg.s0; offset = 0 });
        ]
  in
  (match
     Monitor.load_page monitor id ~vaddr:enclave_evbase
       ~contents:(Asm.to_bytes evil)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "load");
  (match Monitor.seal monitor id with Ok _ -> () | Error _ -> Alcotest.fail "seal");
  let st = Fsim.state fsims.(0) in
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st (Int64.of_int (Addr.region_base geometry 1));
  (match Monitor.enter monitor ~core:0 id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter");
  let steps =
    Fsim.run fsims.(0) ~max_steps:50 ~until:(fun _ ->
        Monitor.current_domain monitor ~core:0 = Mailbox.To_os)
  in
  check_bool "enclave fault descheduled it" true (steps < 50);
  Alcotest.(check int64) "generic fault code, no address" (-8L)
    (Cpu_state.get_reg st Reg.a0)

let test_enclave_cannot_use_os_sm_calls () =
  (* From inside an enclave, OS-only SM calls (create/load/seal/enter/
     destroy) must be rejected. *)
  let _mem, fsims, monitor = make_machine () in
  let id =
    match
      Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x2000L
        ~entry:enclave_evbase ~regions:[ 8; 9 ]
    with
    | Ok id -> id
    | Error _ -> Alcotest.fail "create"
  in
  (* Enclave tries SM call 9 (destroy) on itself, then exits. *)
  let prog =
    Asm.assemble
      ~base:(Int64.to_int enclave_evbase)
      Asm.
        [
          Li (Reg.a0, id);
          Li (Reg.a7, 9);
          I Ecall;
          (* a0 now holds the error; save it and exit. *)
          I (Alu { op = Add; rd = Reg.s2; rs1 = Reg.a0; rs2 = Reg.x0 });
          Li (Reg.a7, 5);
          I Ecall;
        ]
  in
  (match
     Monitor.load_page monitor id ~vaddr:enclave_evbase
       ~contents:(Asm.to_bytes prog)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "load");
  (match Monitor.seal monitor id with Ok _ -> () | Error _ -> Alcotest.fail "seal");
  let st = Fsim.state fsims.(0) in
  Cpu_state.set_mode st Priv.Supervisor;
  Cpu_state.set_pc st (Int64.of_int (Addr.region_base geometry 1));
  (match Monitor.enter monitor ~core:0 id with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter");
  let steps =
    Fsim.run fsims.(0) ~max_steps:100 ~until:(fun _ ->
        Monitor.current_domain monitor ~core:0 = Mailbox.To_os)
  in
  check_bool "enclave exited" true (steps < 100);
  check_string "enclave still alive (destroy rejected)" "sealed"
    (Monitor.enclave_state_name monitor id)

(* ------------------------------------------------------------------ *)
(* Machine vocabulary                                                   *)
(* ------------------------------------------------------------------ *)

(* One name per machine, read back in any letter case: every command
   that parses a variant reaches all eight. *)
let test_variant_names_roundtrip () =
  check_int "eight machines" 8 (List.length Config.all_variants);
  List.iter
    (fun v ->
      let name = Config.variant_name v in
      List.iter
        (fun spelling ->
          check_bool (Printf.sprintf "%S names %s" spelling name) true
            (Config.variant_of_name spelling = Some v))
        [ name; String.lowercase_ascii name;
          String.capitalize_ascii (String.lowercase_ascii name) ])
    Config.all_variants;
  check_bool "unknown name" true (Config.variant_of_name "nosuch" = None)

(* The MI6 variant is the Figure 3 machine, not F+P+M+A's stand-ins. *)
let test_mi6_is_figure3 () =
  let open Mi6_llc in
  let t = Config.timing ~cores:2 Config.Mi6 in
  let llc = t.Config.llc in
  check_bool "Figure 3 LLC structures" true
    (t.Config.llc_security = Llc.mi6_security);
  check_int "12 MSHRs" 12 llc.Llc.mshrs;
  check_int "unbanked" 1 llc.Llc.mshr_banks;
  check_int "3 MSHRs per port" 3 (llc.Llc.mshrs / llc.Llc.cores);
  check_int "DRAM sinks twice the MSHRs" 24 t.Config.dram_outstanding;
  check_bool "purge on trap" true
    t.Config.core.Mi6_ooo.Core_config.flush_on_trap;
  check_bool "partitioned index" true
    (llc.Llc.index
    = Mi6_cache.Index.partitioned ~set_bits:10 ~region_bits:2 ~geometry)

(* ------------------------------------------------------------------ *)
(* Multicore                                                            *)
(* ------------------------------------------------------------------ *)

let test_run_multi_completes () =
  let rs =
    Tmachine.run_multi ~variant:Config.Mi6
      ~benches:[| Mi6_workload.Spec.Hmmer; Mi6_workload.Spec.Gobmk |]
      ~warmup:20_000 ~measure:50_000 ()
  in
  check_int "two results" 2 (Array.length rs);
  Array.iter
    (fun r ->
      check_bool "measured instructions" true (r.Tmachine.instrs >= 49_990);
      check_bool "cycles positive" true (r.Tmachine.cycles > 0))
    rs

let test_multi_slower_than_solo () =
  (* Sharing the machine can only slow a benchmark down relative to its
     solo run on the same variant. *)
  let solo =
    Tmachine.run_spec ~variant:Config.Base ~bench:Mi6_workload.Spec.Gcc
      ~warmup:20_000 ~measure:60_000 ()
  in
  let multi =
    Tmachine.run_multi ~variant:Config.Base
      ~benches:[| Mi6_workload.Spec.Gcc; Mi6_workload.Spec.Libquantum |]
      ~warmup:20_000 ~measure:60_000 ()
  in
  check_bool
    (Printf.sprintf "shared run not faster (%d vs solo %d)"
       multi.(0).Tmachine.cycles solo.Tmachine.cycles)
    true
    (multi.(0).Tmachine.cycles >= solo.Tmachine.cycles)

(* The core's per-cycle CPI attributor increments exactly one bucket per
   tick, so the stack must sum to the measured cycle count on every
   variant — no lost or double-counted cycles. *)
let test_cpi_stack_sums_to_cycles () =
  List.iter
    (fun variant ->
      let r =
        Tmachine.run_spec ~variant ~bench:Mi6_workload.Spec.Gcc ~warmup:10_000
          ~measure:40_000 ()
      in
      let s =
        Mi6_obs.Cpistack.of_counters
          ~label:(Config.variant_name variant)
          ~total:r.Tmachine.cycles
          (Mi6_util.Stats.to_assoc r.Tmachine.stats)
      in
      check_bool
        (Printf.sprintf "%s: attributed %d of %d cycles"
           (Config.variant_name variant)
           (Mi6_obs.Cpistack.attributed s)
           r.Tmachine.cycles)
        true
        (Mi6_obs.Cpistack.sums_exactly s);
      (* Commits happen, so the base bucket is never empty. *)
      check_bool "base bucket populated" true
        (Mi6_obs.Cpistack.cycles s "base" > 0);
      (* Purge cycles only exist on purging variants. *)
      let purge = Mi6_obs.Cpistack.cycles s "purge" in
      match variant with
      | Config.Base -> check_int "BASE never purges" 0 purge
      | Config.Flush | Config.Fpma ->
        check_bool "purging variant attributes purge cycles" true (purge > 0)
      | _ -> ())
    [ Config.Base; Config.Flush; Config.Part; Config.Miss; Config.Arb;
      Config.Fpma ]

(* The quiet-cycle detector compares one Statesig hash per cycle; the
   oracle byte-compares the full labelled structure dump between
   consecutive cycles.  Both read the same component folds, so over
   random (seed, bench, variant) runs the two must agree on every cycle
   — a disagreement means a fold renders state through a call that does
   not hash it (false quiet) or hashes state it does not render (missed
   quiet). *)
let prop_quiet_detector_matches_oracle =
  QCheck.Test.make
    ~name:"quiet-cycle detector agrees with dump_state oracle" ~count:12
    QCheck.(pair (int_range 0 10_000) (int_range 0 7))
    (fun (seed, pick) ->
      let bench =
        List.nth
          [ Mi6_workload.Spec.Gcc; Mi6_workload.Spec.Mcf;
            Mi6_workload.Spec.Libquantum; Mi6_workload.Spec.Hmmer ]
          (pick land 3)
      in
      let variant = if pick land 4 = 0 then Config.Base else Config.Fpma in
      let occupancy = Mi6_obs.Occupancy.create () in
      let stream =
        Tmachine.spec_stream ~seed ~core:0 ~bench ~limit:300 ()
      in
      let m =
        Tmachine.create ~occupancy
          (Config.timing ~cores:1 variant)
          ~streams:[| stream |]
          ~stats:(Mi6_util.Stats.create ())
      in
      let ok = ref true in
      let prev_dump = ref None in
      let prev_quiet = ref (Mi6_obs.Occupancy.quiet_cycles occupancy) in
      let budget = ref 30_000 in
      while !ok && (not (Tmachine.finished m)) && !budget > 0 do
        decr budget;
        Tmachine.tick m;
        let dump = Tmachine.dump_state m in
        let quiet = Mi6_obs.Occupancy.quiet_cycles occupancy in
        let detector_quiet = quiet > !prev_quiet in
        let oracle_quiet =
          match !prev_dump with Some d -> String.equal d dump | None -> false
        in
        if detector_quiet <> oracle_quiet then ok := false;
        prev_dump := Some dump;
        prev_quiet := quiet
      done;
      (* The run must also have exercised both verdicts, or the property
         would pass vacuously on a degenerate machine. *)
      !ok
      && Mi6_obs.Occupancy.quiet_cycles occupancy > 0
      && Mi6_obs.Occupancy.quiet_cycles occupancy
         < Mi6_obs.Occupancy.cycles occupancy)

(* --- Fresh-machine determinism (replay from reset) --- *)

let fresh_machine ~seed ~pick =
  let bench =
    List.nth
      [ Mi6_workload.Spec.Gcc; Mi6_workload.Spec.Mcf;
        Mi6_workload.Spec.Libquantum; Mi6_workload.Spec.Hmmer ]
      (pick land 3)
  in
  let variant = if pick land 4 = 0 then Config.Base else Config.Fpma in
  let stream = Tmachine.spec_stream ~seed ~core:0 ~bench ~limit:2_000 () in
  Tmachine.create
    (Config.timing ~cores:1 variant)
    ~streams:[| stream |]
    ~stats:(Mi6_util.Stats.create ())

(* Tick [a] and [b] in lockstep for [k] cycles; the first cycle after
   which their labelled dumps or committed counts differ, if any. *)
let first_disagreement a b ~k =
  let rec go cycle =
    if cycle > k then None
    else begin
      Tmachine.tick a;
      Tmachine.tick b;
      if
        Tmachine.committed a = Tmachine.committed b
        && String.equal (Tmachine.dump_state a) (Tmachine.dump_state b)
      then go (cycle + 1)
      else Some cycle
    end
  in
  go 1

(* Two machines built from the same inputs in one process agree after
   every tick.  Replaying a run from reset (the differential tester's
   slice) and bisect's clean verdict both rest on this. *)
let prop_fresh_machine_determinism =
  QCheck.Test.make ~name:"same inputs agree after every tick" ~count:10
    QCheck.(triple (int_range 0 10_000) (int_range 0 7) (int_range 1 2_000))
    (fun (seed, pick, k) ->
      first_disagreement (fresh_machine ~seed ~pick) (fresh_machine ~seed ~pick)
        ~k
      = None)

(* Non-vacuity: the same comparison separates machines whose streams
   differ, so the property above cannot pass on an oracle that sees
   nothing. *)
let test_fresh_machine_nonvacuity () =
  Alcotest.(check bool) "seeds 0 and 1 disagree within 2000 cycles" true
    (first_disagreement (fresh_machine ~seed:0 ~pick:0)
       (fresh_machine ~seed:1 ~pick:0) ~k:2_000
    <> None)

(* ---------- cross-run bisection ---------- *)

let bisect_machine ?(seed = 0) ~variant ~bench ~limit () =
  Tmachine.create
    (Config.timing ~cores:1 variant)
    ~streams:[| Tmachine.spec_stream ~seed ~core:0 ~bench ~limit () |]
    ~stats:(Mi6_util.Stats.create ())

(* BASE vs F+P+M+A on the same stream: structurally different machines,
   so the activity oracle applies; the earliest state split must be in a
   component that hosts audit channels. *)
let test_bisect_variant_pair_diverges () =
  let bench = Mi6_workload.Spec.Gcc in
  let a = bisect_machine ~variant:Config.Base ~bench ~limit:2_000 () in
  let b = bisect_machine ~variant:Config.Fpma ~bench ~limit:2_000 () in
  let r =
    Bisect.run ~label_a:"BASE" ~label_b:"F+P+M+A" a b
  in
  match r.Bisect.r_outcome with
  | Bisect.Clean _ -> Alcotest.fail "BASE vs F+P+M+A must diverge"
  | Bisect.Diverged s ->
    Alcotest.(check string) "activity oracle" "activity" s.Bisect.s_oracle;
    Alcotest.(check bool) "positive cycle" true (s.Bisect.s_cycle > 0);
    Alcotest.(check bool) "component hosts audit channels" true
      (Bisect.audit_channels_of_component s.Bisect.s_component <> [])

let test_bisect_identical_machines_clean () =
  let mk () =
    bisect_machine ~variant:Config.Base ~bench:Mi6_workload.Spec.Mcf
      ~limit:1_000 ()
  in
  let r = Bisect.run ~label_a:"a" ~label_b:"b" (mk ()) (mk ()) in
  match r.Bisect.r_outcome with
  | Bisect.Clean { cycles_run } ->
    Alcotest.(check bool) "ran to completion" true (cycles_run > 0)
  | Bisect.Diverged s ->
    Alcotest.failf "identical machines diverged at cycle %d" s.Bisect.s_cycle

(* Same configuration, different streams (the secret-pair shape): the
   exact per-section signature oracle must pin a first divergent
   cycle. *)
let test_bisect_signature_oracle_pins_cycle () =
  let mk seed =
    bisect_machine ~seed ~variant:Config.Base ~bench:Mi6_workload.Spec.Gcc
      ~limit:1_000 ()
  in
  let r =
    Bisect.run ~label_a:"s0" ~label_b:"s1" (mk 0) (mk 7)
  in
  match r.Bisect.r_outcome with
  | Bisect.Clean _ -> Alcotest.fail "different streams must diverge"
  | Bisect.Diverged s ->
    Alcotest.(check string) "signature oracle" "signature" s.Bisect.s_oracle;
    Alcotest.(check bool) "positive cycle" true (s.Bisect.s_cycle > 0);
    Alcotest.(check bool) "field-level diff rendered" true
      (s.Bisect.s_diffs <> [])

let test_concurrent_enclaves_on_two_cores () =
  let _mem, fsims, monitor = make_machine ~cores:2 () in
  let mk regions =
    match
      Monitor.create_enclave monitor ~evbase:enclave_evbase ~evsize:0x2000L
        ~entry:enclave_evbase ~regions
    with
    | Ok id -> id
    | Error _ -> Alcotest.fail "create"
  in
  let load id =
    let code = Asm.to_bytes (enclave_program ()) in
    (match Monitor.load_page monitor id ~vaddr:enclave_evbase ~contents:code with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "load");
    (match
       Monitor.load_page monitor id
         ~vaddr:(Int64.add enclave_evbase 0x1000L)
         ~contents:"\x29" (* 41 *)
     with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "load2");
    match Monitor.seal monitor id with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "seal"
  in
  let e0 = mk [ 8; 9 ] and e1 = mk [ 12; 13 ] in
  load e0;
  load e1;
  Array.iteri
    (fun i f ->
      let st = Fsim.state f in
      Cpu_state.set_mode st Priv.Supervisor;
      Cpu_state.set_pc st (Int64.of_int (Addr.region_base geometry 1 + (i * 0x1000))))
    fsims;
  (match Monitor.enter monitor ~core:0 e0 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter e0");
  (match Monitor.enter monitor ~core:1 e1 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "enter e1");
  check_bool "core 0 runs enclave 0" true
    (Monitor.current_domain monitor ~core:0 = Mailbox.To_enclave e0);
  check_bool "core 1 runs enclave 1" true
    (Monitor.current_domain monitor ~core:1 = Mailbox.To_enclave e1);
  (* Interleave the two cores' execution until both exit. *)
  let budget = ref 4_000 in
  while
    (Monitor.current_domain monitor ~core:0 <> Mailbox.To_os
    || Monitor.current_domain monitor ~core:1 <> Mailbox.To_os)
    && !budget > 0
  do
    decr budget;
    ignore (Fsim.step fsims.(0));
    ignore (Fsim.step fsims.(1))
  done;
  check_bool "both enclaves exited" true (!budget > 0);
  check_int "core0 purged twice" 2 (Monitor.purges monitor ~core:0);
  check_int "core1 purged twice" 2 (Monitor.purges monitor ~core:1);
  (* A second enter on a busy enclave is rejected. *)
  (match Monitor.enter monitor ~core:0 e0 with
  | Ok () -> () (* sealed again after exit: fine *)
  | Error _ -> Alcotest.fail "re-enter after exit should work");
  match Monitor.enter monitor ~core:1 e0 with
  | Error Monitor.E_state -> ()
  | _ -> Alcotest.fail "running enclave must not be enterable twice"

(* Random SM-call sequences never break the monitor's invariants: region
   ownership stays a partition of 64, enclave states follow the lifecycle
   automaton, and errors never mutate state observably. *)
let prop_monitor_state_machine =
  QCheck.Test.make ~name:"monitor survives random SM-call sequences" ~count:25
    QCheck.(small_list (pair (int_range 0 5) (int_range 0 3)))
    (fun ops ->
      let _mem, _fsims, monitor = make_machine () in
      let ids = ref [] in
      let pick_id k =
        match !ids with
        | [] -> 0
        | l -> List.nth l (k mod List.length l)
      in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 -> (
            (* create over two regions picked from a small pool *)
            let r = 8 + (2 * (k mod 4)) in
            match
              Monitor.create_enclave monitor ~evbase:enclave_evbase
                ~evsize:0x2000L ~entry:enclave_evbase ~regions:[ r; r + 1 ]
            with
            | Ok id -> ids := id :: !ids
            | Error _ -> ())
          | 1 ->
            ignore
              (Monitor.load_page monitor (pick_id k) ~vaddr:enclave_evbase
                 ~contents:"x")
          | 2 -> ignore (Monitor.seal monitor (pick_id k))
          | 3 -> ignore (Monitor.enter monitor ~core:0 (pick_id k))
          | 4 -> ignore (Monitor.exit_enclave monitor ~core:0)
          | _ -> ignore (Monitor.destroy monitor (pick_id k)))
        ops;
      (* Invariant 1: ownership is still a partition. *)
      let ledger = Monitor.regions monitor in
      let owned =
        List.length (Region.owned_by ledger Region.Monitor)
        + List.length (Region.owned_by ledger Region.Os)
        + List.fold_left
            (fun acc id ->
              acc + List.length (Region.owned_by ledger (Region.Enclave id)))
            0 !ids
      in
      (* Invariant 2: every enclave is in a legal state name. *)
      let legal =
        List.for_all
          (fun id ->
            match Monitor.enclave_state_name monitor id with
            | "loading" | "sealed" | "running" | "dead" -> true
            | _ -> false)
          !ids
      in
      owned = 64 && legal)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_core"
    [
      ( "region",
        [
          Alcotest.test_case "initial ownership" `Quick
            test_region_initial_ownership;
          Alcotest.test_case "transfer" `Quick test_region_transfer;
          Alcotest.test_case "perm mask" `Quick test_region_perm_mask;
        ]
        @ qsuite [ prop_region_partition ] );
      ( "crypto",
        [
          Alcotest.test_case "measurement determinism" `Quick
            test_measurement_determinism;
          Alcotest.test_case "measurement order" `Quick
            test_measurement_order_sensitive;
          Alcotest.test_case "finalize once" `Quick test_measurement_finalize_once;
          Alcotest.test_case "attestation roundtrip" `Quick
            test_attestation_roundtrip;
          Alcotest.test_case "mailbox" `Quick test_mailbox;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "lifecycle runs enclave" `Quick
            test_lifecycle_runs_enclave;
          Alcotest.test_case "enclave memory isolated" `Quick
            test_enclave_memory_isolated_from_os;
          Alcotest.test_case "overlap rejected" `Quick
            test_overlapping_allocation_rejected;
          Alcotest.test_case "destroy scrubs" `Quick
            test_destroy_scrubs_and_returns_regions;
          Alcotest.test_case "attestation" `Quick test_attestation_through_monitor;
          Alcotest.test_case "messaging" `Quick test_messaging_between_domains;
        ] );
      ("monitor_properties", qsuite [ prop_monitor_state_machine ]);
      ( "hostile",
        [
          Alcotest.test_case "async exit on interrupt" `Quick
            test_async_exit_on_interrupt;
          Alcotest.test_case "fault hidden from OS" `Quick
            test_enclave_fault_hidden_from_os;
          Alcotest.test_case "enclave cannot use OS calls" `Quick
            test_enclave_cannot_use_os_sm_calls;
        ] );
      ( "config",
        [
          Alcotest.test_case "variant names round-trip" `Quick
            test_variant_names_roundtrip;
          Alcotest.test_case "MI6 is the Figure 3 machine" `Quick
            test_mi6_is_figure3;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "run_multi completes" `Quick
            test_run_multi_completes;
          Alcotest.test_case "cpi stack sums to cycles" `Quick
            test_cpi_stack_sums_to_cycles;
          Alcotest.test_case "sharing not faster" `Quick
            test_multi_slower_than_solo;
          Alcotest.test_case "concurrent enclaves" `Quick
            test_concurrent_enclaves_on_two_cores;
        ]
        @ qsuite [ prop_quiet_detector_matches_oracle ] );
      ( "fresh-machine",
        [
          Alcotest.test_case "non-vacuity: different seeds diverge" `Quick
            test_fresh_machine_nonvacuity;
        ]
        @ qsuite [ prop_fresh_machine_determinism ] );
      ( "bisect",
        [
          Alcotest.test_case "variant pair diverges (activity oracle)" `Quick
            test_bisect_variant_pair_diverges;
          Alcotest.test_case "identical machines stay clean" `Quick
            test_bisect_identical_machines_clean;
          Alcotest.test_case "signature oracle pins the first cycle" `Quick
            test_bisect_signature_oracle_pins_cycle;
        ] );
      ( "ecall_abi",
        [
          Alcotest.test_case "full lifecycle via ecall" `Quick
            test_ecall_abi_lifecycle;
          Alcotest.test_case "bad call rejected" `Quick
            test_ecall_bad_call_rejected;
        ] );
    ]

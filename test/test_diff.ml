(* Differential tests between the functional reference model and the
   out-of-order timing core, plus the purge-indistinguishability property
   (paper Section 6 transition isolation).

   Random RV64IM programs (forward-only control flow, so every program
   terminates) execute on the functional simulator; the committed path is
   translated to the µop stream the ooo core consumes and retired through
   a full variant machine.  The retirement stream must be exactly the
   committed path — same order, branch outcomes, and store addresses —
   and the functional model itself must be run-to-run deterministic on
   regs, CSRs, and the data window.  Counterexamples shrink and print as
   assembly. *)

open Mi6_isa
open Mi6_core

(* The random forward-branching program generator lives in
   {!Mi6_progen.Gen_programs}, shared with the taint-analysis soundness
   property (test_analysis) and the interrupt-schedule harness
   (test_schedule). *)
module Gen_programs = Mi6_progen.Gen_programs

let code_base = Gen_programs.code_base
let data_base = Gen_programs.data_base
let data_bytes = Gen_programs.data_bytes
let materialize = Gen_programs.materialize
let arbitrary_ops = Gen_programs.arbitrary ()

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

let run_func_of ops =
  let prog = Asm.assemble ~base:code_base (materialize ops) in
  Difftest.run_func ~program:prog ~data_base ~data_bytes ~max_steps:20_000 ()

let check_program variant ops =
  let run = run_func_of ops in
  (* Architectural determinism of the reference model: a fresh replay
     must agree on registers, CSRs, the data window, and the store
     log. *)
  (match Difftest.arch_diff run.Difftest.arch (run_func_of ops).Difftest.arch
   with
  | Some d ->
    QCheck.Test.fail_reportf "functional model nondeterministic: %s" d
  | None -> ());
  let uops =
    Difftest.to_uops run ~func_code_base:code_base ~func_data_base:data_base
  in
  let ooo = Difftest.run_ooo ~variant uops in
  match
    Difftest.compare_commits ~expected:uops ~actual:ooo.Difftest.committed
  with
  | Ok () -> true
  | Error msg ->
    (* Map the failing retirement index to its cycle with a second run
       from reset and print the causal slice under the counterexample. *)
    let slice =
      match
        Difftest.first_mismatch ~expected:uops ~actual:ooo.Difftest.committed
      with
      | None -> ""
      | Some index -> (
        try Difftest.explain_divergence ~variant ~index uops
        with _ -> "(slice unavailable)")
    in
    QCheck.Test.fail_reportf "%s divergence: %s\n%s"
      (Config.variant_name variant)
      msg slice

(* >= 500 random programs per runtest across the three variants. *)
let diff_tests =
  List.map
    (fun (variant, count) ->
      QCheck.Test.make
        ~name:
          (Printf.sprintf "func/ooo retirement equivalence, %s (%d programs)"
             (Config.variant_name variant)
             count)
        ~count arbitrary_ops (check_program variant))
    [ (Config.Base, 350); (Config.Fpma, 100); (Config.Flush, 100) ]

(* ------------------------------------------------------------------ *)
(* Purge indistinguishability (Section 6 transition isolation)         *)
(* ------------------------------------------------------------------ *)

(* An enclave runs an arbitrary program, traps into the monitor (purge),
   returns (purge again), and then a fixed probe executes.  On the full
   MI6 variant the probe's microarchitectural observables — window
   cycles, mispredicts, L1 I/D misses — must be independent of what the
   enclave did: the purge scrubbed the core-private state and the
   partitioned LLC confines the enclave's residue to its own region.

   The probe lives in disjoint address ranges (code far from the enclave
   pcs, data in region 3 instead of the enclave's region 2), modelling
   the next protection domain. *)

module Uop = Mi6_ooo.Uop

let geometry = Mi6_mem.Addr.default_regions
let enclave_code = Mi6_mem.Addr.region_base geometry 1
let enclave_data = Mi6_mem.Addr.region_base geometry 2
let probe_code = enclave_code + 0x100000
let probe_data = Mi6_mem.Addr.region_base geometry 3

let marker pc kind = { Uop.pc; kind; dst = None; srcs = [] }

(* Settle gap in µops between the return-path purge and the measured
   probe body, derived from the machine configuration (both purges, a
   full ROB drain, a front-end redirect refill, one DRAM round trip)
   rather than a hand-tuned constant — see {!Schedule.settle_uops}.  A
   deeper ROB or a slower purge can no longer silently under-warm the
   property. *)
let settle = Schedule.settle_uops (Config.timing ~cores:1 Config.Fpma)

(* Fixed probe: a settle gap, then loads touching fresh pages (TLB +
   cache fills), a branch pattern (predictor state), and stores. *)
let probe_uops =
  let gap =
    List.init settle (fun i ->
        Uop.alu ~pc:(probe_code + (4 * i)) ~dst:1 ~srcs:[] ())
  in
  let after_gap = probe_code + (4 * settle) in
  let body =
    List.concat
      (List.init 16 (fun i ->
           let pc = after_gap + (16 * i) in
           [
             Uop.load ~pc ~addr:(probe_data + (i * 4096)) ~dst:2 ~srcs:[] ();
             Uop.branch ~pc:(pc + 4) ~taken:false ~target:(pc + 12)
               ~srcs:[ 2 ] ();
             Uop.alu ~pc:(pc + 8) ~dst:3 ~srcs:[ 2 ] ();
             Uop.store ~pc:(pc + 12) ~addr:(probe_data + (i * 4096) + 64)
               ~srcs:[ 3 ] ();
           ]))
  in
  gap @ body

let stream_of_list uops =
  let rest = ref uops in
  fun () ->
    match !rest with
    | [] -> None
    | u :: tl ->
      rest := tl;
      Some u

(* Enclave prefix generator: straight-line µops over the enclave's own
   code/data ranges — loads, stores, alus, and branches that train the
   predictor. *)
let prefix_gen =
  let open QCheck.Gen in
  let uop i =
    let pc = enclave_code + (4 * i) in
    frequency
      [
        (3, map (fun d -> Uop.alu ~pc ~dst:(5 + (d mod 8)) ~srcs:[] ())
             (int_range 0 7));
        ( 3,
          map
            (fun off ->
              Uop.load ~pc ~addr:(enclave_data + (off * 8)) ~dst:4 ~srcs:[] ())
            (int_range 0 8191) );
        ( 2,
          map
            (fun off ->
              Uop.store ~pc ~addr:(enclave_data + (off * 8)) ~srcs:[ 4 ] ())
            (int_range 0 8191) );
        ( 2,
          map
            (fun taken -> Uop.branch ~pc ~taken ~target:(pc + 4) ~srcs:[ 4 ] ())
            bool );
      ]
  in
  sized_size (int_range 0 120) (fun n ->
      flatten_l (List.init n (fun i -> uop i)))

let arbitrary_prefix =
  QCheck.make
    ~print:(fun uops ->
      String.concat "\n" (List.map Difftest.uop_to_string uops))
    ~shrink:QCheck.Shrink.list prefix_gen

let observable ~variant prefix =
  let n = List.length prefix in
  let trap_pc = enclave_code + (4 * n) in
  let stream =
    prefix
    @ [ marker trap_pc Uop.Enter_kernel; marker (trap_pc + 4) Uop.Exit_kernel ]
    @ probe_uops
  in
  (* Warmup covers the enclave, both purges, and the settle gap; the
     measured window is exactly the probe body. *)
  let warmup = n + 2 + settle in
  let r =
    Tmachine.run_stream
      ~timing:(Config.timing ~cores:1 variant)
      ~stream:(stream_of_list stream) ~warmup
      ~measure:(List.length probe_uops - settle)
      ()
  in
  let get = Mi6_util.Stats.get r.Tmachine.stats in
  ( r.Tmachine.cycles,
    get "core.mispredicts",
    get "l1d.0.misses",
    get "l1i.0.misses" )

let reference = lazy (observable ~variant:Config.Fpma [])

let purge_indistinguishability =
  QCheck.Test.make
    ~name:"post-purge probe observables independent of enclave program"
    ~count:30 arbitrary_prefix (fun prefix ->
      let obs = observable ~variant:Config.Fpma prefix in
      let refr = Lazy.force reference in
      if obs = refr then true
      else
        let p (a, b, c, d) = Printf.sprintf "cycles=%d mispredicts=%d l1d=%d l1i=%d" a b c d in
        QCheck.Test.fail_reportf
          "purge leaked: probe saw %s after this enclave, %s after an empty \
           one"
          (p obs) (p refr))

(* Witness that the harness can see a leak at all: without purges (BASE
   machine, flush_on_trap off) a cache-priming enclave must change the
   probe's timing. *)
let test_base_leak_witness () =
  let priming =
    (* Touch the probe's own lines pre-trap; on BASE they stay resident. *)
    List.init 64 (fun i ->
        Uop.load
          ~pc:(enclave_code + (4 * i))
          ~addr:(probe_data + (i mod 16 * 4096))
          ~dst:4 ~srcs:[] ())
  in
  let idle = observable ~variant:Config.Base [] in
  let primed = observable ~variant:Config.Base priming in
  Alcotest.(check bool)
    "BASE probe distinguishes priming enclave from idle" true (idle <> primed)

(* Converse deterministic anchor on the secure machine: a heavy but
   {e legal} enclave — confined to its own data region, as the monitor's
   exclusive region ownership guarantees — leaves no probe-visible
   trace.  (Priming the probe's own region, as the BASE witness does, is
   not a behaviour the purge must hide: cross-region access is
   architecturally impossible under the security monitor, and the LLC
   residue it would leave is confined by partitioning to the region's
   owner.) *)
let test_fpma_priming_clean () =
  let priming =
    List.concat
      (List.init 64 (fun i ->
           let pc = enclave_code + (8 * i) in
           [
             Uop.load ~pc
               ~addr:(enclave_data + (i mod 16 * 4096))
               ~dst:4 ~srcs:[] ();
             Uop.branch ~pc:(pc + 4) ~taken:true ~target:(pc + 8) ~srcs:[ 4 ]
               ();
           ]))
  in
  let idle = observable ~variant:Config.Fpma [] in
  let primed = observable ~variant:Config.Fpma priming in
  Alcotest.(check bool)
    "F+P+M+A probe cannot distinguish priming enclave from idle" true
    (idle = primed)

(* The derived settle window must cover at least the two purges and one
   ROB drain at full commit bandwidth — the structural minimum for the
   probe to start from scrubbed state. *)
let test_settle_floor () =
  let cfg = (Config.timing ~cores:1 Config.Fpma).Config.core in
  let open Mi6_ooo.Core_config in
  Alcotest.(check bool)
    "settle covers both purges and a drain" true
    (settle >= cfg.commit_width * ((2 * cfg.purge_floor) + cfg.rob_entries));
  Alcotest.(check bool) "settle is finite/sane" true (settle < 100_000)

(* ------------------------------------------------------------------ *)
(* Transient-leak witnesses commit secret-independent paths            *)
(* ------------------------------------------------------------------ *)

(* The spectre-v2 and speculative-store-bypass witnesses leak only in
   the wrong-path shadow: their {e committed} paths must be bit-for-bit
   independent of the secret, and those paths must retire faithfully
   through the ooo core.  This anchors what "clean architecturally,
   leaky speculatively" means for the lint verdicts in test_analysis. *)
module Witness = Mi6_analysis.Witness

let witness_committed_uops w secret =
  let run =
    Difftest.run_func
      ~init_regs:[ (Reg.a0, secret) ]
      ~program:(Witness.program w) ~data_base:0x8000 ~data_bytes:1024
      ~max_steps:20_000 ()
  in
  Difftest.to_uops run ~func_code_base:w.Witness.base ~func_data_base:0x8000

let test_transient_witness_commits name () =
  match Witness.find name with
  | None -> Alcotest.failf "unknown witness %s" name
  | Some w ->
    let a = witness_committed_uops w 0x11L in
    let b = witness_committed_uops w 0xA5L in
    (match Difftest.compare_commits ~expected:a ~actual:b with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "%s committed path depends on the secret: %s" name msg);
    (* And the secret-independent path retires exactly through the ooo
       core, mispredicted shadow and all. *)
    let ooo = Difftest.run_ooo ~variant:Config.Base a in
    (match
       Difftest.compare_commits ~expected:a ~actual:ooo.Difftest.committed
     with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s ooo divergence: %s" name msg)

let transient_witness_tests =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s commits a secret-independent path" name)
        `Quick
        (test_transient_witness_commits name))
    [ "spectre-v1"; "spectre-v2"; "ssb"; "rsb-underflow" ]

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* explain_divergence anchors                                          *)
(* ------------------------------------------------------------------ *)

(* The slice printed under a counterexample only appears when a property
   above fails, so its bytes are pinned here: MD5 of the slice for two
   witness streams and a 3,000-µop gcc stream, on BASE and F+P+M+A, at
   the first retirement, the middle one, and an index past the end.  A
   change to the retirement-cycle mapping, the replay, or the slice
   text moves them. *)

let witness_uops name =
  let w = Option.get (Mi6_analysis.Witness.find name) in
  let run =
    Difftest.run_func ~program:(Mi6_analysis.Witness.program w)
      ~data_base:0x8000 ~data_bytes:1024 ~max_steps:20_000 ()
  in
  Difftest.to_uops run ~func_code_base:w.Mi6_analysis.Witness.base
    ~func_data_base:0x8000

let gcc_uops () =
  let stream =
    Tmachine.spec_stream ~core:0 ~bench:Mi6_workload.Spec.Gcc ~limit:3_000 ()
  in
  List.of_seq (Seq.of_dispenser stream)

(* Per variant, the digests at index 0, n/2 and n+10. *)
let explain_anchors =
  [
    ( "spectre-v1",
      (fun () -> witness_uops "spectre-v1"),
      [
        ( Config.Base,
          [ "31604c7bd346aaefcfa355987b52b1e7";
            "e6844788e94d28f867685ef1ef38e258";
            "ae2473ea9687edb555bfcdbe248f2322" ] );
        ( Config.Fpma,
          [ "06c63732aae1b841ce973a1a908cfe71";
            "7f50bc605e2a183aa739ca0ca30c8972";
            "895060bcc6aaac80e419b830aacb775a" ] );
      ] );
    ( "leaky-branch",
      (fun () -> witness_uops "leaky-branch"),
      [
        ( Config.Base,
          [ "6ec5e24f24d2117eaa087e80afe93aad";
            "cf76d8802ac9eeb52eee41e9aae690e0";
            "961b193adfd78c4c86d09b10ff9c9412" ] );
        ( Config.Fpma,
          [ "3bf425aad12b3f5d794760af8380506b";
            "f1e26e5d0a106c98e7ae6d7a7e75a0aa";
            "2a6519c1d536778af19ccfa0b990737e" ] );
      ] );
    ( "gcc 3000 uops",
      gcc_uops,
      [
        ( Config.Base,
          [ "ea25ed60cbcb28372ffad7062d76a002";
            "b16cf00e93fbc994bd1e31e163ee33cc";
            "b8f31ad9aac149d13e520c1b5d25fd72" ] );
        ( Config.Fpma,
          [ "b5a842d0c343637acd03931181068278";
            "b66853643fdc7c14f99e030c4f7b0fb7";
            "f2700a21c3c62eaf27e1c2ef4af2b547" ] );
      ] );
  ]

let explain_tests =
  List.map
    (fun (name, uops, per_variant) ->
      Alcotest.test_case name `Quick (fun () ->
          let uops = uops () in
          let n = List.length uops in
          List.iter
            (fun (variant, digests) ->
              List.iter2
                (fun index want ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s index %d" (Config.variant_name variant)
                       index)
                    want
                    (Digest.to_hex
                       (Digest.string
                          (Difftest.explain_divergence ~variant ~index uops))))
                [ 0; n / 2; n + 10 ] digests)
            per_variant))
    explain_anchors

let () =
  Alcotest.run "mi6_diff"
    [
      ("differential", qsuite diff_tests);
      ( "purge-indistinguishability",
        qsuite [ purge_indistinguishability ]
        @ [
            Alcotest.test_case "BASE leak witness" `Quick
              test_base_leak_witness;
            Alcotest.test_case "F+P+M+A priming clean" `Quick
              test_fpma_priming_clean;
            Alcotest.test_case "settle gap derived from config" `Quick
              test_settle_floor;
          ] );
      ("transient-witnesses", transient_witness_tests);
      ("explain-divergence", explain_tests);
    ]

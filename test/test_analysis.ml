(* Tests for the static analysis layer (lib/analysis): the secret-taint
   constant-time analyzer and the hardware-invariant linter.

   The centerpiece is a dynamic/static cross-validation property: random
   programs from the shared {!Gen_programs} generator run twice on the
   functional model with two different secret inputs; whenever the two
   committed µop streams differ — i.e. the BASE machine's trace-driven
   timing model could observe the secret — the static analyzer must have
   flagged the program.  (The converse need not hold: the analyzer is an
   over-approximation.) *)

open Mi6_isa
open Mi6_core
module Taint = Mi6_analysis.Taint
module Lint = Mi6_analysis.Lint
module Witness = Mi6_analysis.Witness
module Channel = Mi6_analysis.Channel
module Vset = Mi6_analysis.Vset
module Trace = Mi6_obs.Trace
module Audit = Mi6_obs.Audit
module Json = Mi6_obs.Json
module Llc = Mi6_llc.Llc
module Core_config = Mi6_ooo.Core_config
module L1 = Mi6_cache.L1
module Index = Mi6_cache.Index
module Bitvec = Mi6_util.Bitvec
module Addr = Mi6_mem.Addr
module Gen_programs = Mi6_progen.Gen_programs

(* ------------------------------------------------------------------ *)
(* Soundness: dynamically leaking => statically flagged                 *)
(* ------------------------------------------------------------------ *)

(* a3: outside the generator's scratch pool, never written by the
   prologue, so an [init_regs] seed survives as a program input. *)
let secret_reg = 13
let secret = { Taint.regs = [ secret_reg ]; ranges = [] }

let arbitrary_secret_ops =
  Gen_programs.arbitrary ~extra_srcs:[ secret_reg ] ~indexed:true ()

let assemble_ops ops =
  Asm.assemble ~base:Gen_programs.code_base (Gen_programs.materialize ops)

let committed_uops prog value =
  let run =
    Difftest.run_func
      ~init_regs:[ (secret_reg, value) ]
      ~program:prog ~data_base:Gen_programs.data_base
      ~data_bytes:Gen_programs.data_bytes ~max_steps:20_000 ()
  in
  Difftest.to_uops run ~func_code_base:Gen_programs.code_base
    ~func_data_base:Gen_programs.data_base

(* µops carry the committed path (pcs, branch outcomes, addresses) and
   no data values, so stream inequality is exactly "the timing model's
   input depends on the secret". *)
let secret_pairs = [ (0L, 1L); (0L, -1L); (0x0123_4567_89AB_CDEFL, 64L) ]

let dynamic_leak prog =
  List.exists
    (fun (a, b) -> committed_uops prog a <> committed_uops prog b)
    secret_pairs

let leaky_seen = ref 0

let prop_soundness =
  QCheck.Test.make
    ~name:"dynamically leaking programs are statically flagged (500 programs)"
    ~count:500 arbitrary_secret_ops (fun ops ->
      let prog = assemble_ops ops in
      if not (dynamic_leak prog) then true
      else begin
        incr leaky_seen;
        match Taint.analyze_program ~secret prog with
        | Error msg -> QCheck.Test.fail_reportf "undecodable image: %s" msg
        | Ok [] ->
          QCheck.Test.fail_reportf
            "committed µop streams depend on the secret in x%d, but the \
             analyzer found nothing:\n%s"
            secret_reg (Gen_programs.print_ops ops)
        | Ok _ -> true
      end)

(* The property is only meaningful if the generator actually produces
   leaky programs; with the secret register as a branch/index source a
   healthy fraction must leak. *)
let test_soundness_nonvacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "cross-validation saw %d leaking programs" !leaky_seen)
    true (!leaky_seen > 20)

(* ------------------------------------------------------------------ *)
(* Static/dynamic channel agreement                                     *)
(* ------------------------------------------------------------------ *)

(* The stronger cross-check: when the dynamic Audit can not only see a
   divergence but localize it to a hardware channel, the static channel
   inference must have named that channel.  The audit observes the
   shared memory system — L1 misses, LLC structures, DRAM commands,
   page walks; core-side counters and purges are diagnostics, not
   attacker-visible LLC traffic, so they are filtered out. *)
let audit_filter = [ Trace.L1; Trace.Llc; Trace.Dram; Trace.Ptw ]
let base_timing = Config.timing ~cores:1 Config.Base

let traced_events uops =
  let trace = Trace.create ~filter:audit_filter () in
  ignore (Difftest.run_ooo ~trace ~variant:Config.Base uops);
  Trace.events trace

(* The machine is trace-driven, so equal committed streams replay to
   bit-identical event streams; only pay for machine runs on streams
   that actually differ. *)
let audit_localized ua ub =
  if ua = ub then None
  else
    Audit.first_leaking_channel
      (Audit.diff ~label_a:"s=a" ~label_b:"s=b" (traced_events ua)
         (traced_events ub))

(* Union of the statically inferred channels, projected onto the
   Audit's vocabulary (the front-end Btb/Rsb channels have no dynamic
   counterpart). *)
let static_audit_channels ?shared ~secret prog =
  match Taint.analyze_program ~window:32 ?shared ~secret prog with
  | Error _ -> []
  | Ok fs ->
    List.sort_uniq compare
      (List.filter_map Channel.to_audit
         (List.concat_map (Channel.infer ~timing:base_timing) fs))

let localized_seen = ref 0

let prop_channel_agreement =
  QCheck.Test.make
    ~name:
      "audit-localized divergences carry a statically inferred channel (500 \
       programs)"
    ~count:500 arbitrary_secret_ops (fun ops ->
      let prog = assemble_ops ops in
      let localized =
        List.filter_map
          (fun (a, b) ->
            audit_localized (committed_uops prog a) (committed_uops prog b))
          secret_pairs
      in
      if localized = [] then true
      else begin
        incr localized_seen;
        let static = static_audit_channels ~secret prog in
        match
          List.find_opt (fun ch -> not (List.mem ch static)) localized
        with
        | None -> true
        | Some ch ->
          QCheck.Test.fail_reportf
            "the audit localizes the leak to %s but the static channel set \
             is [%s]:\n%s"
            (Audit.channel_name ch)
            (String.concat ", " (List.map Audit.channel_name static))
            (Gen_programs.print_ops ops)
      end)

let test_agreement_nonvacuous () =
  Alcotest.(check bool)
    (Printf.sprintf "agreement property saw %d localized leaks"
       !localized_seen)
    true
    (!localized_seen >= 10)

(* The same agreement over the curated corpus: every witness whose
   secret pair the audit can localize must be statically explained. *)
let test_witness_channel_agreement () =
  List.iter
    (fun w ->
      match w.Witness.secret_reg with
      | None -> ()
      | Some r ->
        let uops_of v =
          let run =
            Difftest.run_func ~init_regs:[ (r, v) ]
              ~program:(Witness.program w) ~data_base:0x8000 ~data_bytes:1024
              ~max_steps:20_000 ()
          in
          Difftest.to_uops run ~func_code_base:w.Witness.base
            ~func_data_base:0x8000
        in
        (match audit_localized (uops_of 0x11L) (uops_of 0xA5L) with
        | None -> ()
        | Some ch ->
          let static =
            static_audit_channels ~shared:w.Witness.shared
              ~secret:w.Witness.secret (Witness.program w)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: audited channel %s statically inferred"
               w.Witness.name (Audit.channel_name ch))
            true (List.mem ch static)))
    Witness.all

(* ------------------------------------------------------------------ *)
(* Witness programs                                                     *)
(* ------------------------------------------------------------------ *)

let analyze_witness ?window w =
  match Taint.analyze_program ?window ~shared:w.Witness.shared
          ~secret:w.Witness.secret (Witness.program w)
  with
  | Error msg -> Alcotest.failf "%s: %s" w.Witness.name msg
  | Ok fs -> fs

let test_witness_verdicts () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "%s clean (committed)" w.Witness.name)
        w.Witness.expect_clean
        (analyze_witness ~window:0 w = []);
      Alcotest.(check bool)
        (Printf.sprintf "%s clean (speculative window 32)" w.Witness.name)
        w.Witness.expect_clean_speculative
        (analyze_witness ~window:32 w = []))
    Witness.all

let test_speculative_labeling () =
  let spectre = Option.get (Witness.find "spectre-v1") in
  let fs = analyze_witness ~window:32 spectre in
  Alcotest.(check bool) "spectre-v1 findings exist" true (fs <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "spectre-v1 finding labeled speculative" true
        f.Taint.speculative)
    fs;
  let branchy = Option.get (Witness.find "leaky-branch") in
  List.iter
    (fun f ->
      Alcotest.(check bool) "committed finding not labeled speculative" false
        f.Taint.speculative)
    (analyze_witness ~window:32 branchy)

(* Anchors for the two transient-only witnesses: the exact channel the
   analyzer must name, and that it is only visible speculatively. *)
let test_spectre_v2_channel () =
  let w = Option.get (Witness.find "spectre-v2") in
  let fs = analyze_witness ~window:32 w in
  Alcotest.(check bool) "spectre-v2 flagged" true (fs <> []);
  Alcotest.(check bool) "spectre-v2 names the jump-target channel" true
    (List.exists
       (fun f -> f.Taint.kind = Taint.Jump_target && f.Taint.speculative)
       fs)

let test_ssb_channel () =
  let w = Option.get (Witness.find "ssb") in
  let fs = analyze_witness ~window:32 w in
  Alcotest.(check bool) "ssb flagged" true (fs <> []);
  Alcotest.(check bool) "ssb names the load-address channel" true
    (List.exists
       (fun f -> f.Taint.kind = Taint.Load_address && f.Taint.speculative)
       fs);
  (* The bypass needs no mispredicted branch: the finding survives even
     a minimal wrong-path window. *)
  Alcotest.(check bool) "ssb flagged at window 1" true
    (analyze_witness ~window:1 w <> [])

(* RSB underflow: a return executed with an empty return-address stack
   predicts from stale state, so the gadget is reachable only
   transiently — and the channel lowering must name the RSB. *)
let test_rsb_underflow_channel () =
  let w = Option.get (Witness.find "rsb-underflow") in
  Alcotest.(check int) "committed run clean" 0
    (List.length (analyze_witness ~window:0 w));
  let fs = analyze_witness ~window:32 w in
  Alcotest.(check bool) "rsb-underflow flagged speculatively" true (fs <> []);
  List.iter
    (fun f ->
      Alcotest.(check bool) "finding labeled speculative" true
        f.Taint.speculative;
      Alcotest.(check bool) "finding carries rsb provenance" true f.Taint.rsb)
    fs;
  Alcotest.(check bool) "lowering names the rsb channel" true
    (List.mem Channel.Rsb
       (List.concat_map (Channel.infer ~timing:base_timing) fs))

(* Shared-region discipline: reads of declared read-shared memory are
   fine until the address is secret-tainted; writes are never fine. *)
let test_shared_region_witnesses () =
  let get n = Option.get (Witness.find n) in
  let fs = analyze_witness ~window:32 (get "shared-leaky-read") in
  Alcotest.(check bool) "shared-leaky-read flagged as shared-read" true
    (List.exists (fun f -> f.Taint.kind = Taint.Shared_read) fs);
  let fs = analyze_witness ~window:0 (get "shared-write") in
  Alcotest.(check bool) "shared-write flagged architecturally" true
    (List.exists (fun f -> f.Taint.kind = Taint.Shared_write) fs);
  Alcotest.(check int) "ct-shared-read clean" 0
    (List.length (analyze_witness ~window:32 (get "ct-shared-read")))

(* The JSON export must be a pure function of the program: findings
   sorted on (pc, kind, speculative), bytes identical across runs. *)
let test_findings_json_deterministic () =
  let w = Option.get (Witness.find "shared-leaky-read") in
  let render () =
    let fs = analyze_witness ~window:32 w in
    Alcotest.(check bool) "sorted on (pc, kind, speculative)" true
      (List.sort Taint.compare_finding fs = fs);
    Json.to_string (Json.List (List.map Taint.finding_to_json fs))
  in
  Alcotest.(check string) "byte-identical across two runs" (render ())
    (render ())

(* A program violating all four disciplines at once; the emitted findings
   must come out sorted on (pc, kind). *)
let test_findings_sorted () =
  let items =
    [
      Asm.I (Instr.Muldiv { op = Instr.Div; rd = 7; rs1 = 6; rs2 = 10 });
      Asm.Li (31, 0x8000);
      Asm.I (Instr.Alu { op = Instr.Add; rd = 5; rs1 = 31; rs2 = 10 });
      Asm.I (Instr.Load { kind = Instr.Ld; rd = 6; rs1 = 5; offset = 0 });
      Asm.Br_to (Instr.Beq, 10, 0, "end");
      Asm.I (Instr.Store { kind = Instr.Sd; rs1 = 5; rs2 = 6; offset = 8 });
      Asm.Label "end";
      Asm.I Instr.Wfi;
    ]
  in
  let prog = Asm.assemble ~base:0x1000 items in
  match Taint.analyze_program ~secret:{ Taint.regs = [ 10 ]; ranges = [] }
          prog
  with
  | Error msg -> Alcotest.failf "undecodable: %s" msg
  | Ok fs ->
    Alcotest.(check int) "all four kinds found" 4 (List.length fs);
    let keys = List.map (fun f -> (f.Taint.pc, f.Taint.kind)) fs in
    Alcotest.(check bool) "sorted on (pc, kind)" true
      (keys = List.sort compare keys)

(* Dynamic anchors on the BASE timing machine: the leaky-branch witness
   produces secret-dependent cycle counts, the constant-time select does
   not. *)
let witness_cycles w value =
  let init_regs =
    match w.Witness.secret_reg with Some r -> [ (r, value) ] | None -> []
  in
  let run =
    Difftest.run_func ~init_regs ~program:(Witness.program w)
      ~data_base:0x8000 ~data_bytes:1024 ~max_steps:20_000 ()
  in
  let uops =
    Difftest.to_uops run ~func_code_base:w.Witness.base
      ~func_data_base:0x8000
  in
  (Difftest.run_ooo ~variant:Config.Base uops).Difftest.cycles

let test_leaky_branch_dynamic () =
  let w = Option.get (Witness.find "leaky-branch") in
  Alcotest.(check bool) "BASE cycles separate the secrets" true
    (witness_cycles w 0L <> witness_cycles w 1L)

let test_ct_select_dynamic () =
  let w = Option.get (Witness.find "ct-select") in
  Alcotest.(check int) "BASE cycles independent of the secret"
    (witness_cycles w 0L) (witness_cycles w 1L)

let test_reg_of_name () =
  Alcotest.(check (option int)) "a0" (Some 10) (Reg.of_name "a0");
  Alcotest.(check (option int)) "x31" (Some 31) (Reg.of_name "x31");
  Alcotest.(check (option int)) "case-insensitive" (Some 10)
    (Reg.of_name "A0");
  Alcotest.(check (option int)) "zero alias" (Some 0) (Reg.of_name "zero");
  Alcotest.(check (option int)) "unknown" None (Reg.of_name "nope");
  Alcotest.(check (option int)) "out of range" None (Reg.of_name "x32")

(* ------------------------------------------------------------------ *)
(* Value-set abstract domain                                            *)
(* ------------------------------------------------------------------ *)

let arb_member = QCheck.(map Int64.of_int (int_range (-1024) 1024))
let arb_members = QCheck.(list_of_size Gen.(int_range 1 40) arb_member)

(* Soundness: every concrete result of a concrete pair stays inside the
   abstract transfer of the operands' abstractions — across the exact
   small-set regime, the interval hull (lists above max_card), join and
   widen. *)
let prop_vset_transfer_sound =
  QCheck.Test.make ~name:"vset: concrete results stay inside transfers"
    ~count:500
    QCheck.(pair arb_members arb_members)
    (fun (xs, ys) ->
      let a = Vset.of_list xs and b = Vset.of_list ys in
      List.for_all
        (fun (nm, f, g) ->
          let r = f a b in
          List.for_all
            (fun x ->
              List.for_all
                (fun y ->
                  Vset.mem (g x y) r
                  || QCheck.Test.fail_reportf
                       "%s: %Ld . %Ld = %Ld escapes %s" nm x y (g x y)
                       (Vset.to_string r))
                ys)
            xs)
        [
          ("add", Vset.add, Int64.add);
          ("sub", Vset.sub, Int64.sub);
          ("and", Vset.band, Int64.logand);
          ("or", Vset.bor, Int64.logor);
          ("xor", Vset.bxor, Int64.logxor);
        ]
      && List.for_all
           (fun x ->
             Vset.mem x (Vset.join a b)
             && Vset.mem x (Vset.join b a)
             && Vset.mem x (Vset.widen a b)
             && Vset.mem x (Vset.widen b a))
           xs)

(* Termination: a loop bumping an address by a constant stride every
   iteration must reach a widening fixpoint — the finite set saturates
   in at most max_card steps, then the interval bound climbs a fixed
   threshold ladder. *)
let prop_vset_widening_terminates =
  QCheck.Test.make ~name:"vset: widening chains stabilize" ~count:200
    QCheck.(pair arb_member (int_range 1 4096))
    (fun (start, stride) ->
      let stride = Vset.const (Int64.of_int stride) in
      let rec climb w v n =
        if n > (2 * Vset.max_card) + 16 then false
        else
          let w' = Vset.widen w v in
          if Vset.equal w' w then true else climb w' (Vset.add v stride) (n + 1)
      in
      climb Vset.bot (Vset.const start) 0)

(* Resolution against the machine's real geometry: the classic gadget
   address set base + (secret & 0xF8) spans exactly four cache lines of
   one page, and those lines land in four distinct LLC sets of the
   timing configuration the channel lowering consults. *)
let test_vset_index_resolution () =
  let masked = Vset.band Vset.top (Vset.const 0xF8L) in
  let addr = Vset.add (Vset.const 0x8000L) masked in
  Alcotest.(check (option int)) "four cache lines" (Some 4)
    (Vset.unit_count addr ~width:8 ~shift:6);
  Alcotest.(check (option int)) "one page" (Some 1)
    (Vset.unit_count addr ~width:8 ~shift:12);
  let lines = Option.get (Vset.unit_list addr ~width:8 ~shift:6 ~max:16) in
  Alcotest.(check (list int)) "the expected lines" [ 512; 513; 514; 515 ]
    lines;
  let index = base_timing.Config.llc.Llc.index in
  Alcotest.(check int) "four distinct LLC sets" 4
    (List.length
       (List.sort_uniq compare
          (List.map (fun line -> Index.index index ~line) lines)));
  Alcotest.(check bool) "intersects the touched window" true
    (Vset.may_intersect addr ~lo:0x80F0L ~hi:0x8100L ~width:8);
  Alcotest.(check bool) "misses a disjoint window" false
    (Vset.may_intersect addr ~lo:0x8200L ~hi:0x8300L ~width:8)

(* ------------------------------------------------------------------ *)
(* Hardware-invariant linter                                            *)
(* ------------------------------------------------------------------ *)

let has_check fs name = List.exists (fun f -> f.Lint.check = name) fs

let test_lint_secure_clean () =
  List.iter
    (fun cores ->
      let fs = Lint.lint_timing ~name:"mi6" (Config.secure_multicore ~cores) in
      Alcotest.(check int)
        (Printf.sprintf "%d-core secure machine lints clean" cores)
        0 (List.length fs))
    [ 1; 2; 4 ]

let test_lint_base_findings () =
  let fs = Lint.lint_timing ~name:"base" (Config.timing ~cores:2 Config.Base) in
  List.iter
    (fun check ->
      Alcotest.(check bool) (check ^ " flagged on BASE") true
        (has_check fs check))
    [ "purge-on-trap"; "mshr-vs-dram"; "llc-mshr-sharing"; "llc-partition" ]

let test_lint_purge_floor () =
  Alcotest.(check int) "paper floor is 512 cycles" 512
    (Lint.required_purge_floor ~core:Core_config.default
       ~l1:L1.default_config);
  (* The binding structure: 4096-entry tournament tables at 8/cycle. *)
  Alcotest.(check bool) "tournament tables dominate" true
    (List.exists
       (fun s ->
         match s.Lint.s_coverage with
         | Lint.Flushed { entries = 4096; rate = 8 } -> true
         | _ -> false)
       (Lint.purge_list ~core:Core_config.default ~l1:L1.default_config));
  let t = Config.secure_multicore ~cores:2 in
  let t =
    { t with
      Config.core = { t.Config.core with Core_config.purge_floor = 100 } }
  in
  Alcotest.(check bool) "lowered purge_floor flagged" true
    (has_check (Lint.lint_timing ~name:"mi6" t) "purge-floor")

let test_lint_mshr_sizing () =
  let t = Config.secure_multicore ~cores:2 in
  let clean = Lint.lint_timing ~name:"mi6" t in
  Alcotest.(check bool) "exactly d_max/2 MSHRs pass" false
    (has_check clean "mshr-vs-dram");
  (* One more MSHR than the DRAM controller can sink breaks 5.1. *)
  let t =
    { t with
      Config.llc = { t.Config.llc with Mi6_llc.Llc.mshrs = 14;
                     mshr_banks = 1 } }
  in
  Alcotest.(check bool) "d_max/2 + 1 MSHRs flagged" true
    (has_check (Lint.lint_timing ~name:"mi6" t) "mshr-vs-dram")

let test_lint_partitions () =
  let geometry = Addr.default_regions in
  Alcotest.(check bool) "flat index flagged" true
    (has_check
       (Lint.lint_partitions ~geometry ~name:"flat" (Index.flat ~set_bits:10))
       "llc-partition");
  Alcotest.(check int) "partitioned index clean" 0
    (List.length
       (Lint.lint_partitions ~geometry ~name:"part"
          (Index.partitioned ~set_bits:10 ~region_bits:2 ~geometry)))

let test_lint_region_masks () =
  let a = Bitvec.of_indices 8 [ 0; 1 ] in
  let b = Bitvec.of_indices 8 [ 2; 3 ] in
  let c = Bitvec.of_indices 8 [ 1; 4 ] in
  Alcotest.(check int) "disjoint masks clean" 0
    (List.length
       (Lint.lint_region_masks ~subject:"t" [ ("a", a); ("b", b) ]));
  let fs = Lint.lint_region_masks ~subject:"t" [ ("a", a); ("c", c) ] in
  Alcotest.(check bool) "overlap flagged" true (has_check fs "region-overlap");
  Alcotest.(check bool) "message names the shared region" true
    (List.exists
       (fun f ->
         f.Lint.check = "region-overlap"
         && String.length f.Lint.message > 0
         && String.ends_with ~suffix:"region 1" f.Lint.message)
       fs)

let test_lint_ledger () =
  let ledger = Region.create Addr.default_regions in
  Alcotest.(check int) "fresh ledger clean" 0
    (List.length (Lint.lint_ledger ledger));
  Alcotest.(check bool) "carve two enclaves" true
    (Region.transfer ledger ~regions:[ 1; 2 ] ~from_:Region.Os
       ~to_:(Region.Enclave 0));
  Alcotest.(check bool) "second enclave" true
    (Region.transfer ledger ~regions:[ 3 ] ~from_:Region.Os
       ~to_:(Region.Enclave 1));
  Alcotest.(check int) "populated ledger clean" 0
    (List.length (Lint.lint_ledger ledger));
  (* Stealing an owned region must fail atomically and leave the ledger
     lintable. *)
  Alcotest.(check bool) "cross-domain steal rejected" false
    (Region.transfer ledger ~regions:[ 2; 4 ] ~from_:Region.Os
       ~to_:(Region.Enclave 1));
  Alcotest.(check int) "ledger still clean after rejected transfer" 0
    (List.length (Lint.lint_ledger ledger))

(* Citadel-style read sharing: a declared grant widens access masks
   without moving ownership, lints clean off the monitor's region, and
   dies with the next transfer. *)
let test_lint_ledger_sharing () =
  let ledger = Region.create Addr.default_regions in
  Alcotest.(check bool) "carve enclave 0" true
    (Region.transfer ledger ~regions:[ 1; 2 ] ~from_:Region.Os
       ~to_:(Region.Enclave 0));
  Alcotest.(check bool) "carve enclave 1" true
    (Region.transfer ledger ~regions:[ 3 ] ~from_:Region.Os
       ~to_:(Region.Enclave 1));
  Alcotest.(check bool) "owner grant accepted" true
    (Region.share ledger ~region:2 ~owner:(Region.Enclave 0)
       ~reader:(Region.Enclave 1));
  Alcotest.(check bool) "non-owner grant rejected" false
    (Region.share ledger ~region:2 ~owner:(Region.Enclave 1)
       ~reader:Region.Os);
  Alcotest.(check int) "declared share lints clean" 0
    (List.length (Lint.lint_ledger ledger));
  Alcotest.(check (list int)) "region 2 is the shared region" [ 2 ]
    (Region.shared_regions ledger);
  Alcotest.(check int64) "access masks overlap exactly on region 2"
    (Int64.shift_left 1L 2)
    (Int64.logand
       (Region.access_mask ledger (Region.Enclave 0))
       (Region.access_mask ledger (Region.Enclave 1)));
  Alcotest.(check int64) "perm mask stays ownership-exact"
    (Region.perm_mask ledger (Region.Enclave 1))
    (Int64.shift_left 1L 3);
  (* Granting the monitor's own region is legal but flagged. *)
  Alcotest.(check bool) "monitor grant accepted" true
    (Region.share ledger ~region:0 ~owner:Region.Monitor
       ~reader:(Region.Enclave 0));
  Alcotest.(check bool) "monitor grant flagged" true
    (has_check (Lint.lint_ledger ledger) "shared-monitor-region");
  (* A transfer of the shared region revokes its grants. *)
  Alcotest.(check bool) "transfer of shared region" true
    (Region.transfer ledger ~regions:[ 2 ] ~from_:(Region.Enclave 0)
       ~to_:Region.Os);
  Alcotest.(check bool) "grants revoked by transfer" true
    (Region.readers ledger 2 = [])

(* [Channel.closes] never calls a channel closed that one of the
   linter's findings leaves open, on every variant, the MI6 machine, and
   three single-field breaks of the MI6 machine that only the linter's
   checks see. *)
let test_closes_agrees_with_lint () =
  let mi6 = Config.secure_multicore ~cores:1 in
  let breaks =
    [
      ( "mi6 with a shared downgrade scanner", "llc-shared-downgrade",
        { mi6 with
          Config.llc_security =
            { mi6.Config.llc_security with
              Llc.per_partition_downgrade = false } } );
      ( "mi6 with purge_floor 100", "purge-floor",
        { mi6 with
          Config.core = { mi6.Config.core with Core_config.purge_floor = 100 } }
      );
      ( "mi6 with 7 MSHRs", "mshr-partitioning",
        { mi6 with Config.llc = { mi6.Config.llc with Llc.mshrs = 7 } } );
    ]
  in
  List.iter
    (fun (name, check, timing) ->
      Alcotest.(check bool) (name ^ " flags " ^ check) true
        (has_check (Lint.lint_timing ~name timing) check))
    breaks;
  let configs =
    List.map
      (fun v -> (Config.variant_name v, Config.timing ~cores:1 v))
      Config.all_variants
    @ [ ("mi6", mi6) ]
    @ List.map (fun (name, _, timing) -> (name, timing)) breaks
  in
  List.iter
    (fun (name, timing) ->
      let closes = Channel.closes ~timing in
      List.iter
        (fun (f : Lint.finding) ->
          match Channel.of_lint_check f.Lint.check with
          | None -> ()
          | Some ch ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s leaves %s open" name f.Lint.check
                 (Channel.name ch))
              false (closes ch))
        (Lint.lint_timing ~name timing))
    configs

(* ------------------------------------------------------------------ *)
(* Bisection over witness programs                                     *)
(* ------------------------------------------------------------------ *)

let witness_machine w ~variant ~secret =
  let init_regs =
    match (secret, w.Witness.secret_reg) with
    | Some v, Some r -> [ (r, v) ]
    | _ -> []
  in
  let run =
    Difftest.run_func ~init_regs ~program:(Witness.program w)
      ~data_base:0x8000 ~data_bytes:1024 ~max_steps:20_000 ()
  in
  let uops =
    Difftest.to_uops run ~func_code_base:w.Witness.base ~func_data_base:0x8000
  in
  let remaining = ref uops in
  let stream () =
    match !remaining with
    | [] -> None
    | u :: tl ->
      remaining := tl;
      Some u
  in
  Tmachine.create
    (Config.timing ~cores:1 variant)
    ~streams:[| stream |]
    ~stats:(Mi6_util.Stats.create ())

(* leaky-branch commits a secret-dependent path, so the secret pair must
   diverge under the exact signature oracle, in the core. *)
let test_bisect_leaky_branch_secret_pair () =
  let w = Option.get (Witness.find "leaky-branch") in
  let a = witness_machine w ~variant:Config.Base ~secret:(Some 0L) in
  let b = witness_machine w ~variant:Config.Base ~secret:(Some 1L) in
  let r = Bisect.run ~label_a:"s=0" ~label_b:"s=1" a b in
  match r.Bisect.r_outcome with
  | Bisect.Clean _ -> Alcotest.fail "leaky-branch secret pair must diverge"
  | Bisect.Diverged s ->
    Alcotest.(check string) "signature oracle" "signature" s.Bisect.s_oracle;
    Alcotest.(check bool) "diverges in the core" true
      (String.length s.Bisect.s_component >= 4
      && String.sub s.Bisect.s_component 0 4 = "core")

(* spectre-v1 leaks only transiently — its committed stream is
   secret-independent — so the secret pair is a meaningful negative. *)
let test_bisect_spectre_secret_pair_clean () =
  let w = Option.get (Witness.find "spectre-v1") in
  let a = witness_machine w ~variant:Config.Base ~secret:(Some 0L) in
  let b = witness_machine w ~variant:Config.Base ~secret:(Some 1L) in
  let r = Bisect.run ~label_a:"s=0" ~label_b:"s=1" a b in
  Alcotest.(check bool) "no committed-state divergence" false
    (Bisect.diverged r)

(* The acceptance pairing: spectre-v1 on BASE vs the full MI6 variant,
   same committed stream.  The first state split must be in a component
   hosting the channel the leakage auditor blames for the BASE leak
   (the LLC arbiter). *)
let test_bisect_spectre_variant_pair_matches_audit () =
  let w = Option.get (Witness.find "spectre-v1") in
  let a = witness_machine w ~variant:Config.Base ~secret:None in
  let b = witness_machine w ~variant:Config.Fpma ~secret:None in
  let r =
    Bisect.run ~label_a:"BASE" ~label_b:"F+P+M+A" a b
  in
  match r.Bisect.r_outcome with
  | Bisect.Clean _ -> Alcotest.fail "BASE vs F+P+M+A must diverge"
  | Bisect.Diverged s ->
    let channels =
      List.map Mi6_obs.Audit.channel_name
        (Bisect.audit_channels_of_component s.Bisect.s_component)
    in
    Alcotest.(check bool)
      "diverging component hosts the audited llc-arbiter channel" true
      (List.mem "llc-arbiter" channels)

(* Verdict anchors: the oracle, first divergent cycle and component of
   each pair, or "clean" with the cycles run.  The BASE vs NONSPEC rows
   split within ten cycles and reconverge long before cycle 256: only a
   comparison after every cycle sees them. *)
let bisect_anchors =
  let secrets s0 s1 w =
    (witness_machine w ~variant:Config.Base ~secret:(Some s0),
     witness_machine w ~variant:Config.Base ~secret:(Some s1))
  and variants va vb w =
    (witness_machine w ~variant:va ~secret:None,
     witness_machine w ~variant:vb ~secret:None)
  in
  [
    ("spectre-v1", "BASE vs F+P+M+A", variants Config.Base Config.Fpma,
     "activity@9:llc");
    ("leaky-branch", "secrets 0/1", secrets 0L 1L, "signature@3:core0");
    ("leaky-load", "secrets 3/200", secrets 3L 200L, "signature@5:core0");
    ("leaky-store", "secrets 3/200", secrets 3L 200L, "signature@7:core0");
    ("spectre-v1", "secrets 0/1", secrets 0L 1L, "clean@406");
    ("leaky-load", "BASE vs NONSPEC", variants Config.Base Config.Nonspec,
     "signature@6:core0");
    ("shared-leaky-read", "BASE vs NONSPEC",
     variants Config.Base Config.Nonspec, "signature@6:core0");
    ("shared-write", "BASE vs NONSPEC", variants Config.Base Config.Nonspec,
     "signature@6:core0");
    ("leaky-store", "BASE vs NONSPEC", variants Config.Base Config.Nonspec,
     "signature@8:core0");
  ]

let test_bisect_verdict_anchors () =
  List.iter
    (fun (name, pair, machines, want) ->
      let a, b = machines (Option.get (Witness.find name)) in
      let r = Bisect.run ~label_a:"a" ~label_b:"b" a b in
      let got =
        match r.Bisect.r_outcome with
        | Bisect.Clean { cycles_run } -> Printf.sprintf "clean@%d" cycles_run
        | Bisect.Diverged s ->
          Printf.sprintf "%s@%d:%s" s.Bisect.s_oracle s.Bisect.s_cycle
            s.Bisect.s_component
      in
      Alcotest.(check string) (name ^ " " ^ pair) want got)
    bisect_anchors

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_analysis"
    [
      ( "soundness",
        qsuite [ prop_soundness ]
        @ [
            Alcotest.test_case "property saw real leaks" `Quick
              test_soundness_nonvacuous;
          ] );
      ( "channel-agreement",
        qsuite [ prop_channel_agreement ]
        @ [
            Alcotest.test_case "property saw localized leaks" `Quick
              test_agreement_nonvacuous;
            Alcotest.test_case "witness corpus agrees with the audit" `Quick
              test_witness_channel_agreement;
          ] );
      ( "vset",
        qsuite [ prop_vset_transfer_sound; prop_vset_widening_terminates ]
        @ [
            Alcotest.test_case "index resolution against the geometry" `Quick
              test_vset_index_resolution;
          ] );
      ( "witnesses",
        [
          Alcotest.test_case "static verdicts" `Quick test_witness_verdicts;
          Alcotest.test_case "speculative labeling" `Quick
            test_speculative_labeling;
          Alcotest.test_case "spectre-v2 jump-target channel" `Quick
            test_spectre_v2_channel;
          Alcotest.test_case "ssb load-address channel" `Quick
            test_ssb_channel;
          Alcotest.test_case "rsb-underflow channel" `Quick
            test_rsb_underflow_channel;
          Alcotest.test_case "shared-region verdicts" `Quick
            test_shared_region_witnesses;
          Alcotest.test_case "findings JSON deterministic" `Quick
            test_findings_json_deterministic;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "leaky-branch leaks on BASE" `Quick
            test_leaky_branch_dynamic;
          Alcotest.test_case "ct-select constant-time on BASE" `Quick
            test_ct_select_dynamic;
          Alcotest.test_case "reg of_name" `Quick test_reg_of_name;
        ] );
      ( "hw-lint",
        [
          Alcotest.test_case "secure machine clean" `Quick
            test_lint_secure_clean;
          Alcotest.test_case "BASE findings" `Quick test_lint_base_findings;
          Alcotest.test_case "purge floor" `Quick test_lint_purge_floor;
          Alcotest.test_case "MSHR sizing" `Quick test_lint_mshr_sizing;
          Alcotest.test_case "LLC set partitions" `Quick test_lint_partitions;
          Alcotest.test_case "region masks" `Quick test_lint_region_masks;
          Alcotest.test_case "ownership ledger" `Quick test_lint_ledger;
          Alcotest.test_case "ledger read sharing" `Quick
            test_lint_ledger_sharing;
          Alcotest.test_case "closes agrees with findings" `Quick
            test_closes_agrees_with_lint;
        ] );
      ( "bisect",
        [
          Alcotest.test_case "leaky-branch secret pair diverges in the core"
            `Quick test_bisect_leaky_branch_secret_pair;
          Alcotest.test_case "spectre-v1 secret pair commits clean" `Quick
            test_bisect_spectre_secret_pair_clean;
          Alcotest.test_case "spectre-v1 variant pair matches audit channel"
            `Quick test_bisect_spectre_variant_pair_matches_audit;
          Alcotest.test_case "verdict anchors" `Quick
            test_bisect_verdict_anchors;
        ] );
    ]

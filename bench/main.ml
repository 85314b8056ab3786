(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) on the simulated machine, printing measured
   values next to the paper's reported numbers.

   Usage:
     bench/main.exe                 all figures, full length
     bench/main.exe --fast          shorter runs (CI)
     bench/main.exe --jobs N        simulate the figure cells on N domains
     bench/main.exe fig5 fig9 area  a subset (an unknown name exits 2
                                    before anything runs)

   Every (variant, bench) cell the requested figures read is simulated
   once, by one [Sweep.run] before any figure prints; the figures only
   look results up.  Tables are identical for every --jobs value.

   Absolute slowdowns depend on the substrate (our cycle-level model vs
   the authors' FPGA), so the claims to check are the *shapes*: who wins,
   roughly by what factor, which benchmark is the outlier.  EXPERIMENTS.md
   records a full paper-vs-measured table produced by this harness. *)

open Mi6_util
open Mi6_core
module Sweep = Mi6_exec.Sweep

let benches = Mi6_workload.Spec.all
let bench_name = Mi6_workload.Spec.name

(* ------------------------------------------------------------------ *)
(* Figure cells                                                        *)
(* ------------------------------------------------------------------ *)

let warmup = ref 200_000
let measure = ref 500_000

(* The benchmarks of the ablation's three tables. *)
let coloring_benches = Mi6_workload.Spec.[ Gcc; Gobmk; Xalancbmk ]
let save_restore_benches = Mi6_workload.Spec.[ Astar; Xalancbmk; Gcc ]
let prefetch_benches = Mi6_workload.Spec.[ Libquantum; Gcc; Bzip2 ]

(* The exact cells a figure reads through [result].  [run_cells]
   simulates the union for the requested figures, so this must not
   over-approximate (BENCH_run.json and the history would record runs
   no figure reads); a cell it leaves out fails the figure that reads
   it. *)
let fig_cells name =
  let vs_base ?(benches = benches) variant =
    Sweep.cells ~variants:[ Config.Base; variant ] ~benches ()
  in
  match name with
  | "fig5" | "fig7" -> vs_base Config.Flush
  | "fig6" -> Sweep.cells ~variants:[ Config.Flush ] ~benches ()
  | "fig8" | "fig9" -> vs_base Config.Part
  | "fig10" -> vs_base Config.Miss
  | "fig11" -> vs_base Config.Arb
  | "fig12" -> vs_base Config.Nonspec
  | "fig13" -> vs_base Config.Fpma
  | "ablation" ->
    vs_base ~benches:coloring_benches Config.Part
    @ vs_base ~benches:save_restore_benches Config.Flush
    @ vs_base ~benches:prefetch_benches Config.Miss
  | _ -> []

(* Simulates the union of the named figures' cells, sorted by bench
   then variant name, in one [Sweep.run] on [jobs] domains. *)
let run_cells ~jobs names =
  let key (c : Sweep.cell) =
    (bench_name c.bench, Config.variant_name c.variant)
  in
  let cells =
    List.sort_uniq
      (fun a b -> compare (key a) (key b))
      (List.concat_map fig_cells names)
  in
  Printf.eprintf "  [sweep] %d cells, --jobs %d\n%!" (List.length cells) jobs;
  let pool = Mi6_exec.Pool.create ~domains:jobs in
  Fun.protect
    ~finally:(fun () -> Mi6_exec.Pool.shutdown pool)
    (fun () -> Sweep.run pool ~warmup:!warmup ~measure:!measure cells)

(* The outcomes of the printing figure's own cells. *)
let readable : Sweep.outcome list ref = ref []

let result variant bench =
  match
    List.find_opt
      (fun (o : Sweep.outcome) ->
        o.cell.variant = variant && o.cell.bench = bench)
      !readable
  with
  | Some o -> o.result
  | None ->
    invalid_arg
      (Printf.sprintf "bench: %s/%s is not one of the figure's cells"
         (bench_name bench) (Config.variant_name variant))

let pct ~base cycles =
  100.0 *. float_of_int (cycles - base) /. float_of_int base

let overhead variant bench =
  pct ~base:(result Config.Base bench).Tmachine.cycles
    (result variant bench).Tmachine.cycles

let average xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* One overhead figure: per-benchmark bars + average, with the paper's
   reported average and maximum alongside. *)
let overhead_figure ~title ~variant ~paper_avg ~paper_max ~paper_max_bench =
  let t =
    Table.create ~title
      ~columns:[ "measured overhead"; "paper (avg / named max)" ]
  in
  let ovs =
    List.map
      (fun b ->
        let ov = overhead variant b in
        let note =
          if bench_name b = paper_max_bench then
            Printf.sprintf "max: %.1f%%" paper_max
          else ""
        in
        Table.add_row t (bench_name b) [ Table.cell_pct ov; note ];
        ov)
      benches
  in
  Table.add_row t "AVERAGE"
    [ Table.cell_pct (average ovs); Printf.sprintf "%.1f%%" paper_avg ];
  Table.print t;
  print_newline ()

(* One per-kilo-instruction figure: [counter] on BASE and on [variant]
   per benchmark + average, with the paper's note on [note_bench] and its
   reported averages alongside. *)
let mpki_figure ~title ~variant ~counter ~note_bench ~note ~paper_avg =
  let t =
    Table.create ~title
      ~columns:[ "BASE"; Config.variant_name variant; "paper" ]
  in
  let pairs =
    List.map
      (fun b ->
        let base = Tmachine.mpki (result Config.Base b) counter in
        let v = Tmachine.mpki (result variant b) counter in
        Table.add_row t (bench_name b)
          [
            Table.cell_f base;
            Table.cell_f v;
            (if bench_name b = note_bench then note else "");
          ];
        (base, v))
      benches
  in
  Table.add_row t "AVERAGE"
    [
      Table.cell_f (average (List.map fst pairs));
      Table.cell_f (average (List.map snd pairs));
      paper_avg;
    ];
  Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline "Figure 4: insecure baseline (BASE) configuration";
  let rows =
    [
      ( "Front-end",
        "2-wide fetch/decode/rename; 256-entry BTB; tournament predictor \
         (Alpha 21264); 8-entry RAS" );
      ( "Execution",
        "80-entry ROB, 2-way insert/commit; 2 ALU + 1 MEM + 1 FP pipes; \
         16-entry IQ per pipe" );
      ("Ld-St unit", "24-entry LQ, 14-entry SQ, 4-entry SB");
      ("L1 TLBs", "32-entry fully associative; D-TLB max 4 requests");
      ("L2 TLB", "1024-entry 4-way + 24-entry translation cache, max 2 walks");
      ("L1 caches", "32 KB 8-way I and D, max 8 requests each");
      ("L2 (LLC)", "1 MB 16-way, 16 MSHRs, coherent/inclusive with L1s");
      ("Memory", "2 GB, 120-cycle latency, max 24 requests");
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "  %-11s %s\n" k v) rows;
  print_newline ()

let fig5 () =
  overhead_figure
    ~title:
      "Figure 5: FLUSH execution-time overhead vs BASE (purge at every trap \
       boundary)"
    ~variant:Config.Flush ~paper_avg:5.4 ~paper_max:10.9 ~paper_max_bench:"astar"

let fig6 () =
  let t =
    Table.create
      ~title:
        "Figure 6: stall time waiting for flushes, as a share of FLUSH \
         execution time"
      ~columns:[ "measured stall"; "paper" ]
  in
  let shares =
    List.map
      (fun b ->
        let r = result Config.Flush b in
        let share =
          100.0
          *. float_of_int (Stats.get r.Tmachine.stats "core.purge_stall_cycles")
          /. float_of_int r.Tmachine.cycles
        in
        let note = if bench_name b = "xalancbmk" then "max: 3.2%" else "" in
        Table.add_row t (bench_name b) [ Table.cell_pct share; note ];
        share)
      benches
  in
  Table.add_row t "AVERAGE" [ Table.cell_pct (average shares); "0.4%" ];
  Table.print t;
  print_newline ()

let fig7 () =
  mpki_figure
    ~title:
      "Figure 7: branch mispredictions per kilo-instruction, BASE vs FLUSH"
    ~variant:Config.Flush ~counter:"core.mispredicts" ~note_bench:"astar"
    ~note:"astar: 30.1 -> 46.2" ~paper_avg:"18.3 -> 24.3"

let fig8 () =
  overhead_figure
    ~title:
      "Figure 8: PART execution-time overhead vs BASE (LLC index \
       {R[1:0],A[7:0]})"
    ~variant:Config.Part ~paper_avg:7.4 ~paper_max:21.6 ~paper_max_bench:"gcc"

let fig9 () =
  mpki_figure ~title:"Figure 9: LLC misses per kilo-instruction, BASE vs PART"
    ~variant:Config.Part ~counter:"llc.misses" ~note_bench:"gcc"
    ~note:"gcc misses double" ~paper_avg:"17.4 -> 19.6"

let fig10 () =
  overhead_figure
    ~title:
      "Figure 10: MISS execution-time overhead vs BASE (12 LLC MSHRs in 4 \
       banks, pessimistic bank stall)"
    ~variant:Config.Miss ~paper_avg:3.2 ~paper_max:8.3 ~paper_max_bench:"astar"

let fig11 () =
  overhead_figure
    ~title:
      "Figure 11: ARB execution-time overhead vs BASE (+8-cycle LLC pipeline \
       latency, modeling a 16-core round-robin arbiter)"
    ~variant:Config.Arb ~paper_avg:8.5 ~paper_max:14.0
    ~paper_max_bench:"libquantum"

let fig12 () =
  overhead_figure
    ~title:
      "Figure 12: NONSPEC execution-time overhead vs BASE (memory ops rename \
       only on an empty ROB)"
    ~variant:Config.Nonspec ~paper_avg:205.0 ~paper_max:427.0
    ~paper_max_bench:"h264ref"

let fig13 () =
  overhead_figure
    ~title:
      "Figure 13: F+P+M+A execution-time overhead vs BASE (the enclave cost: \
       FLUSH + PART + MISS + ARB)"
    ~variant:Config.Fpma ~paper_avg:16.4 ~paper_max:34.8 ~paper_max_bench:"gcc"

let area () =
  print_endline
    "Section 7.6 area: structural model of security additions (SRAM arrays \
     excluded, as in the paper's synthesis)";
  let t = Table.create ~title:"" ~columns:[ "BASE bits"; "MI6 extra bits" ] in
  List.iter
    (fun c ->
      Table.add_row t c.Area_model.name
        [
          string_of_int c.Area_model.base_bits;
          string_of_int c.Area_model.mi6_extra_bits;
        ])
    (Area_model.components ~cores:1);
  Table.print t;
  let s = Area_model.summary ~cores:1 in
  Printf.printf
    "  TOTAL: %d base bits, %d extra bits -> +%.2f%% (paper: ~2%%, same 1 GHz \
     clock)\n\n"
    s.Area_model.base_bits s.Area_model.extra_bits s.Area_model.percent

let noninterference () =
  print_endline
    "Security validation (Property 1): attacker observation traces across \
     victim behaviours";
  List.iter
    (fun { Noninterference.insecure; mi6 } ->
      List.iter
        (fun { Noninterference.label; leaks } ->
          Printf.printf "  %-46s %s\n" label
            (if leaks then "LEAKS (distinguishable)"
             else "no leak (bit-identical)"))
        [ insecure; mi6 ])
    (Noninterference.channels ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation: OS page coloring vs sequential allocation under PART      *)
(* ------------------------------------------------------------------ *)

(* [bench]'s core-0 stream, the one its figure cells run. *)
let spec_stream bench =
  Tmachine.spec_stream ~core:0 ~bench ~limit:(!warmup + !measure) ()

(* An ablation run on a modified machine or stream, so not a figure
   cell. *)
let cycles_of timing stream =
  (Tmachine.run_stream ~timing ~stream ~warmup:!warmup ()).Tmachine.cycles

(* The paper's conclusion proposes reducing the cache-indexing overhead
   "by modifying the OS": with the partitioned index {R[1:0], A[7:0]}, an
   enclave owning four regions with distinct R[1:0] recovers the full set
   space if the OS colors pages across its regions instead of allocating
   them sequentially.  We emulate a coloring allocator by remapping the
   workload's data pages (region 2) round-robin over regions 8..11
   (whose R[1:0] cover all four values). *)
let colored_stream bench =
  let geometry = Mi6_mem.Addr.default_regions in
  let data_base = Mi6_mem.Addr.region_base geometry 2 in
  let data_end = data_base + geometry.Mi6_mem.Addr.region_bytes in
  let remap addr =
    if addr >= data_base && addr < data_end then begin
      let off = addr - data_base in
      let page = off / 4096 in
      let color = page mod 4 in
      Mi6_mem.Addr.region_base geometry (8 + color)
      + (page / 4 * 4096) + (off mod 4096)
    end
    else addr
  in
  let inner = spec_stream bench in
  fun () ->
    match inner () with
    | None -> None
    | Some u ->
      Some
        (match u.Mi6_ooo.Uop.kind with
        | Mi6_ooo.Uop.Load { addr } ->
          { u with Mi6_ooo.Uop.kind = Mi6_ooo.Uop.Load { addr = remap addr } }
        | Mi6_ooo.Uop.Store { addr } ->
          { u with Mi6_ooo.Uop.kind = Mi6_ooo.Uop.Store { addr = remap addr } }
        | _ -> u)

let ablation () =
  print_endline
    "Ablation (paper Section 8): PART overhead with a page-coloring OS      allocator vs Linux-style sequential allocation";
  let t =
    Table.create ~title:""
      ~columns:[ "sequential alloc"; "colored alloc"; "" ]
  in
  List.iter
    (fun b ->
      let colored variant =
        cycles_of (Config.timing ~cores:1 variant) (colored_stream b)
      in
      let seq = overhead Config.Part b in
      let col = pct ~base:(colored Config.Base) (colored Config.Part) in
      Table.add_row t (bench_name b)
        [
          Table.cell_pct seq;
          Table.cell_pct col;
          (if col < seq then "coloring helps" else "");
        ])
    coloring_benches;
  Table.print t;
  print_newline ();
  print_endline
    "Ablation (paper Section 6): FLUSH overhead with the optional      predictor save/restore primitives";
  let t2 = Table.create ~title:"" ~columns:[ "plain FLUSH"; "FLUSH + save/restore" ] in
  List.iter
    (fun b ->
      let timing = Config.timing ~cores:1 Config.Flush in
      let saved =
        cycles_of
          {
            timing with
            Config.core =
              {
                timing.Config.core with
                Mi6_ooo.Core_config.save_restore_predictors = true;
              };
          }
          (spec_stream b)
      in
      Table.add_row t2 (bench_name b)
        [
          Table.cell_pct (overhead Config.Flush b);
          Table.cell_pct
            (pct ~base:(result Config.Base b).Tmachine.cycles saved);
        ])
    save_restore_benches;
  Table.print t2;
  print_newline ();
  print_endline
    "Ablation (Figure 10 sensitivity): the L1's own 8-entry MSHR file caps \
     the memory-level parallelism reaching the LLC; deepening it (16 \
     MSHRs + next-line prefetch) exposes the LLC's 12-entry MISS limit";
  let t3 =
    Table.create ~title:""
      ~columns:[ "MISS ovh, 8 L1 MSHRs"; "MISS ovh, 16 MSHRs + prefetch" ]
  in
  List.iter
    (fun b ->
      let prefetching variant =
        let timing = Config.timing ~cores:1 variant in
        cycles_of
          {
            timing with
            Config.l1 =
              {
                timing.Config.l1 with
                Mi6_cache.L1.prefetch_next_line = true;
                Mi6_cache.L1.mshrs = 16;
              };
          }
          (spec_stream b)
      in
      Table.add_row t3 (bench_name b)
        [
          Table.cell_pct (overhead Config.Miss b);
          Table.cell_pct
            (pct ~base:(prefetching Config.Base) (prefetching Config.Miss));
        ])
    prefetch_benches;
  Table.print t3;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Extension: the real multiprocessor run the paper could not fit       *)
(* ------------------------------------------------------------------ *)

(* Section 7.2 calls running multiprogrammed workloads on a secured
   multiprocessor the ideal methodology and approximates it on one FPGA
   core; the simulator can simply run it.  Two SPEC models share the
   machine; each core's slowdown is measured against its solo BASE run.
   Caveat on magnitudes: this machine divides a 1 MB LLC among domains
   (256 KB per R[1:0] class), where the paper's conceptual 16-core
   machine gives each enclave 1 MB of a 16 MB LLC — so the secure
   overheads here are structurally larger; the comparison of interest is
   BASE-shared vs MI6-partitioned behaviour. *)
let multicore () =
  print_endline
    "Extension: multiprogrammed 2-core runs (per-core slowdown vs solo      BASE)";
  let t =
    Table.create ~title:""
      ~columns:[ "BASE 2-core"; "MI6 2-core (Figure 3 LLC)" ]
  in
  let mw = max 40_000 (!warmup / 2) and mm = max 100_000 (!measure / 3) in
  let pairs =
    [
      (Mi6_workload.Spec.Gcc, Mi6_workload.Spec.Libquantum);
      (Mi6_workload.Spec.Astar, Mi6_workload.Spec.Hmmer);
      (Mi6_workload.Spec.Mcf, Mi6_workload.Spec.Sjeng);
    ]
  in
  List.iter
    (fun (b0, b1) ->
      let solo b =
        (Tmachine.run_spec ~variant:Config.Base ~bench:b ~warmup:mw
           ~measure:mm ())
          .Tmachine.cycles
      in
      let s0 = solo b0 and s1 = solo b1 in
      let slowdowns variant =
        let r =
          Tmachine.run_multi ~variant ~benches:[| b0; b1 |] ~warmup:mw
            ~measure:mm ()
        in
        (pct ~base:s0 r.(0).Tmachine.cycles, pct ~base:s1 r.(1).Tmachine.cycles)
      in
      let base0, base1 = slowdowns Config.Base in
      let sec0, sec1 = slowdowns Config.Mi6 in
      Table.add_row t (bench_name b0)
        [ Table.cell_pct base0; Table.cell_pct sec0 ];
      Table.add_row t ("+ " ^ bench_name b1)
        [ Table.cell_pct base1; Table.cell_pct sec1 ])
    pairs;
  Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_figs =
  [
    ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("fig13", fig13); ("area", area);
    ("noninterference", noninterference); ("ablation", ablation);
    ("multicore", multicore);
  ]

(* Host cost of a figure cell: its wall time inside the pool job, over
   the warmup and measured instructions it simulated. *)
let host (o : Sweep.outcome) =
  Mi6_obs.Perfdb.host ~wall_s:o.wall_s ~instrs:(!warmup + !measure)

(* Machine-readable record of every figure cell the harness simulated,
   for scripted regression checks on top of the printed tables. *)
let emit_run_json ~fast outcomes =
  let open Mi6_obs in
  let run (o : Sweep.outcome) =
    let r = o.result and h = host o in
    Json.Obj
      [
        ("bench", Json.String (bench_name o.cell.bench));
        ("variant", Json.String (Config.variant_name o.cell.variant));
        ("cycles", Json.Int r.Tmachine.cycles);
        ("instrs", Json.Int r.Tmachine.instrs);
        ("ipc", Json.Float (Tmachine.ipc r));
        ("llc_mpki", Json.Float (Tmachine.mpki r "llc.misses"));
        ("host_wall_s", Json.Float h.Perfdb.wall_s);
        ("host_kips", Json.Float h.Perfdb.kips);
      ]
  in
  let doc =
    Json.Obj
      [
        ("harness", Json.String "mi6 bench");
        ("fast", Json.Bool fast);
        ("warmup", Json.Int !warmup);
        ("measure", Json.Int !measure);
        ("runs", Json.List (List.map run outcomes));
      ]
  in
  let oc = open_out "BENCH_run.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "\nwrote BENCH_run.json (%d runs)\n%!" (List.length outcomes)

(* Cross-run regression history: every harness invocation appends one
   JSONL record per figure cell under a fresh run id, so
   bench/compare.exe can diff the latest two invocations and CI can fail
   on a cycle or IPC regression.  Records carry the CPI stack and key
   latency quantiles so a regression is attributable, not just
   detectable. *)
let history_path = "BENCH_history.jsonl"

let append_history outcomes =
  let open Mi6_obs in
  let commit = Perfdb.git_commit () in
  let run_id = Perfdb.next_run_id (Perfdb.load ~path:history_path) ~commit in
  let records =
    List.map2
      (fun o r -> { r with Perfdb.host = Some (host o) })
      outcomes
      (Sweep.to_perfdb_records ~run_id ~commit outcomes)
  in
  Perfdb.append ~path:history_path records;
  Printf.printf "appended run %s (%d records) -> %s\n%!" run_id
    (List.length records) history_path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let fast = List.mem "--fast" args in
  if fast then begin
    warmup := 60_000;
    measure := 150_000
  end;
  let jobs, args =
    let rec go acc = function
      | [] -> (1, List.rev acc)
      | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (j, List.rev_append acc rest)
        | _ ->
          prerr_endline "bench: --jobs wants a positive integer";
          exit 2)
      | [ "--jobs" ] ->
        prerr_endline "bench: --jobs wants a positive integer";
        exit 2
      | a :: rest -> go (a :: acc) rest
    in
    go [] args
  in
  let wanted = List.filter (fun a -> a <> "--fast") args in
  (* Every name is checked before anything runs or is written. *)
  (match List.filter (fun name -> not (List.mem_assoc name all_figs)) wanted with
  | [] -> ()
  | unknown ->
    List.iter
      (fun name ->
        Printf.eprintf "bench: unknown figure %S (have: %s)\n" name
          (String.concat ", " (List.map fst all_figs)))
      unknown;
    exit 2);
  Printf.printf
    "MI6 evaluation harness: %d SPEC CINT2006 models x 7 processor variants \
     (warmup %d, measure %d instructions)\n\n"
    (List.length benches) !warmup !measure;
  let figs =
    if wanted = [] then all_figs
    else List.map (fun name -> (name, List.assoc name all_figs)) wanted
  in
  let outcomes = run_cells ~jobs (List.map fst figs) in
  List.iter
    (fun (name, f) ->
      let cells = fig_cells name in
      readable :=
        List.filter (fun (o : Sweep.outcome) -> List.mem o.cell cells) outcomes;
      f ())
    figs;
  emit_run_json ~fast outcomes;
  append_history outcomes

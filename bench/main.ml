(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) on the simulated machine, printing measured
   values next to the paper's reported numbers.

   Usage:
     bench/main.exe                 all figures, full length
     bench/main.exe --fast          shorter runs (CI)
     bench/main.exe fig5 fig9 area  a subset
     bench/main.exe micro           Bechamel microbenchmarks of the
                                    simulator's core data structures

   Absolute slowdowns depend on the substrate (our cycle-level model vs
   the authors' FPGA), so the claims to check are the *shapes*: who wins,
   roughly by what factor, which benchmark is the outlier.  EXPERIMENTS.md
   records a full paper-vs-measured table produced by this harness. *)

open Mi6_util
open Mi6_core

let benches = Mi6_workload.Spec.all
let bench_name = Mi6_workload.Spec.name

(* ------------------------------------------------------------------ *)
(* Shared run cache                                                    *)
(* ------------------------------------------------------------------ *)

let warmup = ref 200_000
let measure = ref 500_000

let cache : (Config.variant * Mi6_workload.Spec.bench, Tmachine.result) Hashtbl.t =
  Hashtbl.create 64

(* Host-side cost of each cached run (wall time and simulated
   kilo-instructions per host second), recorded unconditionally so
   BENCH_run.json and the history always carry host fields.  Runs are
   timed with a plain wall clock: the self-profiler would slow them
   down, and its per-phase split is what [mi6_sim profile --self]
   reports. *)
let hosts : (Config.variant * Mi6_workload.Spec.bench, Mi6_obs.Perfdb.host) Hashtbl.t =
  Hashtbl.create 64

let timed_run variant bench =
  let t0 = Unix.gettimeofday () in
  let r =
    Tmachine.run_spec ~variant ~bench ~warmup:!warmup ~measure:!measure ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  (* The run commits its whole stream: warmup plus measured µops. *)
  let instrs = float_of_int (!warmup + !measure) in
  ( r,
    {
      Mi6_obs.Perfdb.wall_s = wall;
      kips = (if wall <= 0.0 then 0.0 else instrs /. wall /. 1000.0);
      phases = [];
    } )

let result variant bench =
  match Hashtbl.find_opt cache (variant, bench) with
  | Some r -> r
  | None ->
    Printf.eprintf "  [run] %-10s %-8s\r%!" (bench_name bench)
      (Config.variant_name variant);
    let r, host = timed_run variant bench in
    Hashtbl.add cache (variant, bench) r;
    Hashtbl.add hosts (variant, bench) host;
    r

(* The exact (variant, bench) cells a figure resolves through the run
   cache.  --jobs prefills these on a domain pool before the figures
   print; the enumeration must not over-approximate, or a parallel run's
   cache (and so BENCH_run.json / the history) would hold entries a
   serial run never computes. *)
let fig_cells name =
  let grid vs =
    List.concat_map (fun v -> List.map (fun b -> (v, b)) benches) vs
  in
  match name with
  | "fig5" | "fig7" -> grid [ Config.Base; Config.Flush ]
  | "fig6" -> grid [ Config.Flush ]
  | "fig8" | "fig9" -> grid [ Config.Base; Config.Part ]
  | "fig10" -> grid [ Config.Base; Config.Miss ]
  | "fig11" -> grid [ Config.Base; Config.Arb ]
  | "fig12" -> grid [ Config.Base; Config.Nonspec ]
  | "fig13" -> grid [ Config.Base; Config.Fpma ]
  | "ablation" ->
    List.map
      (fun b -> (Config.Base, b))
      [ Mi6_workload.Spec.Astar; Mi6_workload.Spec.Xalancbmk;
        Mi6_workload.Spec.Gcc ]
  | _ -> []

let prefill ~jobs fig_names =
  let cells =
    List.sort_uniq compare (List.concat_map fig_cells fig_names)
    |> List.filter (fun cell -> not (Hashtbl.mem cache cell))
  in
  if jobs > 1 && cells <> [] then begin
    Printf.eprintf "  [prefill] %d runs on %d domains\n%!" (List.length cells)
      jobs;
    let pool = Mi6_exec.Pool.create ~domains:jobs in
    Fun.protect
      ~finally:(fun () -> Mi6_exec.Pool.shutdown pool)
      (fun () ->
        let results =
          Mi6_exec.Pool.run_list pool cells (fun (variant, bench) ->
              timed_run variant bench)
        in
        List.iter2
          (fun cell (r, host) ->
            Hashtbl.add cache cell r;
            Hashtbl.add hosts cell host)
          cells results)
  end

let overhead variant bench =
  let base = result Config.Base bench in
  let v = result variant bench in
  100.0
  *. (float_of_int v.Tmachine.cycles -. float_of_int base.Tmachine.cycles)
  /. float_of_int base.Tmachine.cycles

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
  let t =
    Table.create
      ~title:
        "Figure 7: branch mispredictions per kilo-instruction, BASE vs FLUSH"
      ~columns:[ "BASE"; "FLUSH"; "paper" ]
  in
  let pairs =
    List.map
      (fun b ->
        let base = Tmachine.mpki (result Config.Base b) "core.mispredicts" in
        let flush = Tmachine.mpki (result Config.Flush b) "core.mispredicts" in
        let note =
          if bench_name b = "astar" then "astar: 30.1 -> 46.2" else ""
        in
        Table.add_row t (bench_name b)
          [ Table.cell_f base; Table.cell_f flush; note ];
        (base, flush))
      benches
  in
  Table.add_row t "AVERAGE"
    [
      Table.cell_f (average (List.map fst pairs));
      Table.cell_f (average (List.map snd pairs));
      "18.3 -> 24.3";
    ];
  Table.print t;
  print_newline ()

let fig8 () =
  overhead_figure
    ~title:
      "Figure 8: PART execution-time overhead vs BASE (LLC index \
       {R[1:0],A[7:0]})"
    ~variant:Config.Part ~paper_avg:7.4 ~paper_max:21.6 ~paper_max_bench:"gcc"

let fig9 () =
  let t =
    Table.create
      ~title:"Figure 9: LLC misses per kilo-instruction, BASE vs PART"
      ~columns:[ "BASE"; "PART"; "paper" ]
  in
  let pairs =
    List.map
      (fun b ->
        let base = Tmachine.mpki (result Config.Base b) "llc.misses" in
        let part = Tmachine.mpki (result Config.Part b) "llc.misses" in
        let note = if bench_name b = "gcc" then "gcc misses double" else "" in
        Table.add_row t (bench_name b)
          [ Table.cell_f base; Table.cell_f part; note ];
        (base, part))
      benches
  in
  Table.add_row t "AVERAGE"
    [
      Table.cell_f (average (List.map fst pairs));
      Table.cell_f (average (List.map snd pairs));
      "17.4 -> 19.6";
    ];
  Table.print t;
  print_newline ()

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

(* The paper's conclusion proposes reducing the cache-indexing overhead
   "by modifying the OS": with the partitioned index {R[1:0], A[7:0]}, an
   enclave owning four regions with distinct R[1:0] recovers the full set
   space if the OS colors pages across its regions instead of allocating
   them sequentially.  We emulate a coloring allocator by remapping the
   workload's data pages round-robin over regions 8..11 (whose R[1:0]
   cover all four values). *)
let colored_stream bench ~limit =
  let geometry = Mi6_mem.Addr.default_regions in
  let data_base = Mi6_mem.Addr.region_base geometry 2 in
  let data_end = data_base + geometry.Mi6_mem.Addr.region_bytes in
  let gen =
    Mi6_workload.Synth.for_bench bench ~data_base
      ~code_base:(Mi6_mem.Addr.region_base geometry 1)
      ~kernel_base:(Mi6_mem.Addr.region_base geometry 4)
  in
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
  let inner = Mi6_workload.Synth.stream gen ~limit in
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
      let run variant colored =
        let stream =
          if colored then colored_stream b ~limit:(!warmup + !measure)
          else
            let geometry = Mi6_mem.Addr.default_regions in
            let gen =
              Mi6_workload.Synth.for_bench b
                ~data_base:(Mi6_mem.Addr.region_base geometry 2)
                ~code_base:(Mi6_mem.Addr.region_base geometry 1)
                ~kernel_base:(Mi6_mem.Addr.region_base geometry 4)
            in
            Mi6_workload.Synth.stream gen ~limit:(!warmup + !measure)
        in
        Tmachine.run_stream
          ~timing:(Config.timing ~cores:1 variant)
          ~stream ~warmup:!warmup ~measure:!measure ()
      in
      let ov colored =
        let base = run Config.Base colored in
        let part = run Config.Part colored in
        100.0
        *. (float_of_int part.Tmachine.cycles
           -. float_of_int base.Tmachine.cycles)
        /. float_of_int base.Tmachine.cycles
      in
      let seq = ov false and col = ov true in
      Table.add_row t (bench_name b)
        [
          Table.cell_pct seq;
          Table.cell_pct col;
          (if col < seq then "coloring helps" else "");
        ])
    [ Mi6_workload.Spec.Gcc; Mi6_workload.Spec.Gobmk;
      Mi6_workload.Spec.Xalancbmk ];
  Table.print t;
  print_newline ();
  print_endline
    "Ablation (paper Section 6): FLUSH overhead with the optional      predictor save/restore primitives";
  let t2 = Table.create ~title:"" ~columns:[ "plain FLUSH"; "FLUSH + save/restore" ] in
  List.iter
    (fun b ->
      let run cfg_mod =
        let timing = Config.timing ~cores:1 Config.Flush in
        let timing = { timing with Config.core = cfg_mod timing.Config.core } in
        Tmachine.run_stream ~timing
          ~stream:
            (let geometry = Mi6_mem.Addr.default_regions in
             let gen =
               Mi6_workload.Synth.for_bench b
                 ~data_base:(Mi6_mem.Addr.region_base geometry 2)
                 ~code_base:(Mi6_mem.Addr.region_base geometry 1)
                 ~kernel_base:(Mi6_mem.Addr.region_base geometry 4)
             in
             Mi6_workload.Synth.stream gen ~limit:(!warmup + !measure))
          ~warmup:!warmup ~measure:!measure ()
      in
      let base = (result Config.Base b).Tmachine.cycles in
      let ov r =
        100.0 *. float_of_int (r.Tmachine.cycles - base) /. float_of_int base
      in
      let plain = ov (run (fun c -> c)) in
      let saved =
        ov
          (run (fun c ->
               { c with Mi6_ooo.Core_config.save_restore_predictors = true }))
      in
      Table.add_row t2 (bench_name b)
        [ Table.cell_pct plain; Table.cell_pct saved ])
    [ Mi6_workload.Spec.Astar; Mi6_workload.Spec.Xalancbmk;
      Mi6_workload.Spec.Gcc ];
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
      let ov ~prefetch =
        let mk variant =
          let timing = Config.timing ~cores:1 variant in
          let timing =
            {
              timing with
              Config.l1 =
                (if prefetch then
                   { timing.Config.l1 with
                     Mi6_cache.L1.prefetch_next_line = true;
                     Mi6_cache.L1.mshrs = 16 }
                 else timing.Config.l1);
            }
          in
          (Tmachine.run_stream ~timing
             ~stream:
               (let geometry = Mi6_mem.Addr.default_regions in
                let gen =
                  Mi6_workload.Synth.for_bench b
                    ~data_base:(Mi6_mem.Addr.region_base geometry 2)
                    ~code_base:(Mi6_mem.Addr.region_base geometry 1)
                    ~kernel_base:(Mi6_mem.Addr.region_base geometry 4)
                in
                Mi6_workload.Synth.stream gen ~limit:(!warmup + !measure))
             ~warmup:!warmup ~measure:!measure ())
            .Tmachine.cycles
        in
        let base = mk Config.Base and miss = mk Config.Miss in
        100.0 *. float_of_int (miss - base) /. float_of_int base
      in
      Table.add_row t3 (bench_name b)
        [ Table.cell_pct (ov ~prefetch:false); Table.cell_pct (ov ~prefetch:true) ])
    [ Mi6_workload.Spec.Libquantum; Mi6_workload.Spec.Gcc;
      Mi6_workload.Spec.Bzip2 ];
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
      let slowdowns timing =
        let r =
          Tmachine.run_multi ~timing ~benches:[| b0; b1 |] ~warmup:mw
            ~measure:mm ()
        in
        ( 100.0 *. float_of_int (r.(0).Tmachine.cycles - s0) /. float_of_int s0,
          100.0 *. float_of_int (r.(1).Tmachine.cycles - s1) /. float_of_int s1
        )
      in
      let base0, base1 = slowdowns (Config.timing ~cores:2 Config.Base) in
      let sec0, sec1 = slowdowns (Config.secure_multicore ~cores:2) in
      Table.add_row t (bench_name b0)
        [ Table.cell_pct base0; Table.cell_pct sec0 ];
      Table.add_row t ("+ " ^ bench_name b1)
        [ Table.cell_pct base1; Table.cell_pct sec1 ])
    pairs;
  Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of simulator primitives                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let fifo_test =
    Test.make ~name:"fifo enq/deq x16"
      (Staged.stage (fun () ->
           let q = Fifo.create ~capacity:16 in
           for i = 0 to 15 do
             Fifo.enq q i
           done;
           for _ = 0 to 15 do
             ignore (Fifo.deq q)
           done))
  in
  let sha_test =
    let data = String.make 4096 'x' in
    Test.make ~name:"sha256 4KB page (measurement)"
      (Staged.stage (fun () -> ignore (Sha256.digest data)))
  in
  let predictor_test =
    let p = Mi6_ooo.Tournament.create () in
    Test.make ~name:"tournament predict+update x64"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             let pc = 0x1000 + (i * 4) in
             ignore (Mi6_ooo.Tournament.predict p ~pc);
             Mi6_ooo.Tournament.update p ~pc ~taken:(i land 1 = 0)
           done))
  in
  let llc_tick_test =
    let stats = Stats.create () in
    let links = [| Mi6_coherence.Link.create ~depth:4 |] in
    let dram =
      Mi6_dram.Controller.constant ~latency:120 ~max_outstanding:24 ~stats ()
    in
    let llc =
      Mi6_llc.Llc.create
        { (Mi6_llc.Llc.default_config ~cores:1) with Mi6_llc.Llc.mshrs = 4 }
        ~security:Mi6_llc.Llc.mi6_security ~links ~dram ~stats
    in
    let now = ref 0 in
    Test.make ~name:"idle MI6 LLC tick"
      (Staged.stage (fun () ->
           incr now;
           Mi6_llc.Llc.tick llc ~now:!now))
  in
  let grouped =
    Test.make_grouped ~name:"mi6"
      [ fifo_test; sha_test; predictor_test; llc_tick_test ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Bechamel microbenchmarks (monotonic clock, ns/run):";
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> Printf.printf "  %-38s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-38s (no estimate)\n" name)
    (List.sort compare rows);
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

(* Machine-readable record of every (variant, bench) run the harness
   performed, for scripted regression checks on top of the printed
   tables. *)
let emit_run_json ~fast =
  let open Mi6_obs in
  let runs =
    Hashtbl.fold
      (fun (variant, bench) (r : Tmachine.result) acc ->
        let host_fields =
          match Hashtbl.find_opt hosts (variant, bench) with
          | None -> []
          | Some h ->
            [
              ("host_wall_s", Json.Float h.Perfdb.wall_s);
              ("host_kips", Json.Float h.Perfdb.kips);
            ]
        in
        Json.Obj
          ([
             ("bench", Json.String (bench_name bench));
             ("variant", Json.String (Config.variant_name variant));
             ("cycles", Json.Int r.Tmachine.cycles);
             ("instrs", Json.Int r.Tmachine.instrs);
             ("ipc", Json.Float (Tmachine.ipc r));
             ("llc_mpki", Json.Float (Tmachine.mpki r "llc.misses"));
           ]
          @ host_fields)
        :: acc)
      cache []
  in
  (* Hashtbl.fold order is unspecified: sort for a stable file. *)
  let key = function
    | Json.Obj (("bench", Json.String b) :: ("variant", Json.String v) :: _) ->
      (b, v)
    | _ -> ("", "")
  in
  let runs = List.sort (fun a b -> compare (key a) (key b)) runs in
  let doc =
    Json.Obj
      [
        ("harness", Json.String "mi6 bench");
        ("fast", Json.Bool fast);
        ("warmup", Json.Int !warmup);
        ("measure", Json.Int !measure);
        ("runs", Json.List runs);
      ]
  in
  let oc = open_out "BENCH_run.json" in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "\nwrote BENCH_run.json (%d runs)\n%!" (List.length runs)

(* Cross-run regression history: every harness invocation appends one
   JSONL record per cached (variant, bench) run under a fresh run id, so
   bench/compare.exe can diff the latest two invocations and CI can fail
   on a cycle or IPC regression.  Records carry the CPI stack and key
   latency quantiles so a regression is attributable, not just
   detectable. *)
let history_path = "BENCH_history.jsonl"

let append_history () =
  let open Mi6_obs in
  let commit = Perfdb.git_commit () in
  let run_id = Perfdb.next_run_id (Perfdb.load ~path:history_path) ~commit in
  let records =
    Hashtbl.fold
      (fun (variant, bench) (r : Tmachine.result) acc ->
        let cpi =
          List.filter_map
            (fun cat ->
              match Stats.get r.Tmachine.stats (Cpistack.counter_name cat) with
              | 0 -> None
              | c -> Some (cat, c))
            Cpistack.categories
        in
        let quantiles =
          List.filter_map
            (fun (name, h) ->
              if Histogram.count h = 0 then None
              else
                Some
                  (name, (Histogram.p50 h, Histogram.p95 h, Histogram.p99 h)))
            (Metrics.histograms r.Tmachine.metrics)
        in
        {
          Perfdb.run_id;
          commit;
          variant = Config.variant_name variant;
          bench = bench_name bench;
          cycles = r.Tmachine.cycles;
          instrs = r.Tmachine.instrs;
          ipc = Tmachine.ipc r;
          cpi;
          quantiles;
          host = Hashtbl.find_opt hosts (variant, bench);
        }
        :: acc)
      cache []
  in
  let records =
    List.sort
      (fun a b ->
        compare (a.Perfdb.bench, a.Perfdb.variant)
          (b.Perfdb.bench, b.Perfdb.variant))
      records
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
  Printf.printf
    "MI6 evaluation harness: %d SPEC CINT2006 models x 7 processor variants \
     (warmup %d, measure %d instructions)\n\n"
    (List.length benches) !warmup !measure;
  if List.mem "micro" wanted then micro ()
  else begin
    let figs =
      if wanted = [] then all_figs
      else
        List.filter_map
          (fun name ->
            match List.assoc_opt name all_figs with
            | Some f -> Some (name, f)
            | None ->
              Printf.eprintf "unknown figure %S (have: %s, micro)\n" name
                (String.concat ", " (List.map fst all_figs));
              None)
          wanted
    in
    prefill ~jobs (List.map fst figs);
    List.iter (fun (_, f) -> f ()) figs;
    emit_run_json ~fast;
    append_history ()
  end

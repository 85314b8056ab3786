(* Command-line front end for the simulator.

   Subcommands:
     run     run SPEC models on processor variants (default)
     multi   multiprogrammed multicore run (BASE vs secure MI6 machine)
     sweep   domain-parallel (variant x bench x seed) grid with
             deterministic merge (--jobs N)
     attack  side-channel verdicts (prime+probe, MSHR, DRAM banks)
     audit   leakage audit: victim event streams diffed across attackers
     profile CPI-stack attribution of a run, per variant
     area    structural area model
     lint    static secret-taint / constant-time analysis of programs and
             hardware-invariant linting of machine configurations

     bisect  run two configurations in lockstep, compare them every
             cycle, and print a causal slice report at the first
             divergent cycle

   Exit codes are uniform across subcommands: 0 = clean, 1 = findings
   (lint violations, leakage divergence, attribution residual, a
   bisection divergence), 2 = usage or I/O error. *)

open Cmdliner
open Mi6_core
module Taint = Mi6_analysis.Taint
module Hwlint = Mi6_analysis.Lint
module Witness = Mi6_analysis.Witness
module Channel = Mi6_analysis.Channel

(* ------------------------------------------------------------------ *)
(* Converters                                                          *)
(* ------------------------------------------------------------------ *)

let bench_conv =
  let parse s =
    match Mi6_workload.Spec.of_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown benchmark %S" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Mi6_workload.Spec.name b))

let variant_conv =
  let parse s =
    match Config.variant_of_name s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (Config.variant_name v))

(* Zero or a negative count is a usage error (exit 2), caught while the
   arguments are parsed. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let warmup =
  Arg.(value & opt int 200_000 & info [ "warmup" ] ~doc:"Warmup µops (untimed).")

let measure =
  Arg.(value & opt int 1_000_000 & info [ "measure" ] ~doc:"Measured µops.")

let jobs =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Domains to run independent simulations on.  1 (the \
                 default) stays on the calling domain; results and any \
                 JSON output are byte-identical for every N.")

(* Run [f] on a fresh pool; the pool is joined even when [f] raises.
   ([exit] inside [f] skips the join — process teardown reaps the
   workers, which only ever park on their condition variable.) *)
let with_pool ~jobs f =
  let pool = Mi6_exec.Pool.create ~domains:jobs in
  Fun.protect ~finally:(fun () -> Mi6_exec.Pool.shutdown pool)
    (fun () -> f pool)

(* Exit-code discipline shared by every subcommand: 0 = clean, 1 =
   findings, 2 = usage/IO error.  Term bodies return the code; file and
   parse failures funnel to 2 here. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success, with no findings.";
    Cmd.Exit.info 1
      ~doc:
        "when the command produced findings: lint violations, leakage \
         divergence, a CPI-stack attribution residual.";
    Cmd.Exit.info 2 ~doc:"on usage or I/O errors.";
  ]

let guard_io f =
  try f () with
  | Sys_error msg | Failure msg ->
    Printf.eprintf "mi6_sim: error: %s\n%!" msg;
    2

(* ------------------------------------------------------------------ *)
(* Observability options (shared by run and multi)                     *)
(* ------------------------------------------------------------------ *)

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON trace of the (last) run to                  $(docv); open it in chrome://tracing or Perfetto.")

let trace_text_file =
  Arg.(value & opt (some string) None
       & info [ "trace-text" ] ~docv:"FILE"
           ~doc:"Write a compact text dump of the (last) run's trace to                  $(docv).")

let trace_filter =
  let cat_conv =
    let parse s =
      match Mi6_obs.Trace.category_of_name s with
      | Some c -> Ok c
      | None -> Error (`Msg (Printf.sprintf "unknown trace category %S" s))
    in
    Arg.conv
      (parse, fun ppf c ->
        Format.pp_print_string ppf (Mi6_obs.Trace.category_name c))
  in
  Arg.(value & opt (some (list cat_conv)) None
       & info [ "trace-filter" ] ~docv:"CATS"
           ~doc:"Trace only these comma-separated categories                  (core,l1,llc,dram,ptw,purge); default all.")

let stats_json_file =
  Arg.(value & opt (some string) None
       & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the full metrics registry (counters + histograms) of                  the (last) run to $(docv) as nested JSON.")

let stats_csv_file =
  Arg.(value & opt (some string) None
       & info [ "stats-csv" ] ~docv:"FILE"
           ~doc:"Write the metrics registry as flat name,value CSV.")

let telemetry_file =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Stream schema-versioned JSONL telemetry snapshots of the \
                 (last) run to $(docv) while it executes; watch with \
                 $(b,mi6_sim top) $(docv).")

let telemetry_every =
  Arg.(value & opt positive_int 10_000
       & info [ "telemetry-every" ] ~docv:"N"
           ~doc:"Cycles between telemetry snapshots.")

let tracing_wanted ~trace_file ~trace_text_file =
  trace_file <> None || trace_text_file <> None

let make_trace ~trace_file ~trace_text_file ~trace_filter =
  if tracing_wanted ~trace_file ~trace_text_file then
    Mi6_obs.Trace.create ~capacity:(1 lsl 20) ?filter:trace_filter ()
  else Mi6_obs.Trace.null

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let export_trace trace ~trace_file ~trace_text_file =
  (match trace_file with
  | Some path ->
    write_file path (Mi6_obs.Json.to_string (Mi6_obs.Trace.to_chrome_json trace));
    Printf.printf "trace: %d events -> %s (chrome://tracing)
%!"
      (Mi6_obs.Trace.length trace) path
  | None -> ());
  match trace_text_file with
  | Some path ->
    write_file path (Format.asprintf "%a" Mi6_obs.Trace.pp trace);
    Printf.printf "trace: %d events -> %s (text)
%!"
      (Mi6_obs.Trace.length trace) path
  | None -> ()

let export_metrics metrics ~stats_json_file ~stats_csv_file =
  (match stats_json_file with
  | Some path ->
    write_file path (Mi6_obs.Json.to_string (Mi6_obs.Metrics.to_json metrics));
    Printf.printf "metrics -> %s
%!" path
  | None -> ());
  match stats_csv_file with
  | Some path ->
    write_file path (Mi6_obs.Metrics.to_csv metrics);
    Printf.printf "metrics -> %s
%!" path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_result ~label ~variant r ~verbose =
  Printf.printf
    "%-11s %-8s cycles=%-10d instrs=%-9d ipc=%.3f br/ki=%.0f br-mpki=%.1f \
     llc-mpki=%.1f l1d-mpki=%.1f l1i-mpki=%.1f purge-stall=%d\n%!"
    label
    (Config.variant_name variant)
    r.Tmachine.cycles r.Tmachine.instrs (Tmachine.ipc r)
    (Tmachine.mpki r "core.branches")
    (Tmachine.mpki r "core.mispredicts")
    (Tmachine.mpki r "llc.misses")
    (Tmachine.mpki r "l1d.0.misses")
    (Tmachine.mpki r "l1i.0.misses")
    (Mi6_util.Stats.get r.Tmachine.stats "core.purge_stall_cycles");
  if verbose then Mi6_util.Stats.pp Format.std_formatter r.Tmachine.stats

let run_cmd =
  let benches =
    Arg.(value & opt (list bench_conv) Mi6_workload.Spec.all
         & info [ "b"; "bench" ] ~doc:"Benchmarks (comma separated).")
  in
  let variants =
    Arg.(value & opt (some (list variant_conv)) None
         & info [ "v"; "variant" ] ~doc:"Processor variants (comma separated).")
  in
  let verbose = Arg.(value & flag & info [ "verbose" ] ~doc:"Dump all counters.") in
  let run benches variants warmup measure verbose trace_file trace_text_file
      trace_filter stats_json_file stats_csv_file telemetry_file
      telemetry_every =
    guard_io @@ fun () ->
    let open Mi6_obs in
    let tracing = tracing_wanted ~trace_file ~trace_text_file in
    let variants =
      match variants with
      | Some vs -> vs
      | None ->
        (* When tracing, default to the full MI6 variant so the trace
           shows purges and the secure LLC structures in action. *)
        if tracing then [ Config.Fpma ] else [ Config.Base ]
    in
    let trace = make_trace ~trace_file ~trace_text_file ~trace_filter in
    let last = ref None in
    let telemetry_snapshots = ref 0 in
    List.iter
      (fun bench ->
        List.iter
          (fun variant ->
            (* One trace per run: the exported file holds the last
               (bench, variant) pair.  Likewise telemetry: each run
               reopens (truncates) the stream, so the file holds the
               last run's snapshots with cycles increasing from 0. *)
            Mi6_obs.Trace.reset trace;
            let telemetry, occupancy =
              match telemetry_file with
              | None -> (Telemetry.null, Occupancy.null)
              | Some path ->
                ( Telemetry.create ~every:telemetry_every ~path (),
                  Occupancy.create () )
            in
            let r =
              Fun.protect
                ~finally:(fun () ->
                  telemetry_snapshots := Telemetry.snapshots telemetry;
                  Telemetry.close telemetry)
                (fun () ->
                  Tmachine.run_spec ~trace ~telemetry ~occupancy ~variant
                    ~bench ~warmup ~measure ())
            in
            last := Some r;
            print_result ~label:(Mi6_workload.Spec.name bench) ~variant r
              ~verbose)
          variants)
      benches;
    if tracing then export_trace trace ~trace_file ~trace_text_file;
    (match telemetry_file with
    | Some path ->
      Printf.printf "telemetry: %d snapshots -> %s (mi6_sim top %s)\n%!"
        !telemetry_snapshots path path
    | None -> ());
    (match !last with
    | Some r ->
      export_metrics r.Tmachine.metrics ~stats_json_file ~stats_csv_file
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"run SPEC models on processor variants")
    Term.(const run $ benches $ variants $ warmup $ measure $ verbose
          $ trace_file $ trace_text_file $ trace_filter $ stats_json_file
          $ stats_csv_file $ telemetry_file $ telemetry_every)

(* ------------------------------------------------------------------ *)
(* multi                                                               *)
(* ------------------------------------------------------------------ *)

let multi_cmd =
  let benches =
    Arg.(value
         & opt (list bench_conv)
             [ Mi6_workload.Spec.Gcc; Mi6_workload.Spec.Libquantum ]
         & info [ "b"; "bench" ]
             ~doc:"One benchmark per core (comma separated).")
  in
  let secure =
    Arg.(value & flag
         & info [ "secure" ]
             ~doc:"Use the MI6 secure machine (Figure 3 LLC + purge) instead \
                   of BASE.")
  in
  let run benches secure warmup measure trace_file trace_text_file
      trace_filter stats_json_file stats_csv_file =
    guard_io @@ fun () ->
    let benches = Array.of_list benches in
    let cores = Array.length benches in
    (* Each core takes its own block of DRAM regions; refuse before
       building anything. *)
    if cores > Tmachine.max_cores then begin
      Printf.eprintf "mi6_sim: error: multi takes at most %d benchmarks, got %d\n%!"
        Tmachine.max_cores cores;
      2
    end
    else begin
      let timing =
        if secure then Config.secure_multicore ~cores
        else Config.timing ~cores Config.Base
      in
      let trace = make_trace ~trace_file ~trace_text_file ~trace_filter in
      let rs = Tmachine.run_multi ~trace ~timing ~benches ~warmup ~measure () in
      Array.iteri
        (fun i r ->
          Printf.printf "core %d: %-11s cycles=%-10d ipc=%.3f (%s machine)\n" i
            (Mi6_workload.Spec.name benches.(i))
            r.Tmachine.cycles (Tmachine.ipc r)
            (if secure then "MI6" else "BASE"))
        rs;
      if tracing_wanted ~trace_file ~trace_text_file then
        export_trace trace ~trace_file ~trace_text_file;
      if Array.length rs > 0 then
        export_metrics rs.(0).Tmachine.metrics ~stats_json_file ~stats_csv_file;
      0
    end
  in
  Cmd.v
    (Cmd.info "multi" ~exits ~doc:"multiprogrammed multicore run")
    Term.(const run $ benches $ secure $ warmup $ measure $ trace_file
          $ trace_text_file $ trace_filter $ stats_json_file $ stats_csv_file)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let benches =
    Arg.(value & opt (list bench_conv) Mi6_workload.Spec.all
         & info [ "b"; "bench" ] ~doc:"Benchmarks (comma separated).")
  in
  let variants =
    Arg.(value
         & opt (list variant_conv)
             [ Config.Base; Config.Flush; Config.Part; Config.Fpma ]
         & info [ "v"; "variant" ] ~doc:"Processor variants (comma separated).")
  in
  let seeds =
    Arg.(value & opt positive_int 1
         & info [ "seeds" ] ~docv:"K"
             ~doc:"Stream seeds per (variant, bench) pair: seed 0 is the \
                   canonical stream, higher seeds deterministic \
                   perturbations of it.")
  in
  let history_file =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Append one Perfdb record per cell plus a wall-clock \
                   record for this invocation to $(docv) (JSONL).")
  in
  let run benches variants seeds warmup measure jobs stats_json_file
      history_file telemetry_file telemetry_every =
    guard_io @@ fun () ->
    let open Mi6_obs in
    let module Sweep = Mi6_exec.Sweep in
    let cells = Sweep.cells ~seeds ~variants ~benches () in
    Printf.printf "sweep: %d cells (%d benches x %d variants x %d seeds), \
                   %d warmup + %d measured µops, jobs=%d\n%!"
      (List.length cells) (List.length benches) (List.length variants) seeds
      warmup measure jobs;
    let t0 = Unix.gettimeofday () in
    let outcomes =
      with_pool ~jobs (fun pool ->
          Sweep.run pool ?telemetry:telemetry_file ~telemetry_every ~warmup
            ~measure cells)
    in
    let wall = Unix.gettimeofday () -. t0 in
    (match telemetry_file with
    | Some base ->
      (* One deterministic-mode stream per cell: the file set and every
         byte in it are identical for every --jobs value. *)
      Printf.printf "telemetry: %d per-cell streams -> %s#CELL\n%!"
        (List.length cells) base;
      List.iter
        (fun cell ->
          Printf.printf "  %s\n" (Sweep.telemetry_path ~base cell))
        cells
    | None -> ());
    List.iter
      (fun (o : Sweep.outcome) ->
        let r = o.Sweep.result in
        Printf.printf "%-24s cycles=%-10d instrs=%-9d ipc=%.3f llc-mpki=%.1f\n"
          (Sweep.cell_name o.Sweep.cell)
          r.Tmachine.cycles r.Tmachine.instrs (Tmachine.ipc r)
          (Tmachine.mpki r "llc.misses"))
      outcomes;
    (* The parseable wall-clock line CI's speedup check greps for.  Wall
       time deliberately stays out of the JSON snapshot so serial and
       parallel sweeps serialize identically. *)
    Printf.printf "sweep-wall jobs=%d cells=%d seconds=%.3f\n%!" jobs
      (List.length cells) wall;
    (match stats_json_file with
    | Some path ->
      write_file path (Json.to_string (Sweep.to_json ~warmup ~measure outcomes));
      Printf.printf "sweep metrics -> %s\n%!" path
    | None -> ());
    (match history_file with
    | Some path ->
      let commit = Perfdb.git_commit () in
      let run_id = Perfdb.next_run_id (Perfdb.load ~path) ~commit in
      let records = Sweep.to_perfdb_records ~run_id ~commit outcomes in
      let wall_record =
        {
          Perfdb.run_id;
          commit;
          variant = "sweep";
          bench = Printf.sprintf "wall-jobs-%d" jobs;
          cycles = int_of_float (wall *. 1000.0);  (* milliseconds *)
          instrs = List.length cells;
          ipc = 0.0;
          cpi = [];
          quantiles = [];
          (* The bench name carries the job count, so the kips gate only
             ever compares invocations with the same parallelism.  Every
             cell simulates its warmup and its measured window. *)
          host =
            Some
              (Perfdb.host ~wall_s:wall
                 ~instrs:(List.length cells * (warmup + measure)));
        }
      in
      Perfdb.append ~path (records @ [ wall_record ]);
      Printf.printf "appended run %s (%d records) -> %s\n%!" run_id
        (List.length records + 1) path
    | None -> ());
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~exits
       ~doc:
         "domain-parallel (variant x bench x seed) sweep with a \
          deterministic merge: --stats-json output is byte-identical for \
          every --jobs value")
    Term.(const run $ benches $ variants $ seeds $ warmup $ measure $ jobs
          $ stats_json_file $ history_file $ telemetry_file $ telemetry_every)

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack_cmd =
  let run () =
    guard_io @@ fun () ->
    let channels = Noninterference.channels () in
    List.iter
      (fun { Noninterference.insecure; mi6 } ->
        List.iter
          (fun { Noninterference.label; leaks } ->
            Printf.printf "%-46s %s\n" label
              (if leaks then "LEAKS" else "no leak (bit-identical)"))
          [ insecure; mi6 ])
      channels;
    (* Both halves of the claim, as in [audit]: every insecure row must
       leak (the experiment can see a leak at all) and no MI6 row may. *)
    if
      List.for_all
        (fun { Noninterference.insecure; mi6 } ->
          insecure.Noninterference.leaks && not mi6.Noninterference.leaks)
        channels
    then 0
    else 1
  in
  Cmd.v
    (Cmd.info "attack" ~exits
       ~doc:
         "side-channel experiment verdicts; exits 1 unless every insecure \
          configuration leaks and every MI6 one is bit-identical")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let audit_cmd =
  let attacker_conv =
    let parse s =
      match Noninterference.attacker_of_name s with
      | Some a -> Ok a
      | None -> Error (`Msg (Printf.sprintf "unknown attacker behaviour %S" s))
    in
    Arg.conv
      (parse, fun ppf a ->
        Format.pp_print_string ppf (Noninterference.attacker_name a))
  in
  let attackers =
    Arg.(value
         & opt (list attacker_conv)
             [ Noninterference.A_flood; Noninterference.A_burst;
               Noninterference.A_sweep ]
         & info [ "attackers" ] ~docv:"BEHAVIOURS"
             ~doc:"Attacker behaviours diffed against the idle reference                  (flood,burst,sweep).")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the audit report as JSON.")
  in
  let run attackers json_file jobs =
    guard_io @@ fun () ->
    let open Mi6_obs in
    print_endline
      "Leakage audit (paper Section 5.4): the victim's cycle-stamped view of \
       the shared memory system,\ndiffed event-for-event between an idle \
       attacker and each adversarial behaviour.";
    print_newline ();
    (* Fan the whole (setup x attacker) grid out over the pool — every
       capture builds its own hierarchy and trace ring — then walk the
       results in grid order, so the report is identical for every
       --jobs value.  Within each setup the idle reference comes first,
       then the requested behaviours in [all_attackers] order with
       duplicates dropped. *)
    let behaviours =
      Noninterference.A_idle
      :: List.filter
           (fun a -> a <> Noninterference.A_idle && List.mem a attackers)
           Noninterference.all_attackers
    in
    let grid =
      List.concat_map
        (fun (name, timing) ->
          List.map (fun attacker -> (name, timing, attacker)) behaviours)
        [
          ("baseline", Config.timing ~cores:1 Config.Base);
          ("mi6", Config.secure_multicore ~cores:1);
        ]
    in
    let captures =
      with_pool ~jobs (fun pool ->
          Mi6_exec.Pool.run_list pool grid (fun (_, timing, attacker) ->
              Noninterference.victim_observation timing ~attacker))
    in
    (* Drops accumulate into the report too: a consumer of the JSON must
       be able to see that the audit ran on a lossy trace without
       scraping stderr. *)
    let total_dropped = ref 0 and dominant_drop = ref None in
    let events_of ((name, _, attacker), (events, drops, dominant)) =
      if drops > 0 then begin
        total_dropped := !total_dropped + drops;
        (match dominant with
        | Some (_, n) as d
          when (match !dominant_drop with
               | Some (_, best) -> n > best
               | None -> true) ->
          dominant_drop := d
        | _ -> ());
        let mostly =
          match dominant with
          | Some (kind, n) -> Printf.sprintf " (mostly %s: %d)" kind n
          | None -> ""
        in
        Printf.eprintf
          "warning: %s/%s trace ring dropped %d events%s; audit is \
           unreliable\n%!"
          name
          (Noninterference.attacker_name attacker)
          drops mostly
      end;
      events
    in
    let audit_setup name =
      let cells =
        List.filter (fun ((n, _, _), _) -> n = name) (List.combine grid captures)
      in
      let reference = events_of (List.hd cells) in
      List.map
        (fun (((_, _, attacker), _) as cell) ->
          let r =
            Audit.diff ~label_a:"idle"
              ~label_b:(Noninterference.attacker_name attacker)
              reference (events_of cell)
          in
          Printf.printf "[%s LLC] %s\n" name
            (Format.asprintf "%a" Audit.pp_report r);
          r)
        (List.tl cells)
    in
    let baseline = audit_setup "baseline" in
    let mi6 = audit_setup "mi6" in
    let mi6_clean = List.for_all Audit.clean mi6 in
    let baseline_channel =
      List.find_map Audit.first_leaking_channel baseline
    in
    let baseline_cycle = List.find_map Audit.first_divergence_cycle baseline in
    Printf.printf "verdict:\n";
    Printf.printf "  MI6 LLC      %s\n"
      (if mi6_clean then
         Printf.sprintf
           "zero divergence across %d attacker behaviours (timing-independent)"
           (List.length mi6)
       else "DIVERGENCE DETECTED — non-interference violated");
    (match baseline_channel with
    | Some ch ->
      Printf.printf "  baseline LLC leaks, first through the %s channel%s\n"
        (Audit.channel_name ch)
        (match baseline_cycle with
        | Some c ->
          Printf.sprintf " (first divergence at victim cycle %d)" c
        | None -> "")
    | None ->
      Printf.printf
        "  baseline LLC showed no divergence (auditor lost its witness)\n");
    (match json_file with
    | Some path ->
      let doc =
        Json.Obj
          [
            ("experiment", Json.String "victim-timeline leakage audit");
            ( "trace",
              Json.Obj
                [
                  ("dropped", Json.Int !total_dropped);
                  ( "dominant_dropped",
                    match !dominant_drop with
                    | Some (kind, _) -> Json.String kind
                    | None -> Json.Null );
                ] );
            ( "attackers",
              Json.List
                (List.map
                   (fun a -> Json.String (Noninterference.attacker_name a))
                   attackers) );
            ( "setups",
              Json.List
                (List.map
                   (fun (name, reports, clean) ->
                     Json.Obj
                       [
                         ("setup", Json.String name);
                         ("clean", Json.Bool clean);
                         ( "comparisons",
                           Json.List (List.map Audit.report_to_json reports) );
                       ])
                   [
                     ("baseline", baseline, List.for_all Audit.clean baseline);
                     ("mi6", mi6, mi6_clean);
                   ]) );
            ( "verdict",
              Json.Obj
                [
                  ("mi6_clean", Json.Bool mi6_clean);
                  ("baseline_leaks", Json.Bool (baseline_channel <> None));
                  ( "baseline_channel",
                    match baseline_channel with
                    | Some ch -> Json.String (Audit.channel_name ch)
                    | None -> Json.Null );
                  ( "baseline_first_divergence_cycle",
                    match baseline_cycle with
                    | Some c -> Json.Int c
                    | None -> Json.Null );
                ] );
          ]
      in
      write_file path (Json.to_string doc);
      Printf.printf "audit report -> %s\n%!" path
    | None -> ());
    (* The audit passes only when it demonstrates both halves of the
       paper's claim: MI6 timing-independent AND the insecure baseline
       observably leaking (otherwise the auditor has no witness that it
       could see a leak at all). *)
    if mi6_clean && baseline_channel <> None then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit" ~exits
       ~doc:
         "leakage audit: diff the victim's event timeline across attacker \
          behaviours on the baseline and MI6 LLCs")
    Term.(const run $ attackers $ json_file $ jobs)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

(* [profile --self]: host time by layer, from the SIGALRM call-stack
   sampler the simulator benchmark uses (perfbench/prof.ml), with
   [<layer>.ns_per_cycle] computed as the benchmark computes it: the
   layer's share of the samples times the host ns that the busy domains
   spent per simulated cycle. *)
let print_self_profile ~runs ~domains ~wall_ns ~cycles =
  let samples = Prof.samples () in
  let total = Array.fold_left ( + ) 0 samples in
  let wall = float_of_int wall_ns in
  let overhead = float_of_int (Prof.overhead_ns ()) in
  let plural n = if n = 1 then "" else "s" in
  Printf.printf
    "self-profile: %d run%s, %d cycles ticked, wall %.3fs on %d domain%s\n"
    runs (plural runs) cycles (wall /. 1e9) domains (plural domains);
  Printf.printf
    "  sampler overhead: %.2f%% of wall (%d samples, handler %.1f ms)\n"
    (100.0 *. overhead /. wall) total (overhead /. 1e6);
  let ns_per_cycle =
    float_of_int domains *. wall /. float_of_int (max 1 cycles)
  in
  let row name share =
    Printf.printf "  %-9s %6.1f%% %9.1f\n" name (100.0 *. share)
      (share *. ns_per_cycle)
  in
  Printf.printf "  %-9s %7s %9s\n" "layer" "share" "ns/cycle";
  Array.iteri
    (fun i name ->
      row name
        (if total = 0 then 0.0
         else float_of_int samples.(i) /. float_of_int total))
    Prof.layers;
  row "total" (if total = 0 then 0.0 else 1.0)

let profile_cmd =
  let benches =
    Arg.(value & opt (list bench_conv) [ Mi6_workload.Spec.Gcc ]
         & info [ "b"; "bench" ] ~doc:"Benchmarks (comma separated).")
  in
  let variants =
    Arg.(value
         & opt (list variant_conv)
             [ Config.Base; Config.Flush; Config.Part; Config.Fpma ]
         & info [ "v"; "variant" ] ~doc:"Processor variants (comma separated).")
  in
  let folded_file =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Append folded-stack lines (bench;variant;category cycles)                  for flamegraph tooling.")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write all CPI stacks as JSON.")
  in
  let self =
    Arg.(value & flag
         & info [ "self" ]
             ~doc:"Also profile the $(i,simulator) on the host: sample the \
                   call stack every 0.5 ms and report each layer's share of \
                   host time and host ns per simulated cycle, with the \
                   sampler's own overhead.  The simulated runs and every \
                   output file are the same with or without it.")
  in
  let run benches variants warmup measure folded_file json_file self jobs =
    guard_io @@ fun () ->
    let open Mi6_obs in
    let module Sweep = Mi6_exec.Sweep in
    (* Run every (bench, variant) cell in one sweep; the serial report
       below looks them up, so its output does not depend on --jobs. *)
    let cell bench variant = { Sweep.variant; bench; seed = 0 } in
    let cells =
      List.concat_map (fun b -> List.map (cell b) variants) benches
    in
    (* The sampler runs only while every pool domain is up: from after
       [Pool.create] has seen each one start until before the join. *)
    let domains, wall_ns, outcomes =
      with_pool ~jobs (fun pool ->
          if self then Prof.start ();
          let start = Prof.now_ns () in
          let outcomes = Sweep.run pool ~warmup ~measure cells in
          let wall_ns = Prof.now_ns () - start in
          if self then Prof.stop ();
          (min (Mi6_exec.Pool.domains pool) (List.length cells), wall_ns,
           outcomes))
    in
    let folded = Buffer.create 256 in
    let all_stacks = ref [] in
    let failed = ref false in
    List.iter
      (fun bench ->
        let bname = Mi6_workload.Spec.name bench in
        let stacks =
          List.map
            (fun variant ->
              let r =
                (List.find
                   (fun (o : Sweep.outcome) -> o.cell = cell bench variant)
                   outcomes)
                  .result
              in
              let s =
                Cpistack.of_counters
                  ~label:(Config.variant_name variant)
                  ~total:r.Tmachine.cycles
                  (Mi6_util.Stats.to_assoc r.Tmachine.stats)
              in
              (* The attribution invariant: every measured cycle lands in
                 exactly one bucket. *)
              if not (Cpistack.sums_exactly s) then begin
                Printf.eprintf
                  "error: %s %s CPI stack sums to %d, measured %d cycles \
                   (residual %d)\n%!"
                  bname
                  (Config.variant_name variant)
                  (Cpistack.attributed s) (Cpistack.total s)
                  (Cpistack.residual s);
                failed := true
              end;
              Buffer.add_string folded
                (Cpistack.to_folded
                   ~stem:(Printf.sprintf "%s;%s" bname
                            (Config.variant_name variant))
                   s);
              s)
            variants
        in
        all_stacks := (bname, stacks) :: !all_stacks;
        Printf.printf
          "CPI stack: %s (%d warmup + %d measured instructions)\n%s\n" bname
          warmup measure (Cpistack.table stacks))
      benches;
    if self then
      print_self_profile ~runs:(List.length outcomes) ~domains ~wall_ns
        ~cycles:
          (List.fold_left
             (fun n (o : Sweep.outcome) -> n + o.result.Tmachine.ticked)
             0 outcomes);
    (match folded_file with
    | Some path ->
      write_file path (Buffer.contents folded);
      Printf.printf "folded stacks -> %s (flamegraph.pl compatible)\n%!" path
    | None -> ());
    (match json_file with
    | Some path ->
      let doc =
        Json.Obj
          [
            ("warmup", Json.Int warmup);
            ("measure", Json.Int measure);
            ( "profiles",
              Json.List
                (List.rev_map
                   (fun (bname, stacks) ->
                     Json.Obj
                       [
                         ("bench", Json.String bname);
                         ( "stacks",
                           Json.List (List.map Cpistack.to_json stacks) );
                       ])
                   !all_stacks) );
          ]
      in
      write_file path (Json.to_string doc);
      Printf.printf "profiles -> %s\n%!" path
    | None -> ());
    if !failed then 1 else 0
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "top-down CPI-stack attribution per variant (where every cycle \
          went: commits, mispredicts, L1/LLC/DRAM stalls, TLB walks, \
          purges); --self adds host-cost attribution of the simulator \
          itself")
    Term.(const run $ benches $ variants $ warmup $ measure $ folded_file
          $ json_file $ self $ jobs)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Live view over a telemetry JSONL stream (written by run/sweep
   --telemetry): re-reads the file every --interval seconds and renders
   the latest snapshot as a table.  --once renders a single frame and
   exits, for CI smoke tests. *)
let top_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Telemetry JSONL stream to watch (see run/sweep \
                   $(b,--telemetry)).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render the latest snapshot once and exit (CI-friendly; \
                   exits 1 when any line fails snapshot validation, 2 when \
                   the stream holds no snapshot yet).")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Refresh period in follow mode.")
  in
  let run file once interval =
    guard_io @@ fun () ->
    let open Mi6_obs in
    (* Whole-file re-read each frame: snapshots are append-only and a
       stream is at most a few thousand lines, so this stays trivially
       cheap and needs no tail-follow state. *)
    (* Every line is validated against the snapshot schema on the way
       through; a writer bug (torn line, wrong type) is counted and the
       first offending file line remembered, so --once can gate CI. *)
    let malformed = ref 0 and first_bad = ref None in
    let read_last () =
      malformed := 0;
      first_bad := None;
      if not (Sys.file_exists file) then None
      else begin
        let ic = open_in file in
        let count = ref 0 and last = ref None and lineno = ref 0 in
        (try
           while true do
             let line = input_line ic in
             incr lineno;
             if String.trim line <> "" then begin
               let bad msg =
                 incr malformed;
                 if !first_bad = None then first_bad := Some (!lineno, msg)
               in
               (match Json.of_string line with
               | exception Failure msg -> bad ("invalid JSON: " ^ msg)
               | j -> (
                 match Telemetry.validate_snapshot j with
                 | Ok () ->
                   incr count;
                   last := Some line
                 | Error msg -> bad msg))
             end
           done
         with End_of_file -> ());
        close_in ic;
        Option.map (fun l -> (!count, l)) !last
      end
    in
    let report_malformed () =
      match !first_bad with
      | Some (lineno, msg) ->
        Printf.eprintf
          "mi6_sim top: %d malformed telemetry line%s in %s (first at line \
           %d: %s)\n%!"
          !malformed
          (if !malformed = 1 then "" else "s")
          file lineno msg
      | None -> ()
    in
    let render n line =
      let j = Json.of_string line in
      let jint name =
        match Json.member name j with Some (Json.Int i) -> i | _ -> 0
      in
      let cycle = jint "cycle" and dcycles = jint "dcycles" in
      let instrs = jint "instrs" and dinstrs = jint "dinstrs" in
      Printf.printf "mi6_sim top — %s  (snapshot %d, seq %d)\n" file n
        (jint "seq");
      Printf.printf "cycle  %12d  (+%d)\n" cycle dcycles;
      Printf.printf "instrs %12d  (+%d)   window ipc %.3f\n" instrs dinstrs
        (if dcycles = 0 then 0.0
         else float_of_int dinstrs /. float_of_int dcycles);
      (match Json.member "host" j with
      | Some host ->
        let hf name =
          match Json.member name host with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> 0.0
        in
        Printf.printf "host   %10.1f kcycles/s   %.1fs elapsed\n" (hf "kcps")
          (hf "wall_s")
      | None -> Printf.printf "host   (deterministic stream: omitted)\n");
      (match Json.member "occupancy" j with
      | Some occ ->
        (match Json.member "quiet_fraction" occ with
        | Some (Json.Float f) ->
          Printf.printf "quiet  %10.1f%% of cycles fast-forwardable\n"
            (100.0 *. f)
        | _ -> ());
        (match Json.member "structures" occ with
        | Some (Json.Obj structures) when structures <> [] ->
          Printf.printf "%-10s %8s %6s %6s\n" "structure" "mean" "p95" "max";
          List.iter
            (fun (name, h) ->
              let g field =
                match Json.member field h with
                | Some (Json.Int i) -> float_of_int i
                | Some (Json.Float f) -> f
                | _ -> 0.0
              in
              Printf.printf "%-10s %8.2f %6.0f %6.0f\n" name (g "mean")
                (g "p95") (g "max"))
            structures
        | _ -> ())
      | None -> ());
      (match Json.member "counters" j with
      | Some (Json.Obj deltas) when deltas <> [] ->
        let top =
          List.filteri (fun i _ -> i < 6)
            (List.sort
               (fun (_, a) (_, b) -> compare b a)
               (List.filter_map
                  (fun (k, v) ->
                    match v with Json.Int i -> Some (k, i) | _ -> None)
                  deltas))
        in
        Printf.printf "hot counters (delta):\n";
        List.iter (fun (k, v) -> Printf.printf "  %-28s %+d\n" k v) top
      | _ -> ())
    in
    if once then (
      match read_last () with
      | None ->
        report_malformed ();
        Printf.eprintf "mi6_sim top: no snapshot in %s yet\n%!" file;
        if !malformed > 0 then 1 else 2
      | Some (n, line) ->
        render n line;
        report_malformed ();
        if !malformed > 0 then 1 else 0)
    else begin
      (* Follow until interrupted. *)
      while true do
        print_string "\027[2J\027[H";
        (match read_last () with
        | None -> Printf.printf "mi6_sim top — waiting for %s ...\n" file
        | Some (n, line) -> render n line);
        if !malformed > 0 then report_malformed ();
        flush stdout;
        Unix.sleepf interval
      done;
      0
    end
  in
  Cmd.v
    (Cmd.info "top" ~exits
       ~doc:
         "live table over a telemetry JSONL stream: cycles, instrs, \
          kcycles/s, structure occupancy, quiet-cycle fraction")
    Term.(const run $ file $ once $ interval)

(* ------------------------------------------------------------------ *)
(* bisect                                                              *)
(* ------------------------------------------------------------------ *)

let bisect_cmd =
  let witness_arg =
    Arg.(value & opt (some string) None
         & info [ "witness" ] ~docv:"NAME"
             ~doc:"Bisect a built-in witness program (see $(b,mi6_sim lint \
                   --witness)).  The default when no $(b,--bench) is given \
                   is spectre-v1.")
  in
  let bench =
    Arg.(value & opt (some bench_conv) None
         & info [ "b"; "bench" ] ~docv:"BENCH"
             ~doc:"Bisect a SPEC model stream instead of a witness.")
  in
  let uops =
    Arg.(value & opt int 20_000
         & info [ "uops" ] ~docv:"N"
             ~doc:"Stream length in µops ($(b,--bench) mode).")
  in
  let variant_a =
    Arg.(value & opt variant_conv Config.Base
         & info [ "variant-a" ] ~docv:"VARIANT" ~doc:"Side-A variant.")
  in
  let variant_b =
    Arg.(value & opt (some variant_conv) None
         & info [ "variant-b" ] ~docv:"VARIANT"
             ~doc:"Side-B variant (default F+P+M+A; ignored in secret-pair \
                   mode, where both sides run $(b,--variant-a)).")
  in
  let secret_a =
    Arg.(value & opt (some int) None
         & info [ "secret-a" ] ~docv:"N"
             ~doc:"Side-A secret input (witness mode; needs \
                   $(b,--secret-b)).  Both sides then run the same variant \
                   and differ only in the secret, so the exact \
                   per-section signature oracle applies.")
  in
  let secret_b =
    Arg.(value & opt (some int) None
         & info [ "secret-b" ] ~docv:"N" ~doc:"Side-B secret input.")
  in
  let window =
    Arg.(value & opt int 16
         & info [ "window" ] ~docv:"T"
             ~doc:"Trace events per side in the slice report.")
  in
  let max_cycles =
    Arg.(value & opt int 4_000_000
         & info [ "max-cycles" ] ~docv:"N" ~doc:"Lockstep scan budget.")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the slice report as JSON (schema mi6.bisect/2).")
  in
  let history_file =
    Arg.(value & opt (some string) None
         & info [ "history" ] ~docv:"FILE"
             ~doc:"Append a Perfdb record with the bisection wall time and \
                   lockstep speed to $(docv) (JSONL); compare.exe then \
                   gates bisection speed regressions.")
  in
  let run witness_name bench uops variant_a variant_b secret_a secret_b
      window max_cycles json_file history_file =
    guard_io @@ fun () ->
    let open Mi6_obs in
    let trace_a = Trace.create ~capacity:(1 lsl 16) ()
    and trace_b = Trace.create ~capacity:(1 lsl 16) () in
    let machine_of_uops ~trace ~variant uops =
      let remaining = ref uops in
      let stream () =
        match !remaining with
        | [] -> None
        | u :: tl ->
          remaining := tl;
          Some u
      in
      Tmachine.create ~trace (Config.timing ~cores:1 variant)
        ~streams:[| stream |] ~stats:(Mi6_util.Stats.create ())
    in
    let secret_pair = secret_a <> None || secret_b <> None in
    if secret_pair && (secret_a = None || secret_b = None) then
      failwith "--secret-a and --secret-b must be given together";
    let vname = Config.variant_name in
    let a, b, label_a, label_b =
      match bench with
      | Some bench ->
        if secret_pair then
          failwith
            "--secret-a/--secret-b need a witness program (--bench streams \
             carry no secret input)";
        let vb = Option.value variant_b ~default:Config.Fpma in
        let machine ~trace ~variant =
          Tmachine.create ~trace (Config.timing ~cores:1 variant)
            ~streams:[| Tmachine.spec_stream ~core:0 ~bench ~limit:uops () |]
            ~stats:(Mi6_util.Stats.create ())
        in
        let bname = Mi6_workload.Spec.name bench in
        ( machine ~trace:trace_a ~variant:variant_a,
          machine ~trace:trace_b ~variant:vb,
          Printf.sprintf "%s:%s" bname (vname variant_a),
          Printf.sprintf "%s:%s" bname (vname vb) )
      | None ->
        let name = Option.value witness_name ~default:"spectre-v1" in
        let w =
          match Witness.find name with
          | Some w -> w
          | None ->
            failwith
              (Printf.sprintf "unknown witness %S (known: %s)" name
                 (String.concat ", " Witness.names))
        in
        let uops_of secret =
          let init_regs =
            match (secret, w.Witness.secret_reg) with
            | Some v, Some r -> [ (r, Int64.of_int v) ]
            | Some _, None ->
              failwith
                (Printf.sprintf "witness %s takes no secret input" name)
            | None, _ -> []
          in
          let run =
            Difftest.run_func ~init_regs ~program:(Witness.program w)
              ~data_base:0x8000 ~data_bytes:1024 ~max_steps:20_000 ()
          in
          Difftest.to_uops run ~func_code_base:w.Witness.base
            ~func_data_base:0x8000
        in
        if secret_pair then begin
          let sa = Option.get secret_a and sb = Option.get secret_b in
          ( machine_of_uops ~trace:trace_a ~variant:variant_a
              (uops_of (Some sa)),
            machine_of_uops ~trace:trace_b ~variant:variant_a
              (uops_of (Some sb)),
            Printf.sprintf "%s:%s:s=%d" name (vname variant_a) sa,
            Printf.sprintf "%s:%s:s=%d" name (vname variant_a) sb )
        end
        else begin
          let vb = Option.value variant_b ~default:Config.Fpma in
          let us = uops_of None in
          ( machine_of_uops ~trace:trace_a ~variant:variant_a us,
            machine_of_uops ~trace:trace_b ~variant:vb us,
            Printf.sprintf "%s:%s" name (vname variant_a),
            Printf.sprintf "%s:%s" name (vname vb) )
        end
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Bisect.run ~window ~max_cycles ~trace_a ~trace_b
        ~label_a ~label_b a b
    in
    let wall = Unix.gettimeofday () -. t0 in
    Format.printf "%a" Bisect.pp_report r;
    (match json_file with
    | Some path ->
      write_file path (Json.to_string (Bisect.report_to_json r));
      Printf.printf "bisect report -> %s\n%!" path
    | None -> ());
    (match history_file with
    | Some path ->
      let commit = Perfdb.git_commit () in
      let run_id = Perfdb.next_run_id (Perfdb.load ~path) ~commit in
      let cycles =
        match r.Bisect.r_outcome with
        | Bisect.Clean { cycles_run } -> cycles_run
        | Bisect.Diverged s -> s.Bisect.s_cycle
      in
      let instrs = Tmachine.committed a in
      let record =
        {
          Perfdb.run_id;
          commit;
          variant = "bisect";
          bench = Printf.sprintf "%s-vs-%s" label_a label_b;
          cycles;
          instrs;
          ipc = 0.0;
          cpi = [];
          quantiles = [];
          (* kips here is lockstep scan speed (both machines ticked and
             compared, counted as side A's committed instructions), so
             compare.exe's kips gate bounds bisection speed regressions. *)
          host = Some (Perfdb.host ~wall_s:wall ~instrs);
        }
      in
      Perfdb.append ~path [ record ];
      Printf.printf "appended run %s -> %s\n%!" run_id path
    | None -> ());
    if Bisect.diverged r then 1 else 0
  in
  Cmd.v
    (Cmd.info "bisect" ~exits
       ~doc:
         "run two configurations (variant pair or secret pair) in lockstep \
          from reset, compare them every cycle, stop at the first cycle \
          where their structure state diverges, and print a causal slice \
          report (diverging component, field-level state diff, in-flight \
          µops, trace tails); exits 1 on divergence")
    Term.(const run $ witness_arg $ bench $ uops $ variant_a $ variant_b
          $ secret_a $ secret_b $ window $ max_cycles
          $ json_file $ history_file)

(* ------------------------------------------------------------------ *)
(* area                                                                *)
(* ------------------------------------------------------------------ *)

let area_cmd =
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Number of cores.")
  in
  let run cores =
    List.iter
      (fun c ->
        Printf.printf "%-70s %8d %8d\n" c.Area_model.name c.Area_model.base_bits
          c.Area_model.mi6_extra_bits)
      (Area_model.components ~cores);
    let s = Area_model.summary ~cores in
    Printf.printf "TOTAL base=%d extra=%d -> +%.2f%%\n" s.Area_model.base_bits
      s.Area_model.extra_bits s.Area_model.percent;
    0
  in
  Cmd.v (Cmd.info "area" ~exits ~doc:"structural area model")
    Term.(const run $ cores)

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

type lint_machine = M_mi6 | M_variant of Config.variant

let machine_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "mi6" | "secure" -> Ok M_mi6
    | _ -> (
      match Config.variant_of_name s with
      | Some v -> Ok (M_variant v)
      | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown machine %S (mi6 or a variant name)" s)))
  in
  Arg.conv
    ( parse,
      fun ppf m ->
        Format.pp_print_string ppf
          (match m with M_mi6 -> "mi6" | M_variant v -> Config.variant_name v)
    )

let reg_conv =
  let parse s =
    match Mi6_isa.Reg.of_name s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "unknown register %S" s))
  in
  Arg.conv (parse, fun ppf r -> Format.pp_print_string ppf (Mi6_isa.Reg.name r))

let range_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ lo; hi ] -> (
      try Ok (int_of_string lo, int_of_string hi)
      with Failure _ -> Error (`Msg (Printf.sprintf "bad range %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad range %S (expected LO:HI)" s))
  in
  Arg.conv (parse, fun ppf (lo, hi) -> Format.fprintf ppf "0x%x:0x%x" lo hi)

(* The text program format [lint --hex] reads (and [--dump-hex] writes):
   one 32-bit hex word per line; [#] comment lines may carry
   [base]/[secret-reg]/[secret-range]/[shared-range] directives describing
   the load address, the secret set, and declared read-shared windows. *)
let parse_hex_program path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let base = ref 0x1000 in
  let regs = ref [] and ranges = ref [] and words = ref [] in
  let shared = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let raw = input_line ic in
       incr lineno;
       let line = String.trim raw in
       let fail msg = failwith (Printf.sprintf "%s:%d: %s" path !lineno msg) in
       let parse_range what v into =
         match String.split_on_char ':' v with
         | [ lo; hi ] -> (
           try into := (int_of_string lo, int_of_string hi) :: !into
           with Failure _ -> fail (Printf.sprintf "bad %s %s" what v))
         | _ -> fail (Printf.sprintf "bad %s %s (expected LO:HI)" what v)
       in
       if line = "" then ()
       else if line.[0] = '#' then begin
         let fields =
           String.sub line 1 (String.length line - 1)
           |> String.split_on_char ' '
           |> List.filter (fun t -> t <> "")
         in
         match fields with
         | "base" :: v :: _ -> (
           try base := int_of_string v
           with Failure _ -> fail ("bad base address " ^ v))
         | "secret-reg" :: r :: _ -> (
           match Mi6_isa.Reg.of_name r with
           | Some reg -> regs := reg :: !regs
           | None -> fail ("unknown register " ^ r))
         | "secret-range" :: v :: _ -> parse_range "secret-range" v ranges
         | "shared-range" :: v :: _ -> parse_range "shared-range" v shared
         | _ -> ()
       end
       else
         try words := int_of_string ("0x" ^ line) :: !words
         with Failure _ -> fail (Printf.sprintf "bad hex word %S" line)
     done
   with End_of_file -> ());
  ( { Mi6_isa.Asm.base = !base; words = Array.of_list (List.rev !words);
      labels = [] },
    { Taint.regs = List.rev !regs; ranges = List.rev !ranges },
    List.rev !shared )

let lint_cmd =
  let machine =
    Arg.(value & opt (some machine_conv) None
         & info [ "machine" ] ~docv:"NAME"
             ~doc:"Lint a machine configuration: $(b,mi6) (the secure \
                   multicore) or a processor variant name (BASE, FLUSH, \
                   PART, ...).  When no program input and no machine is \
                   given, mi6 is linted.")
  in
  let cores =
    Arg.(value & opt positive_int 2
         & info [ "cores" ] ~docv:"N" ~doc:"Cores for $(b,--machine).")
  in
  let witnesses =
    Arg.(value & opt (some (list string)) None
         & info [ "witness" ] ~docv:"NAMES"
             ~doc:(Printf.sprintf
                     "Analyze built-in witness programs (comma separated, or \
                      $(b,all)).  Known: %s."
                     (String.concat ", " Mi6_analysis.Witness.names)))
  in
  let hex =
    Arg.(value & opt (some string) None
         & info [ "hex" ] ~docv:"FILE"
             ~doc:"Analyze a program in hex text format: one 32-bit word \
                   per line, with optional $(b,# base ADDR), \
                   $(b,# secret-reg REG) and $(b,# secret-range LO:HI) \
                   directive comments.")
  in
  let secret_regs =
    Arg.(value & opt_all reg_conv []
         & info [ "secret-reg" ] ~docv:"REG"
             ~doc:"Treat $(docv) as secret at program entry (repeatable; \
                   adds to any directives or witness defaults).")
  in
  let secret_ranges =
    Arg.(value & opt_all range_conv []
         & info [ "secret-range" ] ~docv:"LO:HI"
             ~doc:"Treat memory bytes [LO,HI) as secret (repeatable).")
  in
  let window =
    Arg.(value & opt int 0
         & info [ "speculative" ] ~docv:"N"
             ~doc:"Also follow the architecturally dead edge of statically \
                   resolved branches — and the stale predicted target of a \
                   return whose modeled return-stack has underflowed — for \
                   up to $(docv) wrong-path instructions (Spectre-style \
                   transient execution).  Findings reachable only that way \
                   are labeled speculative.")
  in
  let shared_ranges =
    Arg.(value & opt_all range_conv []
         & info [ "shared-range" ] ~docv:"LO:HI"
             ~doc:"Declare memory bytes [LO,HI) as a read-shared region \
                   (repeatable; adds to any directives or witness \
                   defaults).  Any store into a shared region, and any \
                   secret-indexed load from one, is flagged as a \
                   cross-enclave channel.")
  in
  let channels =
    Arg.(value & flag
         & info [ "channels" ]
             ~doc:"Lower every finding to the microarchitectural channels \
                   it can leak through (cache-fill, llc-mshr, llc-arbiter, \
                   dram-cmd, page-walk, btb, rsb, ...), resolved against \
                   the $(b,--machine) configuration (BASE when none is \
                   given), and report which of them that configuration \
                   leaves open.")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the findings as JSON.")
  in
  let dump_hex =
    Arg.(value & opt (some string) None
         & info [ "dump-hex" ] ~docv:"DIR"
             ~doc:"Write every built-in witness to $(docv)/NAME.hex in the \
                   $(b,--hex) input format, then exit.")
  in
  let run machine cores witnesses hex secret_regs secret_ranges window
      shared_ranges channels json_file dump_hex =
    guard_io @@ fun () ->
    match dump_hex with
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun w ->
          let file =
            String.map (fun c -> if c = '-' then '_' else c) w.Witness.name
            ^ ".hex"
          in
          let path = Filename.concat dir file in
          write_file path (Witness.to_hex w);
          Printf.printf "%-14s -> %s\n" w.Witness.name path)
        Witness.all;
      0
    | None ->
      let extend (s : Taint.secret) =
        {
          Taint.regs = s.Taint.regs @ secret_regs;
          ranges = s.Taint.ranges @ secret_ranges;
        }
      in
      (* Channel inference resolves findings against the machine being
         linted; with no --machine, the insecure BASE geometry (the one
         the dynamic Audit cross-check runs). *)
      let channel_timing =
        match machine with
        | Some M_mi6 -> Config.secure_multicore ~cores
        | Some (M_variant v) -> Config.timing ~cores v
        | None -> Config.timing ~cores Config.Base
      in
      let open_here = Channel.open_channels ~timing:channel_timing in
      let channel_note f =
        if not channels then ""
        else
          let names chs =
            if chs = [] then "none"
            else String.concat "," (List.map Channel.name chs)
          in
          Printf.sprintf "\n      channels: %s; open here: %s"
            (names (Channel.infer ~timing:channel_timing f))
            (names (open_here f))
      in
      let analyze_one ~name ~secret ~shared program =
        let shared = shared @ shared_ranges in
        match Taint.analyze_program ~window ~shared ~secret program with
        | Error msg -> failwith (Printf.sprintf "%s: %s" name msg)
        | Ok findings ->
          let n = List.length findings in
          if n = 0 then
            Printf.printf "lint: program %-14s clean (window %d)\n" name
              window
          else begin
            Printf.printf "lint: program %-14s %d finding%s (window %d)\n"
              name n
              (if n = 1 then "" else "s")
              window;
            List.iter
              (fun f ->
                Printf.printf "  %s%s\n"
                  (Format.asprintf "%a" Taint.pp_finding f)
                  (channel_note f))
              findings
          end;
          (name, findings)
      in
      let program_reports =
        let from_witnesses =
          match witnesses with
          | None -> []
          | Some names ->
            let names = if List.mem "all" names then Witness.names else names in
            List.map
              (fun n ->
                match Witness.find n with
                | None ->
                  failwith
                    (Printf.sprintf "unknown witness %S (known: %s)" n
                       (String.concat ", " Witness.names))
                | Some w ->
                  analyze_one ~name:w.Witness.name
                    ~secret:(extend w.Witness.secret) ~shared:w.Witness.shared
                    (Witness.program w))
              names
        in
        let from_hex =
          match hex with
          | None -> []
          | Some path ->
            let program, secret, shared = parse_hex_program path in
            [
              analyze_one ~name:(Filename.basename path)
                ~secret:(extend secret) ~shared program;
            ]
        in
        from_witnesses @ from_hex
      in
      let config_reports =
        let lint_machine m =
          let name =
            match m with M_mi6 -> "mi6" | M_variant v -> Config.variant_name v
          in
          let timing =
            match m with
            | M_mi6 -> Config.secure_multicore ~cores
            | M_variant v -> Config.timing ~cores v
          in
          let findings = Hwlint.lint_timing ~name timing in
          let findings =
            match m with
            | M_variant _ -> findings
            | M_mi6 ->
              (* Exercise the Section 6.1 ownership checks on a populated
                 ledger: two enclaves carved out of OS memory, with a
                 declared read share between them — the Citadel relaxation
                 the linter must admit without a finding. *)
              let ledger = Region.create Mi6_mem.Addr.default_regions in
              ignore
                (Region.transfer ledger ~regions:[ 1; 2 ] ~from_:Region.Os
                   ~to_:(Region.Enclave 0));
              ignore
                (Region.transfer ledger ~regions:[ 3 ] ~from_:Region.Os
                   ~to_:(Region.Enclave 1));
              ignore
                (Region.share ledger ~region:2 ~owner:(Region.Enclave 0)
                   ~reader:(Region.Enclave 1));
              findings @ Hwlint.lint_ledger ledger
          in
          let config_note (f : Hwlint.finding) =
            if not channels then ""
            else
              match Channel.of_lint_check f.Hwlint.check with
              | Some ch -> Printf.sprintf "  [channel: %s]" (Channel.name ch)
              | None -> ""
          in
          let n = List.length findings in
          if n = 0 then
            Printf.printf "lint: machine %-14s clean (%d cores)\n" name cores
          else begin
            Printf.printf "lint: machine %-14s %d finding%s (%d cores)\n" name
              n
              (if n = 1 then "" else "s")
              cores;
            List.iter
              (fun f ->
                Printf.printf "  %s%s\n"
                  (Format.asprintf "%a" Hwlint.pp_finding f)
                  (config_note f))
              findings
          end;
          (name, findings)
        in
        match (machine, program_reports) with
        | Some m, _ -> [ lint_machine m ]
        | None, [] -> [ lint_machine M_mi6 ]
        | None, _ -> []
      in
      let count reports =
        List.fold_left (fun acc (_, fs) -> acc + List.length fs) 0 reports
      in
      let total = count program_reports + count config_reports in
      (match json_file with
      | Some path ->
        let open Mi6_obs in
        let append_fields j extra =
          match j with
          | Json.Obj fields -> Json.Obj (fields @ extra)
          | j -> j
        in
        let program_finding_json f =
          let base = Taint.finding_to_json f in
          if not channels then base
          else
            append_fields base
              [
                ( "channels",
                  Channel.to_json (Channel.infer ~timing:channel_timing f) );
                ( "open_channels",
                  Channel.to_json (open_here f) );
              ]
        in
        let config_finding_json (f : Hwlint.finding) =
          let base = Hwlint.finding_to_json f in
          if not channels then base
          else
            append_fields base
              [
                ( "channel",
                  match Channel.of_lint_check f.Hwlint.check with
                  | Some ch -> Json.String (Channel.name ch)
                  | None -> Json.Null );
              ]
        in
        let section to_json reports =
          Json.List
            (List.map
               (fun (name, fs) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("clean", Json.Bool (fs = []));
                     ("findings", Json.List (List.map to_json fs));
                   ])
               reports)
        in
        let doc =
          Json.Obj
            [
              ("schema", Json.String "mi6.lint/2");
              ("tool", Json.String "mi6_sim lint");
              ("window", Json.Int window);
              ("channels", Json.Bool channels);
              ("machine", Json.String
                 (match machine with
                 | Some M_mi6 -> "mi6"
                 | Some (M_variant v) -> Config.variant_name v
                 | None -> "base"));
              ("programs", section program_finding_json program_reports);
              ("configs", section config_finding_json config_reports);
              ("total_findings", Json.Int total);
            ]
        in
        write_file path (Json.to_string doc);
        Printf.printf "lint report -> %s\n%!" path
      | None -> ());
      if total = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:
         "static secret-taint / constant-time analysis of RV64 programs and \
          hardware-invariant linting of machine configurations (MSHR \
          sizing, LLC set partitioning, purge coverage, DRAM-region \
          ownership)")
    Term.(const run $ machine $ cores $ witnesses $ hex $ secret_regs
          $ secret_ranges $ window $ shared_ranges $ channels $ json_file
          $ dump_hex)

(* ------------------------------------------------------------------ *)
(* ni                                                                  *)
(* ------------------------------------------------------------------ *)

(* Interrupt-schedule noninterference: generate adversarial preemption
   schedules (or replay committed ones) and compare the attacker's
   per-window observables against a reference enclave body.  Exit 1 the
   moment any schedule distinguishes the bodies. *)

module Body = Mi6_progen.Body
module Ni_gen = Mi6_progen.Ni_gen

type ni_result = {
  ni_schedule : Schedule.t;
  ni_verdict : Schedule.verdict;
  ni_shrunk : Schedule.t option;  (* falsified only *)
  ni_channel : Mi6_obs.Audit.channel option;
}

let ni_cmd =
  let schedules =
    Arg.(value & opt_all string []
         & info [ "schedule" ] ~docv:"SCHED"
             ~doc:"Replay this schedule string (repeatable), e.g. \
                   $(b,ni1:BASE:b0:-:probe).  Replay is exact: no \
                   generation, no shrinking.")
  in
  let schedule_file =
    Arg.(value & opt (some string) None
         & info [ "schedule-file" ] ~docv:"FILE"
             ~doc:"Replay every schedule in $(docv), one per line; blank \
                   lines and $(b,#) comments are ignored.")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"N"
             ~doc:"Adversarial schedules to generate when none are given \
                   to replay.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Schedule-generator seed (echoed on stdout so logs pin \
                   the exact run).")
  in
  let variant =
    Arg.(value & opt variant_conv Config.Fpma
         & info [ "variant" ] ~docv:"V"
             ~doc:"Processor variant generated schedules run on \
                   (replayed schedules carry their own).")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the verdicts as a $(b,mi6.ni/1) JSON document.")
  in
  let save_falsified =
    Arg.(value & opt (some string) None
         & info [ "save-falsified" ] ~docv:"FILE"
             ~doc:"Write every falsifying (shrunk) schedule string to \
                   $(docv), one per line — each replayable verbatim via \
                   $(b,--schedule).")
  in
  let run schedules schedule_file count seed variant jobs json_file
      save_falsified =
    guard_io @@ fun () ->
    let parse str =
      match Schedule.of_string str with Ok s -> s | Error e -> failwith e
    in
    let from_file =
      match schedule_file with
      | None -> []
      | Some path ->
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        let rec lines acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then lines acc
            else lines (parse line :: acc)
        in
        lines []
    in
    let replayed = List.map parse schedules @ from_file in
    let generated = replayed = [] in
    let todo =
      if generated then Ni_gen.sample ~variant ~seed ~count ()
      else replayed
    in
    if generated then
      Printf.printf "ni: generating %d schedules on %s (seed %d, jobs %d)\n%!"
        (List.length todo)
        (Config.variant_name variant)
        seed jobs
    else
      Printf.printf "ni: replaying %d schedule%s (jobs %d)\n%!"
        (List.length todo)
        (if List.length todo = 1 then "" else "s")
        jobs;
    let falsifies s = (Body.check s).Schedule.v_falsified in
    let work s =
      let v = Body.check s in
      if not v.Schedule.v_falsified then
        { ni_schedule = s; ni_verdict = v; ni_shrunk = None; ni_channel = None }
      else begin
        (* Generated counterexamples shrink before they are reported;
           replayed witnesses are kept verbatim.  Either way the Audit
           diff localizes which hardware channel the leak entered. *)
        let s' = if generated then Ni_gen.greedy_shrink ~falsifies s else s in
        {
          ni_schedule = s;
          ni_verdict = v;
          ni_shrunk = Some s';
          ni_channel = Mi6_obs.Audit.first_leaking_channel (Body.localize s');
        }
      end
    in
    let results = with_pool ~jobs (fun pool ->
        Mi6_exec.Pool.run_list pool todo work)
    in
    let falsified = List.filter (fun r -> r.ni_shrunk <> None) results in
    List.iter
      (fun r ->
        match r.ni_shrunk with
        | None ->
          if not generated then
            Printf.printf "ok        %s\n" (Schedule.to_string r.ni_schedule)
        | Some s' ->
          Printf.printf "FALSIFIED %s\n" (Schedule.to_string r.ni_schedule);
          if s' <> r.ni_schedule then
            Printf.printf "  shrunk  %s\n" (Schedule.to_string s');
          (match r.ni_channel with
          | Some c ->
            Printf.printf "  channel %s\n" (Mi6_obs.Audit.channel_name c)
          | None -> ());
          let v = (if generated then Body.check s' else r.ni_verdict) in
          Format.printf "  body:@.%a  reference:@.%a"
            Schedule.pp_observation v.Schedule.v_obs Schedule.pp_observation
            v.Schedule.v_ref_obs)
      results;
    Printf.printf "ni: %d/%d schedules falsified\n%!" (List.length falsified)
      (List.length results);
    (match save_falsified with
    | Some path ->
      write_file path
        (String.concat ""
           (List.map
              (fun r ->
                Schedule.to_string (Option.get r.ni_shrunk) ^ "\n")
              falsified));
      Printf.printf "falsifying schedules -> %s\n%!" path
    | None -> ());
    (match json_file with
    | Some path ->
      let open Mi6_obs in
      let result_json r =
        Json.Obj
          ([
             ("schedule", Json.String (Schedule.to_string r.ni_schedule));
             ( "variant",
               Json.String
                 (Config.variant_name r.ni_schedule.Schedule.variant) );
             ("falsified", Json.Bool r.ni_verdict.Schedule.v_falsified);
           ]
          @ (match r.ni_shrunk with
            | None -> []
            | Some s' -> [ ("shrunk", Json.String (Schedule.to_string s')) ])
          @ [
              ( "channel",
                match r.ni_channel with
                | Some c -> Json.String (Audit.channel_name c)
                | None -> Json.Null );
              ( "observation",
                Schedule.observation_to_json r.ni_verdict.Schedule.v_obs );
              ( "reference",
                Schedule.observation_to_json r.ni_verdict.Schedule.v_ref_obs
              );
            ])
      in
      let doc =
        Json.Obj
          [
            ("schema", Json.String "mi6.ni/1");
            ("mode", Json.String (if generated then "generate" else "replay"));
            ("seed", if generated then Json.Int seed else Json.Null);
            ( "variant",
              if generated then Json.String (Config.variant_name variant)
              else Json.Null );
            ("count", Json.Int (List.length results));
            ("falsified", Json.Int (List.length falsified));
            ("results", Json.List (List.map result_json results));
          ]
      in
      write_file path (Json.to_string doc);
      Printf.printf "ni report -> %s\n%!" path
    | None -> ());
    if falsified = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "ni" ~exits
       ~doc:
         "adversarial interrupt-schedule noninterference: generate \
          preemption schedules (or replay committed counterexample \
          strings) against random enclave bodies and require the \
          attacker's per-window observables to be independent of the \
          body; falsifying schedules shrink, localize to an Audit \
          channel, and print as replayable strings")
    Term.(const run $ schedules $ schedule_file $ count $ seed $ variant
          $ jobs $ json_file $ save_falsified)

let () =
  let doc = "cycle-level MI6 / RiscyOO simulator" in
  let code =
    Cmd.eval'
      (Cmd.group ~default:Term.(ret (const (`Help (`Pager, None))))
         (Cmd.info "mi6_sim" ~doc ~exits)
         [ run_cmd; multi_cmd; sweep_cmd; attack_cmd; audit_cmd; profile_cmd;
           top_cmd; bisect_cmd; area_cmd; lint_cmd; ni_cmd ])
  in
  (* Cmdliner reports its own CLI parse errors as 124; fold that into the
     documented usage-error code. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)

module Config = Mi6_core.Config
module Spec = Mi6_workload.Spec
module Tmachine = Mi6_core.Tmachine
open Mi6_obs

type cell = { variant : Config.variant; bench : Spec.bench; seed : int }
type outcome = { cell : cell; result : Tmachine.result; wall_s : float }

let cells ?(seeds = 1) ~variants ~benches () =
  if seeds < 1 then invalid_arg "Sweep.cells: seeds must be >= 1";
  let benches =
    List.sort_uniq (fun a b -> compare (Spec.name a) (Spec.name b)) benches
  in
  let variants =
    List.sort_uniq
      (fun a b -> compare (Config.variant_name a) (Config.variant_name b))
      variants
  in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun variant ->
          List.init seeds (fun seed -> { variant; bench; seed }))
        variants)
    benches

let cell_name c =
  let base = Spec.name c.bench ^ "/" ^ Config.variant_name c.variant in
  if c.seed = 0 then base else Printf.sprintf "%s#%d" base c.seed

(* Telemetry file suffix for one cell: the cell name with '/' (a path
   separator) flattened, appended after '#'.  Deterministic, so serial
   and parallel sweeps of the same grid produce the same file set. *)
let telemetry_path ~base cell =
  let name =
    String.map (fun c -> if c = '/' then '_' else c) (cell_name cell)
  in
  base ^ "#" ^ name

let run pool ?telemetry ?(telemetry_every = 10_000) ~warmup ~measure cells =
  Pool.run_list pool cells (fun cell ->
      (* Everything a cell touches — stream generator, stats, metrics,
         caches, cores — is allocated inside this call; nothing mutable is
         shared with other cells. *)
      let t0 = Unix.gettimeofday () in
      let tel =
        match telemetry with
        | None -> Telemetry.null
        | Some base ->
          (* Deterministic mode: no host-derived fields, so each cell's
             stream is byte-identical for every --jobs. *)
          Telemetry.create ~deterministic:true ~every:telemetry_every
            ~path:(telemetry_path ~base cell)
            ()
      in
      let result =
        Fun.protect
          ~finally:(fun () -> Telemetry.close tel)
          (fun () ->
            Tmachine.run_spec ~telemetry:tel ~seed:cell.seed
              ~variant:cell.variant ~bench:cell.bench ~warmup ~measure ())
      in
      { cell; result; wall_s = Unix.gettimeofday () -. t0 })

let merged_metrics outcomes =
  let acc = Metrics.create () in
  List.iter
    (fun o -> Metrics.merge ~into:acc o.result.Tmachine.metrics)
    outcomes;
  acc

let cell_row o =
  let r = o.result in
  Json.Obj
    [
      ("bench", Json.String (Spec.name o.cell.bench));
      ("variant", Json.String (Config.variant_name o.cell.variant));
      ("seed", Json.Int o.cell.seed);
      ("cycles", Json.Int r.Tmachine.cycles);
      ("instrs", Json.Int r.Tmachine.instrs);
      ("ipc", Json.Float (Tmachine.ipc r));
      ("llc_mpki", Json.Float (Tmachine.mpki r "llc.misses"));
    ]

let to_json ~warmup ~measure outcomes =
  Json.Obj
    [
      ( "sweep",
        Json.Obj
          [
            ("warmup", Json.Int warmup);
            ("measure", Json.Int measure);
            ("cells", Json.Int (List.length outcomes));
          ] );
      ("cells", Json.List (List.map cell_row outcomes));
      ("merged", Metrics.to_json (merged_metrics outcomes));
    ]

let to_perfdb_records ~run_id ~commit outcomes =
  List.map
    (fun o ->
      let r = o.result in
      let cpi =
        List.filter_map
          (fun cat ->
            match
              Mi6_util.Stats.get r.Tmachine.stats (Cpistack.counter_name cat)
            with
            | 0 -> None
            | c -> Some (cat, c))
          Cpistack.categories
      in
      let quantiles =
        List.filter_map
          (fun (name, h) ->
            if Histogram.count h = 0 then None
            else
              Some (name, (Histogram.p50 h, Histogram.p95 h, Histogram.p99 h)))
          (Metrics.histograms r.Tmachine.metrics)
      in
      let bench =
        if o.cell.seed = 0 then Spec.name o.cell.bench
        else Printf.sprintf "%s#%d" (Spec.name o.cell.bench) o.cell.seed
      in
      {
        Perfdb.run_id;
        commit;
        variant = Config.variant_name o.cell.variant;
        bench;
        cycles = r.Tmachine.cycles;
        instrs = r.Tmachine.instrs;
        ipc = Tmachine.ipc r;
        cpi;
        quantiles;
        (* No host section: per-cell wall time depends on --jobs and
           host load, and sweep outputs must stay machine-independent. *)
        host = None;
      })
    outcomes

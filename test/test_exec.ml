(* Tests for the domain-parallel execution engine: Pool scheduling and
   fan-in order, Metrics.merge algebra, and the end-to-end guarantee the
   CI gate relies on — a Sweep's JSON snapshot is byte-identical no
   matter how many domains ran it. *)

open Mi6_exec
module Metrics = Mi6_obs.Metrics
module Histogram = Mi6_obs.Histogram
module Json = Mi6_obs.Json
module Perfdb = Mi6_obs.Perfdb
module Stats = Mi6_util.Stats
module Config = Mi6_core.Config
module Tmachine = Mi6_core.Tmachine
module Spec = Mi6_workload.Spec

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_serial_fallback () =
  with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "one domain" 1 (Pool.domains pool);
      let got = Pool.map pool 10 (fun i -> i * i) in
      Alcotest.(check (array int))
        "serial map" (Array.init 10 (fun i -> i * i)) got)

let test_pool_order_and_reuse () =
  with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "four domains" 4 (Pool.domains pool);
      for round = 1 to 3 do
        let n = 37 * round in
        let got = Pool.map pool n (fun i -> (i * 7) + round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d in index order" round)
          (Array.init n (fun i -> (i * 7) + round))
          got
      done;
      let xs = List.init 23 string_of_int in
      Alcotest.(check (list string))
        "run_list preserves order"
        (List.map (fun s -> s ^ "!") xs)
        (Pool.run_list pool xs (fun s -> s ^ "!")))

exception Boom of int

let test_pool_exception () =
  with_pool ~domains:3 (fun pool ->
      (match Pool.map pool 16 (fun i -> if i mod 5 = 0 then raise (Boom i) else i)
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        Alcotest.(check int) "lowest failing shard wins" 0 i);
      (* The pool survives a failed job. *)
      let got = Pool.map pool 8 (fun i -> i + 1) in
      Alcotest.(check (array int)) "usable after failure"
        (Array.init 8 (fun i -> i + 1))
        got)

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 in
  ignore (Pool.map pool 5 (fun i -> i));
  Pool.shutdown pool;
  Pool.shutdown pool

let pool_map_model =
  QCheck.Test.make ~name:"Pool.map agrees with Array.init for any job"
    ~count:60
    QCheck.(pair (int_range 0 50) (int_range 1 6))
    (fun (n, domains) ->
      with_pool ~domains (fun pool ->
          Pool.map pool n (fun i -> (i * 31) lxor n)
          = Array.init n (fun i -> (i * 31) lxor n)))

(* ------------------------------------------------------------------ *)
(* Metrics.merge                                                       *)
(* ------------------------------------------------------------------ *)

let registry counters hist_samples =
  let m = Metrics.create () in
  let s = Stats.create () in
  List.iter (fun (name, v) -> Stats.add s name v) counters;
  Metrics.add_stats m ~scope:"" s;
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.add h v) hist_samples;
  Metrics.add_histogram m ~name:"lat" h;
  m

let test_metrics_merge_sums () =
  let a = registry [ ("x", 3); ("y", 10) ] [ 1; 2; 3 ] in
  let b = registry [ ("x", 4); ("z", 5) ] [ 3; 100 ] in
  let acc = Metrics.create () in
  Metrics.merge ~into:acc a;
  Metrics.merge ~into:acc b;
  let find name = List.assoc name (Metrics.counters acc) in
  Alcotest.(check int) "x summed" 7 (find "x");
  Alcotest.(check int) "y kept" 10 (find "y");
  Alcotest.(check int) "z kept" 5 (find "z");
  let _, h = List.find (fun (n, _) -> n = "lat") (Metrics.histograms acc) in
  Alcotest.(check int) "histogram buckets merged" 5 (Histogram.count h)

let test_metrics_merge_order_invariant () =
  let mk () =
    ( registry [ ("a", 1); ("b", 2) ] [ 5; 6 ],
      registry [ ("b", 3); ("c", 4) ] [ 7 ],
      registry [ ("a", 10) ] [ 1000 ] )
  in
  let export order =
    let x, y, z = mk () in
    let acc = Metrics.create () in
    List.iter
      (fun i -> Metrics.merge ~into:acc (match i with 0 -> x | 1 -> y | _ -> z))
      order;
    Json.to_string (Metrics.to_json acc)
  in
  Alcotest.(check string)
    "fold order does not change the export" (export [ 0; 1; 2 ])
    (export [ 2; 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_cells_canonical () =
  let cells =
    Sweep.cells ~seeds:2
      ~variants:[ Config.Fpma; Config.Base; Config.Base ]
      ~benches:[ Spec.Mcf; Spec.Gcc; Spec.Gcc ]
      ()
  in
  Alcotest.(check int) "dedup to 2x2x2" 8 (List.length cells);
  let names = List.map Sweep.cell_name cells in
  Alcotest.(check (list string))
    "canonical order: bench, variant, seed"
    [
      "gcc/BASE"; "gcc/BASE#1"; "gcc/F+P+M+A"; "gcc/F+P+M+A#1";
      "mcf/BASE"; "mcf/BASE#1"; "mcf/F+P+M+A"; "mcf/F+P+M+A#1";
    ]
    names;
  Alcotest.check_raises "seeds must be positive"
    (Invalid_argument "Sweep.cells: seeds must be >= 1") (fun () ->
      ignore (Sweep.cells ~seeds:0 ~variants:[] ~benches:[] ()))

let sweep_json ~domains cells =
  with_pool ~domains (fun pool ->
      let outcomes = Sweep.run pool ~warmup:300 ~measure:800 cells in
      Json.to_string (Sweep.to_json ~warmup:300 ~measure:800 outcomes))

(* The CI gate's property, in-process: same cells, 1 domain vs several,
   run twice — all four snapshots byte-identical. *)
let test_sweep_deterministic_across_domains () =
  let cells =
    Sweep.cells ~seeds:2
      ~variants:[ Config.Base; Config.Fpma ]
      ~benches:[ Spec.Gcc; Spec.Mcf ]
      ()
  in
  let serial = sweep_json ~domains:1 cells in
  let parallel = sweep_json ~domains:4 cells in
  Alcotest.(check string) "serial vs parallel bytes" serial parallel;
  Alcotest.(check string) "parallel rerun bytes" parallel
    (sweep_json ~domains:4 cells)

let test_sweep_perfdb_roundtrip () =
  let cells =
    Sweep.cells ~variants:[ Config.Base ] ~benches:[ Spec.Gcc ] ~seeds:2 ()
  in
  let outcomes =
    with_pool ~domains:1 (fun pool ->
        Sweep.run pool ~warmup:200 ~measure:500 cells)
  in
  let records =
    Sweep.to_perfdb_records ~run_id:"r1" ~commit:"deadbeef" outcomes
  in
  Alcotest.(check int) "one record per cell" (List.length cells)
    (List.length records);
  Alcotest.(check (list string))
    "seed suffixes on bench names" [ "gcc"; "gcc#1" ]
    (List.map (fun r -> r.Perfdb.bench) records);
  List.iter
    (fun r ->
      match Perfdb.record_of_json (Perfdb.record_to_json r) with
      | Ok r' ->
        Alcotest.(check bool) "record JSON roundtrip" true (r = r')
      | Error e -> Alcotest.fail ("record_of_json: " ^ e))
    records

(* The figure harness hands [run] its own cell lists: not a grid, not in
   canonical order.  Outcomes come back in input order, each the serial
   [run_spec] of its own cell and timed. *)
let test_sweep_any_cell_list () =
  let cell variant bench = { Sweep.variant; bench; seed = 0 } in
  let cells =
    [
      cell Config.Part Spec.Mcf; cell Config.Base Spec.Gcc;
      cell Config.Flush Spec.Astar; cell Config.Base Spec.Mcf;
    ]
  in
  let outcomes =
    with_pool ~domains:2 (fun pool ->
        Sweep.run pool ~warmup:200 ~measure:500 cells)
  in
  Alcotest.(check (list string))
    "input order"
    (List.map Sweep.cell_name cells)
    (List.map (fun o -> Sweep.cell_name o.Sweep.cell) outcomes);
  List.iter
    (fun (o : Sweep.outcome) ->
      let name = Sweep.cell_name o.cell in
      let serial =
        Tmachine.run_spec ~variant:o.cell.variant ~bench:o.cell.bench
          ~warmup:200 ~measure:500 ()
      in
      Alcotest.(check int)
        (name ^ " cycles") serial.Tmachine.cycles o.result.Tmachine.cycles;
      Alcotest.(check bool) (name ^ " wall_s > 0") true (o.wall_s > 0.0))
    outcomes

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "serial fallback" `Quick test_pool_serial_fallback;
          Alcotest.test_case "index order and reuse" `Quick
            test_pool_order_and_reuse;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
        ]
        @ qsuite [ pool_map_model ] );
      ( "metrics-merge",
        [
          Alcotest.test_case "counters and histograms sum" `Quick
            test_metrics_merge_sums;
          Alcotest.test_case "fold order invariant" `Quick
            test_metrics_merge_order_invariant;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "canonical cell grid" `Quick test_cells_canonical;
          Alcotest.test_case "byte-identical across domain counts" `Quick
            test_sweep_deterministic_across_domains;
          Alcotest.test_case "perfdb records roundtrip" `Quick
            test_sweep_perfdb_roundtrip;
          Alcotest.test_case "any cell list, input order" `Quick
            test_sweep_any_cell_list;
        ] );
    ]

(* Tests for the observability subsystem: log2 histograms, the trace
   ring buffer and its Chrome export, the JSON printer/parser, and the
   metrics registry. *)

open Mi6_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "sum" 0 (Histogram.sum h);
  check_int "p50 of empty" 0 (Histogram.p50 h);
  check_int "p99 of empty" 0 (Histogram.p99 h);
  check_int "max of empty" 0 (Histogram.max h);
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Histogram.mean h)

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.add h 37;
  check_int "count" 1 (Histogram.count h);
  (* Every quantile of a single sample is that sample (the bucket upper
     bound is clamped to the recorded max). *)
  check_int "p50" 37 (Histogram.p50 h);
  check_int "p95" 37 (Histogram.p95 h);
  check_int "p99" 37 (Histogram.p99 h);
  check_int "min" 37 (Histogram.min h);
  check_int "max" 37 (Histogram.max h)

let test_hist_bucket_boundaries () =
  (* Bucket 0 holds exactly {0}; bucket i holds [2^(i-1), 2^i). *)
  check_int "0" 0 (Histogram.bucket_of 0);
  check_int "1" 1 (Histogram.bucket_of 1);
  check_int "2" 2 (Histogram.bucket_of 2);
  check_int "3" 2 (Histogram.bucket_of 3);
  check_int "4" 3 (Histogram.bucket_of 4);
  check_int "7" 3 (Histogram.bucket_of 7);
  check_int "8" 4 (Histogram.bucket_of 8);
  check_int "1023" 10 (Histogram.bucket_of 1023);
  check_int "1024" 11 (Histogram.bucket_of 1024);
  check_int "max_int lands in last bucket" (Histogram.nbuckets - 1)
    (Histogram.bucket_of max_int);
  (* lo/hi are consistent with bucket_of at both edges of every bucket. *)
  for i = 1 to 40 do
    let lo = Histogram.bucket_lo i and hi = Histogram.bucket_hi i in
    check_int (Printf.sprintf "lo of bucket %d" i) i (Histogram.bucket_of lo);
    check_int (Printf.sprintf "hi of bucket %d" i) i (Histogram.bucket_of hi)
  done

let test_hist_quantiles_uniform () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  check_int "count" 1000 (Histogram.count h);
  check_int "sum" 500500 (Histogram.sum h);
  (* Log2 buckets: quantiles are upper bounds of the holding bucket, so
     p50 of 1..1000 is in [500, 512) -> reported 511. *)
  check_int "p50 bucket hi" 511 (Histogram.p50 h);
  (* p99 rank 990 falls in the [512, 1024) bucket, clamped to max. *)
  check_int "p99 clamped to max" 1000 (Histogram.p99 h);
  check_int "min" 1 (Histogram.min h);
  check_int "max" 1000 (Histogram.max h)

let test_hist_negative_clamps () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  check_int "negative clamps to 0" 1 (Histogram.count h);
  check_int "stored as 0" 0 (Histogram.max h)

let test_hist_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10;
  Histogram.add b 100;
  Histogram.merge ~into:a b;
  check_int "merged count" 2 (Histogram.count a);
  check_int "merged max" 100 (Histogram.max a);
  Histogram.reset a;
  check_int "reset count" 0 (Histogram.count a)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let ev k = Trace.Arb_grant { core = k land 1; kind = "req" }

let test_trace_ring_overflow () =
  let t = Trace.create ~capacity:8 () in
  for k = 0 to 19 do
    Trace.emit t ~now:k (ev k)
  done;
  check_int "length capped at capacity" 8 (Trace.length t);
  check_int "dropped oldest" 12 (Trace.dropped t);
  (* Survivors are exactly the 8 newest, oldest first. *)
  let cycles = List.map fst (Trace.events t) in
  Alcotest.(check (list int)) "newest retained, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    cycles

let test_trace_filter () =
  let t = Trace.create ~capacity:16 ~filter:[ Trace.Purge ] () in
  check_bool "purge active" true (Trace.active t Trace.Purge);
  check_bool "llc filtered out" false (Trace.active t Trace.Llc);
  Trace.emit t ~now:1 (ev 0);
  Trace.emit t ~now:2 (Trace.Purge_begin { core = 0; kind = "enter" });
  check_int "only purge recorded" 1 (Trace.length t)

let test_trace_null_disabled () =
  let t = Trace.null in
  check_bool "never active" false (Trace.active t Trace.Llc);
  Trace.emit t ~now:1 (ev 0);
  check_int "emit is a no-op" 0 (Trace.length t)

let test_trace_reset () =
  let t = Trace.create ~capacity:4 () in
  for k = 0 to 9 do
    Trace.emit t ~now:k (ev k)
  done;
  Trace.reset t;
  check_int "empty after reset" 0 (Trace.length t);
  check_int "drops zeroed" 0 (Trace.dropped t)

let test_trace_chrome_json () =
  let t = Trace.create ~capacity:64 () in
  Trace.emit t ~now:5 (Trace.Arb_grant { core = 1; kind = "req" });
  Trace.emit t ~now:6 (Trace.Purge_begin { core = 0; kind = "enter" });
  Trace.emit t ~now:90 (Trace.Purge_end { core = 0; cycles = 84 });
  Trace.emit t ~now:7 (Trace.Counter { core = 0; name = "rob"; value = 12 });
  let json = Trace.to_chrome_json t in
  (* The export must round-trip through our own parser. *)
  let reparsed = Json.of_string (Json.to_string json) in
  let events =
    match Json.member "traceEvents" reparsed with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_int "one trace-event per emitted event" 4 (List.length events);
  let phases =
    List.filter_map
      (fun e ->
        match Json.member "ph" e with Some (Json.String p) -> Some p | _ -> None)
      events
    |> List.sort compare
  in
  Alcotest.(check (list string)) "instant, begin/end pair, counter"
    [ "B"; "C"; "E"; "i" ] phases

let test_trace_event_labels_stable () =
  check_str "arb label" "arb_grant core=1 kind=req"
    (Trace.event_label (Trace.Arb_grant { core = 1; kind = "req" }));
  check_str "mshr label" "mshr_alloc core=0 idx=3 line=0x2a"
    (Trace.event_label (Trace.Mshr_alloc { core = 0; idx = 3; line = 42 }))

(* Merging two histograms must be indistinguishable from one histogram
   fed the pooled samples — counts, extremes, and every quantile. *)
let test_hist_merge_matches_pooled =
  let gen = QCheck.(pair (list (int_bound 5000)) (list (int_bound 5000))) in
  QCheck.Test.make ~name:"merge equals pooled samples" ~count:200 gen
    (fun (xs, ys) ->
      let a = Histogram.create () and b = Histogram.create () in
      let pooled = Histogram.create () in
      List.iter
        (fun v ->
          Histogram.add a v;
          Histogram.add pooled v)
        xs;
      List.iter
        (fun v ->
          Histogram.add b v;
          Histogram.add pooled v)
        ys;
      Histogram.merge ~into:a b;
      Histogram.count a = Histogram.count pooled
      && Histogram.sum a = Histogram.sum pooled
      && Histogram.min a = Histogram.min pooled
      && Histogram.max a = Histogram.max pooled
      && Histogram.buckets a = Histogram.buckets pooled
      && List.for_all
           (fun q -> Histogram.quantile a q = Histogram.quantile pooled q)
           [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let test_trace_drop_accounting () =
  (* length + dropped always equals the number of accepted emits. *)
  let t = Trace.create ~capacity:4 () in
  for k = 0 to 99 do
    Trace.emit t ~now:k (ev k);
    check_int
      (Printf.sprintf "emit %d conserved" k)
      (k + 1)
      (Trace.length t + Trace.dropped t)
  done;
  check_int "length capped" 4 (Trace.length t);
  check_int "drops" 96 (Trace.dropped t);
  (* Filtered-out events are rejected, not dropped: the drop counter
     only counts ring overwrites. *)
  let f = Trace.create ~capacity:4 ~filter:[ Trace.Purge ] () in
  for k = 0 to 9 do
    Trace.emit f ~now:k (ev k)
  done;
  check_int "filtered emits not counted as drops" 0 (Trace.dropped f);
  check_int "filtered emits not stored" 0 (Trace.length f)

(* One instance of every event constructor: the audit layer compares
   streams by (cycle, label), so labels and core attribution are part of
   the stable API surface. *)
let every_event =
  [
    ( Trace.Counter { core = 2; name = "rob"; value = 12 },
      Some 2, "counter core=2 rob=12" );
    (Trace.Cache_miss { cache = "l1d.0"; line = 42 }, None,
     "miss l1d.0 line=0x2a");
    (Trace.Cache_fill { cache = "l1d.0"; line = 42 }, None,
     "fill l1d.0 line=0x2a");
    (Trace.Arb_grant { core = 1; kind = "creq" }, Some 1,
     "arb_grant core=1 kind=creq");
    (Trace.Arb_idle { core = 3 }, Some 3, "arb_idle core=3");
    (Trace.Mshr_alloc { core = 0; idx = 3; line = 42 }, Some 0,
     "mshr_alloc core=0 idx=3 line=0x2a");
    (Trace.Mshr_free { core = 0; idx = 3 }, Some 0, "mshr_free core=0 idx=3");
    (Trace.Uq_send { core = 1; line = 42 }, Some 1, "uq_send core=1 line=0x2a");
    (Trace.Dq_retry { core = 1; idx = 2 }, Some 1, "dq_retry core=1 idx=2");
    ( Trace.Dram_cmd { bank = 4; read = true; row_hit = false; line = 42 },
      None, "dram_read bank=4 row_miss line=0x2a" );
    (Trace.Purge_begin { core = 0; kind = "enter" }, Some 0,
     "purge_begin core=0 kind=enter");
    (Trace.Purge_phase { core = 0; phase = "caches" }, Some 0,
     "purge_phase core=0 phase=caches");
    (Trace.Purge_end { core = 0; cycles = 84 }, Some 0,
     "purge_end core=0 cycles=84");
    (Trace.Walk_start { core = 1; vpage = 7 }, Some 1,
     "walk_start core=1 vpage=0x7");
    (Trace.Walk_end { core = 1; vpage = 7; reads = 2 }, Some 1,
     "walk_end core=1 vpage=0x7 reads=2");
  ]

let test_trace_event_api_stable () =
  List.iter
    (fun (ev, core, label) ->
      check_str label label (Trace.event_label ev);
      Alcotest.(check (option int)) label core (Trace.event_core ev))
    every_event;
  (* Labels are pairwise distinct: no two constructors can alias in a
     stream comparison. *)
  let labels = List.map (fun (ev, _, _) -> Trace.event_label ev) every_event in
  check_int "distinct labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ]);
        ("c\"d", Json.String "line\nbreak");
      ]
  in
  Alcotest.(check bool) "roundtrip" true
    (Json.of_string (Json.to_string v) = v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "parsed garbage %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_scoping_and_export () =
  let m = Metrics.create () in
  let s = Mi6_util.Stats.create () in
  Mi6_util.Stats.add s "misses" 7;
  Metrics.add_stats m ~scope:"llc" s;
  Metrics.set_int m ~name:"run.cycles" 123;
  let h = Histogram.create () in
  Histogram.add h 4;
  Metrics.add_histogram m ~name:"core.0.load_latency" h;
  Alcotest.(check (list (pair string int)))
    "qualified + sorted counters"
    [ ("llc.misses", 7); ("run.cycles", 123) ]
    (Metrics.counters m);
  let json = Json.of_string (Json.to_string (Metrics.to_json m)) in
  (match Json.member "llc" json with
  | Some (Json.Obj [ ("misses", Json.Int 7) ]) -> ()
  | _ -> Alcotest.fail "nested llc.misses missing");
  check_bool "histograms key present" true
    (Json.member "histograms" json <> None);
  let csv = Metrics.to_csv m in
  check_bool "csv has header" true
    (String.length csv > 11 && String.sub csv 0 11 = "name,value\n");
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "csv has histogram row" true
    (contains csv "core.0.load_latency.p50,")

(* ------------------------------------------------------------------ *)
(* Cpistack                                                            *)
(* ------------------------------------------------------------------ *)

let test_cpistack_accounting () =
  let s =
    Cpistack.v ~label:"BASE" ~total:100
      [ ("base", 60); ("l1_miss", 30); ("other", 10) ]
  in
  check_int "attributed" 100 (Cpistack.attributed s);
  check_int "residual" 0 (Cpistack.residual s);
  check_bool "sums exactly" true (Cpistack.sums_exactly s);
  check_int "missing category reads 0" 0 (Cpistack.cycles s "purge");
  Alcotest.(check (float 1e-9)) "share" 0.6 (Cpistack.share s "base");
  let leaky = Cpistack.v ~label:"X" ~total:100 [ ("base", 90) ] in
  check_int "residual exposed" 10 (Cpistack.residual leaky);
  check_bool "not exact" false (Cpistack.sums_exactly leaky);
  (match Cpistack.v ~label:"X" ~total:1 [ ("bogus", 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown category accepted")

let test_cpistack_of_counters () =
  (* Reads only the prefixed counters, ignoring everything else. *)
  let s =
    Cpistack.of_counters ~label:"v" ~total:50
      [
        ("core.cpi.base", 20); ("core.cpi.llc_dram", 30);
        ("llc.misses", 999); ("core.commits", 999);
      ]
  in
  check_bool "sums exactly" true (Cpistack.sums_exactly s);
  check_int "base" 20 (Cpistack.cycles s "base");
  check_int "llc_dram" 30 (Cpistack.cycles s "llc_dram")

let test_cpistack_rendering () =
  let s =
    Cpistack.v ~label:"BASE" ~total:10 [ ("base", 6); ("purge", 4) ]
  in
  let folded = Cpistack.to_folded ~stem:"gcc;BASE" s in
  check_bool "folded line present" true
    (List.mem "gcc;BASE;purge 4" (String.split_on_char '\n' folded));
  let table = Cpistack.table [ s ] in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "table names the stack" true (contains table "BASE");
  check_bool "table has the purge row" true (contains table "purge");
  (* JSON rendering reparses and carries the totals. *)
  let json = Json.of_string (Json.to_string (Cpistack.to_json s)) in
  (match Json.member "total_cycles" json with
  | Some (Json.Int 10) -> ()
  | _ -> Alcotest.fail "total_cycles missing")

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)
(* ------------------------------------------------------------------ *)

let stream_a =
  [
    (1, Trace.Arb_grant { core = 0; kind = "creq" });
    (2, Trace.Mshr_alloc { core = 0; idx = 0; line = 7 });
    (5, Trace.Dram_cmd { bank = 0; read = true; row_hit = false; line = 7 });
    (9, Trace.Mshr_free { core = 0; idx = 0 });
  ]

let test_audit_identical_streams_clean () =
  let r = Audit.diff stream_a stream_a in
  check_bool "clean" true (Audit.clean r);
  check_bool "no leaking channels" true (Audit.leaking_channels r = []);
  check_bool "no first channel" true (Audit.first_leaking_channel r = None);
  (* Every populated channel reports its event count on both sides. *)
  List.iter
    (fun v ->
      check_int
        (Audit.channel_name v.Audit.v_channel)
        v.Audit.v_events_a v.Audit.v_events_b)
    r.Audit.r_channels

let test_audit_localizes_divergence () =
  (* Same events, but the DRAM command slips by one cycle: only the DRAM
     channel may be blamed, at the right position. *)
  let stream_b =
    List.map
      (fun (c, ev) ->
        match ev with Trace.Dram_cmd _ -> (c + 1, ev) | _ -> (c, ev))
      stream_a
  in
  let r = Audit.diff ~label_a:"idle" ~label_b:"flood" stream_a stream_b in
  check_bool "not clean" false (Audit.clean r);
  (match r.Audit.r_first with
  | Some d ->
    check_int "diverges at the dram event" 2 d.Audit.d_index;
    Alcotest.(check (option int)) "cycle a" (Some 5) d.Audit.d_cycle_a;
    Alcotest.(check (option int)) "cycle b" (Some 6) d.Audit.d_cycle_b
  | None -> Alcotest.fail "no overall divergence");
  (match Audit.leaking_channels r with
  | [ Audit.Dram ] -> ()
  | chs ->
    Alcotest.fail
      (Printf.sprintf "blamed %d channels, wanted exactly dram-cmd"
         (List.length chs)));
  check_bool "first leaking channel" true
    (Audit.first_leaking_channel r = Some Audit.Dram)

let test_audit_length_mismatch () =
  (* A truncated stream diverges at the end-of-stream marker. *)
  let short = [ List.hd stream_a ] in
  let r = Audit.diff stream_a short in
  check_bool "not clean" false (Audit.clean r);
  (match r.Audit.r_first with
  | Some d ->
    check_int "diverges where b ends" 1 d.Audit.d_index;
    Alcotest.(check (option int)) "b ran out" None d.Audit.d_cycle_b;
    check_str "eos label" Audit.eos d.Audit.d_label_b
  | None -> Alcotest.fail "no divergence on truncation");
  (* The report renders and its JSON reparses. *)
  let rendered = Format.asprintf "%a" Audit.pp_report r in
  check_bool "report mentions divergence" true (String.length rendered > 0);
  let json = Json.of_string (Json.to_string (Audit.report_to_json r)) in
  (match Json.member "clean" json with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "clean flag missing")

(* ------------------------------------------------------------------ *)
(* Perfdb                                                              *)
(* ------------------------------------------------------------------ *)

let sample_record ?(run_id = "0001-abc") ?(variant = "BASE") ?(bench = "gcc")
    ?(cycles = 1000) ?(ipc = 0.5) ?host () =
  {
    Perfdb.run_id;
    commit = "abc";
    variant;
    bench;
    cycles;
    instrs = 500;
    ipc;
    cpi = [ ("base", 400); ("llc_dram", 600) ];
    quantiles = [ ("core.0.load_latency", (3, 40, 130)) ];
    host;
  }

let test_perfdb_json_roundtrip () =
  let r = sample_record () in
  match Perfdb.record_of_json (Json.of_string (Json.to_string (Perfdb.record_to_json r))) with
  | Ok r' -> check_bool "roundtrip" true (r = r')
  | Error msg -> Alcotest.fail msg

let test_perfdb_append_load () =
  let path = Filename.temp_file "mi6_history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      check_bool "missing file is empty history" true
        (Perfdb.load ~path = []);
      let run1 =
        [ sample_record (); sample_record ~variant:"F+P+M+A" ~cycles:1200 () ]
      in
      Perfdb.append ~path run1;
      let run2_id =
        Perfdb.next_run_id (Perfdb.load ~path) ~commit:"def"
      in
      check_str "sequential id" "0002-def" run2_id;
      Perfdb.append ~path
        [ sample_record ~run_id:run2_id ~cycles:1100 () ];
      let all = Perfdb.load ~path in
      check_int "all records" 3 (List.length all);
      Alcotest.(check (list string))
        "run ids in order" [ "0001-abc"; "0002-def" ] (Perfdb.run_ids all);
      match Perfdb.latest_two all with
      | Some (prev, latest) ->
        check_int "previous run size" 2 (List.length prev);
        check_int "latest run size" 1 (List.length latest)
      | None -> Alcotest.fail "latest_two missing")

let test_perfdb_compare_runs () =
  let old_run =
    [ sample_record (); sample_record ~variant:"PART" ~cycles:2000 ~ipc:0.8 () ]
  in
  (* Within thresholds: 3% slower is not a regression at 5%. *)
  let ok_run =
    [
      sample_record ~run_id:"0002-abc" ~cycles:1030 ();
      sample_record ~run_id:"0002-abc" ~variant:"PART" ~cycles:2000 ~ipc:0.8 ();
    ]
  in
  check_bool "within thresholds" true
    (Perfdb.compare_runs ~old_run ~new_run:ok_run () = []);
  (* A 10% cycle regression on one pair and an IPC collapse on the other
     must each be reported once, attributed to the right pair. *)
  let bad_run =
    [
      sample_record ~run_id:"0003-abc" ~cycles:1100 ();
      sample_record ~run_id:"0003-abc" ~variant:"PART" ~cycles:2000 ~ipc:0.6 ();
    ]
  in
  let regs = Perfdb.compare_runs ~old_run ~new_run:bad_run () in
  check_int "two regressions" 2 (List.length regs);
  let metric v =
    match
      List.find_opt (fun r -> r.Perfdb.r_variant = v) regs
    with
    | Some r -> r.Perfdb.r_metric
    | None -> "missing"
  in
  check_str "cycle regression on BASE" "cycles" (metric "BASE");
  check_str "ipc regression on PART" "ipc" (metric "PART");
  (* Loosening the thresholds silences both. *)
  check_bool "loose thresholds pass" true
    (Perfdb.compare_runs ~max_cycle_regress_pct:50.0 ~max_ipc_drop_pct:50.0
       ~old_run ~new_run:bad_run ()
    = [])

let test_perfdb_host_roundtrip () =
  let host =
    { Perfdb.wall_s = 1.5; kips = 800.0; phases = [ ("fetch", 12.5) ] }
  in
  let r = sample_record ~host () in
  (match
     Perfdb.record_of_json
       (Json.of_string (Json.to_string (Perfdb.record_to_json r)))
   with
  | Ok r' -> check_bool "host roundtrip" true (r = r')
  | Error msg -> Alcotest.fail msg);
  (* A hostless record omits the field entirely and reparses as None:
     pre-host histories stay loadable (the schema is append-only). *)
  let bare = sample_record () in
  let json = Json.to_string (Perfdb.record_to_json bare) in
  check_bool "no host field serialized" false
    (Json.member "host" (Json.of_string json) <> None);
  match Perfdb.record_of_json (Json.of_string json) with
  | Ok r' -> check_bool "host is None" true (r'.Perfdb.host = None)
  | Error msg -> Alcotest.fail msg

let test_perfdb_kips_gate () =
  let host kips = { Perfdb.wall_s = 1.0; kips; phases = [] } in
  let old_run = [ sample_record ~host:(host 1000.0) () ] in
  (* 60% host-speed drop crosses the (generous) 50% default. *)
  let slow =
    [ sample_record ~run_id:"0002-abc" ~host:(host 400.0) () ]
  in
  (match Perfdb.compare_runs ~old_run ~new_run:slow () with
  | [ r ] ->
    check_str "kips metric" "kips" r.Perfdb.r_metric;
    check_bool "delta is the drop" true (r.Perfdb.r_delta_pct > 50.0)
  | regs -> Alcotest.failf "expected 1 kips regression, got %d"
              (List.length regs));
  (* 40% stays under the default threshold; a missing host section on
     either side disables the gate rather than firing it. *)
  check_bool "40% drop passes" true
    (Perfdb.compare_runs ~old_run
       ~new_run:[ sample_record ~run_id:"0002-abc" ~host:(host 600.0) () ]
       ()
    = []);
  check_bool "hostless new run passes" true
    (Perfdb.compare_runs ~old_run
       ~new_run:[ sample_record ~run_id:"0002-abc" () ]
       ()
    = [])

(* ------------------------------------------------------------------ *)
(* Trace drop-kind accounting                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_drop_kinds () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 4 do
    Trace.emit t ~now:i (Trace.Arb_grant { core = 0; kind = "creq" })
  done;
  check_int "nothing dropped yet" 0 (Trace.dropped t);
  check_bool "no breakdown yet" true (Trace.dropped_by_kind t = []);
  (* Three more events overwrite the three oldest arb_grants: the drop is
     charged to the kind overwritten, not the kind arriving. *)
  for i = 5 to 7 do
    Trace.emit t ~now:i (Trace.Mshr_alloc { core = 0; idx = 0; line = i })
  done;
  check_int "three dropped" 3 (Trace.dropped t);
  check_bool "all charged to arb_grant" true
    (Trace.dropped_by_kind t = [ ("arb_grant", 3) ]);
  (match Trace.dominant_dropped t with
  | Some ("arb_grant", 3) -> ()
  | _ -> Alcotest.fail "dominant_dropped should be arb_grant x3");
  (* Overwrite the remaining arb_grant and two mshr_allocs: mshr_alloc
     ties nothing — arb_grant 4 still dominates. *)
  for i = 8 to 10 do
    Trace.emit t ~now:i (Trace.Uq_send { core = 1; line = i })
  done;
  check_int "six dropped" 6 (Trace.dropped t);
  check_bool "breakdown sorted by count" true
    (Trace.dropped_by_kind t = [ ("arb_grant", 4); ("mshr_alloc", 2) ]);
  (* The sum of the breakdown always equals the total drop counter. *)
  check_int "breakdown conserves total" (Trace.dropped t)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Trace.dropped_by_kind t));
  Trace.reset t;
  check_bool "reset clears breakdown" true (Trace.dropped_by_kind t = [])

(* ------------------------------------------------------------------ *)
(* Selfprof                                                            *)
(* ------------------------------------------------------------------ *)

let test_selfprof_phases_sum_to_wall () =
  let sp = Selfprof.create () in
  check_bool "enabled" true (Selfprof.enabled sp);
  Selfprof.run_begin sp;
  (* Charge some real work to two phases; everything else lands in
     harness. *)
  let spin () =
    let x = ref 0 in
    for i = 1 to 200_000 do x := !x + i done;
    ignore !x
  in
  let p = Selfprof.switch sp Selfprof.ph_fetch in
  spin ();
  ignore (Selfprof.switch sp Selfprof.ph_llc);
  spin ();
  Selfprof.restore sp p;
  spin ();
  Selfprof.run_end sp ~cycles:1000 ~instrs:500;
  let wall = Selfprof.wall_seconds sp in
  check_bool "wall positive" true (wall > 0.0);
  check_int "cycles recorded" 1000 (Selfprof.cycles sp);
  let report = Selfprof.report sp in
  check_int "one row per phase" Selfprof.n_phases (List.length report);
  (* The attribution invariant: between run_begin and run_end every
     instant belongs to exactly one phase, so phase seconds sum to the
     wall time (up to clock rounding). *)
  let sum = List.fold_left (fun acc (_, s, _, _) -> acc +. s) 0.0 report in
  check_bool "phases sum to wall" true (abs_float (sum -. wall) < 0.05 *. wall +. 1e-6);
  check_bool "fetch charged" true (Selfprof.phase_seconds sp Selfprof.ph_fetch > 0.0);
  check_bool "llc charged" true (Selfprof.phase_seconds sp Selfprof.ph_llc > 0.0);
  check_bool "harness charged" true
    (Selfprof.phase_seconds sp Selfprof.ph_harness > 0.0);
  check_bool "kips positive" true (Selfprof.overall_kcps sp > 0.0);
  check_bool "series has the run point" true (Selfprof.kips_series sp <> [])

let test_selfprof_null_disabled () =
  let sp = Selfprof.null in
  check_bool "disabled" false (Selfprof.enabled sp);
  Selfprof.run_begin sp;
  let p = Selfprof.switch sp Selfprof.ph_dram in
  Selfprof.restore sp p;
  Selfprof.sample sp ~cycles:10 ~instrs:5;
  Selfprof.run_end sp ~cycles:10 ~instrs:5;
  Alcotest.(check (float 0.0)) "no wall" 0.0 (Selfprof.wall_seconds sp);
  check_int "no cycles" 0 (Selfprof.cycles sp)

(* ------------------------------------------------------------------ *)
(* Occupancy / quiet-cycle detector                                    *)
(* ------------------------------------------------------------------ *)

let test_occupancy_quiet_detection () =
  let o = Occupancy.create () in
  (* First cycle can never be quiet (no previous signature); repeats of
     the same signature are quiet; any change is not. *)
  Occupancy.note_cycle o ~signature:42 ~cause:0;
  Occupancy.note_cycle o ~signature:42 ~cause:3;
  Occupancy.note_cycle o ~signature:42 ~cause:3;
  Occupancy.note_cycle o ~signature:7 ~cause:0;
  Occupancy.note_cycle o ~signature:7 ~cause:5;
  check_int "cycles" 5 (Occupancy.cycles o);
  check_int "quiet" 3 (Occupancy.quiet_cycles o);
  Alcotest.(check (float 1e-9)) "fraction" 0.6 (Occupancy.quiet_fraction o);
  (* Per-cause attribution: base saw 2 cycles 0 quiet, llc_dram 2/2,
     purge 1/1. *)
  check_bool "by_cause" true
    (Occupancy.by_cause o
    = [ ("base", 0, 2); ("llc_dram", 2, 2); ("purge", 1, 1) ]);
  (* An out-of-range cause lands in the catch-all last category. *)
  Occupancy.note_cycle o ~signature:7 ~cause:99;
  check_bool "overflow cause is other" true
    (List.mem_assoc "other"
       (List.map (fun (c, q, _) -> (c, q)) (Occupancy.by_cause o)))

let test_occupancy_sample_and_register () =
  let o = Occupancy.create () in
  for i = 1 to 10 do
    Occupancy.sample o ~rob:i ~iq:2 ~lq:1 ~sq:0 ~sb:1 ~mshr:4
  done;
  Occupancy.note_cycle o ~signature:1 ~cause:0;
  let reg = Metrics.create () in
  Occupancy.register o reg;
  let hists = Metrics.histograms reg in
  check_bool "rob histogram registered" true
    (List.mem_assoc "occupancy.rob" hists);
  check_int "rob samples" 10
    (Histogram.count (List.assoc "occupancy.rob" hists));
  check_int "quiet gauge" 1
    (List.assoc "quiet.cycles" (Metrics.counters reg));
  (* The disabled singleton samples and registers nothing. *)
  let reg' = Metrics.create () in
  Occupancy.sample Occupancy.null ~rob:9 ~iq:9 ~lq:9 ~sq:9 ~sb:9 ~mshr:9;
  Occupancy.register Occupancy.null reg';
  check_bool "null registers nothing" true (Metrics.counters reg' = [])

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "mi6_telemetry" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let drive_stream ?deterministic ~every ~upto path =
  let t = Telemetry.create ?deterministic ~every ~path () in
  for cycle = 1 to upto do
    Telemetry.maybe_emit t ~cycle ~instrs:(cycle / 2)
      ~counters:(fun () -> [ ("core.cycles", cycle); ("zero", 0) ])
      ~occupancy:Occupancy.null ~selfprof:Selfprof.null
  done;
  let n = Telemetry.snapshots t in
  Telemetry.close t;
  n

let test_telemetry_stream_validates () =
  with_temp_file @@ fun path ->
  let n = drive_stream ~every:10 ~upto:35 path in
  check_int "three snapshots" 3 n;
  (match Telemetry.validate_file ~path with
  | Ok 3 -> ()
  | Ok n -> Alcotest.failf "validated %d snapshots, expected 3" n
  | Error msg -> Alcotest.fail msg);
  (* Appending garbage makes validation fail with the line number. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{not json\n";
  close_out oc;
  match Telemetry.validate_file ~path with
  | Error msg -> check_bool "names line 4" true
                   (String.length msg >= 6 && String.sub msg 0 6 = "line 4")
  | Ok _ -> Alcotest.fail "garbage line must not validate"

let test_telemetry_deterministic_streams_identical () =
  with_temp_file @@ fun p1 ->
  with_temp_file @@ fun p2 ->
  ignore (drive_stream ~deterministic:true ~every:7 ~upto:50 p1);
  ignore (drive_stream ~deterministic:true ~every:7 ~upto:50 p2);
  let slurp p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let s1 = slurp p1 in
  check_bool "byte-identical reruns" true (s1 = slurp p2);
  (* Deterministic mode must omit every host-derived field. *)
  check_bool "no host section" false
    (let sub = "\"host\"" in
     let rec find i =
       i + String.length sub <= String.length s1
       && (String.sub s1 i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let test_telemetry_counter_deltas () =
  with_temp_file @@ fun path ->
  let t = Telemetry.create ~deterministic:true ~every:10 ~path () in
  let counters = ref [ ("a", 5) ] in
  Telemetry.maybe_emit t ~cycle:10 ~instrs:1
    ~counters:(fun () -> !counters)
    ~occupancy:Occupancy.null ~selfprof:Selfprof.null;
  counters := [ ("a", 12); ("b", 3) ];
  Telemetry.maybe_emit t ~cycle:20 ~instrs:2
    ~counters:(fun () -> !counters)
    ~occupancy:Occupancy.null ~selfprof:Selfprof.null;
  Telemetry.close t;
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  let delta line name =
    match Json.member "counters" (Json.of_string line) with
    | Some c -> Json.member name c
    | None -> None
  in
  (* First snapshot carries absolute values, the second the increments
     since; unchanged/zero counters are elided. *)
  check_bool "first a=5" true (delta l1 "a" = Some (Json.Int 5));
  check_bool "second a=+7" true (delta l2 "a" = Some (Json.Int 7));
  check_bool "second b=+3" true (delta l2 "b" = Some (Json.Int 3))

(* ---------- Replay flight recorder ---------- *)

(* Checkpoints are just recorded cycle numbers: Replay is generic, so a
   trivial save thunk exercises the ring logic in isolation. *)
let make_recorder ~interval ~capacity =
  let clock = ref 0 in
  let t =
    Replay.create ~interval ~capacity ~save:(fun () -> !clock) ~cycle_of:Fun.id
  in
  (t, clock)

let test_replay_records_every_interval () =
  let t, clock = make_recorder ~interval:10 ~capacity:100 in
  for c = 0 to 95 do
    clock := c;
    Replay.observe t ~cycle:c
  done;
  Alcotest.(check int) "taken" 10 (Replay.taken t);
  Alcotest.(check (list int)) "checkpoints"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (Replay.checkpoints t)

let test_replay_ring_bounds_memory () =
  let t, clock = make_recorder ~interval:10 ~capacity:3 in
  for c = 0 to 95 do
    clock := c;
    Replay.observe t ~cycle:c
  done;
  Alcotest.(check int) "retained" 3 (Replay.count t);
  Alcotest.(check int) "taken" 10 (Replay.taken t);
  Alcotest.(check (list int)) "only the newest survive" [ 70; 80; 90 ]
    (Replay.checkpoints t);
  Alcotest.(check (option int)) "oldest" (Some 70) (Replay.oldest_cycle t)

let test_replay_nearest () =
  let t, clock = make_recorder ~interval:10 ~capacity:4 in
  for c = 0 to 59 do
    clock := c;
    Replay.observe t ~cycle:c
  done;
  (* Retained: 20 30 40 50. *)
  Alcotest.(check (option int)) "exact hit" (Some 40)
    (Replay.nearest t ~cycle:40);
  Alcotest.(check (option int)) "rounds down" (Some 40)
    (Replay.nearest t ~cycle:49);
  Alcotest.(check (option int)) "newest" (Some 50) (Replay.nearest t ~cycle:999);
  Alcotest.(check (option int)) "fell off the ring" None
    (Replay.nearest t ~cycle:15)

let test_replay_rejects_bad_args () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "zero interval" true
    (raises (fun () ->
         Replay.create ~interval:0 ~capacity:1 ~save:(fun () -> 0)
           ~cycle_of:Fun.id));
  Alcotest.(check bool) "zero capacity" true
    (raises (fun () ->
         Replay.create ~interval:1 ~capacity:0 ~save:(fun () -> 0)
           ~cycle_of:Fun.id))

let () =
  Alcotest.run "mi6_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample" `Quick test_hist_single;
          Alcotest.test_case "bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "uniform quantiles" `Quick
            test_hist_quantiles_uniform;
          Alcotest.test_case "negative clamps" `Quick test_hist_negative_clamps;
          Alcotest.test_case "merge and reset" `Quick test_hist_merge_reset;
          QCheck_alcotest.to_alcotest test_hist_merge_matches_pooled;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overflow drops oldest" `Quick
            test_trace_ring_overflow;
          Alcotest.test_case "drop accounting conserved" `Quick
            test_trace_drop_accounting;
          Alcotest.test_case "category filter" `Quick test_trace_filter;
          Alcotest.test_case "null trace disabled" `Quick
            test_trace_null_disabled;
          Alcotest.test_case "reset" `Quick test_trace_reset;
          Alcotest.test_case "chrome json export" `Quick test_trace_chrome_json;
          Alcotest.test_case "stable labels" `Quick
            test_trace_event_labels_stable;
          Alcotest.test_case "event core/label stable for every constructor"
            `Quick test_trace_event_api_stable;
          Alcotest.test_case "per-kind drop breakdown" `Quick
            test_trace_drop_kinds;
        ] );
      ( "selfprof",
        [
          Alcotest.test_case "phases sum to wall" `Quick
            test_selfprof_phases_sum_to_wall;
          Alcotest.test_case "null profiler disabled" `Quick
            test_selfprof_null_disabled;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "quiet-cycle detection" `Quick
            test_occupancy_quiet_detection;
          Alcotest.test_case "sampling and registration" `Quick
            test_occupancy_sample_and_register;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stream validates" `Quick
            test_telemetry_stream_validates;
          Alcotest.test_case "deterministic streams identical" `Quick
            test_telemetry_deterministic_streams_identical;
          Alcotest.test_case "counter deltas" `Quick
            test_telemetry_counter_deltas;
        ] );
      ( "cpistack",
        [
          Alcotest.test_case "accounting invariants" `Quick
            test_cpistack_accounting;
          Alcotest.test_case "of_counters" `Quick test_cpistack_of_counters;
          Alcotest.test_case "rendering" `Quick test_cpistack_rendering;
        ] );
      ( "audit",
        [
          Alcotest.test_case "identical streams are clean" `Quick
            test_audit_identical_streams_clean;
          Alcotest.test_case "localizes a one-cycle slip" `Quick
            test_audit_localizes_divergence;
          Alcotest.test_case "length mismatch" `Quick test_audit_length_mismatch;
        ] );
      ( "perfdb",
        [
          Alcotest.test_case "record json roundtrip" `Quick
            test_perfdb_json_roundtrip;
          Alcotest.test_case "append and load" `Quick test_perfdb_append_load;
          Alcotest.test_case "compare_runs thresholds" `Quick
            test_perfdb_compare_runs;
          Alcotest.test_case "host section roundtrip" `Quick
            test_perfdb_host_roundtrip;
          Alcotest.test_case "kips regression gate" `Quick
            test_perfdb_kips_gate;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "scoping and export" `Quick
            test_metrics_scoping_and_export;
        ] );
      ( "replay",
        [
          Alcotest.test_case "records every interval" `Quick
            test_replay_records_every_interval;
          Alcotest.test_case "ring bounds memory" `Quick
            test_replay_ring_bounds_memory;
          Alcotest.test_case "nearest checkpoint" `Quick test_replay_nearest;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_replay_rejects_bad_args;
        ] );
    ]

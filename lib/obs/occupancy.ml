(* Structure-occupancy sampling and the quiet-cycle detector.

   Occupancy: one sample per structure per cycle into the log2
   histograms, answering "how full do the ROB / issue queues / LQ / SQ /
   store buffer / LLC MSHRs actually run?" — the sizing input for the
   flat-state refactor.

   Quiet cycles: the machine hands the detector its structural signature
   (the hash reading of its state folds, see [Mi6_util.Statesig]) once
   per cycle; a cycle whose signature equals the previous cycle's
   advanced nothing but the clock, so an event-driven simulator could
   have skipped it.  Each cycle is also
   tagged with the core's CPI-stack attribution, giving the
   fast-forwardable fraction per stall cause (a purge stall is quiet
   almost always; a commit cycle never is). *)

let causes = Array.of_list Cpistack.categories
let n_causes = Array.length causes

type t = {
  enabled : bool;
  rob : Histogram.t;
  iq : Histogram.t;
  lq : Histogram.t;
  sq : Histogram.t;
  sb : Histogram.t;
  mshr : Histogram.t;
  mutable cycles : int;
  mutable quiet : int;
  mutable last_sig : int;
  mutable have_sig : bool;
  cause_cycles : int array;
  cause_quiet : int array;
}

let null =
  {
    enabled = false;
    rob = Histogram.create ();
    iq = Histogram.create ();
    lq = Histogram.create ();
    sq = Histogram.create ();
    sb = Histogram.create ();
    mshr = Histogram.create ();
    cycles = 0;
    quiet = 0;
    last_sig = 0;
    have_sig = false;
    cause_cycles = [||];
    cause_quiet = [||];
  }

let create () =
  {
    enabled = true;
    rob = Histogram.create ();
    iq = Histogram.create ();
    lq = Histogram.create ();
    sq = Histogram.create ();
    sb = Histogram.create ();
    mshr = Histogram.create ();
    cycles = 0;
    quiet = 0;
    last_sig = 0;
    have_sig = false;
    cause_cycles = Array.make n_causes 0;
    cause_quiet = Array.make n_causes 0;
  }

let enabled t = t.enabled

let sample t ~rob ~iq ~lq ~sq ~sb ~mshr =
  if t.enabled then begin
    Histogram.add t.rob rob;
    Histogram.add t.iq iq;
    Histogram.add t.lq lq;
    Histogram.add t.sq sq;
    Histogram.add t.sb sb;
    Histogram.add t.mshr mshr
  end

let note_cycle t ~signature ~cause =
  if t.enabled then begin
    let cause = if cause >= 0 && cause < n_causes then cause else n_causes - 1 in
    t.cycles <- t.cycles + 1;
    t.cause_cycles.(cause) <- t.cause_cycles.(cause) + 1;
    if t.have_sig && signature = t.last_sig then begin
      t.quiet <- t.quiet + 1;
      t.cause_quiet.(cause) <- t.cause_quiet.(cause) + 1
    end;
    t.last_sig <- signature;
    t.have_sig <- true
  end

let cycles t = t.cycles
let quiet_cycles t = t.quiet

let quiet_fraction t =
  if t.cycles = 0 then 0.0 else float_of_int t.quiet /. float_of_int t.cycles

(* (cause, quiet cycles, total cycles) for causes seen at least once. *)
let by_cause t =
  if not t.enabled then []
  else
    List.filter_map
      (fun i ->
        if t.cause_cycles.(i) = 0 then None
        else Some (causes.(i), t.cause_quiet.(i), t.cause_cycles.(i)))
      (List.init n_causes Fun.id)

(* Histograms and quiet-cycle gauges into a metrics registry; merging
   per-cell registries then merges occupancy distributions too. *)
let register t reg =
  if t.enabled then begin
    Metrics.add_histogram reg ~name:"occupancy.rob" t.rob;
    Metrics.add_histogram reg ~name:"occupancy.iq" t.iq;
    Metrics.add_histogram reg ~name:"occupancy.lq" t.lq;
    Metrics.add_histogram reg ~name:"occupancy.sq" t.sq;
    Metrics.add_histogram reg ~name:"occupancy.sb" t.sb;
    Metrics.add_histogram reg ~name:"occupancy.llc_mshr" t.mshr;
    Metrics.set_int reg ~name:"quiet.cycles" t.cycles;
    Metrics.set_int reg ~name:"quiet.quiet_cycles" t.quiet;
    List.iter
      (fun (cause, q, tot) ->
        Metrics.set_int reg ~name:("quiet.by_cause." ^ cause ^ ".quiet") q;
        Metrics.set_int reg ~name:("quiet.by_cause." ^ cause ^ ".cycles") tot)
      (by_cause t)
  end

let to_json t =
  let hist name h =
    ( name,
      Json.Obj
        [
          ("count", Json.Int (Histogram.count h));
          ("mean", Json.Float (Histogram.mean h));
          ("p50", Json.Int (Histogram.p50 h));
          ("p95", Json.Int (Histogram.p95 h));
          ("max", Json.Int (Histogram.max h));
        ] )
  in
  Json.Obj
    [
      ("cycles", Json.Int t.cycles);
      ("quiet_cycles", Json.Int t.quiet);
      ("quiet_fraction", Json.Float (quiet_fraction t));
      ( "by_cause",
        Json.Obj
          (List.map
             (fun (cause, q, tot) ->
               ( cause,
                 Json.Obj
                   [ ("quiet", Json.Int q); ("cycles", Json.Int tot) ] ))
             (by_cause t)) );
      ( "structures",
        Json.Obj
          [
            hist "rob" t.rob;
            hist "iq" t.iq;
            hist "lq" t.lq;
            hist "sq" t.sq;
            hist "sb" t.sb;
            hist "llc_mshr" t.mshr;
          ] );
    ]

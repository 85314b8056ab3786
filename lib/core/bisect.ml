(* Cross-run bisection: two machines advance in lockstep while a flight
   recorder checkpoints each every [interval] cycles; when their
   structure state first disagrees, the offending interval is re-entered
   from the last shared checkpoint and searched down to the exact cycle,
   and a causal slice (diverging component, field-level dump diff,
   in-flight µops, recent trace events) is produced.

   Two comparison oracles, picked automatically:

   - [signature]: the machines have identical structure shapes (same
     variant — the secret-pair mode), so whole-machine
     [structural_signature] equality is the oracle.  The lockstep scan
     compares only at checkpoint boundaries and a binary search (restore
     + re-execute, O(interval · log interval)) pins the first divergent
     cycle, under the documented assumption that diverged machine states
     do not reconverge to signature equality by a boundary.

   - [activity]: structurally different variants (BASE vs F+P+M+A) hash
     differently from reset, so raw signatures are vacuous.  The oracle
     instead compares each cycle's per-component activity pattern —
     which components' signatures changed that cycle, plus the committed
     instruction count — which is identical while the two variants
     execute the same program with the same timing.  The scan compares
     every cycle, so the first divergent cycle falls out directly. *)

type checkpoint_stats = {
  cs_interval : int;
  cs_taken : int;
  cs_retained : int;
  cs_mem_high_water_words : int;
  cs_probes : int; (* restore + re-execute probes during the search *)
}

type component_diff = {
  cd_component : string;
  cd_dump_a : string;
  cd_dump_b : string;
  cd_first_diff : string; (* excerpt around the first differing byte *)
}

type slice = {
  s_cycle : int; (* first divergent cycle *)
  s_oracle : string; (* "signature" or "activity" *)
  s_component : string; (* first diverging section label *)
  s_components : string list; (* all diverging section labels *)
  s_audit_channels : string list; (* audit channels the component hosts *)
  s_checkpoint_cycle : int; (* shared checkpoint the slice replayed from *)
  s_diffs : component_diff list;
  s_uops_a : string list;
  s_uops_b : string list;
  s_trace_a : string list;
  s_trace_b : string list;
}

type outcome = Clean of { cycles_run : int } | Diverged of slice

type report = {
  r_label_a : string;
  r_label_b : string;
  r_outcome : outcome;
  r_stats : checkpoint_stats;
}

let diverged r = match r.r_outcome with Diverged _ -> true | Clean _ -> false

(* The audit channels resident in a component, so a bisection verdict
   can be cross-checked against the leakage auditor's: the auditor names
   the event channel where victim-visible streams split, the bisector
   the component whose state split.  The LLC hosts the arbiter, MSHR
   file, UQ/DQ and fill traffic, and (its section folds the controller)
   the DRAM command stream. *)
let audit_channels_of_component name =
  let prefixed p =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  if name = "llc" then Audit.[ Arbiter; Mshr; Uq_dq; Cache; Dram ]
  else if prefixed "l1" then [ Audit.Cache ]
  else if prefixed "core" then Audit.[ Purge; Walk ]
  else []

let first_diff_excerpt a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  if i = n && String.length a = String.length b then ""
  else
    let ctx s =
      let lo = max 0 (i - 16) in
      String.sub s lo (min (String.length s - lo) 48)
    in
    Printf.sprintf "byte %d: a=\xe2\x80\xa6%s\xe2\x80\xa6 b=\xe2\x80\xa6%s\xe2\x80\xa6" i
      (ctx a) (ctx b)

let trace_tail trace ~window =
  match trace with
  | None -> []
  | Some tr ->
    let evs = Trace.events tr in
    let skip = max 0 (List.length evs - window) in
    List.filteri (fun i _ -> i >= skip) evs
    |> List.map (fun (c, e) -> Printf.sprintf "%d %s" c (Trace.event_label e))

let in_flight m =
  let rec per_core i acc =
    match Tmachine.core m i with
    | exception Invalid_argument _ -> List.rev acc
    | c ->
      let us =
        List.map
          (fun (u, st) -> Printf.sprintf "core%d %-7s %s" i st (Uop.to_string u))
          (Core.in_flight_uops c)
      in
      per_core (i + 1) (List.rev_append us acc)
  in
  per_core 0 []

(* ------------------------------------------------------------------ *)
(* Lockstep driver                                                     *)
(* ------------------------------------------------------------------ *)

type lockstep = {
  a : Tmachine.t;
  b : Tmachine.t;
  rec_a : Tmachine.checkpoint Replay.t;
  rec_b : Tmachine.checkpoint Replay.t;
  interval : int;
  mutable probes : int;
}

let tick2 ls =
  Tmachine.tick ls.a;
  Tmachine.tick ls.b

let observe2 ls ~cycle =
  Replay.observe ls.rec_a ~cycle;
  Replay.observe ls.rec_b ~cycle

let finished2 ls = Tmachine.finished ls.a && Tmachine.finished ls.b
let sig_eq ls = Tmachine.structural_signature ls.a = Tmachine.structural_signature ls.b

(* Per-component signatures and labelled dumps, read off the machine's
   state sections. *)
let signatures m =
  List.map (fun (n, fold) -> (n, Statesig.hash fold)) (Tmachine.sections m)

let dumps m =
  List.map (fun (n, fold) -> (n, Statesig.render fold)) (Tmachine.sections m)

(* Restore both sides to the recorded checkpoints nearest [cycle] and
   re-execute to exactly [cycle] — the O(interval) reachability the ring
   guarantees. *)
let goto ls ~cycle =
  (match
     (Replay.nearest ls.rec_a ~cycle, Replay.nearest ls.rec_b ~cycle)
   with
  | Some ca, Some cb ->
    Tmachine.restore ls.a ca;
    Tmachine.restore ls.b cb
  | _ -> invalid_arg "Bisect: cycle precedes the recorder window");
  while Tmachine.now ls.a < cycle do
    tick2 ls
  done;
  ls.probes <- ls.probes + 1

(* Binary search in (lo, hi]: equal at [lo], diverged at [hi].  Probes
   restore from the nearest retained checkpoint; each equal probe
   re-records a checkpoint at its cycle (via the recorders' save
   thunks), so later probes re-execute ever-shorter spans. *)
let rec search ls ~base_a ~base_b ~lo ~hi =
  if hi - lo <= 1 then (hi, base_a, base_b)
  else begin
    let mid = (lo + hi) / 2 in
    Tmachine.restore ls.a base_a;
    Tmachine.restore ls.b base_b;
    while Tmachine.now ls.a < mid do
      tick2 ls
    done;
    ls.probes <- ls.probes + 1;
    if sig_eq ls then
      search ls ~base_a:(Tmachine.save ls.a) ~base_b:(Tmachine.save ls.b)
        ~lo:mid ~hi
    else search ls ~base_a ~base_b ~lo ~hi:mid
  end

(* Per-component activity of the cycle just ticked: which sections'
   signatures changed, plus the committed count. *)
let activity prev secs committed =
  (List.map2 (fun (n, s) (n', s') ->
       assert (String.equal n n');
       (n, s <> s'))
     prev secs,
   committed)

let build_slice ls ~oracle ~cycle ~checkpoint_cycle ~components ~window
    ~trace_a ~trace_b =
  let dumps_a = dumps ls.a and dumps_b = dumps ls.b in
  let diffs =
    List.filter_map
      (fun name ->
        match (List.assoc_opt name dumps_a, List.assoc_opt name dumps_b) with
        | Some da, Some db ->
          Some
            {
              cd_component = name;
              cd_dump_a = da;
              cd_dump_b = db;
              cd_first_diff = first_diff_excerpt da db;
            }
        | _ -> None)
      components
  in
  let first = match components with c :: _ -> c | [] -> "unknown" in
  {
    s_cycle = cycle;
    s_oracle = oracle;
    s_component = first;
    s_components = components;
    s_audit_channels =
      List.map Audit.channel_name (audit_channels_of_component first);
    s_checkpoint_cycle = checkpoint_cycle;
    s_diffs = diffs;
    s_uops_a = in_flight ls.a;
    s_uops_b = in_flight ls.b;
    s_trace_a = trace_tail trace_a ~window;
    s_trace_b = trace_tail trace_b ~window;
  }

let run ?(interval = 256) ?(ring = 64) ?(window = 16)
    ?(max_cycles = 4_000_000) ?trace_a ?trace_b ~label_a ~label_b a b =
  if Tmachine.now a <> 0 || Tmachine.now b <> 0 then
    invalid_arg "Bisect.run: machines must be fresh (cycle 0)";
  let shape m = List.map fst (Tmachine.sections m) in
  if shape a <> shape b then
    invalid_arg "Bisect.run: machines must have the same component shape";
  let ls =
    {
      a;
      b;
      rec_a =
        Replay.create ~interval ~capacity:ring
          ~save:(fun () -> Tmachine.save a)
          ~cycle_of:Tmachine.checkpoint_cycle;
      rec_b =
        Replay.create ~interval ~capacity:ring
          ~save:(fun () -> Tmachine.save b)
          ~cycle_of:Tmachine.checkpoint_cycle;
      interval;
      probes = 0;
    }
  in
  observe2 ls ~cycle:0;
  let homogeneous = sig_eq ls in
  let stats () =
    {
      cs_interval = interval;
      cs_taken = Replay.taken ls.rec_a + Replay.taken ls.rec_b;
      cs_retained = Replay.count ls.rec_a + Replay.count ls.rec_b;
      cs_mem_high_water_words =
        Replay.mem_high_water_words ls.rec_a
        + Replay.mem_high_water_words ls.rec_b;
      cs_probes = ls.probes;
    }
  in
  let outcome =
    if homogeneous then begin
      (* Signature oracle: compare at boundaries, then binary-search. *)
      let cycle = ref 0 in
      let divergent = ref None in
      while
        !divergent = None && (not (finished2 ls)) && !cycle < max_cycles
      do
        tick2 ls;
        incr cycle;
        observe2 ls ~cycle:!cycle;
        if (!cycle mod interval = 0 || finished2 ls) && not (sig_eq ls) then
          divergent := Some !cycle
      done;
      match !divergent with
      | None -> Clean { cycles_run = !cycle }
      | Some hi ->
        let lo = hi - 1 - ((hi - 1) mod interval) in
        goto ls ~cycle:lo;
        if not (sig_eq ls) then
          (* Divergence predates the boundary scan's resolution (should
             not happen: lo was a compared-equal boundary). *)
          invalid_arg "Bisect: checkpoint boundary no longer equal";
        let base_a = Tmachine.save ls.a and base_b = Tmachine.save ls.b in
        let first, base_a, base_b = search ls ~base_a ~base_b ~lo ~hi in
        let checkpoint_cycle = Tmachine.checkpoint_cycle base_a in
        Tmachine.restore ls.a base_a;
        Tmachine.restore ls.b base_b;
        while Tmachine.now ls.a < first do
          tick2 ls
        done;
        let components =
          List.filter_map
            (fun ((n, sa), (_, sb)) -> if sa <> sb then Some n else None)
            (List.combine (signatures ls.a) (signatures ls.b))
        in
        Diverged
          (build_slice ls ~oracle:"signature" ~cycle:first ~checkpoint_cycle
             ~components ~window ~trace_a ~trace_b)
    end
    else begin
      (* Activity oracle: per-cycle comparison finds the first divergent
         cycle directly; the recorders still bound slice re-execution. *)
      let prev_a = ref (signatures a) and prev_b = ref (signatures b) in
      let cycle = ref 0 in
      let divergent = ref None in
      while
        !divergent = None && (not (finished2 ls)) && !cycle < max_cycles
      do
        tick2 ls;
        incr cycle;
        observe2 ls ~cycle:!cycle;
        let secs_a = signatures a and secs_b = signatures b in
        let act_a = activity !prev_a secs_a (Tmachine.committed a)
        and act_b = activity !prev_b secs_b (Tmachine.committed b) in
        prev_a := secs_a;
        prev_b := secs_b;
        if act_a <> act_b then divergent := Some (!cycle, act_a, act_b)
      done;
      match !divergent with
      | None -> Clean { cycles_run = !cycle }
      | Some (first, (bits_a, _), (bits_b, _)) ->
        let components =
          List.filter_map
            (fun ((n, ca), (_, cb)) -> if ca <> cb then Some n else None)
            (List.combine bits_a bits_b)
        in
        let components =
          if components = [] then [ "core0" (* committed count differed *) ]
          else components
        in
        let checkpoint_cycle =
          match Replay.nearest ls.rec_a ~cycle:first with
          | Some ck -> Tmachine.checkpoint_cycle ck
          | None -> 0
        in
        Diverged
          (build_slice ls ~oracle:"activity" ~cycle:first ~checkpoint_cycle
             ~components ~window ~trace_a ~trace_b)
    end
  in
  { r_label_a = label_a; r_label_b = label_b; r_outcome = outcome;
    r_stats = stats () }

(* ------------------------------------------------------------------ *)
(* Single-run slice (differential-test counterexamples)                *)
(* ------------------------------------------------------------------ *)

(* One machine, one recorder: rewind to the nearest checkpoint, re-run
   to [cycle], and render what the machine was doing — the slice a
   shrunk qcheck counterexample prints alongside the failing retirement
   index. *)
let slice_at ?(window = 16) ?trace ~recorder m ~cycle =
  (match Replay.nearest recorder ~cycle with
  | Some ck -> Tmachine.restore m ck
  | None -> invalid_arg "Bisect.slice_at: cycle precedes the recorder window");
  while Tmachine.now m < cycle && not (Tmachine.finished m) do
    Tmachine.tick m
  done;
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "causal slice @ cycle %d\n" cycle;
  Printf.bprintf buf "in-flight µops:\n";
  List.iter (fun l -> Printf.bprintf buf "  %s\n" l) (in_flight m);
  (match trace_tail trace ~window with
  | [] -> ()
  | evs ->
    Printf.bprintf buf "last %d trace events:\n" (List.length evs);
    List.iter (fun l -> Printf.bprintf buf "  %s\n" l) evs);
  Printf.bprintf buf "component state:\n";
  List.iter
    (fun (n, d) -> Printf.bprintf buf "  %s: %s\n" n d)
    (dumps m);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let schema = "mi6.bisect/1"

let report_to_json r =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  let stats =
    Json.Obj
      [
        ("interval", Json.Int r.r_stats.cs_interval);
        ("taken", Json.Int r.r_stats.cs_taken);
        ("retained", Json.Int r.r_stats.cs_retained);
        ("mem_high_water_words", Json.Int r.r_stats.cs_mem_high_water_words);
        ("probes", Json.Int r.r_stats.cs_probes);
      ]
  in
  let base =
    [
      ("schema", Json.String schema);
      ("label_a", Json.String r.r_label_a);
      ("label_b", Json.String r.r_label_b);
      ("diverged", Json.Bool (diverged r));
      ("checkpoints", stats);
    ]
  in
  match r.r_outcome with
  | Clean { cycles_run } ->
    Json.Obj (base @ [ ("cycles_run", Json.Int cycles_run) ])
  | Diverged s ->
    Json.Obj
      (base
      @ [
          ("cycle", Json.Int s.s_cycle);
          ("oracle", Json.String s.s_oracle);
          ("component", Json.String s.s_component);
          ("components", strings s.s_components);
          ("audit_channels", strings s.s_audit_channels);
          ("checkpoint_cycle", Json.Int s.s_checkpoint_cycle);
          ( "field_diff",
            Json.List
              (List.map
                 (fun d ->
                   Json.Obj
                     [
                       ("component", Json.String d.cd_component);
                       ("a", Json.String d.cd_dump_a);
                       ("b", Json.String d.cd_dump_b);
                       ("first_diff", Json.String d.cd_first_diff);
                     ])
                 s.s_diffs) );
          ("uops_a", strings s.s_uops_a);
          ("uops_b", strings s.s_uops_b);
          ("trace_a", strings s.s_trace_a);
          ("trace_b", strings s.s_trace_b);
        ])

let pp_report fmt r =
  let pr f = Format.fprintf fmt f in
  pr "bisect %s vs %s@." r.r_label_a r.r_label_b;
  (match r.r_outcome with
  | Clean { cycles_run } ->
    pr "  no divergence in %d cycles@." cycles_run
  | Diverged s ->
    pr "  first divergence: cycle %d (%s oracle)@." s.s_cycle s.s_oracle;
    pr "  component: %s  (all: %s)@." s.s_component
      (String.concat ", " s.s_components);
    pr "  audit channels: %s@." (String.concat ", " s.s_audit_channels);
    pr "  replayed from checkpoint at cycle %d@." s.s_checkpoint_cycle;
    List.iter
      (fun d ->
        if d.cd_first_diff <> "" then
          pr "  %s: %s@." d.cd_component d.cd_first_diff)
      s.s_diffs;
    let dump tag uops =
      if uops <> [] then begin
        pr "  in-flight (%s):@." tag;
        List.iter (fun u -> pr "    %s@." u) uops
      end
    in
    dump r.r_label_a s.s_uops_a;
    dump r.r_label_b s.s_uops_b;
    let tr tag evs =
      if evs <> [] then begin
        pr "  trace tail (%s):@." tag;
        List.iter (fun e -> pr "    %s@." e) evs
      end
    in
    tr r.r_label_a s.s_trace_a;
    tr r.r_label_b s.s_trace_b);
  pr "  checkpoints: %d taken, %d retained, interval %d, %d probes, %d words peak@."
    r.r_stats.cs_taken r.r_stats.cs_retained r.r_stats.cs_interval
    r.r_stats.cs_probes r.r_stats.cs_mem_high_water_words

(* Cross-run bisection: two machines advance in lockstep from reset and
   are compared after every cycle; at the first cycle where they
   disagree, a causal slice (diverging component, field-level dump diff,
   in-flight µops, recent trace events) is read off the live machines.
   Nothing is rewound.

   Two comparison oracles, picked automatically:

   - [signature]: the machines have identical structure shapes (same
     variant — the secret-pair mode), so per-section signature equality
     is the oracle, and the sections that differ are the components.

   - [activity]: structurally different variants (BASE vs F+P+M+A) hash
     differently from reset, so raw signatures are vacuous.  The oracle
     instead compares each cycle's per-component activity pattern —
     which components' signatures changed that cycle, plus the committed
     instruction count — which is identical while the two variants
     execute the same program with the same timing. *)

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
  s_diffs : component_diff list;
  s_uops_a : string list;
  s_uops_b : string list;
  s_trace_a : string list;
  s_trace_b : string list;
}

type outcome = Clean of { cycles_run : int } | Diverged of slice

type report = { r_label_a : string; r_label_b : string; r_outcome : outcome }

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

(* Per-component signatures and labelled dumps, read off the machine's
   state sections. *)
let signatures m =
  List.map (fun (n, fold) -> (n, Statesig.hash fold)) (Tmachine.sections m)

let dumps m =
  List.map (fun (n, fold) -> (n, Statesig.render fold)) (Tmachine.sections m)

(* Labels of the sections whose values differ between two assoc lists
   over the same labels. *)
let differing xs ys =
  List.filter_map
    (fun ((n, x), (_, y)) -> if x = y then None else Some n)
    (List.combine xs ys)

(* Per-component activity of the cycle just ticked: which sections'
   signatures changed. *)
let changed prev now = List.map2 (fun (n, s) (_, s') -> (n, s <> s')) prev now

let build_slice a b ~oracle ~cycle ~components ~window ~trace_a ~trace_b =
  let diffs =
    List.filter_map
      (fun ((name, da), (_, db)) ->
        if List.mem name components then
          Some
            {
              cd_component = name;
              cd_dump_a = da;
              cd_dump_b = db;
              cd_first_diff = first_diff_excerpt da db;
            }
        else None)
      (List.combine (dumps a) (dumps b))
  in
  let first = match components with c :: _ -> c | [] -> "unknown" in
  {
    s_cycle = cycle;
    s_oracle = oracle;
    s_component = first;
    s_components = components;
    s_audit_channels =
      List.map Audit.channel_name (audit_channels_of_component first);
    s_diffs = diffs;
    s_uops_a = in_flight a;
    s_uops_b = in_flight b;
    s_trace_a = trace_tail trace_a ~window;
    s_trace_b = trace_tail trace_b ~window;
  }

let run ?(window = 16) ?(max_cycles = 4_000_000) ?trace_a ?trace_b ~label_a
    ~label_b a b =
  if Tmachine.now a <> 0 || Tmachine.now b <> 0 then
    invalid_arg "Bisect.run: machines must be fresh (cycle 0)";
  let shape m = List.map fst (Tmachine.sections m) in
  if shape a <> shape b then
    invalid_arg "Bisect.run: machines must have the same component shape";
  let sigs_a = signatures a and sigs_b = signatures b in
  let homogeneous = sigs_a = sigs_b in
  let oracle = if homogeneous then "signature" else "activity" in
  (* The sections the cycle just ticked blames; [] while the runs agree. *)
  let blame ~prev_a ~prev_b sigs_a sigs_b =
    if homogeneous then differing sigs_a sigs_b
    else
      match differing (changed prev_a sigs_a) (changed prev_b sigs_b) with
      | [] when Tmachine.committed a <> Tmachine.committed b ->
        [ "core0" (* committed count differed *) ]
      | cs -> cs
  in
  let rec scan cycle ~prev_a ~prev_b =
    if (Tmachine.finished a && Tmachine.finished b) || cycle >= max_cycles
    then Clean { cycles_run = cycle }
    else begin
      Tmachine.tick a;
      Tmachine.tick b;
      let cycle = cycle + 1 in
      let sigs_a = signatures a and sigs_b = signatures b in
      match blame ~prev_a ~prev_b sigs_a sigs_b with
      | [] -> scan cycle ~prev_a:sigs_a ~prev_b:sigs_b
      | components ->
        Diverged
          (build_slice a b ~oracle ~cycle ~components ~window ~trace_a
             ~trace_b)
    end
  in
  let outcome = scan 0 ~prev_a:sigs_a ~prev_b:sigs_b in
  { r_label_a = label_a; r_label_b = label_b; r_outcome = outcome }

(* ------------------------------------------------------------------ *)
(* Single-run slice (differential-test counterexamples)                *)
(* ------------------------------------------------------------------ *)

(* What one machine is doing at its current cycle — the slice a shrunk
   qcheck counterexample prints alongside the failing retirement
   index. *)
let slice_text ?(window = 16) ?trace m =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "causal slice @ cycle %d\n" (Tmachine.now m);
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

let schema = "mi6.bisect/2"

let report_to_json r =
  let strings l = Json.List (List.map (fun s -> Json.String s) l) in
  let base =
    [
      ("schema", Json.String schema);
      ("label_a", Json.String r.r_label_a);
      ("label_b", Json.String r.r_label_b);
      ("diverged", Json.Bool (diverged r));
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
    tr r.r_label_b s.s_trace_b)

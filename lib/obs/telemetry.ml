(* Streaming JSONL telemetry: one schema-versioned snapshot object per
   line, every N machine cycles, written while the run is in progress —
   so long runs and fleet sweeps can be watched (mi6_sim top) and
   post-processed incrementally instead of only at end-of-run.

   Counters are emitted as deltas since the previous snapshot (nonzero
   only), occupancy/quiet state as cumulative summaries.  The [host]
   section carries wall-clock time and kilocycles per host second and is
   omitted in deterministic mode, which the sweep uses so that per-cell streams are byte-identical
   for every --jobs value.

   Schema versioning policy: the [schema] field is "mi6.telemetry/N".
   Adding fields is backward-compatible and does NOT bump N; removing or
   re-typing a field bumps N.  Consumers must ignore unknown fields and
   reject unknown majors. *)

let schema_version = "mi6.telemetry/2"

type t = {
  enabled : bool;
  every : int;
  deterministic : bool;
  oc : out_channel option;
  mutable seq : int;
  mutable last_cycle : int;
  mutable last_instrs : int;
  mutable last_counters : (string * int) list; (* sorted by name *)
  mutable start_wall : float;
  mutable last_wall : float;
}

let null =
  {
    enabled = false;
    every = max_int;
    deterministic = true;
    oc = None;
    seq = 0;
    last_cycle = 0;
    last_instrs = 0;
    last_counters = [];
    start_wall = 0.0;
    last_wall = 0.0;
  }

let create ?(deterministic = false) ~every ~path () =
  if every <= 0 then invalid_arg "Telemetry.create: every must be positive";
  let oc = open_out path in
  let now = if deterministic then 0.0 else Unix.gettimeofday () in
  {
    enabled = true;
    every;
    deterministic;
    oc = Some oc;
    seq = 0;
    last_cycle = 0;
    last_instrs = 0;
    last_counters = [];
    start_wall = now;
    last_wall = now;
  }

let enabled t = t.enabled
let every t = t.every
let snapshots t = t.seq

(* Sorted-assoc delta: counters only ever grow, so a two-pointer walk
   over the sorted views covers additions and increments. *)
let counter_deltas ~prev ~cur =
  let rec go prev cur acc =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], (k, v) :: cur -> go [] cur (if v <> 0 then (k, v) :: acc else acc)
    | (pk, pv) :: prest, (k, v) :: crest ->
      if pk = k then
        go prest crest (if v <> pv then (k, v - pv) :: acc else acc)
      else if pk < k then go prest cur acc (* counter vanished: skip *)
      else go prev crest (if v <> 0 then (k, v) :: acc else acc)
  in
  go prev cur []

let emit t ~cycle ~instrs ~counters ~occupancy =
  match t.oc with
  | None -> ()
  | Some oc ->
    let deltas = counter_deltas ~prev:t.last_counters ~cur:counters in
    let host =
      if t.deterministic then []
      else begin
        let now = Unix.gettimeofday () in
        let dwall = now -. t.last_wall in
        let dcycles = cycle - t.last_cycle in
        let kcps =
          if dwall <= 0.0 then 0.0
          else float_of_int dcycles /. dwall /. 1000.0
        in
        t.last_wall <- now;
        [
          ( "host",
            Json.Obj
              [
                ("wall_s", Json.Float (now -. t.start_wall));
                ("dwall_s", Json.Float dwall);
                ("kcps", Json.Float kcps);
              ] );
        ]
      end
    in
    let snap =
      Json.Obj
        ([
           ("schema", Json.String schema_version);
           ("seq", Json.Int t.seq);
           ("cycle", Json.Int cycle);
           ("dcycles", Json.Int (cycle - t.last_cycle));
           ("instrs", Json.Int instrs);
           ("dinstrs", Json.Int (instrs - t.last_instrs));
           ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) deltas));
           ("occupancy", Occupancy.to_json occupancy);
         ]
        @ host)
    in
    output_string oc (Json.to_string snap);
    output_char oc '\n';
    flush oc;
    t.seq <- t.seq + 1;
    t.last_cycle <- cycle;
    t.last_instrs <- instrs;
    t.last_counters <- counters

let maybe_emit t ~cycle ~instrs ~counters ~occupancy =
  if t.enabled && cycle > 0 && cycle mod t.every = 0 then
    emit t ~cycle ~instrs ~counters:(counters ()) ~occupancy

let close t = match t.oc with None -> () | Some oc -> close_out oc

(* ------------------------------------------------------------------ *)
(* Stream validation (json_check --telemetry, tests)                   *)
(* ------------------------------------------------------------------ *)

let validate_snapshot ?expect_seq j =
  let ( let* ) = Result.bind in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema_version -> Ok ()
    | Some (Json.String s) ->
      Error (Printf.sprintf "schema %S, expected %S" s schema_version)
    | _ -> Error "missing schema field"
  in
  let int name =
    match Json.member name j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "field %S: expected int" name)
  in
  let* seq = int "seq" in
  let* () =
    match expect_seq with
    | Some e when e <> seq ->
      Error (Printf.sprintf "seq %d, expected %d" seq e)
    | _ -> Ok ()
  in
  let* _ = int "cycle" in
  let* _ = int "instrs" in
  let* () =
    match Json.member "counters" j with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          match v with
          | Json.Int _ -> Ok ()
          | _ -> Error (Printf.sprintf "counters.%s: expected int" k))
        (Ok ()) fields
    | _ -> Error "missing counters object"
  in
  match Json.member "occupancy" j with
  | Some (Json.Obj _) -> Ok ()
  | _ -> Error "missing occupancy object"

(* Validate a whole stream file: schema, dense seq from 0, strictly
   increasing cycles.  Returns the snapshot count. *)
let validate_file ~path =
  let ic = open_in path in
  let rec go lineno seq last_cycle =
    match input_line ic with
    | exception End_of_file -> Ok seq
    | "" -> go (lineno + 1) seq last_cycle
    | line -> (
      match Json.of_string line with
      | exception Failure msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | j -> (
        match validate_snapshot ~expect_seq:seq j with
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        | Ok () -> (
          match Json.member "cycle" j with
          | Some (Json.Int c) when c > last_cycle -> go (lineno + 1) (seq + 1) c
          | Some (Json.Int c) ->
            Error
              (Printf.sprintf "line %d: cycle %d not increasing (last %d)"
                 lineno c last_cycle)
          | _ -> Error (Printf.sprintf "line %d: missing cycle" lineno))))
  in
  let r = go 1 0 (-1) in
  close_in ic;
  r

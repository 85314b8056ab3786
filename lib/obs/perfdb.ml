type host = { wall_s : float; kips : float }

let host ~wall_s ~instrs =
  {
    wall_s;
    kips =
      (if wall_s <= 0.0 then 0.0 else float_of_int instrs /. wall_s /. 1000.0);
  }

type record = {
  run_id : string;
  commit : string;
  variant : string;
  bench : string;
  cycles : int;
  instrs : int;
  ipc : float;
  cpi : (string * int) list;
  quantiles : (string * (int * int * int)) list;
  host : host option;
}

let host_to_json h =
  Json.Obj [ ("wall_s", Json.Float h.wall_s); ("kips", Json.Float h.kips) ]

let record_to_json r =
  Json.Obj
    ([
       ("run_id", Json.String r.run_id);
       ("commit", Json.String r.commit);
       ("variant", Json.String r.variant);
       ("bench", Json.String r.bench);
       ("cycles", Json.Int r.cycles);
       ("instrs", Json.Int r.instrs);
       ("ipc", Json.Float r.ipc);
       ("cpi", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.cpi));
       ( "quantiles",
         Json.Obj
           (List.map
              (fun (k, (p50, p95, p99)) ->
                ( k,
                  Json.Obj
                    [
                      ("p50", Json.Int p50);
                      ("p95", Json.Int p95);
                      ("p99", Json.Int p99);
                    ] ))
              r.quantiles) );
     ]
    @ match r.host with None -> [] | Some h -> [ ("host", host_to_json h) ])

let record_of_json j =
  let ( let* ) = Result.bind in
  let field name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let str name =
    let* v = field name (Json.member name j) in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "field %S: expected string" name)
  in
  let int name =
    let* v = field name (Json.member name j) in
    match v with
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "field %S: expected int" name)
  in
  let num name =
    let* v = field name (Json.member name j) in
    match v with
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "field %S: expected number" name)
  in
  let* run_id = str "run_id" in
  let* commit = str "commit" in
  let* variant = str "variant" in
  let* bench = str "bench" in
  let* cycles = int "cycles" in
  let* instrs = int "instrs" in
  let* ipc = num "ipc" in
  let* cpi =
    let* v = field "cpi" (Json.member "cpi" j) in
    match v with
    | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match v with
          | Json.Int i -> Ok ((k, i) :: acc)
          | _ -> Error (Printf.sprintf "cpi.%s: expected int" k))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "field \"cpi\": expected object"
  in
  let* quantiles =
    let* v = field "quantiles" (Json.member "quantiles" j) in
    match v with
    | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let q name =
            match Json.member name v with
            | Some (Json.Int i) -> Ok i
            | _ -> Error (Printf.sprintf "quantiles.%s.%s: expected int" k name)
          in
          let* p50 = q "p50" in
          let* p95 = q "p95" in
          let* p99 = q "p99" in
          Ok ((k, (p50, p95, p99)) :: acc))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "field \"quantiles\": expected object"
  in
  (* [host] is optional: records written before host-cost tracking (or
     with profiling off) simply lack it.  Lines from older writers may
     also carry a [phases] object; like any unknown key it is ignored. *)
  let* host =
    match Json.member "host" j with
    | None -> Ok None
    | Some h ->
      let hnum name =
        match Json.member name h with
        | Some (Json.Float f) -> Ok f
        | Some (Json.Int i) -> Ok (float_of_int i)
        | _ -> Error (Printf.sprintf "host.%s: expected number" name)
      in
      let* wall_s = hnum "wall_s" in
      let* kips = hnum "kips" in
      Ok (Some { wall_s; kips })
  in
  Ok { run_id; commit; variant; bench; cycles; instrs; ipc; cpi; quantiles;
       host }

let append ~path records =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter
    (fun r ->
      output_string oc (Json.to_string (record_to_json r));
      output_char oc '\n')
    records;
  close_out oc

let load ~path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | "" -> go (lineno + 1) acc
      | line -> (
        match record_of_json (Json.of_string line) with
        | Ok r -> go (lineno + 1) (r :: acc)
        | Error msg ->
          close_in ic;
          failwith (Printf.sprintf "%s:%d: %s" path lineno msg)
        | exception Failure msg ->
          close_in ic;
          failwith (Printf.sprintf "%s:%d: %s" path lineno msg))
    in
    let records = go 1 [] in
    close_in ic;
    records
  end

let run_ids records =
  List.fold_left
    (fun acc r -> if List.mem r.run_id acc then acc else r.run_id :: acc)
    [] records
  |> List.rev

let run records ~run_id = List.filter (fun r -> r.run_id = run_id) records

let latest_two records =
  match List.rev (run_ids records) with
  | latest :: previous :: _ ->
    Some (run records ~run_id:previous, run records ~run_id:latest)
  | _ -> None

let next_run_id records ~commit =
  Printf.sprintf "%04d-%s" (List.length (run_ids records) + 1) commit

type regression = {
  r_variant : string;
  r_bench : string;
  r_instrs : int;
  r_metric : string;
  r_old : float;
  r_new : float;
  r_delta_pct : float;
}

(* A record compares only with one of the same cell: same variant,
   bench and instruction count (a 5k-instruction sweep cell and a
   150k-instruction bench run of one (variant, bench) are different
   experiments). *)
let pairs ~old_run ~new_run =
  List.filter_map
    (fun (n : record) ->
      List.find_opt
        (fun (o : record) ->
          o.variant = n.variant && o.bench = n.bench && o.instrs = n.instrs)
        old_run
      |> Option.map (fun o -> (o, n)))
    new_run

let compare_runs ?(max_cycle_regress_pct = 5.0) ?(max_ipc_drop_pct = 5.0)
    ?(max_kips_drop_pct = 50.0) ~old_run ~new_run () =
  List.concat_map
    (fun ((o : record), (n : record)) ->
      let pct ~old_ ~new_ =
        if old_ = 0.0 then 0.0 else 100.0 *. (new_ -. old_) /. old_
      in
      let regression metric ~old_ ~new_ delta =
        {
          r_variant = n.variant;
          r_bench = n.bench;
          r_instrs = n.instrs;
          r_metric = metric;
          r_old = old_;
          r_new = new_;
          r_delta_pct = delta;
        }
      in
      let cyc = pct ~old_:(float_of_int o.cycles) ~new_:(float_of_int n.cycles) in
      let ipc = pct ~old_:o.ipc ~new_:n.ipc in
      (if cyc > max_cycle_regress_pct then
         [
           regression "cycles" ~old_:(float_of_int o.cycles)
             ~new_:(float_of_int n.cycles) cyc;
         ]
       else [])
      @ (if -.ipc > max_ipc_drop_pct then
           [ regression "ipc" ~old_:o.ipc ~new_:n.ipc (-.ipc) ]
         else [])
      @
      (* Host-speed gate: generous threshold, since wall time on a
         shared CI host is noisy — this catches order-of-magnitude
         simulator slowdowns, not percent-level jitter. *)
      match (o.host, n.host) with
      | Some oh, Some nh when -.(pct ~old_:oh.kips ~new_:nh.kips)
                              > max_kips_drop_pct ->
        [
          regression "kips" ~old_:oh.kips ~new_:nh.kips
            (-.(pct ~old_:oh.kips ~new_:nh.kips));
        ]
      | _ -> [])
    (pairs ~old_run ~new_run)

let pp_regression ppf r =
  Format.fprintf ppf "%s/%s %s: %.1f -> %.1f (%+.1f%% %s)" r.r_variant r.r_bench
    r.r_metric r.r_old r.r_new r.r_delta_pct
    (if r.r_metric = "cycles" then "slower" else "drop")

let git_commit ?(root = ".") () =
  let read_file path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line
  in
  let trim = String.trim in
  match read_file (Filename.concat root ".git/HEAD") with
  | None -> "unknown"
  | Some head ->
    let head = trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let refname = trim (String.sub head 5 (String.length head - 5)) in
      match read_file (Filename.concat root (Filename.concat ".git" refname)) with
      | Some sha -> trim sha
      | None -> "unknown"
    end
    else if head <> "" then head
    else "unknown"

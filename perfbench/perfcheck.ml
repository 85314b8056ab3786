(* Checks and compares perf.exe records against BENCHMARK.json.

     perfcheck.exe [--benchmark FILE] --perf RECORD...
       Validates each record: schema mi6.perf/1, a correct run, every
       metric the record's mode must report present with its unit, and
       the id of each failed op listed.

     perfcheck.exe [--benchmark FILE] --summary DIR [--json OUT]
       Median, quartiles and spread of every metric over the records in
       DIR, per workload and mode, as the benchmark's acceptance rule
       computes them; the traced run's cost against the untraced one;
       whether traced and untraced runs of a seed simulated the same
       thing; and which runs were contended.  --json writes the medians with the first record's host
       tag (how perfbench/baselines/ files are made).

     perfcheck.exe [--benchmark FILE] --perf-agree DIR_A DIR_B
       Fails when a median in B is worse than in A by more than the
       metric's bound, or when two runs of one workload and seed, in
       either set, disagree on the exact simulated results.  Runs made
       under heavy contention are left out of the medians (see
       [contended]); a workload with fewer than [min_runs] runs left in
       either set is unresolved.

   Exit status 0 when every check passes, 1 when one fails, 3 when none
   fails but a workload is unresolved, 2 on bad usage. *)

module Json = Mi6_obs.Json

type metric = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float option;
}

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let member k v =
  match Json.member k v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing field %S" k)

let str = function Json.String s -> s | _ -> failwith "expected a string"
let list = function Json.List l -> l | _ -> failwith "expected a list"
let bool = function Json.Bool b -> b | _ -> failwith "expected a boolean"
let int = function Json.Int n -> n | _ -> failwith "expected an integer"

let num = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> failwith "expected a number"

let load_spec path =
  let j = Json.of_string (read_file path) in
  let metric m =
    {
      name = str (member "name" m);
      unit = str (member "unit" m);
      lower_better = str (member "better" m) = "lower";
      bound = Option.map num (Json.member "bound" m);
    }
  in
  {
    workloads = List.map (fun w -> str (member "name" w)) (list (member "workloads" j));
    end_to_end = List.map metric (list (member "end_to_end" j));
    per_layer = List.map metric (list (member "per_layer" j));
  }

type record = {
  path : string;
  json : Json.t;
  workload : string;
  seed : int;
  traced : bool;
}

let load_record path =
  let json = Json.of_string (read_file path) in
  {
    path;
    json;
    workload = str (member "workload" json);
    seed = int (member "seed" json);
    traced = bool (member "trace" json);
  }

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> load_record (Filename.concat dir f))

let reported spec r = if r.traced then spec.per_layer else spec.end_to_end

(* A non-finite value is written as null; it reads as NaN. *)
let metric_value r name =
  match Json.member name (member "metrics" r.json) with
  | None -> None
  | Some m ->
    let v = match member "value" m with Json.Null -> Float.nan | v -> num v in
    Some (v, str (member "unit" m))

(* ------------------------------------------------------------------ *)
(* --perf                                                              *)
(* ------------------------------------------------------------------ *)

let validate spec path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match load_record path with
  | exception (Failure msg | Sys_error msg) -> err "unreadable: %s" msg
  | r -> (
    try
      if str (member "schema" r.json) <> "mi6.perf/1" then
        err "schema is not mi6.perf/1";
      if not (List.mem r.workload spec.workloads) then
        err "workload %S is not in BENCHMARK.json" r.workload;
      if not (bool (member "correct" r.json)) then err "run is not correct";
      let attempted = int (member "attempted" r.json) in
      let failed = int (member "failed" r.json) in
      let failures = list (member "failures" r.json) in
      if attempted < 1 then err "attempted is %d" attempted;
      if failed < 0 || failed > attempted then err "failed is %d" failed;
      if List.length failures <> failed then
        err "failed is %d but %d failed ops are listed" failed (List.length failures);
      if attempted > 0
         && num (member "fail_frac" r.json) <> float_of_int failed /. float_of_int attempted
      then err "fail_frac is not failed / attempted";
      List.iter
        (fun m ->
          match metric_value r m.name with
          | None -> err "metric %s missing" m.name
          | Some (v, unit) ->
            if unit <> m.unit then
              err "metric %s has unit %s, not %s" m.name unit m.unit;
            if not (Float.is_finite v) then err "metric %s is not finite" m.name)
        (reported spec r);
      ignore (member "exact" r.json)
    with Failure msg -> err "%s" msg));
  match List.rev !errors with
  | [] ->
    Printf.printf "ok %s\n" path;
    true
  | es ->
    List.iter (fun e -> Printf.printf "FAIL %s: %s\n" path e) es;
    false

(* ------------------------------------------------------------------ *)
(* Sets of records                                                     *)
(* ------------------------------------------------------------------ *)

open Qstat

let values records name =
  List.filter_map
    (fun r ->
      match metric_value r name with
      | Some (v, _) when Float.is_finite v -> Some v
      | _ -> None)
    records

(* The calibration loop's speed over a run's window.  On the reference
   host it measured 145-210 Mops/s in quiet hours and 114-140 under heavy
   contention, when the simulator lost 10-25% more than the loop did, so
   no scaling corrects those runs.  A run whose loop ran below
   [contended_frac] of the fastest run of its workload is contended. *)
let contended_frac = 0.75
let window_mops r = num (member "window_mops" r.json)

let contended records =
  let fastest w =
    List.fold_left
      (fun m r -> if r.workload = w then Float.max m (window_mops r) else m)
      0.0 records
  in
  List.filter
    (fun r -> window_mops r < contended_frac *. fastest r.workload)
    records

let group spec records =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun traced ->
          match
            List.filter (fun r -> r.workload = w && r.traced = traced) records
          with
          | [] -> None
          | rs -> Some (w, traced, rs))
        [ false; true ])
    spec.workloads

(* Runs of one workload and seed must have simulated the same thing,
   traced or not. *)
let exact_disagreements records =
  let tbl = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      let key = (r.workload, r.seed) in
      let exact = Json.to_string (member "exact" r.json) in
      match Hashtbl.find_opt tbl key with
      | None ->
        Hashtbl.add tbl key (r.path, exact);
        None
      | Some (p, e) when e <> exact -> Some (p, r.path)
      | Some _ -> None)
    records

(* ------------------------------------------------------------------ *)
(* --summary                                                           *)
(* ------------------------------------------------------------------ *)

let summary spec dir json_out =
  let records = load_dir dir in
  let ok = ref true in
  let groups = group spec records in
  List.iter
    (fun (w, traced, rs) ->
      Printf.printf "\n%s %s (%d runs)\n" w
        (if traced then "traced" else "untraced")
        (List.length rs);
      List.iter
        (fun m ->
          match values rs m.name with
          | [] -> Printf.printf "  %-26s missing\n" m.name
          | vs ->
            let q1, q3 = quartiles vs in
            let s = spread vs in
            let wide =
              match m.bound with
              | Some b when s > b /. 3.0 ->
                ok := false;
                Printf.sprintf "  WIDE (bound %.3g)" b
              | _ -> ""
            in
            Printf.printf
              "  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f %s%s\n"
              m.name (median vs) q1 q3 s m.unit wide)
        (reported spec (List.hd rs)))
    groups;
  print_newline ();
  List.iter
    (fun w ->
      let rate traced =
        values
          (List.filter (fun r -> r.workload = w && r.traced = traced) records)
          "ops_per_s"
      in
      match (rate false, rate true) with
      | (_ :: _ as u), (_ :: _ as t) ->
        Printf.printf
          "%s: traced runs are %.1f%% slower than untraced (median ops/s)\n" w
          (100.0 *. (1.0 -. (median t /. median u)))
      | _ -> ())
    spec.workloads;
  List.iter
    (fun (a, b) ->
      ok := false;
      Printf.printf "EXACT MISMATCH %s vs %s\n" a b)
    (exact_disagreements records);
  List.iter
    (fun r ->
      Printf.printf "contended: %s (loop at %.0f Mops/s)\n" r.path (window_mops r))
    (contended records);
  (match json_out with
  | None -> ()
  | Some path ->
    let group_json (w, traced, rs) =
      ( (w ^ if traced then "/traced" else ""),
        Json.Obj
          (List.filter_map
             (fun m ->
               match values rs m.name with
               | [] -> None
               | vs ->
                 let q1, q3 = quartiles vs in
                 Some
                   ( m.name,
                     Json.Obj
                       [
                         ("unit", Json.String m.unit);
                         ("n", Json.Int (List.length vs));
                         ("median", Json.Float (median vs));
                         ("q1", Json.Float q1);
                         ("q3", Json.Float q3);
                       ] ))
             (reported spec (List.hd rs))) )
    in
    let host = match records with r :: _ -> member "host" r.json | [] -> Json.Null in
    let doc =
      Json.Obj
        [
          ("schema", Json.String "mi6.perf-baseline/1");
          ("host", host);
          ("runs", Json.Int (List.length records));
          ("workloads", Json.Obj (List.map group_json groups));
        ]
    in
    let oc = open_out path in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc);
  !ok

(* ------------------------------------------------------------------ *)
(* --perf-agree                                                        *)
(* ------------------------------------------------------------------ *)

let min_runs = 5

type verdict = Agree | Worse | Unresolved

let agree spec dir_a dir_b =
  let a = load_dir dir_a and b = load_dir dir_b in
  let left_out = contended (a @ b) in
  List.iter
    (fun r ->
      Printf.printf "left out, contended: %s (loop at %.0f Mops/s)\n" r.path
        (window_mops r))
    left_out;
  let verdict = ref Agree in
  List.iter
    (fun w ->
      let quiet rs =
        List.filter
          (fun r -> r.workload = w && (not r.traced) && not (List.memq r left_out))
          rs
      in
      let qa = quiet a and qb = quiet b in
      if List.length qa < min_runs || List.length qb < min_runs then begin
        if !verdict = Agree then verdict := Unresolved;
        Printf.printf "%-12s UNRESOLVED: %d and %d uncontended runs, %d needed\n" w
          (List.length qa) (List.length qb) min_runs
      end
      else
        List.iter
          (fun m ->
            match (values qa m.name, values qb m.name, m.bound) with
            | (_ :: _ as va), (_ :: _ as vb), Some bound ->
              let ma = median va and mb = median vb in
              let worse =
                (if m.lower_better then mb -. ma else ma -. mb) /. Float.abs ma
              in
              let mark =
                if worse > bound then begin
                  verdict := Worse;
                  "WORSE"
                end
                else "ok"
              in
              Printf.printf
                "%-12s %-18s A %-12.6g B %-12.6g %+7.2f%% (bound %.0f%%) %s\n" w
                m.name ma mb (-100.0 *. worse) (100.0 *. bound) mark
            | _ -> ())
          spec.end_to_end)
    spec.workloads;
  List.iter
    (fun (x, y) ->
      verdict := Worse;
      Printf.printf "EXACT MISMATCH %s vs %s\n" x y)
    (exact_disagreements (a @ b));
  !verdict

let usage () =
  prerr_endline
    "usage: perfcheck.exe [--benchmark FILE] (--perf RECORD... | --summary DIR \
     [--json OUT] | --perf-agree DIR_A DIR_B)";
  exit 2

let () =
  let rec parse bench = function
    | "--benchmark" :: path :: rest -> parse path rest
    | rest -> (bench, rest)
  in
  let bench, args = parse "BENCHMARK.json" (List.tl (Array.to_list Sys.argv)) in
  let spec = load_spec bench in
  let status ok = if ok then 0 else 1 in
  exit
    (match args with
    | "--perf" :: (_ :: _ as files) ->
      status (List.for_all Fun.id (List.map (validate spec) files))
    | [ "--summary"; dir ] -> status (summary spec dir None)
    | [ "--summary"; dir; "--json"; out ] -> status (summary spec dir (Some out))
    | [ "--perf-agree"; a; b ] -> (
      match agree spec a b with Agree -> 0 | Worse -> 1 | Unresolved -> 3)
    | _ -> usage ())

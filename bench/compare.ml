(* Cross-run perf regression gate over BENCH_history.jsonl.

   Usage:
     bench/compare.exe [--history FILE] [--old RUN_ID] [--new RUN_ID]
                       [--max-cycle-regress PCT] [--max-ipc-drop PCT]
                       [--max-kips-drop PCT]

   Without --old/--new the latest two runs in the history are compared.
   Records pair on (variant, bench, instrs): runs of different lengths
   are different experiments.  Exits 1 when any pair regresses past a
   threshold, 2 on usage errors, when the history holds fewer than two
   runs, or when no record of the new run pairs with one of the old.
   Each violation is attributed: the CPI-stack categories that moved
   most between the two runs are printed next to it. *)

open Mi6_obs

let usage () =
  prerr_endline
    "usage: compare [--history FILE] [--old RUN_ID] [--new RUN_ID]\n\
    \               [--max-cycle-regress PCT] [--max-ipc-drop PCT]\n\
    \               [--max-kips-drop PCT]";
  exit 2

let () =
  let history = ref "BENCH_history.jsonl" in
  let old_id = ref None and new_id = ref None in
  let max_cycles = ref 5.0 and max_ipc = ref 5.0 and max_kips = ref 50.0 in
  let pct name s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> f
    | _ ->
      Printf.eprintf "compare: %s wants a non-negative percentage, got %S\n"
        name s;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--history" :: f :: rest ->
      history := f;
      parse rest
    | "--old" :: id :: rest ->
      old_id := Some id;
      parse rest
    | "--new" :: id :: rest ->
      new_id := Some id;
      parse rest
    | "--max-cycle-regress" :: p :: rest ->
      max_cycles := pct "--max-cycle-regress" p;
      parse rest
    | "--max-ipc-drop" :: p :: rest ->
      max_ipc := pct "--max-ipc-drop" p;
      parse rest
    | "--max-kips-drop" :: p :: rest ->
      max_kips := pct "--max-kips-drop" p;
      parse rest
    | arg :: _ ->
      Printf.eprintf "compare: unknown argument %S\n" arg;
      usage ()
  in
  parse (Array.to_list Sys.argv |> List.tl);
  let records =
    try Perfdb.load ~path:!history
    with Failure msg ->
      Printf.eprintf "compare: %s\n" msg;
      exit 2
  in
  let named id =
    match Perfdb.run records ~run_id:id with
    | [] ->
      Printf.eprintf "compare: no run %S in %s (have: %s)\n" id !history
        (String.concat ", " (Perfdb.run_ids records));
      exit 2
    | rs -> rs
  in
  let old_run, new_run =
    match (!old_id, !new_id) with
    | Some o, Some n -> (named o, named n)
    | None, None -> (
      match Perfdb.latest_two records with
      | Some pair -> pair
      | None ->
        Printf.eprintf
          "compare: %s holds %d run(s); need two (or explicit --old/--new)\n"
          !history
          (List.length (Perfdb.run_ids records));
        exit 2)
    | _ ->
      prerr_endline "compare: --old and --new must be given together";
      exit 2
  in
  let run_id rs = match rs with r :: _ -> r.Perfdb.run_id | [] -> "?" in
  let pairs = Perfdb.pairs ~old_run ~new_run in
  if pairs = [] then begin
    Printf.eprintf
      "compare: no record of run %s pairs with one of run %s on (variant, \
       bench, instrs); nothing to compare\n"
      (run_id new_run) (run_id old_run);
    exit 2
  end;
  Printf.printf
    "comparing %s (old) vs %s (new): %d vs %d records, %d paired, \
     thresholds cycles +%.1f%% / ipc -%.1f%% / kips -%.1f%%\n"
    (run_id old_run) (run_id new_run) (List.length old_run)
    (List.length new_run) (List.length pairs) !max_cycles !max_ipc !max_kips;
  (* Attribute a cycle regression: which CPI buckets grew the most. *)
  let attribution (r : Perfdb.regression) =
    match
      List.find_opt
        (fun (_, (n : Perfdb.record)) ->
          n.variant = r.r_variant && n.bench = r.r_bench
          && n.instrs = r.r_instrs)
        pairs
    with
    | Some (o, n) ->
      let cats =
        List.sort_uniq compare
          (List.map fst o.Perfdb.cpi @ List.map fst n.Perfdb.cpi)
      in
      let deltas =
        List.filter_map
          (fun cat ->
            let get r =
              Option.value ~default:0 (List.assoc_opt cat r.Perfdb.cpi)
            in
            match get n - get o with 0 -> None | d -> Some (cat, d))
          cats
      in
      let deltas =
        List.sort (fun (_, a) (_, b) -> compare (abs b) (abs a)) deltas
      in
      (match deltas with
      | [] -> ""
      | ds ->
        let top = List.filteri (fun i _ -> i < 3) ds in
        Printf.sprintf " (cpi movers: %s)"
          (String.concat ", "
             (List.map (fun (c, d) -> Printf.sprintf "%s %+d" c d) top)))
    | None -> ""
  in
  let regressions =
    Perfdb.compare_runs ~max_cycle_regress_pct:!max_cycles
      ~max_ipc_drop_pct:!max_ipc ~max_kips_drop_pct:!max_kips ~old_run
      ~new_run ()
  in
  if regressions = [] then begin
    print_endline "no regressions";
    exit 0
  end;
  List.iter
    (fun (r : Perfdb.regression) ->
      Printf.printf "REGRESSION %s%s\n"
        (Format.asprintf "%a" Perfdb.pp_regression r)
        (attribution r))
    regressions;
  Printf.printf "%d regression(s) past thresholds\n" (List.length regressions);
  exit 1

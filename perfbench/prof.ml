(* Statistical attribution of host CPU time to simulator layers.

   The benchmark cannot put spans inside [Tmachine.tick] or
   [Schedule.run] without changing the simulator, so layer self time is
   sampled from outside: an interval timer raises SIGALRM every 0.5 ms,
   and the handler walks the OCaml call stack of whichever running
   domain takes the signal.  The sample is charged to the innermost frame
   that belongs to a layer; frames of shared utilities (Fifo, Addr, the
   standard library, QCheck) are skipped so their cost lands on the layer
   that called them.  The same attribution works for every workload,
   including the noninterference checks whose machines the benchmark
   never sees.

   Two limits.  OCaml runs signal handlers at its next poll point, so a
   sample lands on the function that polls next rather than the exact
   instruction.  GC work is charged to whatever runs after it, normally
   the allocating layer.  The handler's own cost is timed, so the
   profile states its overhead. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let layers =
  [| "ooo"; "l1"; "llc"; "dram"; "tlb"; "workload"; "obs"; "harness" |]

let harness = 7

(* Samples taken in a calibration chunk are dropped: op times leave the
   chunks out, so the layers' shares must too. *)
let calibration = -2

(* Dune mangles a library module's name as [Mi6_<lib>__<Module>]; the
   function name follows the first dot. *)
let layer_of_function name =
  let m =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let lib p = String.starts_with ~prefix:p m in
  if lib "Mi6_ooo" then 0
  else if lib "Mi6_cache" then 1
  else if lib "Mi6_llc" || lib "Mi6_coherence" then 2
  else if lib "Mi6_dram" then 3
  else if lib "Mi6_tlb" then 4
  else if
    lib "Mi6_workload" || lib "Mi6_progen" || lib "Mi6_func" || lib "Mi6_isa"
    || m = "Mi6_core__Difftest"
  then 5
  else if lib "Mi6_obs" || m = "Mi6_util__Stats" then 6
  else if m = "Dune__exe__Prof" then -1 (* the handler's own frames *)
  else if m = "Dune__exe__Calib" then calibration
  else if lib "Mi6_core" || lib "Mi6_exec" || lib "Dune__exe" then harness
  else -1

(* An entry can stand for several inlined frames, innermost first. *)
let layer_of_entry e =
  match Printexc.backtrace_slots_of_raw_entry e with
  | None -> -1
  | Some slots ->
    Array.fold_left
      (fun found slot ->
        if found <> -1 then found
        else
          match Printexc.Slot.name slot with
          | Some name -> layer_of_function name
          | None -> -1)
      (-1) slots

let counts = Array.init (Array.length layers) (fun _ -> Atomic.make 0)
let handler_ns = Atomic.make 0

(* Per-domain state: the entry -> layer cache, and a flag that drops a
   sample arriving while the same domain is still in the handler. *)
let cache = Domain.DLS.new_key (fun () -> Hashtbl.create 512)
let busy = Domain.DLS.new_key (fun () -> ref false)

let sample _signal =
  let busy = Domain.DLS.get busy in
  if not !busy then begin
    busy := true;
    let t0 = now_ns () in
    let cache = Domain.DLS.get cache in
    let entries = Printexc.raw_backtrace_entries (Printexc.get_callstack 64) in
    let rec find i =
      if i >= Array.length entries then harness
      else
        let e = entries.(i) in
        let l =
          match Hashtbl.find_opt cache (e :> int) with
          | Some l -> l
          | None ->
            let l = layer_of_entry e in
            Hashtbl.add cache (e :> int) l;
            l
        in
        if l = -1 then find (i + 1) else l
    in
    let l = find 0 in
    if l >= 0 then Atomic.incr counts.(l);
    ignore (Atomic.fetch_and_add handler_ns (now_ns () - t0));
    busy := false
  end

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval; it_value = interval })

(* A wall-clock timer: the CPU-time one (ITIMER_PROF) only fires at the
   kernel's tick rate, 250 Hz on the reference host, too few samples for
   the smaller layers. *)
let start () =
  Array.iter (fun c -> Atomic.set c 0) counts;
  Atomic.set handler_ns 0;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
  set_timer 0.0005

(* SIGALRM's default action kills the process, so a signal still in
   flight after the timer stops must be ignored rather than defaulted. *)
let stop () =
  set_timer 0.0;
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

let samples () = Array.map Atomic.get counts
let overhead_ns () = Atomic.get handler_ns

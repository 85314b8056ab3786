(* Host speed, measured alongside the work it normalises, and the major
   heap's size, sampled on the same schedule.

   On a shared host, neighbours' load changes this core's speed by up to
   a fifth over minutes; a fixed integer loop slows down with the
   simulator (correlation 0.92 over 1 s buckets on the reference host).
   The benchmark runs a short chunk of that loop at most once per
   [period_ns] per domain (about 1% of the window), between ops and
   inside long ones, and scales host times to [reference_mops] with
   [scale].  The raw measurements stay in the record. *)

let now_ns = Prof.now_ns
let reference_mops = 200.0

(* Under contention the simulator slows down more than the loop does: it
   also waits on caches and memory that neighbours share.  Over seven
   sets of ten runs on the reference host, regressing the logarithm of
   each run's unscaled simulated instructions per second on that of the
   loop's speed in its window, within each set and workload, gave a
   slope of 1.49; single sets, then and since, gave 0.3 to 2.7.  A
   duration, less the chunks taken inside it, is therefore multiplied by
   [(measured / reference_mops) ** exponent]. *)
let exponent = 1.5
let scale seconds ~mops = seconds *. ((mops /. reference_mops) ** exponent)
let iterations = 100_000
let period_ns = 50_000_000
let table = Array.init 4096 (fun i -> i * 7919)

let kernel n =
  let x = ref 1 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x + table.(!x land 4095)
  done;
  ignore (Sys.opaque_identity !x)

(* A chunk runs the loop in [parts] back-to-back parts and its speed, in
   million iterations per second, is the median part's.  A part stretched
   by preemption, or by a stop-the-world minor GC that another domain
   started (every domain takes part in it), does not count: on the sweep,
   one such pause made a whole chunk read a tenth of the host's speed. *)
let parts = 5

let chunk () =
  let n = iterations / parts in
  let speeds =
    List.init parts (fun _ ->
        let s = now_ns () in
        kernel n;
        float_of_int n /. (float_of_int (now_ns () - s) /. 1e3))
  in
  Qstat.median speeds

(* Host speed right now: the median of [n] back-to-back chunks. *)
let measure_now ?(n = 20) () = Qstat.median (List.init n (fun _ -> chunk ()))

(* Chunks taken during the run: (domain, start time, speed, major-heap
   words), the heap sampled on the same schedule as the host speed. *)
let capacity = 1 lsl 14
let chunks = Array.make capacity (0, 0, 0.0, 0)
let taken = Atomic.make 0
let last = Domain.DLS.new_key (fun () -> ref 0)
let spent = Domain.DLS.new_key (fun () -> ref 0)

(* Takes a chunk when this domain's last one is [period_ns] old.  Cheap
   otherwise: one clock read. *)
let maybe_chunk () =
  let last = Domain.DLS.get last in
  let s = now_ns () in
  if s - !last >= period_ns then begin
    let mops = chunk () in
    let heap = (Gc.quick_stat ()).Gc.heap_words in
    let i = Atomic.fetch_and_add taken 1 in
    if i < capacity then chunks.(i) <- ((Domain.self () :> int), s, mops, heap);
    last := now_ns ();
    let spent = Domain.DLS.get spent in
    spent := !spent + (!last - s)
  end

(* Nanoseconds this domain has spent in chunks: an op that takes one
   leaves its time out. *)
let spent_ns () = !(Domain.DLS.get spent)

let count () = min capacity (Atomic.get taken)
let recorded () = Array.to_list (Array.sub chunks 0 (count ()))

(* Median major-heap size over the chunks, in words; 0 when none. *)
let median_heap_words () =
  match recorded () with
  | [] -> 0.0
  | cs -> Qstat.median (List.map (fun (_, _, _, h) -> float_of_int h) cs)

(* Speed over the chunks that started in [from, until), on [domain] when
   given: the mean of their speeds, so a slow burst counts for the share
   of chunks it slowed.  All chunks are used when none match; the
   reference speed when there are none at all. *)
let mops_between ?domain ~from ~until () =
  let speed cs =
    List.fold_left (fun t (_, _, v, _) -> t +. v) 0.0 cs
    /. float_of_int (List.length cs)
  in
  let all = recorded () in
  let matches (d, s, _, _) =
    s >= from && s < until && Option.fold ~none:true ~some:(( = ) d) domain
  in
  match (List.filter matches all, all) with
  | [], [] -> reference_mops
  | [], all -> speed all
  | inside, _ -> speed inside

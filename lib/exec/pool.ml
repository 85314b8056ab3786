(* Fixed-size domain pool.

   Jobs are integer ranges handed out through an atomic cursor; each worker
   (and the calling domain) repeatedly claims the next unclaimed shard index
   and runs the job function on it.  Workers park on a condition variable
   between jobs, keyed by a generation counter so a worker that drained job
   [g] cannot re-enter the same (exhausted) job while the caller is still
   collecting it. *)

type job = {
  fn : int -> unit;  (* run shard [i]; result capture is the caller's *)
  cursor : int Atomic.t;  (* next shard index to claim *)
  total : int;
  pending : int Atomic.t;  (* shards claimed-or-unclaimed but not finished *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  gen : int;
}

type t = {
  size : int;  (* domains participating in a job, including the caller *)
  mutex : Mutex.t;
  have_work : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable gen : int;
  mutable stop : bool;
  mutable started : int;  (* workers that have entered [worker_loop] *)
  mutable workers : unit Domain.t list;
}

let domains t = t.size

(* Record the failure of shard [i]; the lowest shard index wins so the
   caller re-raises deterministically regardless of interleaving. *)
let record_failure t j i exn bt =
  Mutex.lock t.mutex;
  (match j.failed with
  | Some (i0, _, _) when i0 <= i -> ()
  | _ -> j.failed <- Some (i, exn, bt));
  Mutex.unlock t.mutex

let drain t j =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add j.cursor 1 in
    if i >= j.total then continue := false
    else begin
      (try j.fn i
       with exn ->
         record_failure t j i exn (Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add j.pending (-1) = 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end
    end
  done

let worker_loop t () =
  Mutex.lock t.mutex;
  t.started <- t.started + 1;
  Condition.broadcast t.work_done;
  Mutex.unlock t.mutex;
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while
      (not t.stop)
      && (match t.job with None -> true | Some j -> j.gen <= !last_gen)
    do
      Condition.wait t.have_work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      let j = Option.get t.job in
      last_gen := j.gen;
      Mutex.unlock t.mutex;
      drain t j
    end
  done

let create ~domains =
  let size = max domains 1 in
  let t =
    {
      size;
      mutex = Mutex.create ();
      have_work = Condition.create ();
      work_done = Condition.create ();
      job = None;
      gen = 0;
      stop = false;
      started = 0;
      workers = [];
    }
  in
  if size > 1 then begin
    t.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker_loop t));
    (* Wait until every worker runs OCaml code.  A domain that is still
       starting has no domain-local state yet, and on OCaml 5.1 a signal
       handler that reads some (the host sampler's does) crashes there. *)
    Mutex.lock t.mutex;
    while t.started < size - 1 do
      Condition.wait t.work_done t.mutex
    done;
    Mutex.unlock t.mutex
  end;
  t

let map_serial n f =
  (* No [Domain.spawn], no pool machinery: the [dune runtest] fallback. *)
  Array.init n f

let map t n f =
  if n = 0 then [||]
  else if t.size <= 1 || n = 1 then map_serial n f
  else begin
    let results = Array.make n None in
    let fn i = results.(i) <- Some (f i) in
    Mutex.lock t.mutex;
    t.gen <- t.gen + 1;
    let j =
      {
        fn;
        cursor = Atomic.make 0;
        total = n;
        pending = Atomic.make n;
        failed = None;
        gen = t.gen;
      }
    in
    t.job <- Some j;
    Condition.broadcast t.have_work;
    Mutex.unlock t.mutex;
    drain t j;
    Mutex.lock t.mutex;
    while Atomic.get j.pending > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    let failed = j.failed in
    Mutex.unlock t.mutex;
    match failed with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> Array.map Option.get results
  end

let run_list t xs f =
  let arr = Array.of_list xs in
  Array.to_list (map t (Array.length arr) (fun i -> f arr.(i)))

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.have_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

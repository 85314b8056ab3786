type t = {
  l1s : L1.t array; (* by port: l1d.0, l1i.0, l1d.1, ... *)
  llc : Llc.t;
  mutable clock : int;
  completions : (int * int) list ref array; (* reversed *)
  (* Per-port L1 completion sinks, built once; an unconnected port's
     sink stamps each completion with the current [clock]. *)
  sinks : (int -> unit) array;
}

let create ?(trace = Trace.null) ?reorder (timing : Config.timing) ~stats =
  let ports = timing.Config.llc.Llc.cores in
  let links = Array.init ports (fun _ -> Link.create ~depth:4) in
  let dram =
    match reorder with
    | None ->
      Controller.constant ~trace ~latency:timing.Config.dram_latency
        ~max_outstanding:timing.Config.dram_outstanding ~stats ()
    | Some cfg -> Controller.reordering ~trace cfg ~stats
  in
  let llc =
    Llc.create ~trace timing.Config.llc ~security:timing.Config.llc_security
      ~links ~dram ~stats
  in
  let l1s =
    Array.init ports (fun p ->
        let side = if p land 1 = 0 then "l1d" else "l1i" in
        L1.create ~trace timing.Config.l1 ~link:links.(p) ~stats
          ~name:(Printf.sprintf "%s.%d" side (p / 2)))
  in
  let t =
    { l1s; llc; clock = 0; completions = Array.init ports (fun _ -> ref []);
      sinks = Array.make ports ignore }
  in
  for p = 0 to ports - 1 do
    let out = t.completions.(p) in
    t.sinks.(p) <- (fun id -> out := (id, t.clock) :: !out)
  done;
  t

let connect t ~core f = t.sinks.(core) <- f
let now t = t.clock
let l1 t ~core = t.l1s.(core)
let llc t = t.llc
let can_accept t ~core = L1.can_accept t.l1s.(core)

let request t ~core ~line ~store ~id =
  L1.request t.l1s.(core) ~line ~store ~id

let tick t =
  let now = t.clock in
  for p = 0 to Array.length t.l1s - 1 do
    L1.tick t.l1s.(p) ~now ~complete:t.sinks.(p)
  done;
  Llc.tick t.llc ~now;
  t.clock <- now + 1

let tick_idle t =
  Llc.tick_idle t.llc ~now:t.clock;
  t.clock <- t.clock + 1

let take_completions t ~core =
  let out = List.rev !(t.completions.(core)) in
  t.completions.(core) := [];
  out

let quiescent t =
  let idle = ref (not (Llc.busy t.llc)) and p = ref 0 in
  while !idle && !p < Array.length t.l1s do
    let c = t.l1s.(!p) in
    idle := L1.in_flight c = 0 && not (L1.is_flushing c);
    incr p
  done;
  !idle

let run_until_quiescent t ~max_cycles =
  let start = t.clock in
  let rec go () =
    if quiescent t then t.clock - start
    else if t.clock - start >= max_cycles then
      failwith "Hierarchy.run_until_quiescent: timeout (possible deadlock)"
    else begin
      tick t;
      go ()
    end
  in
  go ()

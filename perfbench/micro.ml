(* Fixed-op-count loops over single components, run after a traced
   window.  Inside a machine the DRAM controller ticks within
   [Llc.tick], so the sampled profile can only split it out
   statistically; these loops give each component a host cost per
   operation on its own.  Each loop builds its components from the public
   constructors with the F+P+M+A configuration, runs a fixed number of
   operations, and is repeated; the fastest repetition is reported, since
   a shared host only ever slows a repetition down. *)

open Mi6_util
open Mi6_core
module L1 = Mi6_cache.L1
module Llc = Mi6_llc.Llc
module Controller = Mi6_dram.Controller
module Link = Mi6_coherence.Link

let now_ns = Prof.now_ns
let timing = Config.timing ~cores:1 Config.Fpma
let reps = 7

(* Host ns per op of [body ()] which performs [ops] operations; [prepare]
   builds fresh state for each repetition and is not timed. *)
let per_op ~ops ~prepare body =
  List.fold_left Float.min Float.infinity
    (List.init reps (fun _ ->
         let st = prepare () in
         let t0 = now_ns () in
         body st;
         float_of_int (now_ns () - t0) /. float_of_int ops))

(* Pipelined DRAM traffic: a read enters whenever the controller has
   room, one op per response. *)
let dram_ns_per_op () =
  let ops = 20_000 in
  per_op ~ops
    ~prepare:(fun () ->
      Controller.constant ~latency:timing.Config.dram_latency
        ~max_outstanding:timing.Config.dram_outstanding ~stats:(Stats.create ())
        ())
    (fun ctl ->
      let sent = ref 0 and got = ref 0 and clock = ref 0 in
      let respond ~tag:_ ~line:_ = incr got in
      while !got < ops do
        if !sent < ops && Controller.can_accept ctl then begin
          Controller.accept ctl ~now:!clock
            { Controller.read = true; line = !sent; tag = !sent };
          incr sent
        end;
        Controller.tick ctl ~now:!clock ~respond;
        incr clock
      done)

(* One L1 in front of an LLC and its DRAM, as a machine wires them. *)
type rig = { l1 : L1.t; llc : Llc.t; mutable clock : int; mutable done_ : bool }

let rig () =
  let stats = Stats.create () in
  let links =
    Array.init timing.Config.llc.Llc.cores (fun _ -> Link.create ~depth:4)
  in
  let dram =
    Controller.constant ~latency:timing.Config.dram_latency
      ~max_outstanding:timing.Config.dram_outstanding ~stats ()
  in
  let llc =
    Llc.create timing.Config.llc ~security:timing.Config.llc_security ~links
      ~dram ~stats
  in
  let l1 = L1.create timing.Config.l1 ~link:links.(0) ~stats ~name:"l1d.0" in
  { l1; llc; clock = 0; done_ = false }

(* First line of DRAM region 2, where core 0's data lives in a machine. *)
let data_line =
  Mi6_mem.Addr.region_base Mi6_mem.Addr.default_regions 2
  / Mi6_mem.Addr.line_bytes

(* One load to [line], ticking until it completes; the LLC is ticked only
   when the access may need it. *)
let access r ~line ~llc =
  r.done_ <- false;
  let complete _ = r.done_ <- true in
  L1.request r.l1 ~line ~store:false ~id:0;
  while not r.done_ do
    L1.tick r.l1 ~now:r.clock ~complete;
    if llc then Llc.tick r.llc ~now:r.clock;
    r.clock <- r.clock + 1
  done

let l1_hit_ns_per_op () =
  let ops = 20_000 in
  per_op ~ops
    ~prepare:(fun () ->
      let r = rig () in
      access r ~line:data_line ~llc:true;
      r)
    (fun r ->
      for _ = 1 to ops do
        access r ~line:data_line ~llc:false
      done)

(* Lines cycled through four times the L1's capacity, all resident in
   the LLC: nearly every access misses the L1 and hits the LLC. *)
let l1_miss_ns_per_op () =
  let l1 = timing.Config.l1 in
  let span = 4 * l1.L1.sets * l1.L1.ways in
  let ops = 4_000 in
  per_op ~ops
    ~prepare:(fun () ->
      let r = rig () in
      for i = 0 to span - 1 do
        access r ~line:(data_line + i) ~llc:true
      done;
      r)
    (fun r ->
      for i = 0 to ops - 1 do
        access r ~line:(data_line + (i mod span)) ~llc:true
      done)

(* Every access goes to a line never touched before, so it misses the
   LLC and waits for DRAM. *)
let llc_miss_ns_per_op () =
  let ops = 1_000 in
  per_op ~ops ~prepare:rig (fun r ->
      for i = 0 to ops - 1 do
        access r ~line:(data_line + i) ~llc:true
      done)

let llc_idle_tick_ns () =
  let ops = 100_000 in
  per_op ~ops ~prepare:rig (fun r ->
      for now = 0 to ops - 1 do
        Llc.tick r.llc ~now
      done)

(* Host microseconds to build a one-core F+P+M+A machine: the fixed cost
   every noninterference check and sweep cell pays twice or once. *)
let create_us () =
  let ops = 20 in
  per_op ~ops ~prepare:ignore (fun () ->
      for _ = 1 to ops do
        ignore
          (Sys.opaque_identity
             (Tmachine.create timing
                ~streams:[| (fun () -> None) |]
                ~stats:(Stats.create ())))
      done)
  /. 1e3

let all () =
  [
    ("tmachine.create_us", "us", create_us ());
    ("micro.dram_ns_per_op", "ns", dram_ns_per_op ());
    ("micro.l1_hit_ns_per_op", "ns", l1_hit_ns_per_op ());
    ("micro.l1_miss_ns_per_op", "ns", l1_miss_ns_per_op ());
    ("micro.llc_miss_ns_per_op", "ns", llc_miss_ns_per_op ());
    ("micro.llc_idle_tick_ns", "ns", llc_idle_tick_ns ());
  ]

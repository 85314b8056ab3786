

type branch_profile =
  | Bias_taken  (** ~97% taken *)
  | Bias_not  (** ~97% not taken *)
  | Loop of int  (** taken (n-1) times, then exits *)
  | Random_dir  (** data-dependent coin flip *)

type term =
  | T_branch of { profile : branch_profile; target : int }
  | T_jump of int
  | T_call of int  (** callee entry block; returns to the next block *)
  | T_ret
  | T_fall

type block = { b_pc : int; b_len : int; b_term : term }

type t = {
  p : Spec.params;
  rng : Rng.t; (* data-dependent choices *)
  blocks : block array;
  func_entries : int array;
  (* Walk state *)
  mutable cur : int;
  mutable pos : int;
  mutable next_entry : int;
  mutable func_iters_left : int;
  call_stack : int array; (* return blocks, [depth] of them *)
  mutable depth : int;
  loop_state : int array; (* per block: times its loop branch was taken *)
  (* Data state *)
  data_base : int;
  ws_bytes : int;
  hot_bytes : int;
  mutable stream_cursor : int;
  chase_perm : int array;
  mutable chase_pos : int;
  (* Registers *)
  mutable next_dst : int;
  recent : int array; (* recent destinations, newest first *)
  mutable n_recent : int;
  (* Draw thresholds, for [Rng.pick] *)
  body_mix : float array; (* load, load + store *)
  alu_mix : float array; (* fp, fp + longlat *)
  addr_cum : float array; (* running sums of the address-class weights *)
  addr_total : float;
  (* Kernel *)
  kernel_base : int;
  mutable emitted : int;
  mutable next_syscall : int;
  mutable kernel_left : int; (* >0: inside the kernel *)
  mutable kernel_pc : int;
  mutable kernel_cursor : int;
}

(* ------------------------------------------------------------------ *)
(* Static CFG construction                                             *)
(* ------------------------------------------------------------------ *)

let build_cfg p ~code_base ~rng =
  let total_instrs = max 64 (p.Spec.code_kb * 1024 / 4) in
  (* Conditional branches are ~75% of block terminators; pick the mean
     block length so branches occur at the model's branch_frac. *)
  let branch_term_share = 0.75 in
  let mean_block = branch_term_share /. Float.max 0.02 p.Spec.branch_frac in
  let mean_len = max 2 (int_of_float (Float.round mean_block) - 1) in
  let call_share = p.Spec.call_frac *. float_of_int (mean_len + 1) in
  let blocks = ref [] in
  let entries = ref [] in
  let pc = ref code_base in
  let instrs = ref 0 in
  let bidx = ref 0 in
  let pick_profile =
    let mean_trip = 8.5 in
    let weights =
      [| p.Spec.biased_frac; p.Spec.patterned_frac /. mean_trip;
         Float.max 0.02 (1.0 -. p.Spec.biased_frac -. p.Spec.patterned_frac) |]
    in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let counts = [| 0.0; 0.0; 0.0 |] in
    let assigned = ref 0.0 in
    fun () ->
      assigned := !assigned +. 1.0;
      let best = ref 0 in
      for i = 1 to 2 do
        let deficit j = (weights.(j) /. total *. !assigned) -. counts.(j) in
        if deficit i > deficit !best then best := i
      done;
      counts.(!best) <- counts.(!best) +. 1.0;
      !best
  in
  (* Functions of 3-9 blocks; the block list is built in layout order. *)
  while !instrs < total_instrs do
    let fblocks = 3 + Rng.int rng 7 in
    entries := !bidx :: !entries;
    let first = !bidx in
    for j = 0 to fblocks - 1 do
      let len = max 1 (mean_len - 1 + Rng.int rng 4) in
      let is_last = j = fblocks - 1 in
      let term =
        if is_last then T_ret
        else begin
          let r = Rng.float rng in
          if r < branch_term_share then begin
            (* Conditional branch; backward targets make loops. *)
            let profile =
              (* A loop branch executes ~trip times per visit, so its
                 static weight is divided by the mean trip count to hit
                 the intended *dynamic* mix.  Error-diffusion assignment
                 (rather than random sampling) keeps every hot path
                 representative of the target mix. *)
              match pick_profile () with
              | 0 -> if Rng.bool rng ~p:0.5 then Bias_taken else Bias_not
              | 1 -> Loop (3 + Rng.int rng 12)
              | _ -> Random_dir
            in
            (* Only bounded loop branches go backward; biased and
               data-dependent branches are forward if-else edges.  This
               keeps a function visit's length bounded and the dynamic
               branch mix faithful to the static one. *)
            let backward = match profile with Loop _ -> true | _ -> false in
            let target =
              if backward then first + Rng.int rng (j + 1)
              else !bidx + 1 + Rng.int rng (max 1 (fblocks - j - 1))
            in
            T_branch { profile; target }
          end
          else if r < branch_term_share +. call_share then T_call (-1)
            (* patched below once all entries exist *)
          else if r < branch_term_share +. call_share +. 0.08 then
            T_jump (!bidx + 1)
          else T_fall
        end
      in
      blocks := { b_pc = !pc; b_len = len; b_term = term } :: !blocks;
      pc := !pc + (4 * (len + 1));
      instrs := !instrs + len + 1;
      incr bidx
    done
  done;
  let blocks = Array.of_list (List.rev !blocks) in
  let entries = Array.of_list (List.rev !entries) in
  (* Patch call targets and clamp branch/jump targets. *)
  let n = Array.length blocks in
  Array.mapi
    (fun i b ->
      let clamp t = if t >= n || t < 0 then (i + 1) mod n else t in
      match b.b_term with
      | T_call _ ->
        let callee = entries.(Rng.int rng (Array.length entries)) in
        { b with b_term = T_call callee }
      | T_branch { profile; target } ->
        { b with b_term = T_branch { profile; target = clamp target } }
      | T_jump t -> { b with b_term = T_jump (clamp t) }
      | T_ret | T_fall -> b)
    blocks
  |> fun blocks -> (blocks, entries)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Calls nest at most this deep; a deeper call falls through. *)
let max_depth = 12

let create p ~seed ~data_base ~code_base ~kernel_base =
  let rng = Rng.of_int seed in
  let cfg_rng = Rng.split rng in
  let blocks, func_entries = build_cfg p ~code_base ~rng:cfg_rng in
  let ws_bytes = p.Spec.working_set_kb * 1024 in
  let chase_lines = min (ws_bytes / 64) 32768 in
  let perm_rng = Rng.split rng in
  let chase_perm = Array.init chase_lines (fun i -> i) in
  (* Fisher-Yates for a single-cycle-free random permutation (Sattolo). *)
  for i = chase_lines - 1 downto 1 do
    let j = Rng.int perm_rng i in
    let tmp = chase_perm.(i) in
    chase_perm.(i) <- chase_perm.(j);
    chase_perm.(j) <- tmp
  done;
  (* Summed from 0.0 in this order, so that [Rng.pick] compares each draw
     against the floats [Rng.choose] computes from these weights. *)
  let addr_total, addr_sums =
    Array.fold_left_map
      (fun acc w ->
        let acc = acc +. w in
        (acc, acc))
      0.0
      [| p.Spec.stream_frac; p.Spec.chase_frac; p.Spec.hot_frac;
         p.Spec.stack_frac;
         Float.max 0.0
           (1.0 -. p.Spec.stream_frac -. p.Spec.chase_frac -. p.Spec.hot_frac
           -. p.Spec.stack_frac) |]
  in
  {
    p;
    rng;
    blocks;
    func_entries;
    cur = 0;
    pos = 0;
    next_entry = 1;
    func_iters_left = 16;
    call_stack = Array.make max_depth 0;
    depth = 0;
    loop_state = Array.make (Array.length blocks) 0;
    data_base;
    ws_bytes;
    hot_bytes = min ws_bytes (p.Spec.hot_set_kb * 1024);
    stream_cursor = 0;
    chase_perm;
    chase_pos = 0;
    next_dst = 2;
    recent = Array.make 4 0;
    n_recent = 0;
    body_mix = [| p.Spec.load_frac; p.Spec.load_frac +. p.Spec.store_frac |];
    alu_mix = [| p.Spec.fp_frac; p.Spec.fp_frac +. p.Spec.longlat_frac |];
    addr_cum = Array.sub addr_sums 0 4;
    addr_total;
    kernel_base;
    emitted = 0;
    next_syscall = (if p.Spec.syscall_every > 0 then p.Spec.syscall_every else max_int);
    kernel_left = 0;
    kernel_pc = kernel_base;
    kernel_cursor = 0;
  }

let for_bench b ~data_base ~code_base ~kernel_base =
  create (Spec.params b) ~seed:(Spec.seed b) ~data_base ~code_base ~kernel_base

(* ------------------------------------------------------------------ *)
(* Operand and address sampling                                        *)
(* ------------------------------------------------------------------ *)

(* µops are immutable, so every µop shares its one-source list, its
   store's source list and its destination option from these tables,
   indexed by register, and its ALU kind from the four below. *)
let src_of = Array.init 32 (fun r -> [ r ])
let store_srcs_of = Array.init 32 (fun r -> [ 20; r ])
let dst_of = Array.init 32 (fun r -> Some r)
let alu_int = Uop.Alu { latency = 1; pipe = Uop.Pipe_alu }
let alu_fp = Uop.Alu { latency = 4; pipe = Uop.Pipe_fp }
let alu_fp_long = Uop.Alu { latency = 3; pipe = Uop.Pipe_fp }
let alu_fp_longest = Uop.Alu { latency = 20; pipe = Uop.Pipe_fp }

let fresh_dst t =
  let d = t.next_dst in
  t.next_dst <- (if t.next_dst >= 17 then 2 else t.next_dst + 1);
  let r = t.recent in
  r.(3) <- r.(2);
  r.(2) <- r.(1);
  r.(1) <- r.(0);
  r.(0) <- d;
  if t.n_recent < 4 then t.n_recent <- t.n_recent + 1;
  d

(* A µop's one source: a recent destination, or the constant register 20.
   Callers sample it before [fresh_dst], which pushes the µop's own
   destination onto [recent]; that order is part of every stream. *)
let sample_src t =
  if Rng.bool t.rng ~p:t.p.Spec.dep_degree && t.n_recent > 0 then
    t.recent.(Rng.int t.rng t.n_recent)
  else 20

let chase_reg = 18

type addr_class = A_stream | A_chase | A_hot | A_stack | A_cold

let stack_bytes = 4096

let sample_addr_class t =
  match Rng.pick t.rng t.addr_cum ~scale:t.addr_total with
  | 0 -> A_stream
  | 1 -> A_chase
  | 2 -> A_hot
  | 3 -> A_stack
  | _ -> A_cold

let sample_addr t cls =
  match cls with
  | A_stream ->
    (* Word-granular streaming: eight touches per cache line. *)
    t.stream_cursor <- (t.stream_cursor + 8) mod t.ws_bytes;
    t.data_base + t.stream_cursor
  | A_chase ->
    t.chase_pos <- t.chase_perm.(t.chase_pos);
    t.data_base + (t.chase_pos * 64)
  | A_hot ->
    (* Skewed reuse: a high power of the uniform sample concentrates most
       accesses in a Zipf-like head that fits the L1, with a tail that
       exercises the LLC. *)
    let off = Rng.skewed t.rng t.hot_bytes in
    t.data_base + (min off (t.hot_bytes - 8) land lnot 7)
  | A_stack ->
    (* A tiny, very hot region just above the working set. *)
    t.data_base + t.ws_bytes + (Rng.int t.rng stack_bytes land lnot 7)
  | A_cold -> t.data_base + (Rng.int t.rng t.ws_bytes land lnot 7)

(* ------------------------------------------------------------------ *)
(* Body µops                                                           *)
(* ------------------------------------------------------------------ *)

(* A µop of [kind] with one sampled source and a fresh destination. *)
let reg_uop t ~pc kind =
  let s = sample_src t in
  { Uop.pc; kind; dst = dst_of.(fresh_dst t); srcs = src_of.(s) }

let body_uop t ~pc =
  match Rng.pick t.rng t.body_mix ~scale:1.0 with
  | 0 -> (
    let cls = sample_addr_class t in
    let addr = sample_addr t cls in
    match cls with
    | A_chase ->
      (* Dependent load: address comes from the previous chase load. *)
      { Uop.pc; kind = Uop.Load { addr }; dst = dst_of.(chase_reg);
        srcs = src_of.(chase_reg) }
    | A_stream | A_hot | A_stack | A_cold -> reg_uop t ~pc (Uop.Load { addr }))
  | 1 ->
    let cls = sample_addr_class t in
    let addr = sample_addr t cls in
    Uop.store ~pc ~addr ~srcs:store_srcs_of.(sample_src t) ()
  | _ -> (
    match Rng.pick t.rng t.alu_mix ~scale:1.0 with
    | 0 -> reg_uop t ~pc alu_fp
    | 1 ->
      (* The latency coin comes after the source and the destination. *)
      let s = sample_src t in
      let d = fresh_dst t in
      let kind =
        if Rng.bool t.rng ~p:0.15 then alu_fp_longest else alu_fp_long
      in
      { Uop.pc; kind; dst = dst_of.(d); srcs = src_of.(s) }
    | _ -> reg_uop t ~pc alu_int)

(* ------------------------------------------------------------------ *)
(* Kernel µops                                                         *)
(* ------------------------------------------------------------------ *)

(* Kernel load, store and branch shares, as running sums. *)
let kernel_mix = [| 0.22; 0.32; 0.40 |]

let kernel_uop t =
  let pc = t.kernel_pc in
  t.kernel_pc <-
    (if t.kernel_pc >= t.kernel_base + 8192 then t.kernel_base
     else t.kernel_pc + 4);
  match Rng.pick t.rng kernel_mix ~scale:1.0 with
  | 0 ->
    t.kernel_cursor <- (t.kernel_cursor + 64) mod 65536;
    (* Kernel data sits above the user working set in the same domain. *)
    { Uop.pc; kind = Uop.Load { addr = t.kernel_base + 65536 + t.kernel_cursor };
      dst = dst_of.(fresh_dst t); srcs = src_of.(20) }
  | 1 ->
    Uop.store ~pc ~addr:(t.kernel_base + 65536 + (Rng.int t.rng 65536 land lnot 7))
      ~srcs:src_of.(20) ()
  | 2 ->
    Uop.branch ~pc ~taken:(Rng.bool t.rng ~p:0.85) ~target:(pc + 32) ~srcs:[] ()
  | _ ->
    { Uop.pc; kind = alu_int; dst = dst_of.(fresh_dst t); srcs = src_of.(20) }

(* ------------------------------------------------------------------ *)
(* Control-flow walk                                                   *)
(* ------------------------------------------------------------------ *)

let branch_outcome t block_idx profile =
  match profile with
  | Bias_taken -> Rng.bool t.rng ~p:0.97
  | Bias_not -> Rng.bool t.rng ~p:0.03
  | Random_dir -> Rng.bool t.rng ~p:0.5
  | Loop n ->
    let c = t.loop_state.(block_idx) in
    if c >= n - 1 then begin
      t.loop_state.(block_idx) <- 0;
      false
    end
    else begin
      t.loop_state.(block_idx) <- c + 1;
      true
    end

let next_block t = (t.cur + 1) mod Array.length t.blocks

let terminator_uop t =
  let b = t.blocks.(t.cur) in
  let pc = b.b_pc + (4 * b.b_len) in
  match b.b_term with
  | T_fall ->
    t.cur <- next_block t;
    t.pos <- 0;
    reg_uop t ~pc alu_int
  | T_jump target ->
    t.cur <- target;
    t.pos <- 0;
    Uop.jump ~pc ~target:t.blocks.(target).b_pc ~kind:`Plain ()
  | T_call callee ->
    if t.depth >= max_depth then begin
      (* Depth cap: real recursion terminates on data conditions the CFG
         does not carry; treat deep calls as inlined fallthrough. *)
      let nxt = next_block t in
      t.cur <- nxt;
      t.pos <- 0;
      Uop.jump ~pc ~target:t.blocks.(nxt).b_pc ~kind:`Plain ()
    end
    else begin
      t.call_stack.(t.depth) <- next_block t;
      t.depth <- t.depth + 1;
      t.cur <- callee;
      t.pos <- 0;
      Uop.jump ~pc ~target:t.blocks.(callee).b_pc ~kind:`Call ()
    end
  | T_ret ->
    if t.depth > 0 then begin
      t.depth <- t.depth - 1;
      let ret = t.call_stack.(t.depth) in
      t.cur <- ret;
      t.pos <- 0;
      Uop.jump ~pc ~target:t.blocks.(ret).b_pc ~kind:`Return ()
    end
    else begin
      (* Each top-level function is a program phase: it re-executes many
         times (warming its branches and I-lines) before the driver moves
         on to the next function — the 90/10 locality of real code. *)
      let group = 16 in
      if t.func_iters_left > 0 then begin
        t.func_iters_left <- t.func_iters_left - 1;
        (* Iterate over a *group* of functions: the phase's hot code
           footprint spans several functions' branches and I-lines, so a
           purge has a realistic amount of state to re-warm. *)
        let base = (t.next_entry - 1) * group in
        let entry =
          t.func_entries.((base + (t.func_iters_left mod group))
                          mod Array.length t.func_entries)
        in
        t.cur <- entry;
        t.pos <- 0;
        Uop.jump ~pc ~target:t.blocks.(entry).b_pc ~kind:`Plain ()
      end
      else begin
        t.next_entry <- t.next_entry + 1;
        t.func_iters_left <- 150 + Rng.int t.rng 250;
        let entry =
          t.func_entries.(t.next_entry * group mod Array.length t.func_entries)
        in
        t.cur <- entry;
        t.pos <- 0;
        Uop.jump ~pc ~target:t.blocks.(entry).b_pc ~kind:`Plain ()
      end
    end
  | T_branch { profile; target } ->
    let taken = branch_outcome t t.cur profile in
    let target_pc = t.blocks.(target).b_pc in
    (* A data-dependent branch consumes a recent register. *)
    let srcs =
      match profile with Random_dir -> src_of.(sample_src t) | _ -> []
    in
    if taken then t.cur <- target else t.cur <- next_block t;
    t.pos <- 0;
    Uop.branch ~pc ~taken ~target:target_pc ~srcs ()

let next t =
  t.emitted <- t.emitted + 1;
  if t.kernel_left > 0 then begin
    t.kernel_left <- t.kernel_left - 1;
    if t.kernel_left = 0 then
      { Uop.pc = t.kernel_pc; kind = Uop.Exit_kernel; dst = None; srcs = [] }
    else kernel_uop t
  end
  else if t.emitted >= t.next_syscall then begin
    t.next_syscall <- t.emitted + t.p.Spec.syscall_every;
    t.kernel_left <- t.p.Spec.kernel_len + 1;
    { Uop.pc = t.kernel_base; kind = Uop.Enter_kernel; dst = None; srcs = [] }
  end
  else begin
    let b = t.blocks.(t.cur) in
    if t.pos < b.b_len then begin
      let pc = b.b_pc + (4 * t.pos) in
      t.pos <- t.pos + 1;
      body_uop t ~pc
    end
    else terminator_uop t
  end

let stream t ~limit =
  let left = ref limit in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (next t)
    end

(* Adversarial interrupt schedules: see schedule.mli for the model.

   The stream the timing machine consumes is built lazily by a closure
   over the schedule: enclave body µops flow until a preemption point
   fires, then an [Enter_kernel] marker, the attacker's window, and an
   [Exit_kernel] marker are spliced in and the enclave resumes.  Cycle-
   indexed points read the machine clock through a reference the run
   loop refreshes before every tick, so "the first fetch at or after
   cycle c" needs no core support beyond the existing trap markers. *)

type attacker = Probe | Train | Sweep | Stores

let attackers = [ Probe; Train; Sweep; Stores ]

let attacker_name = function
  | Probe -> "probe"
  | Train -> "train"
  | Sweep -> "sweep"
  | Stores -> "stores"

let attacker_of_name s =
  match String.lowercase_ascii s with
  | "probe" -> Some Probe
  | "train" -> Some Train
  | "sweep" -> Some Sweep
  | "stores" -> Some Stores
  | _ -> None

type when_ = At_instr of int | At_cycle of int

type point = { at : when_; attacker : attacker }

type t = {
  variant : Config.variant;
  body_seed : int;
  points : point list;
  final : attacker;
}

(* ------------------------------------------------------------------ *)
(* Address layout                                                      *)
(* ------------------------------------------------------------------ *)

(* The protection-domain layout: the enclave owns DRAM regions 1 (code)
   and 2 (data) — the ranges Difftest.to_uops remaps generated programs
   into — while the attacker's code sits far above the enclave pcs and
   its data in region 3, so LLC partitioning confines each side's
   residue. *)
let geometry = Addr.default_regions
let enclave_code = Addr.region_base geometry 1
let attacker_code = enclave_code + 0x100000
let attacker_data = Addr.region_base geometry 3
let trap_base = enclave_code + 0x200000

let marker pc kind = { Uop.pc; kind; dst = None; srcs = [] }

(* ------------------------------------------------------------------ *)
(* Attacker programs                                                   *)
(* ------------------------------------------------------------------ *)

(* Each program is the body of one preemption window.  They touch only
   attacker-owned state, but through the structures the paper names as
   channels: page-stride loads (TLB + cache fills), branch patterns
   (predictor), set-stride loads (L1 sets), store/load pairs (store
   buffer + forwarding). *)
let attacker_uops = function
  | Probe ->
    (* Loads on fresh pages with a dependent branch/alu/store tail:
       TLB, cache-fill, and predictor state in one window. *)
    List.concat
      (List.init 8 (fun i ->
           let pc = attacker_code + (16 * i) in
           [
             Uop.load ~pc ~addr:(attacker_data + (i * 4096)) ~dst:2 ~srcs:[] ();
             Uop.branch ~pc:(pc + 4) ~taken:false ~target:(pc + 12)
               ~srcs:[ 2 ] ();
             Uop.alu ~pc:(pc + 8) ~dst:3 ~srcs:[ 2 ] ();
             Uop.store ~pc:(pc + 12) ~addr:(attacker_data + (i * 4096) + 64)
               ~srcs:[ 3 ] ();
           ]))
  | Train ->
    (* Alternating branch outcomes plus a short load tail: sensitive to
       whatever global history / BTB state survives the transition. *)
    let base = attacker_code + 0x1000 in
    List.concat
      (List.init 16 (fun i ->
           let pc = base + (8 * i) in
           [
             Uop.branch ~pc ~taken:(i land 1 = 0) ~target:(pc + 4) ~srcs:[ 4 ]
               ();
             Uop.alu ~pc:(pc + 4) ~dst:4 ~srcs:[ 4 ] ();
           ]))
    @ List.init 4 (fun i ->
          Uop.load
            ~pc:(base + 128 + (4 * i))
            ~addr:(attacker_data + 0x10000 + (i * 4096))
            ~dst:2 ~srcs:[] ())
  | Sweep ->
    (* One-page set sweep at line stride. *)
    let base = attacker_code + 0x2000 in
    List.init 32 (fun i ->
        Uop.load ~pc:(base + (4 * i))
          ~addr:(attacker_data + 0x20000 + (64 * i))
          ~dst:2 ~srcs:[] ())
  | Stores ->
    (* Store buffer / forwarding path: store a line, load it back,
       consume the value. *)
    let base = attacker_code + 0x3000 in
    List.concat
      (List.init 8 (fun i ->
           let pc = base + (12 * i) in
           let addr = attacker_data + 0x30000 + (i * 64) in
           [
             Uop.store ~pc ~addr ~srcs:[ 3 ] ();
             Uop.load ~pc:(pc + 4) ~addr ~dst:3 ~srcs:[] ();
             Uop.alu ~pc:(pc + 8) ~dst:3 ~srcs:[ 3 ] ();
           ]))

(* ------------------------------------------------------------------ *)
(* Replayable string form                                              *)
(* ------------------------------------------------------------------ *)

let point_to_string p =
  let tag, n = match p.at with At_instr i -> ("i", i) | At_cycle c -> ("c", c) in
  Printf.sprintf "%s%d=%s" tag n (attacker_name p.attacker)

let to_string t =
  Printf.sprintf "ni1:%s:b%d:%s:%s"
    (Config.variant_name t.variant)
    t.body_seed
    (match t.points with
    | [] -> "-"
    | ps -> String.concat "," (List.map point_to_string ps))
    (attacker_name t.final)

let parse_point s =
  let fail () = Error (Printf.sprintf "bad preemption point %S" s) in
  match String.index_opt s '=' with
  | None -> fail ()
  | Some eq -> (
    let where = String.sub s 0 eq in
    let att = String.sub s (eq + 1) (String.length s - eq - 1) in
    match attacker_of_name att with
    | None -> Error (Printf.sprintf "unknown attacker %S" att)
    | Some attacker ->
      if String.length where < 2 then fail ()
      else
        let n = String.sub where 1 (String.length where - 1) in
        (match (where.[0], int_of_string_opt n) with
        | _, Some n when n < 0 -> fail ()
        | 'i', Some n -> Ok { at = At_instr n; attacker }
        | 'c', Some n -> Ok { at = At_cycle n; attacker }
        | _ -> fail ()))

let of_string s =
  let s = String.trim s in
  match String.split_on_char ':' s with
  | [ magic; variant; seed; points; final ] -> (
    if String.lowercase_ascii magic <> "ni1" then
      Error (Printf.sprintf "not a ni1 schedule: %S" s)
    else
      match
        ( Config.variant_of_name variant,
          (if String.length seed > 1 && seed.[0] = 'b' then
             int_of_string_opt (String.sub seed 1 (String.length seed - 1))
           else None),
          attacker_of_name final )
      with
      | None, _, _ -> Error (Printf.sprintf "unknown variant %S" variant)
      | _, None, _ -> Error (Printf.sprintf "bad body seed %S (want bN)" seed)
      | _, (Some n), _ when n < 0 ->
        Error (Printf.sprintf "bad body seed %S (want bN)" seed)
      | _, _, None -> Error (Printf.sprintf "unknown attacker %S" final)
      | Some variant, Some body_seed, Some final ->
        let rec parse_points acc = function
          | [] -> Ok (List.rev acc)
          | p :: rest -> (
            match parse_point p with
            | Ok p -> parse_points (p :: acc) rest
            | Error e -> Error e)
        in
        let points =
          if points = "-" || points = "" then Ok []
          else parse_points [] (String.split_on_char ',' points)
        in
        Result.map
          (fun points -> { variant; body_seed; points; final })
          points)
  | _ ->
    Error
      (Printf.sprintf
         "bad schedule %S (want ni1:<variant>:b<seed>:<points>:<final>)" s)

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

type window = {
  w_attacker : attacker;
  w_cycles : int;
  w_commits : int;
  w_mispredicts : int;
  w_l1d_misses : int;
  w_l1i_misses : int;
  w_llc_misses : int;
}

type observation = window list

let window_to_json w =
  Json.Obj
    [
      ("attacker", Json.String (attacker_name w.w_attacker));
      ("cycles", Json.Int w.w_cycles);
      ("commits", Json.Int w.w_commits);
      ("mispredicts", Json.Int w.w_mispredicts);
      ("l1d_misses", Json.Int w.w_l1d_misses);
      ("l1i_misses", Json.Int w.w_l1i_misses);
      ("llc_misses", Json.Int w.w_llc_misses);
    ]

let observation_to_json obs = Json.List (List.map window_to_json obs)

let pp_window ppf w =
  Format.fprintf ppf
    "%-6s cycles=%-5d commits=%-3d mispredicts=%-3d l1d=%-3d l1i=%-3d llc=%d"
    (attacker_name w.w_attacker)
    w.w_cycles w.w_commits w.w_mispredicts w.w_l1d_misses w.w_l1i_misses
    w.w_llc_misses

let pp_observation ppf obs =
  List.iteri
    (fun i w -> Format.fprintf ppf "  window %d: %a@." i pp_window w)
    obs

let reference_body n =
  List.init n (fun i ->
      Uop.alu ~pc:(enclave_code + (4 * i)) ~dst:5 ~srcs:[] ())

(* ------------------------------------------------------------------ *)
(* Running a schedule                                                  *)
(* ------------------------------------------------------------------ *)

let default_max_cycles = 4_000_000

let run ?(max_cycles = default_max_cycles) ?trace ~timing ~body t =
  let stats = Stats.create () in
  let body_arr = Array.of_list body in
  let nbody = Array.length body_arr in
  let clock = ref 0 in
  let pending = Queue.create () in
  let att_order = Queue.create () in
  let body_pos = ref 0 in
  let points = ref t.points in
  let window_no = ref 0 in
  let final_done = ref false in
  let push_window att =
    Queue.add att att_order;
    let trap_pc = trap_base + (16 * !window_no) in
    incr window_no;
    Queue.add (marker trap_pc Uop.Enter_kernel) pending;
    List.iter (fun u -> Queue.add u pending) (attacker_uops att);
    Queue.add (marker (trap_pc + 4) Uop.Exit_kernel) pending
  in
  let rec next () =
    if not (Queue.is_empty pending) then Some (Queue.pop pending)
    else
      match !points with
      | { at = At_instr k; attacker } :: rest when !body_pos >= min k nbody ->
        points := rest;
        push_window attacker;
        next ()
      | { at = At_cycle c; attacker } :: rest when !clock >= c ->
        points := rest;
        push_window attacker;
        next ()
      | _ ->
        if !body_pos < nbody then begin
          let u = body_arr.(!body_pos) in
          incr body_pos;
          Some u
        end
        else begin
          match !points with
          | { attacker; _ } :: rest ->
            (* The enclave halted before this point's condition was met:
               the preemption collapses to the enclave's exit. *)
            points := rest;
            push_window attacker;
            next ()
          | [] ->
            if !final_done then None
            else begin
              final_done := true;
              push_window t.final;
              next ()
            end
        end
  in
  let m = Tmachine.create ?trace timing ~streams:[| next |] ~stats in
  let core = Tmachine.core m 0 in
  let get n = Stats.get stats n in
  let snap () =
    ( get "core.mispredicts",
      get "l1d.0.misses",
      get "l1i.0.misses",
      get "llc.misses" )
  in
  (* Open-window accumulator.  The window is anchored at the {e first
     attacker commit}, not the [Enter_kernel] commit: the marker commits
     at rename, before the enclave's in-flight tail drains, so anything
     measured from it would see the drain — body-dependent timing the
     purge cannot (and need not) hide.  By the first attacker commit the
     drain and both purge phases are behind us and the core state is
     canonical. *)
  let windows = ref [] in
  let bounds = ref [] in
  let open_w = ref None in
  Core.set_on_commit core (fun u ->
      let now = Tmachine.now m in
      match u.Uop.kind with
      | Uop.Enter_kernel ->
        let att = Queue.pop att_order in
        open_w := Some (att, ref None, ref 0)
      | Uop.Exit_kernel -> (
        match !open_w with
        | None -> ()
        | Some (att, start, commits) ->
          let start_cycle, (m0, d0, i0, l0) =
            match !start with
            | Some s -> s
            | None -> (now, snap ())
          in
          let m1, d1, i1, l1 = snap () in
          windows :=
            {
              w_attacker = att;
              w_cycles = now - start_cycle;
              w_commits = !commits;
              w_mispredicts = m1 - m0;
              w_l1d_misses = d1 - d0;
              w_l1i_misses = i1 - i0;
              w_llc_misses = l1 - l0;
            }
            :: !windows;
          bounds := (start_cycle, now) :: !bounds;
          open_w := None)
      | _ -> (
        match !open_w with
        | Some (_, start, commits) when u.Uop.pc >= attacker_code ->
          (match !start with None -> start := Some (now, snap ()) | Some _ -> ());
          incr commits
        | _ -> ()));
  let budget = ref max_cycles in
  while (not (Tmachine.finished m)) && !budget > 0 do
    clock := Tmachine.now m;
    Tmachine.tick m;
    decr budget
  done;
  if not (Tmachine.finished m) then
    failwith
      (Printf.sprintf "schedule %S: timeout after %d cycles" (to_string t)
         max_cycles);
  (List.rev !windows, List.rev !bounds)

type verdict = {
  v_schedule : t;
  v_falsified : bool;
  v_obs : observation;
  v_ref_obs : observation;
}

let check ?max_cycles ~body t =
  let timing = Config.timing ~cores:1 t.variant in
  let obs, _ = run ?max_cycles ~timing ~body t in
  let ref_obs, _ =
    run ?max_cycles ~timing ~body:(reference_body (List.length body)) t
  in
  { v_schedule = t; v_falsified = obs <> ref_obs; v_obs = obs;
    v_ref_obs = ref_obs }

(* Keep only events inside attacker windows and rebase each window to
   its [Enter] commit: the two runs' bodies take different absolute
   times, and only window-relative timing is attacker-visible. *)
let windowed_events tr bounds =
  let events = Trace.events tr in
  List.concat_map
    (fun (cycle, ev) ->
      let rec find i = function
        | [] -> None
        | (enter, exit_) :: rest ->
          if cycle >= enter && cycle <= exit_ then
            Some ((i * 1_000_000) + cycle - enter)
          else find (i + 1) rest
      in
      match find 0 bounds with
      | Some rebased -> [ (rebased, ev) ]
      | None -> [])
    events

let localize ?max_cycles ~body t =
  let timing = Config.timing ~cores:1 t.variant in
  let side body =
    let tr = Trace.create ~capacity:(1 lsl 17) () in
    let _, bounds = run ?max_cycles ~trace:tr ~timing ~body t in
    windowed_events tr bounds
  in
  Audit.diff ~label_a:"body" ~label_b:"reference" (side body)
    (side (reference_body (List.length body)))

type category = Core | L1 | Llc | Dram | Ptw | Purge

let all_categories = [ Core; L1; Llc; Dram; Ptw; Purge ]

let category_name = function
  | Core -> "core"
  | L1 -> "l1"
  | Llc -> "llc"
  | Dram -> "dram"
  | Ptw -> "ptw"
  | Purge -> "purge"

let category_of_name s =
  match String.lowercase_ascii s with
  | "core" -> Some Core
  | "l1" -> Some L1
  | "llc" -> Some Llc
  | "dram" -> Some Dram
  | "ptw" -> Some Ptw
  | "purge" -> Some Purge
  | _ -> None

let cat_bit = function
  | Core -> 1
  | L1 -> 2
  | Llc -> 4
  | Dram -> 8
  | Ptw -> 16
  | Purge -> 32

type event =
  | Counter of { core : int; name : string; value : int }
  | Cache_miss of { cache : string; line : int }
  | Cache_fill of { cache : string; line : int }
  | Arb_grant of { core : int; kind : string }
  | Arb_idle of { core : int }
  | Mshr_alloc of { core : int; idx : int; line : int }
  | Mshr_free of { core : int; idx : int }
  | Uq_send of { core : int; line : int }
  | Dq_retry of { core : int; idx : int }
  | Dram_cmd of { bank : int; read : bool; row_hit : bool; line : int }
  | Purge_begin of { core : int; kind : string }
  | Purge_phase of { core : int; phase : string }
  | Purge_end of { core : int; cycles : int }
  | Walk_start of { core : int; vpage : int }
  | Walk_end of { core : int; vpage : int; reads : int }

let category_of_event = function
  | Counter _ -> Core
  | Cache_miss _ | Cache_fill _ -> L1
  | Arb_grant _ | Arb_idle _ | Mshr_alloc _ | Mshr_free _ | Uq_send _
  | Dq_retry _ ->
    Llc
  | Dram_cmd _ -> Dram
  | Purge_begin _ | Purge_phase _ | Purge_end _ -> Purge
  | Walk_start _ | Walk_end _ -> Ptw

let event_core = function
  | Counter { core; _ }
  | Arb_grant { core; _ }
  | Arb_idle { core }
  | Mshr_alloc { core; _ }
  | Mshr_free { core; _ }
  | Uq_send { core; _ }
  | Dq_retry { core; _ }
  | Purge_begin { core; _ }
  | Purge_phase { core; _ }
  | Purge_end { core; _ }
  | Walk_start { core; _ }
  | Walk_end { core; _ } ->
    Some core
  | Cache_miss _ | Cache_fill _ | Dram_cmd _ -> None

(* Event kinds (constructors) — the unit of drop accounting: when the
   ring overwrites, knowing *what* was lost tells whether a timeline
   analysis is invalidated (a dropped counter sample is cosmetic; a
   dropped LLC arbiter grant is not). *)

let kind_names =
  [|
    "counter"; "cache_miss"; "cache_fill"; "arb_grant"; "arb_idle";
    "mshr_alloc"; "mshr_free"; "uq_send"; "dq_retry"; "dram_cmd";
    "purge_begin"; "purge_phase"; "purge_end"; "walk_start"; "walk_end";
  |]

let n_kinds = Array.length kind_names

let kind_index = function
  | Counter _ -> 0
  | Cache_miss _ -> 1
  | Cache_fill _ -> 2
  | Arb_grant _ -> 3
  | Arb_idle _ -> 4
  | Mshr_alloc _ -> 5
  | Mshr_free _ -> 6
  | Uq_send _ -> 7
  | Dq_retry _ -> 8
  | Dram_cmd _ -> 9
  | Purge_begin _ -> 10
  | Purge_phase _ -> 11
  | Purge_end _ -> 12
  | Walk_start _ -> 13
  | Walk_end _ -> 14

let event_kind_name ev = kind_names.(kind_index ev)

let event_label = function
  | Counter { core; name; value } ->
    Printf.sprintf "counter core=%d %s=%d" core name value
  | Cache_miss { cache; line } -> Printf.sprintf "miss %s line=%#x" cache line
  | Cache_fill { cache; line } -> Printf.sprintf "fill %s line=%#x" cache line
  | Arb_grant { core; kind } ->
    Printf.sprintf "arb_grant core=%d kind=%s" core kind
  | Arb_idle { core } -> Printf.sprintf "arb_idle core=%d" core
  | Mshr_alloc { core; idx; line } ->
    Printf.sprintf "mshr_alloc core=%d idx=%d line=%#x" core idx line
  | Mshr_free { core; idx } -> Printf.sprintf "mshr_free core=%d idx=%d" core idx
  | Uq_send { core; line } -> Printf.sprintf "uq_send core=%d line=%#x" core line
  | Dq_retry { core; idx } -> Printf.sprintf "dq_retry core=%d idx=%d" core idx
  | Dram_cmd { bank; read; row_hit; line } ->
    Printf.sprintf "dram_%s bank=%d row_%s line=%#x"
      (if read then "read" else "write")
      bank
      (if row_hit then "hit" else "miss")
      line
  | Purge_begin { core; kind } ->
    Printf.sprintf "purge_begin core=%d kind=%s" core kind
  | Purge_phase { core; phase } ->
    Printf.sprintf "purge_phase core=%d phase=%s" core phase
  | Purge_end { core; cycles } ->
    Printf.sprintf "purge_end core=%d cycles=%d" core cycles
  | Walk_start { core; vpage } ->
    Printf.sprintf "walk_start core=%d vpage=%#x" core vpage
  | Walk_end { core; vpage; reads } ->
    Printf.sprintf "walk_end core=%d vpage=%#x reads=%d" core vpage reads

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(* ------------------------------------------------------------------ *)

type slot = { s_cycle : int; s_event : event }

type t = {
  enabled : bool;
  mask : int; (* bitwise-or of enabled categories' bits *)
  buf : slot array; (* length 0 for [null] *)
  mutable head : int; (* next write position *)
  mutable len : int;
  mutable drops : int;
  drop_counts : int array; (* per event kind, length n_kinds *)
}

let null =
  {
    enabled = false;
    mask = 0;
    buf = [||];
    head = 0;
    len = 0;
    drops = 0;
    drop_counts = [||];
  }

let create ?(capacity = 65536) ?filter () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let cats = match filter with None -> all_categories | Some cs -> cs in
  let mask = List.fold_left (fun m c -> m lor cat_bit c) 0 cats in
  {
    enabled = true;
    mask;
    buf = Array.make capacity { s_cycle = 0; s_event = Arb_idle { core = 0 } };
    head = 0;
    len = 0;
    drops = 0;
    drop_counts = Array.make n_kinds 0;
  }

let active t cat = t.enabled && t.mask land cat_bit cat <> 0

let emit t ~now ev =
  if t.enabled && t.mask land cat_bit (category_of_event ev) <> 0 then begin
    let cap = Array.length t.buf in
    if t.len < cap then t.len <- t.len + 1
    else begin
      (* Full ring: the slot about to be overwritten holds the oldest
         event — charge the drop to its kind before losing it. *)
      t.drops <- t.drops + 1;
      let k = kind_index t.buf.(t.head).s_event in
      t.drop_counts.(k) <- t.drop_counts.(k) + 1
    end;
    t.buf.(t.head) <- { s_cycle = now; s_event = ev };
    t.head <- (t.head + 1) mod cap
  end

let length t = t.len
let dropped t = t.drops

let dropped_by_kind t =
  if Array.length t.drop_counts = 0 then []
  else begin
    let rows = ref [] in
    Array.iteri
      (fun k c -> if c > 0 then rows := (kind_names.(k), c) :: !rows)
      t.drop_counts;
    (* Dominant kind first; name breaks ties deterministically. *)
    List.sort
      (fun (na, ca) (nb, cb) ->
        if ca <> cb then compare cb ca else compare na nb)
      !rows
  end

let dominant_dropped t =
  match dropped_by_kind t with [] -> None | top :: _ -> Some top

let iter t f =
  let cap = Array.length t.buf in
  if cap > 0 then begin
    let start = (t.head - t.len + cap) mod cap in
    for i = 0 to t.len - 1 do
      let s = t.buf.((start + i) mod cap) in
      f ~cycle:s.s_cycle s.s_event
    done
  end

let events t =
  let acc = ref [] in
  iter t (fun ~cycle ev -> acc := (cycle, ev) :: !acc);
  List.rev !acc

let reset t =
  t.head <- 0;
  t.len <- 0;
  t.drops <- 0;
  Array.fill t.drop_counts 0 (Array.length t.drop_counts) 0

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Chrome trace_event mapping: one simulated cycle = 1 µs of trace time;
   pid 0 is the machine, tid is the core (or 100+bank for DRAM).  Purges
   become B/E duration slices, occupancy samples counter tracks, and
   everything else an instant event with its fields in args. *)
let to_chrome_json t =
  let obj ~name ~ph ~cycle ~tid ~cat ?(args = []) () =
    Json.Obj
      ([
         ("name", Json.String name);
         ("ph", Json.String ph);
         ("ts", Json.Int cycle);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("cat", Json.String cat);
       ]
      @ (if ph = "i" then [ ("s", Json.String "t") ] else [])
      @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  let acc = ref [] in
  iter t (fun ~cycle ev ->
      let cat = category_name (category_of_event ev) in
      let tid = match event_core ev with Some c -> c | None -> 0 in
      let e =
        match ev with
        | Counter { core; name; value } ->
          obj ~name ~ph:"C" ~cycle ~tid:core ~cat
            ~args:[ (name, Json.Int value) ]
            ()
        | Cache_miss { cache; line } ->
          obj ~name:(cache ^ ".miss") ~ph:"i" ~cycle ~tid ~cat
            ~args:[ ("line", Json.Int line) ]
            ()
        | Cache_fill { cache; line } ->
          obj ~name:(cache ^ ".fill") ~ph:"i" ~cycle ~tid ~cat
            ~args:[ ("line", Json.Int line) ]
            ()
        | Arb_grant { core; kind } ->
          obj ~name:"llc.arb_grant" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("kind", Json.String kind) ]
            ()
        | Arb_idle { core } ->
          obj ~name:"llc.arb_idle" ~ph:"i" ~cycle ~tid:core ~cat ()
        | Mshr_alloc { core; idx; line } ->
          obj ~name:"llc.mshr_alloc" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("idx", Json.Int idx); ("line", Json.Int line) ]
            ()
        | Mshr_free { core; idx } ->
          obj ~name:"llc.mshr_free" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("idx", Json.Int idx) ]
            ()
        | Uq_send { core; line } ->
          obj ~name:"llc.uq_send" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("line", Json.Int line) ]
            ()
        | Dq_retry { core; idx } ->
          obj ~name:"llc.dq_retry" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("idx", Json.Int idx) ]
            ()
        | Dram_cmd { bank; read; row_hit; line } ->
          obj
            ~name:(if read then "dram.read" else "dram.write")
            ~ph:"i" ~cycle ~tid:(100 + bank) ~cat
            ~args:
              [
                ("bank", Json.Int bank);
                ("row_hit", Json.Bool row_hit);
                ("line", Json.Int line);
              ]
            ()
        | Purge_begin { core; kind } ->
          obj ~name:"purge" ~ph:"B" ~cycle ~tid:core ~cat
            ~args:[ ("kind", Json.String kind) ]
            ()
        | Purge_phase { core; phase } ->
          obj ~name:("purge." ^ phase) ~ph:"i" ~cycle ~tid:core ~cat ()
        | Purge_end { core; cycles } ->
          obj ~name:"purge" ~ph:"E" ~cycle ~tid:core ~cat
            ~args:[ ("cycles", Json.Int cycles) ]
            ()
        | Walk_start { core; vpage } ->
          obj ~name:"ptw.walk_start" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("vpage", Json.Int vpage) ]
            ()
        | Walk_end { core; vpage; reads } ->
          obj ~name:"ptw.walk_end" ~ph:"i" ~cycle ~tid:core ~cat
            ~args:[ ("vpage", Json.Int vpage); ("reads", Json.Int reads) ]
            ()
      in
      acc := e :: !acc);
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !acc));
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.String "1 cycle = 1 us");
            ("dropped_events", Json.Int t.drops);
            ( "dropped_by_kind",
              Json.Obj
                (List.map (fun (k, c) -> (k, Json.Int c)) (dropped_by_kind t))
            );
          ] );
    ]

let pp ppf t =
  if t.drops > 0 then
    Format.fprintf ppf "# %d oldest events dropped (ring capacity %d)@."
      t.drops (Array.length t.buf);
  iter t (fun ~cycle ev ->
      Format.fprintf ppf "%10d  %-5s %s@." cycle
        (category_name (category_of_event ev))
        (event_label ev))

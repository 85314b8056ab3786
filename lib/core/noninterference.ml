let geometry = Addr.default_regions

(* The attacker sits on the HIGHER core index: the baseline two-level mux
   arbitrates lower cores first, so its unfairness (a Section 5.4.2 minor
   leak) is visible to the attacker; MI6's round-robin arbiter must make
   the position irrelevant. *)
let attacker_core = 1
let victim_core = 0

(* Attacker data lives in region 2, victim data in region 3: disjoint
   protection domains. *)
let attacker_base_line = Addr.region_base geometry 2 / Addr.line_bytes
let victim_base_line = Addr.region_base geometry 3 / Addr.line_bytes

(* Serially access [line] from [core] and return the completion latency.
   [while_waiting] runs every cycle (drives the concurrent victim). *)
let timed_access ?(while_waiting = fun () -> ()) h ~core ~line =
  let rec wait_ready budget =
    if budget = 0 then failwith "Noninterference: L1 never ready";
    if not (Hierarchy.can_accept h ~core) then begin
      while_waiting ();
      Hierarchy.tick h;
      ignore (Hierarchy.take_completions h ~core);
      wait_ready (budget - 1)
    end
  in
  wait_ready 10_000;
  let issued = Hierarchy.now h in
  Hierarchy.request h ~core ~line ~store:false ~id:0;
  let rec wait budget =
    if budget = 0 then failwith "Noninterference: access never completed";
    while_waiting ();
    Hierarchy.tick h;
    match Hierarchy.take_completions h ~core with
    | [] -> wait (budget - 1)
    | (_, at) :: _ -> at - issued
  in
  wait 10_000

(* Untimed access: issue and wait for completion. *)
let plain_access h ~core ~line =
  ignore (timed_access h ~core ~line)

(* ------------------------------------------------------------------ *)
(* Prime + probe                                                       *)
(* ------------------------------------------------------------------ *)

let prime_probe timing ~secret =
  let h = Hierarchy.create timing ~stats:(Stats.create ()) in
  (* Lines of the attacker that share one index-set under the FLAT
     function; under the partitioned function they stay inside the
     attacker's slice either way. *)
  let set = 5 in
  let attacker_line k = attacker_base_line + (k * 1024) + set in
  (* Victim lines mapping (flat) to the same set when the secret is 1,
     to a different set otherwise. *)
  let victim_line k =
    victim_base_line + (k * 1024) + if secret then set else set + 7
  in
  (* Prime: fill the set with the attacker's 16 ways (and warm the
     attacker L1 out of the picture by using >8 lines per L1 set). *)
  for k = 0 to 15 do
    plain_access h ~core:attacker_core ~line:(attacker_line k)
  done;
  (* Victim activity while the attacker is idle. *)
  for k = 0 to 7 do
    plain_access h ~core:victim_core ~line:(victim_line k)
  done;
  (* Probe: time each attacker line again.  L1 pressure: the 16 lines
     map to the same L1 set (stride 1024 lines = same L1 index), so only
     8 fit the 8-way L1 — misses go to the LLC where the victim may have
     evicted them. *)
  List.init 16 (fun k -> timed_access h ~core:attacker_core ~line:(attacker_line k))

(* ------------------------------------------------------------------ *)
(* MSHR / queue contention                                             *)
(* ------------------------------------------------------------------ *)

let mshr_channel timing ~victim_floods =
  let h = Hierarchy.create timing ~stats:(Stats.create ()) in
  (* The victim keeps as many misses in flight as its L1 allows, to
     fresh lines so every one reaches the LLC and DRAM. *)
  let next_victim = ref 0 in
  let victim_driver () =
    if victim_floods && Hierarchy.can_accept h ~core:victim_core then begin
      incr next_victim;
      Hierarchy.request h ~core:victim_core
        ~line:(victim_base_line + (!next_victim * 517))
        ~store:false ~id:!next_victim
    end;
    ignore (Hierarchy.take_completions h ~core:victim_core)
  in
  (* The attacker times a stream of its own misses (fresh lines). *)
  List.init 24 (fun k ->
      timed_access ~while_waiting:victim_driver h ~core:attacker_core
        ~line:(attacker_base_line + (k * 131)))

(* ------------------------------------------------------------------ *)
(* DRAM bank locality                                                  *)
(* ------------------------------------------------------------------ *)

let dram_bank_channel ~reordering ~victim_same_bank =
  let reorder = if reordering then Some Fr_fcfs.default_config else None in
  let h =
    Hierarchy.create ?reorder (Config.timing ~cores:1 Config.Mi6)
      ~stats:(Stats.create ())
  in
  let banks = Fr_fcfs.default_config.Fr_fcfs.banks in
  (* Attacker misses always target bank 0 (line multiple of #banks). *)
  let attacker_line k = attacker_base_line + (k * 129 * banks) in
  let victim_bank = if victim_same_bank then 0 else banks / 2 in
  let next_victim = ref 0 in
  let victim_driver () =
    if Hierarchy.can_accept h ~core:victim_core then begin
      incr next_victim;
      (* Fresh victim lines confined to one bank. *)
      let line = victim_base_line + (!next_victim * 97 * banks) + victim_bank in
      Hierarchy.request h ~core:victim_core ~line ~store:false ~id:!next_victim
    end;
    ignore (Hierarchy.take_completions h ~core:victim_core)
  in
  List.init 24 (fun k ->
      timed_access ~while_waiting:victim_driver h ~core:attacker_core
        ~line:(attacker_line (k + 1)))

(* ------------------------------------------------------------------ *)
(* Victim-timeline capture                                             *)
(* ------------------------------------------------------------------ *)

type attacker = A_idle | A_flood | A_burst | A_sweep

let all_attackers = [ A_idle; A_flood; A_burst; A_sweep ]

let attacker_name = function
  | A_idle -> "idle"
  | A_flood -> "flood"
  | A_burst -> "burst"
  | A_sweep -> "sweep"

let attacker_of_name s =
  List.find_opt (fun a -> attacker_name a = String.lowercase_ascii s)
    all_attackers

(* Victim-owned DRAM traffic: commands for lines inside the victim's
   region (DRAM events carry no core attribution, only addresses). *)
let victim_region_lines =
  geometry.Addr.region_bytes / Addr.line_bytes

let victim_owns_line line =
  line >= victim_base_line && line < victim_base_line + victim_region_lines

let victim_event vcore ev =
  match Trace.event_core ev with
  | Some c -> c = vcore
  | None -> (
    match ev with
    | Trace.Dram_cmd { line; _ } -> victim_owns_line line
    | _ -> false)

let victim_observation timing ~attacker =
  let trace =
    Trace.create ~capacity:(1 lsl 16) ~filter:[ Trace.Llc; Trace.Dram ] ()
  in
  let h = Hierarchy.create ~trace timing ~stats:(Stats.create ()) in
  (* Roles swapped relative to the other experiments: the victim sits on
     the HIGHER core index, where the baseline mux's lower-core-first
     unfairness can starve it whenever the attacker is busy.  MI6's
     round-robin arbiter must make the position irrelevant. *)
  let vcore = 1 and acore = 0 in
  let next_attacker = ref 0 in
  (* Each behaviour stresses a different shared structure: [A_flood]
     keeps maximal misses in flight (MSHR + arbiter pressure), [A_burst]
     alternates 256-cycle storms with silence (arbitration-phase
     pressure), [A_sweep] loops over a small working set so most traffic
     hits in the LLC (pipeline/queue pressure without DRAM). *)
  let attacker_driver () =
    (match attacker with
    | A_idle -> ()
    | A_flood ->
      if Hierarchy.can_accept h ~core:acore then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker * 517))
          ~store:false ~id:!next_attacker
      end
    | A_burst ->
      if (Hierarchy.now h / 256) land 1 = 0 && Hierarchy.can_accept h ~core:acore
      then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker * 517))
          ~store:false ~id:!next_attacker
      end
    | A_sweep ->
      if Hierarchy.can_accept h ~core:acore then begin
        incr next_attacker;
        Hierarchy.request h ~core:acore
          ~line:(attacker_base_line + (!next_attacker mod 24 * 131))
          ~store:false ~id:!next_attacker
      end);
    ignore (Hierarchy.take_completions h ~core:acore)
  in
  (* The victim runs a fixed access script: bursts of 4 concurrent
     misses (so it occupies shared LLC structures for whole windows, not
     single cycles), 8 rounds. *)
  for round = 0 to 7 do
    let issued = ref 0 and completed = ref 0 in
    let budget = ref 100_000 in
    while !completed < 4 do
      decr budget;
      if !budget = 0 then failwith "Noninterference: victim burst stuck";
      if !issued < 4 && Hierarchy.can_accept h ~core:vcore then begin
        incr issued;
        Hierarchy.request h ~core:vcore
          ~line:(victim_base_line + (round * 8) + (!issued * 131))
          ~store:false ~id:!issued
      end;
      attacker_driver ();
      Hierarchy.tick h;
      completed :=
        !completed + List.length (Hierarchy.take_completions h ~core:vcore)
    done
  done;
  (* The victim's view: every cycle-stamped LLC event attributed to its
     core, plus DRAM commands for its own lines. *)
  let events =
    List.filter (fun (_, ev) -> victim_event vcore ev) (Trace.events trace)
  in
  (events, Trace.dropped trace, Trace.dominant_dropped trace)

let leaks observations =
  match observations with
  | [] -> false
  | first :: rest -> List.exists (fun o -> o <> first) rest

(* ------------------------------------------------------------------ *)
(* Verdict table                                                       *)
(* ------------------------------------------------------------------ *)

type verdict = { label : string; leaks : bool }
type channel = { insecure : verdict; mi6 : verdict }

let channels () =
  let base = Config.timing ~cores:1 Config.Base
  and mi6 = Config.timing ~cores:1 Config.Mi6 in
  let row label run = { label; leaks = leaks [ run true; run false ] } in
  [
    {
      insecure =
        row "prime+probe, baseline LLC" (fun secret ->
            prime_probe base ~secret);
      mi6 = row "prime+probe, MI6 LLC" (fun secret -> prime_probe mi6 ~secret);
    };
    {
      insecure =
        row "MSHR/queue contention, baseline LLC" (fun victim_floods ->
            mshr_channel base ~victim_floods);
      mi6 =
        row "MSHR/queue contention, MI6 LLC" (fun victim_floods ->
            mshr_channel mi6 ~victim_floods);
    };
    {
      insecure =
        row "DRAM banks, FR-FCFS controller" (fun victim_same_bank ->
            dram_bank_channel ~reordering:true ~victim_same_bank);
      mi6 =
        row "DRAM banks, constant-latency controller" (fun victim_same_bank ->
            dram_bank_channel ~reordering:false ~victim_same_bank);
    };
  ]

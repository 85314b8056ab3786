let local_entries = 1024
let local_history_bits = 10
let global_entries = 4096
let global_history_bits = 12

(* The tables are bytes: a 10-bit local history takes two (little
   endian), a counter or choice one. *)
type t = {
  local_history : Bytes.t; (* 1024 x 10-bit shift registers *)
  local_counters : Bytes.t; (* 1024 x 3-bit, indexed by local history *)
  global_counters : Bytes.t; (* 4096 x 2-bit *)
  choice : Bytes.t; (* 4096 x 2-bit: >=2 chooses global *)
  mutable ghist : int; (* 12-bit global history *)
}

let create () =
  {
    (* The public reset state is fully cold: strongly not-taken
       everywhere.  Post-purge warmup therefore costs several events per
       (mostly taken-biased) branch, matching the substantial
       misprediction increase the paper measures under FLUSH
       (Figure 7). *)
    local_history = Bytes.make (2 * local_entries) '\000';
    local_counters = Bytes.make local_entries '\000';
    global_counters = Bytes.make global_entries '\000';
    choice = Bytes.make global_entries '\001';
    ghist = 0;
  }

let history t i = Bytes.get_uint16_le t.local_history (2 * i)
let set_history t i v = Bytes.set_uint16_le t.local_history (2 * i) v
let get b i = Bytes.get_uint8 b i
let set b i v = Bytes.set_uint8 b i v
let local_slot pc = pc lsr 2 land (local_entries - 1)

let local_predict t ~pc =
  let h = history t (local_slot pc) in
  get t.local_counters (h land (local_entries - 1)) >= 4

let global_slot t = t.ghist land (global_entries - 1)
let global_predict t = get t.global_counters (global_slot t) >= 2

let predict t ~pc =
  if get t.choice (global_slot t) >= 2 then global_predict t
  else local_predict t ~pc

let bump v ~max ~up = if up then Int.min max (v + 1) else Int.max 0 (v - 1)

let update t ~pc ~taken =
  let gslot = global_slot t in
  let lslot = local_slot pc in
  let lh = history t lslot land (local_entries - 1) in
  let local_correct = get t.local_counters lh >= 4 = taken in
  let global_correct = get t.global_counters gslot >= 2 = taken in
  (* Choice trains toward whichever component was right. *)
  if local_correct <> global_correct then
    set t.choice gslot (bump (get t.choice gslot) ~max:3 ~up:global_correct);
  set t.local_counters lh (bump (get t.local_counters lh) ~max:7 ~up:taken);
  set t.global_counters gslot
    (bump (get t.global_counters gslot) ~max:3 ~up:taken);
  set_history t lslot
    (((lh lsl 1) lor Bool.to_int taken) land ((1 lsl local_history_bits) - 1));
  t.ghist <-
    ((t.ghist lsl 1) lor Bool.to_int taken) land ((1 lsl global_history_bits) - 1)

let flush t =
  Bytes.fill t.local_history 0 (2 * local_entries) '\000';
  Bytes.fill t.local_counters 0 local_entries '\000';
  Bytes.fill t.global_counters 0 global_entries '\000';
  Bytes.fill t.choice 0 global_entries '\001';
  t.ghist <- 0

(* Folds the entries in table order, as when the tables were int
   arrays. *)
let state_signature t =
  let h = ref t.ghist in
  let add v = h := ((!h * 31) + v) land max_int in
  for i = 0 to local_entries - 1 do
    add (history t i)
  done;
  let fold b =
    for i = 0 to Bytes.length b - 1 do
      add (get b i)
    done
  in
  fold t.local_counters;
  fold t.global_counters;
  fold t.choice;
  !h

type snapshot = {
  s_local_history : Bytes.t;
  s_local_counters : Bytes.t;
  s_global_counters : Bytes.t;
  s_choice : Bytes.t;
  s_ghist : int;
}

let snapshot t =
  {
    s_local_history = Bytes.copy t.local_history;
    s_local_counters = Bytes.copy t.local_counters;
    s_global_counters = Bytes.copy t.global_counters;
    s_choice = Bytes.copy t.choice;
    s_ghist = t.ghist;
  }

let restore t s =
  Bytes.blit s.s_local_history 0 t.local_history 0 (2 * local_entries);
  Bytes.blit s.s_local_counters 0 t.local_counters 0 local_entries;
  Bytes.blit s.s_global_counters 0 t.global_counters 0 global_entries;
  Bytes.blit s.s_choice 0 t.choice 0 global_entries;
  t.ghist <- s.s_ghist

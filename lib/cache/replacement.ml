type t =
  | Random of { seed : int; mutable state : int64; ways : int }
  | Lru of { stamps : int array array; mutable clock : int }

let pseudo_random ~ways ~sets ~seed =
  ignore sets;
  Random { seed; state = Int64.of_int seed; ways }

let lru ~ways ~sets = Lru { stamps = Array.make_matrix sets ways 0; clock = 0 }

let next_random r =
  (* xorshift64 step. *)
  let s = r in
  let s = Int64.logxor s (Int64.shift_left s 13) in
  let s = Int64.logxor s (Int64.shift_right_logical s 7) in
  Int64.logxor s (Int64.shift_left s 17)

let victim t ~set ~invalid_way =
  match invalid_way with
  | Some w -> w
  | None -> (
    match t with
    | Random r ->
      r.state <- next_random r.state;
      Int64.to_int (Int64.unsigned_rem r.state (Int64.of_int r.ways))
    | Lru l ->
      let stamps = l.stamps.(set) in
      let best = ref 0 in
      for w = 1 to Array.length stamps - 1 do
        if stamps.(w) < stamps.(!best) then best := w
      done;
      !best)

let touch t ~set ~way =
  match t with
  | Random _ -> ()
  | Lru l ->
    l.clock <- l.clock + 1;
    l.stamps.(set).(way) <- l.clock

let scrub t =
  match t with
  | Random r -> r.state <- Int64.of_int r.seed
  | Lru l ->
    l.clock <- 0;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) l.stamps

(* Checkpoint/restore of the program-dependent policy state — included in
   machine checkpoints precisely because the L1 and LLC state folds leave
   it out: victim choice after a restore must replay identically. *)
type checkpoint =
  | Ck_random of int64
  | Ck_lru of { c_stamps : int array array; c_clock : int }

let save = function
  | Random r -> Ck_random r.state
  | Lru l -> Ck_lru { c_stamps = Array.map Array.copy l.stamps; c_clock = l.clock }

let restore t ck =
  match (t, ck) with
  | Random r, Ck_random s -> r.state <- s
  | Lru l, Ck_lru { c_stamps; c_clock } ->
    Array.iteri (fun i row -> Array.blit row 0 l.stamps.(i) 0 (Array.length row))
      c_stamps;
    l.clock <- c_clock
  | _ -> invalid_arg "Replacement.restore: checkpoint from a different policy"

let state_signature t =
  match t with
  | Random r -> Int64.to_int (Int64.logand r.state 0x3FFFFFFFFFFFFFFFL)
  | Lru l ->
    let h = ref l.clock in
    Array.iter
      (fun row -> Array.iter (fun s -> h := (!h * 31) + s) row)
      l.stamps;
    !h land max_int

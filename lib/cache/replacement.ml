(* The xorshift state lives unboxed in 8 bytes, so a victim pick
   allocates nothing. *)
type t =
  | Random of { seed : int; state : Bytes.t; ways : int }
  | Lru of { stamps : int array array; mutable clock : int }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let pseudo_random ~ways ~sets ~seed =
  ignore sets;
  let state = Bytes.create 8 in
  set64 state 0 (Int64.of_int seed);
  Random { seed; state; ways }

let lru ~ways ~sets = Lru { stamps = Array.make_matrix sets ways 0; clock = 0 }

let[@inline] next_random r =
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
      let s = next_random (get64 r.state 0) in
      set64 r.state 0 s;
      (* [s] modulo [ways], reading [s] as unsigned: s = 4q + low bits. *)
      let q = Int64.to_int (Int64.shift_right_logical s 2) in
      ((q mod r.ways * 4) + (Int64.to_int s land 3)) mod r.ways
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
  | Random r -> set64 r.state 0 (Int64.of_int r.seed)
  | Lru l ->
    l.clock <- 0;
    Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) l.stamps

let state_signature t =
  match t with
  | Random r -> Int64.to_int (Int64.logand (get64 r.state 0) 0x3FFFFFFFFFFFFFFFL)
  | Lru l ->
    let h = ref l.clock in
    Array.iter
      (fun row -> Array.iter (fun s -> h := (!h * 31) + s) row)
      l.stamps;
    !h land max_int

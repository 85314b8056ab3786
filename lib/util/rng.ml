(* The 64-bit state lives unboxed in 8 bytes, so drawing an int or a
   bool allocates nothing: the int64 values stay in registers once the
   [@inline] helpers below are inlined into each draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

(* SplitMix64 output function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let split t =
  let seed = bits64 t in
  (* Re-mix with a distinct constant so the child stream is decorrelated. *)
  create (mix (Int64.logxor seed 0xD1B54A32D192ED03L))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 (* 2^53 *)

let bool t ~p = float t < p

let geometric t ~mean =
  if mean <= 0.0 then 0
  else begin
    let p = 1.0 /. (mean +. 1.0) in
    let u = float t in
    (* Inverse-CDF sampling; support {0, 1, 2, ...} with E[X] = mean. *)
    int_of_float (Float.log1p (-.u) /. Float.log (1.0 -. p))
  end

let choose t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if Array.length weights = 0 || total <= 0.0 then
    invalid_arg "Rng.choose: need positive total weight";
  let x = float t *. total in
  let rec go i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

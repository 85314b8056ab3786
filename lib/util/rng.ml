(* The 64-bit state lives unboxed in 8 bytes, so drawing an int, a bool
   or a [pick] allocates nothing: the int64 and float values stay in
   registers once the [@inline] helpers below are inlined into each draw.
   A [float] returned to another module is boxed, though, because the dev
   profile compiles with -opaque; comparisons and arithmetic on a draw
   belong in here. *)
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

let skewed t range =
  let u = float t in
  let u4 = u *. u *. u *. u in
  int_of_float (u4 *. u4 *. float_of_int range)

let pick t thresholds ~scale =
  let x = float t *. scale in
  let n = Array.length thresholds in
  let i = ref 0 in
  while !i < n && not (x < Array.unsafe_get thresholds !i) do
    incr i
  done;
  !i

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

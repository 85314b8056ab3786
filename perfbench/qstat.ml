(* Order statistics computed the way Python's statistics module does, so
   that the spreads perfcheck.exe prints are the ones the benchmark's
   acceptance rule computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(xs, n=4) with the default "exclusive" method:
   (q1, q3).  One value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  if ld < 2 then (a.(0), a.(0)) else (q 1, q 3)

(* Interquartile range over the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

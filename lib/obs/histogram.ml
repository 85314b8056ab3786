(* 63 buckets cover every non-negative OCaml int: bucket 0 is {0},
   bucket i>=1 is [2^(i-1), 2^i). *)
let nbuckets = 63

type t = {
  counts : int array;
  mutable n : int;
  mutable total : int;
  mutable lo : int; (* smallest sample; max_int when empty *)
  mutable hi : int; (* largest sample *)
}

let create () =
  { counts = Array.make nbuckets 0; n = 0; total = 0; lo = max_int; hi = 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* 1 + floor(log2 v) *)
    let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
    go 0 v
  end

let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1

let add t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v

let count t = t.n
let sum t = t.total
let min t = if t.n = 0 then 0 else t.lo
let max t = t.hi
let mean t = if t.n = 0 then 0.0 else float_of_int t.total /. float_of_int t.n

let quantile t q =
  if t.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let rec go i seen =
      if i >= nbuckets then t.hi
      else begin
        let seen = seen + t.counts.(i) in
        if seen >= rank then Stdlib.min (bucket_hi i) t.hi else go (i + 1) seen
      end
    in
    go 0 0
  end

let p50 t = quantile t 0.50
let p95 t = quantile t 0.95
let p99 t = quantile t 0.99

let buckets t =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (bucket_lo i, bucket_hi i, t.counts.(i)) :: !acc
  done;
  !acc

let reset t =
  Array.fill t.counts 0 nbuckets 0;
  t.n <- 0;
  t.total <- 0;
  t.lo <- max_int;
  t.hi <- 0

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.total <- into.total + src.total;
  if src.n > 0 then begin
    if src.lo < into.lo then into.lo <- src.lo;
    if src.hi > into.hi then into.hi <- src.hi
  end

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d" t.n (mean t)
    (p50 t) (p95 t) (p99 t) t.hi

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Int t.total);
      ("mean", Json.Float (mean t));
      ("min", Json.Int (min t));
      ("max", Json.Int t.hi);
      ("p50", Json.Int (p50 t));
      ("p95", Json.Int (p95 t));
      ("p99", Json.Int (p99 t));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ])
             (buckets t)) );
    ]

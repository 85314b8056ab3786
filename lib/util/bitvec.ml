type t = { n : int; words : int array }

let bits_per_word = 62 (* stay clear of the tag bit on 64-bit OCaml ints *)

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitvec.create";
  { n; words = Array.make (max 1 (words_for n)) 0 }

let length v = v.n

let check v i =
  if i < 0 || i >= v.n then invalid_arg "Bitvec: index out of bounds"

let get v i =
  check v i;
  v.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set v i =
  check v i;
  let w = i / bits_per_word in
  v.words.(w) <- v.words.(w) lor (1 lsl (i mod bits_per_word))

let clear v i =
  check v i;
  let w = i / bits_per_word in
  v.words.(w) <- v.words.(w) land lnot (1 lsl (i mod bits_per_word))

let set_all v =
  for i = 0 to v.n - 1 do
    set v i
  done

let create_full n =
  let v = create n in
  set_all v;
  v

let clear_all v = Array.fill v.words 0 (Array.length v.words) 0

let popcount_word w =
  let rec go w acc = if w = 0 then acc else go (w lsr 1) (acc + (w land 1)) in
  go w 0

let popcount v = Array.fold_left (fun acc w -> acc + popcount_word w) 0 v.words
let is_empty v = Array.for_all (fun w -> w = 0) v.words

let disjoint a b =
  if a.n <> b.n then invalid_arg "Bitvec.disjoint: width mismatch";
  let ok = ref true in
  Array.iteri (fun i w -> if w land b.words.(i) <> 0 then ok := false) a.words;
  !ok

let copy v = { n = v.n; words = Array.copy v.words }
let equal a b = a.n = b.n && a.words = b.words

let iter_set f v =
  for i = 0 to v.n - 1 do
    if get v i then f i
  done

let of_indices n idxs =
  let v = create n in
  List.iter (set v) idxs;
  v

let to_indices v =
  let acc = ref [] in
  iter_set (fun i -> acc := i :: !acc) v;
  List.rev !acc

let pp ppf v =
  for i = v.n - 1 downto 0 do
    Format.pp_print_char ppf (if get v i then '1' else '0')
  done

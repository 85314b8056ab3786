type t = I | S | M

let to_int = function I -> 0 | S -> 1 | M -> 2
let of_int = function 0 -> I | 1 -> S | _ -> M
let leq a b = to_int a <= to_int b
let lt a b = to_int a < to_int b

let compatible held requested =
  match (held, requested) with
  | I, _ | _, I -> true
  | S, S -> true
  | M, _ | _, M -> false

let needed_for ~store = if store then M else S

type 'a t = {
  buf : 'a option array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fifo.create: capacity must be positive";
  { buf = Array.make capacity None; head = 0; len = 0 }

let capacity q = Array.length q.buf
let length q = q.len
let is_empty q = q.len = 0
let is_full q = q.len = Array.length q.buf
let can_enq q = not (is_full q)
let can_deq q = not (is_empty q)

let enq q x =
  if is_full q then failwith "Fifo.enq: full";
  let tail = (q.head + q.len) mod Array.length q.buf in
  q.buf.(tail) <- Some x;
  q.len <- q.len + 1

let deq q =
  if is_empty q then failwith "Fifo.deq: empty";
  match q.buf.(q.head) with
  | None -> assert false
  | Some x ->
    q.buf.(q.head) <- None;
    q.head <- (q.head + 1) mod Array.length q.buf;
    q.len <- q.len - 1;
    x

let peek q =
  if is_empty q then failwith "Fifo.peek: empty";
  match q.buf.(q.head) with None -> assert false | Some x -> x

(* The slot already holds [Some x]: returning it allocates nothing. *)
let peek_opt q = if is_empty q then None else q.buf.(q.head)

let clear q =
  Array.fill q.buf 0 (Array.length q.buf) None;
  q.head <- 0;
  q.len <- 0

let iter f q =
  for i = 0 to q.len - 1 do
    match q.buf.((q.head + i) mod Array.length q.buf) with
    | None -> assert false
    | Some x -> f x
  done

let to_list q =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) q;
  List.rev !acc

let assign q xs =
  if List.length xs > Array.length q.buf then
    invalid_arg "Fifo.assign: list exceeds capacity";
  clear q;
  List.iter (enq q) xs

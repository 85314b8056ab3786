type t = {
  width : int;
  mutable buf : int array;
  mutable cap : int; (* records *)
  mutable head : int; (* record slot of the oldest *)
  mutable len : int;
}

let create ?(width = 1) capacity =
  if width <= 0 || capacity <= 0 then invalid_arg "Ring.create";
  { width; buf = Array.make (width * capacity) 0; cap = capacity; head = 0; len = 0 }

let length r = r.len
let is_empty r = r.len = 0
let is_full r = r.len = r.cap

(* Offset in [buf] of field 0 of the [i]th oldest record, [i <= len]. *)
let offset r i =
  let s = r.head + i in
  (if s >= r.cap then s - r.cap else s) * r.width

let get r i k = r.buf.(offset r i + k)

let peek r k =
  if r.len = 0 then failwith "Ring.peek: empty";
  r.buf.((r.head * r.width) + k)

(* Offset of a new youngest record. *)
let reserve r =
  if r.len = r.cap then failwith "Ring.push: full";
  let o = offset r r.len in
  r.len <- r.len + 1;
  o

let push r a = r.buf.(reserve r) <- a

let push2 r a b =
  let o = reserve r in
  r.buf.(o) <- a;
  r.buf.(o + 1) <- b

let push3 r a b c =
  let o = reserve r in
  r.buf.(o) <- a;
  r.buf.(o + 1) <- b;
  r.buf.(o + 2) <- c

let drop r =
  if r.len = 0 then failwith "Ring.drop: empty";
  r.head <- (if r.head + 1 = r.cap then 0 else r.head + 1);
  r.len <- r.len - 1

let pop r =
  let v = peek r 0 in
  drop r;
  v

let grow r =
  let buf = Array.make (2 * r.cap * r.width) 0 in
  for i = 0 to r.len - 1 do
    Array.blit r.buf (offset r i) buf (i * r.width) r.width
  done;
  r.buf <- buf;
  r.cap <- 2 * r.cap;
  r.head <- 0

type t = {
  entries : int;
  stack : int array;
  mutable top : int; (* index of next push *)
  mutable depth : int;
}

let create ?(entries = 8) () =
  { entries; stack = Array.make entries 0; top = 0; depth = 0 }

let push t addr =
  t.stack.(t.top) <- addr;
  t.top <- (t.top + 1) mod t.entries;
  t.depth <- Int.min t.entries (t.depth + 1)

let pop t =
  if t.depth = 0 then 0
  else begin
    t.top <- (t.top + t.entries - 1) mod t.entries;
    t.depth <- t.depth - 1;
    t.stack.(t.top)
  end

let flush t =
  Array.fill t.stack 0 t.entries 0;
  t.top <- 0;
  t.depth <- 0

let depth t = t.depth

(* Every (set, way) tag in one flat array, slot [set * ways + way]; -1
   marks an invalid way. *)
type t = { nsets : int; nways : int; tags : int array }

let create ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Sram.create";
  { nsets = sets; nways = ways; tags = Array.make (sets * ways) (-1) }

let sets t = t.nsets

let slot t ~set ~way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.nways then
    invalid_arg "Sram: set/way out of range";
  (set * t.nways) + way

let find t ~set ~tag =
  if set < 0 || set >= t.nsets then invalid_arg "Sram.find: set out of range";
  let base = set * t.nways in
  let way = ref (-1) and w = ref 0 in
  while !way < 0 && !w < t.nways do
    if t.tags.(base + !w) = tag then way := !w;
    incr w
  done;
  !way

let valid t ~set ~way = t.tags.(slot t ~set ~way) >= 0

let tag t ~set ~way =
  let tag = t.tags.(slot t ~set ~way) in
  if tag < 0 then invalid_arg "Sram.tag: way is invalid";
  tag

let fill t ~set ~way ~tag =
  if tag < 0 then invalid_arg "Sram.fill: negative tag";
  t.tags.(slot t ~set ~way) <- tag

let invalidate t ~set ~way = t.tags.(slot t ~set ~way) <- -1
let clear t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let next_valid t ~from =
  let n = Array.length t.tags in
  let k = ref from in
  while !k < n && t.tags.(!k) < 0 do
    incr k
  done;
  if !k < n then !k else -1

let invalid_way t ~set =
  let base = slot t ~set ~way:0 in
  let w = ref 0 in
  while !w < t.nways && t.tags.(base + !w) >= 0 do
    incr w
  done;
  if !w < t.nways then !w else -1

let count_valid t =
  Array.fold_left (fun n tag -> if tag >= 0 then n + 1 else n) 0 t.tags

type config = { sets : int; ways : int }

let l1_config = { sets = 1; ways = 32 }
let l2_config = { sets = 256; ways = 4 }

type t = {
  cfg : config;
  array : Sram.t;
  repl : Replacement.t;
}

let create cfg =
  {
    cfg;
    array = Sram.create ~sets:cfg.sets ~ways:cfg.ways;
    repl = Replacement.lru ~ways:cfg.ways ~sets:cfg.sets;
  }

let sets t = t.cfg.sets
let set_of t vpage = vpage land (t.cfg.sets - 1)

let lookup t ~vpage =
  let set = set_of t vpage in
  let way = Sram.find t.array ~set ~tag:vpage in
  if way >= 0 then begin
    Replacement.touch t.repl ~set ~way;
    true
  end
  else false

let insert t ~vpage =
  let set = set_of t vpage in
  let way = Sram.find t.array ~set ~tag:vpage in
  if way >= 0 then Replacement.touch t.repl ~set ~way
  else begin
    let way =
      Replacement.victim t.repl ~set
        ~invalid_way:(Sram.invalid_way t.array ~set)
    in
    Sram.fill t.array ~set ~way ~tag:vpage;
    Replacement.touch t.repl ~set ~way
  end

(* Self-cleaning LRU (Section 6): invalidating a set resets its
   replacement metadata, so a full flush leaves the public fresh state. *)
let flush_set t ~set =
  for way = 0 to t.cfg.ways - 1 do
    Sram.invalidate t.array ~set ~way
  done

let flush_all t =
  Sram.clear t.array;
  Replacement.scrub t.repl

let occupancy t = Sram.count_valid t.array

let lru_signature t =
  if occupancy t = 0 then 0 else Replacement.state_signature t.repl

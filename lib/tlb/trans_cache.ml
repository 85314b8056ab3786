type t = { levels : Tlb.t array }

let create ~entries_per_level ~levels =
  {
    levels =
      Array.init levels (fun _ ->
          Tlb.create { Tlb.sets = 1; ways = entries_per_level });
  }

let check t level =
  if level < 0 || level >= Array.length t.levels then
    invalid_arg "Trans_cache: level out of range"

let lookup t ~level ~prefix =
  check t level;
  Tlb.lookup t.levels.(level) ~vpage:prefix

let insert t ~level ~prefix =
  check t level;
  Tlb.insert t.levels.(level) ~vpage:prefix

let flush t = Array.iter Tlb.flush_all t.levels

let occupancy t =
  Array.fold_left (fun n l -> n + Tlb.occupancy l) 0 t.levels

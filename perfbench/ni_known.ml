(* The verdicts the ni-fpma workload expects.

   The modelled F+P+M+A design leaks on a few interrupt schedules
   (README, "Known issues").  ni_scan.exe checks every schedule the
   workload can run and lists the ones that falsify noninterference in
   ni-fpma-known.txt, which the build embeds as [Ni_known_data].  A run
   compares each check's verdict with that list: a falsification missing
   from it, or a listed one that no longer falsifies, fails the op.

   The workload draws [schedules] schedules from one of [streams]
   streams, [Ni_gen.sample ~seed:stream]; seed s uses stream s mod
   [streams], so every schedule a run can reach has a listed verdict. *)

let streams = 32
let schedules = 4000
let header = Printf.sprintf "# streams=%d schedules=%d" streams schedules
let stream_of_seed seed = ((seed mod streams) + streams) mod streams

let draw ~stream =
  Array.of_list (Mi6_progen.Ni_gen.sample ~seed:stream ~count:schedules ())

(* The falsifying schedules of [stream] by index, from the embedded list;
   [Error] when the list was made for other parameters. *)
let falsifying ~stream =
  match String.split_on_char '\n' Ni_known_data.text with
  | first :: lines when String.trim first = header ->
    Ok
      (List.filter_map
         (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ s; i; sched ] when int_of_string_opt s = Some stream ->
             Option.map (fun i -> (i, sched)) (int_of_string_opt i)
           | _ -> None)
         lines)
  | _ -> Error ("ni-fpma-known.txt does not start with " ^ header)

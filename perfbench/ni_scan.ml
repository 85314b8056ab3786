(* Writes the list of expected F+P+M+A falsifications (see ni_known.ml):
   every schedule of every stream the ni-fpma workload draws is checked
   with [Body.check] on a two-domain pool, about ten minutes on two
   cores.  Run it from the root of the checkout after a change to the
   modelled design or to the schedule generators:

     dune exec perfbench/ni_scan.exe > perfbench/ni-fpma-known.txt

   Each line after the header is "stream index schedule". *)

open Mi6_core

let () =
  let pool =
    Mi6_exec.Pool.create ~domains:(min 2 (Domain.recommended_domain_count ()))
  in
  print_endline Ni_known.header;
  for stream = 0 to Ni_known.streams - 1 do
    let s = Ni_known.draw ~stream in
    let leaked =
      Mi6_exec.Pool.map pool (Array.length s) (fun i ->
          (Mi6_progen.Body.check s.(i)).Schedule.v_falsified)
    in
    Array.iteri
      (fun i leaked ->
        if leaked then Printf.printf "%d %d %s\n%!" stream i (Schedule.to_string s.(i)))
      leaked;
    Printf.eprintf "stream %d done\n%!" stream
  done;
  Mi6_exec.Pool.shutdown pool

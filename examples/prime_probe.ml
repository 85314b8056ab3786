(* Prime+probe on the shared LLC: the classic cross-core cache attack the
   paper's set partitioning defeats (Sections 5.2 and 7.2).

     dune exec examples/prime_probe.exe

   The attacker and victim run on different cores with disjoint DRAM
   regions — architectural isolation already holds.  On the baseline
   RiscyOO LLC the attacker still reads the victim's secret from probe
   *timing*; on the MI6 LLC the attacker's observations are bit-identical
   whatever the victim does. *)

open Mi6_core

let show name obs =
  Printf.printf "  %-22s %s\n" name
    (String.concat " " (List.map (fun l -> Printf.sprintf "%3d" l) obs))

let recovered obs =
  (* The attacker's decision rule: any slow probe (> 100 cycles, a DRAM
     refill) means its line was evicted, i.e. the victim touched the
     primed set -> secret bit 1. *)
  List.exists (fun l -> l > 100) obs

let run name timing =
  Printf.printf "\n%s\n" name;
  let obs1 = Noninterference.prime_probe timing ~secret:true in
  let obs0 = Noninterference.prime_probe timing ~secret:false in
  show "probe (secret=1):" obs1;
  show "probe (secret=0):" obs0;
  Printf.printf "  attacker recovers secret=1 as %b, secret=0 as %b -> %s\n"
    (recovered obs1) (recovered obs0)
    (if recovered obs1 <> recovered obs0 then "SECRET LEAKED"
     else if obs1 = obs0 then "no leak: observations are bit-identical"
     else "observations differ but the simple rule fails");
  Noninterference.leaks [ obs1; obs0 ]

let () =
  print_endline
    "Prime+probe: attacker primes an LLC set with 16 of its own lines,\n\
     the victim touches a line whose LLC set depends on a secret bit,\n\
     the attacker probes its lines and times each access.";
  let base_leaks =
    run "[1] Baseline RiscyOO LLC (flat index, shared sets)"
      (Config.timing ~cores:1 Config.Base)
  in
  let mi6_leaks =
    run "[2] MI6 LLC (set partitioning by DRAM region, Figure 3 structures)"
      (Config.timing ~cores:1 Config.Mi6)
  in
  Printf.printf
    "\nSummary: baseline leaks = %b, MI6 leaks = %b  (paper: set \
     partitioning closes cache tag channels)\n"
    base_leaks mi6_leaks;
  if base_leaks && not mi6_leaks then print_endline "prime_probe: OK"
  else failwith "unexpected leak behaviour"

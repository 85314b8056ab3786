(* The queue-and-arbitration channels of Section 5.4: subtler than cache
   tag state, and the paper's main hardware contribution closes them.

     dune exec examples/mshr_channel.exe

   The attacker times its own LLC misses while the victim either floods
   the LLC with misses or idles.  On the baseline Figure 2 LLC, the shared
   MSHR file, the unfair two-level input mux, the single UQ, and the
   two-cycle writeback DQ dequeues all let the victim's load modulate the
   attacker's latency.  On the Figure 3 LLC every one of those resources
   is partitioned or time-multiplexed deterministically, and the attacker
   measures exactly the same latencies either way.  The same experiment
   against a reordering DRAM controller shows why MI6 requires a
   constant-latency one. *)

open Mi6_core

let stats obs =
  let n = List.length obs in
  let sum = List.fold_left ( + ) 0 obs in
  let mx = List.fold_left max 0 obs in
  (float_of_int sum /. float_of_int n, mx)

let run name timing =
  Printf.printf "\n%s\n" name;
  let busy = Noninterference.mshr_channel timing ~victim_floods:true in
  let idle = Noninterference.mshr_channel timing ~victim_floods:false in
  let mb, xb = stats busy and mi, xi = stats idle in
  Printf.printf "  victim flooding: mean %.1f cyc, max %3d\n" mb xb;
  Printf.printf "  victim idle:     mean %.1f cyc, max %3d\n" mi xi;
  let leaky = Noninterference.leaks [ busy; idle ] in
  Printf.printf "  distinguishable: %b\n" leaky;
  leaky

let () =
  print_endline
    "MSHR / queue / arbitration contention in the LLC (paper Section 5.4)";
  let base =
    run "[1] Baseline LLC (Figure 2)" (Config.timing ~cores:1 Config.Base)
  in
  let mi6 = run "[2] MI6 LLC (Figure 3)" (Config.timing ~cores:1 Config.Mi6) in
  print_endline "\n[3] DRAM controller comparison (Section 5.2)";
  let reorder =
    Noninterference.leaks
      [
        Noninterference.dram_bank_channel ~reordering:true ~victim_same_bank:true;
        Noninterference.dram_bank_channel ~reordering:true
          ~victim_same_bank:false;
      ]
  in
  let const =
    Noninterference.leaks
      [
        Noninterference.dram_bank_channel ~reordering:false
          ~victim_same_bank:true;
        Noninterference.dram_bank_channel ~reordering:false
          ~victim_same_bank:false;
      ]
  in
  Printf.printf
    "  FR-FCFS reordering controller leaks bank locality: %b\n\
    \  constant-latency controller: %b\n"
    reorder const;
  if base && (not mi6) && reorder && not const then
    print_endline "\nmshr_channel: OK"
  else failwith "unexpected leak behaviour"

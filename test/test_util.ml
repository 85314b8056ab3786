(* Unit and property tests for the mi6_util substrate. *)

open Mi6_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ring at a fixed capacity: the bounded queue of the cycle models      *)
(* ------------------------------------------------------------------ *)

(* Field [k] of every record, oldest first. *)
let ring_fields q k = List.init (Ring.length q) (fun i -> Ring.get q i k)

let test_fifo_basic () =
  let q = Ring.create 3 in
  check_bool "fresh ring empty" true (Ring.is_empty q);
  check_bool "fresh ring not full" false (Ring.is_full q);
  Ring.push q 1;
  Ring.push q 2;
  Ring.push q 3;
  check_bool "full after capacity pushes" true (Ring.is_full q);
  check_int "fifo order 1" 1 (Ring.pop q);
  check_int "fifo order 2" 2 (Ring.pop q);
  check_bool "not full after a pop" false (Ring.is_full q);
  Ring.push q 4;
  check_int "fifo order 3" 3 (Ring.pop q);
  check_int "fifo order 4" 4 (Ring.pop q);
  check_bool "empty at end" true (Ring.is_empty q)

let test_fifo_peek_clear () =
  let q = Ring.create ~width:2 2 in
  Ring.push2 q 7 70;
  Ring.push2 q 8 80;
  check_int "peek field 0" 7 (Ring.peek q 0);
  check_int "peek field 1" 70 (Ring.peek q 1);
  check_int "length after peek" 2 (Ring.length q);
  Ring.drop q;
  check_int "peek after drop" 8 (Ring.peek q 0);
  Ring.drop q;
  check_bool "drops empty the ring" true (Ring.is_empty q)

let test_fifo_enq_full () =
  let q = Ring.create 1 in
  Alcotest.check_raises "drop empty" (Failure "Ring.drop: empty") (fun () ->
      Ring.drop q);
  Alcotest.check_raises "peek empty" (Failure "Ring.peek: empty") (fun () ->
      ignore (Ring.peek q 0));
  Ring.push q 0;
  Alcotest.check_raises "push full" (Failure "Ring.push: full") (fun () ->
      Ring.push q 1);
  check_int "full ring keeps its record" 0 (Ring.pop q);
  Alcotest.check_raises "pop empty" (Failure "Ring.peek: empty") (fun () ->
      ignore (Ring.pop q))

let test_fifo_wraparound_iter () =
  let q = Ring.create ~width:2 4 in
  List.iter (fun x -> Ring.push2 q x (10 * x)) [ 1; 2; 3; 4 ];
  Ring.drop q;
  Ring.drop q;
  Ring.push2 q 5 50;
  Ring.push2 q 6 60;
  Alcotest.(check (list int)) "field 0 oldest first" [ 3; 4; 5; 6 ]
    (ring_fields q 0);
  Alcotest.(check (list int)) "field 1 oldest first" [ 30; 40; 50; 60 ]
    (ring_fields q 1)

(* A ring of two-field records at a fixed capacity behaves like a list
   queue under any push/drop sequence; a push onto a full ring raises and
   leaves it unchanged. *)
let prop_fifo_model =
  QCheck.Test.make ~name:"fifo matches list model" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (option small_int)))
    (fun (cap, ops) ->
      let q = Ring.create ~width:2 cap in
      let model = ref [] in
      let agrees () =
        ring_fields q 0 = List.map fst !model
        && ring_fields q 1 = List.map snd !model
        && Ring.is_full q = (List.length !model = cap)
      in
      List.for_all
        (fun op ->
          match (op, !model) with
          | Some x, _ when List.length !model = cap ->
            (match Ring.push2 q x (-x) with
            | () -> false
            | exception Failure _ -> agrees ())
          | Some x, _ ->
            Ring.push2 q x (-x);
            model := !model @ [ (x, -x) ];
            agrees ()
          | None, [] -> Ring.is_empty q
          | None, (x, _) :: rest ->
            let got = Ring.pop q in
            model := rest;
            got = x && agrees ())
        ops)

(* Forced fill/drain rounds march head and tail across the circular
   boundary many times; the ring must track the list model at every
   step, including peek and the full/empty flags at the extremes. *)
let prop_fifo_wraparound =
  QCheck.Test.make ~name:"fifo wraparound fill/drain rounds" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 8)))
    (fun (cap, rounds) ->
      let q = Ring.create cap in
      let model = ref [] in
      let tick = ref 0 in
      List.for_all
        (fun k ->
          let pushes = min k (cap - Ring.length q) in
          for _ = 1 to pushes do
            incr tick;
            Ring.push q !tick;
            model := !model @ [ !tick ]
          done;
          let full_ok = Ring.is_full q = (List.length !model = cap) in
          let pops = min k (Ring.length q) in
          let pop_ok = ref true in
          for _ = 1 to pops do
            match !model with
            | m :: rest ->
              pop_ok := !pop_ok && Ring.peek q 0 = m && Ring.pop q = m;
              model := rest
            | [] -> pop_ok := false
          done;
          full_ok && !pop_ok
          && ring_fields q 0 = !model
          && Ring.is_empty q = (!model = [])
          && Ring.length q = List.length !model)
        rounds)

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basic () =
  let v = Bitvec.create 100 in
  check_bool "fresh bit clear" false (Bitvec.get v 63);
  Bitvec.set v 63;
  check_bool "set bit" true (Bitvec.get v 63);
  check_int "popcount 1" 1 (Bitvec.popcount v);
  Bitvec.clear v 63;
  check_bool "cleared" false (Bitvec.get v 63);
  check_bool "empty again" true (Bitvec.is_empty v)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "oob get" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bitvec.get v 8))

let test_bitvec_disjoint () =
  let a = Bitvec.of_indices 64 [ 0; 5; 9 ] in
  let b = Bitvec.of_indices 64 [ 1; 6; 10 ] in
  let c = Bitvec.of_indices 64 [ 9; 20 ] in
  check_bool "disjoint" true (Bitvec.disjoint a b);
  check_bool "overlap detected" false (Bitvec.disjoint a c);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitvec.disjoint: width mismatch") (fun () ->
      ignore (Bitvec.disjoint a (Bitvec.create 32)))

let test_bitvec_full () =
  let v = Bitvec.create_full 70 in
  check_int "all set" 70 (Bitvec.popcount v);
  Bitvec.clear_all v;
  check_int "all clear" 0 (Bitvec.popcount v)

(* Region-mask boundary cases: the linter's region bitvectors live and
   die on bit 0 (the monitor region), the last bit, and full/empty
   masks. *)
let test_bitvec_boundaries () =
  let n = 64 in
  let v = Bitvec.create n in
  Bitvec.set v 0;
  check_bool "bit 0 set" true (Bitvec.get v 0);
  check_int "only bit 0" 1 (Bitvec.popcount v);
  check_bool "to_indices sees bit 0" true (Bitvec.to_indices v = [ 0 ]);
  Bitvec.clear v 0;
  Bitvec.set v (n - 1);
  check_bool "last bit set" true (Bitvec.get v (n - 1));
  check_bool "to_indices sees last bit" true
    (Bitvec.to_indices v = [ n - 1 ]);
  (* Disjointness at the two boundaries. *)
  let lo = Bitvec.of_indices n [ 0 ] and hi = Bitvec.of_indices n [ n - 1 ] in
  check_bool "bit 0 vs last bit disjoint" true (Bitvec.disjoint lo hi);
  check_bool "bit 0 vs itself overlaps" false (Bitvec.disjoint lo lo);
  (* Full and empty vectors. *)
  let full = Bitvec.create_full n and empty = Bitvec.create n in
  check_bool "empty is_empty" true (Bitvec.is_empty empty);
  check_bool "full not empty" false (Bitvec.is_empty full);
  check_bool "full vs empty disjoint" true (Bitvec.disjoint full empty);
  check_bool "full vs bit 0 overlaps" false (Bitvec.disjoint full lo);
  check_bool "full vs last bit overlaps" false (Bitvec.disjoint full hi);
  check_int "full popcount" n (Bitvec.popcount full);
  (* Widths that are not a word multiple keep their tail bits honest. *)
  let odd = Bitvec.create_full 65 in
  check_int "65-bit full popcount" 65 (Bitvec.popcount odd);
  check_bool "65th bit set" true (Bitvec.get odd 64);
  Bitvec.clear odd 64;
  check_int "tail bit clears alone" 64 (Bitvec.popcount odd);
  check_bool "equal after roundtrip" true
    (Bitvec.equal odd (Bitvec.of_indices 65 (List.init 64 Fun.id)))

let prop_bitvec_roundtrip =
  QCheck.Test.make ~name:"bitvec of_indices/to_indices roundtrip" ~count:200
    QCheck.(small_list (int_range 0 199))
    (fun idxs ->
      let sorted = List.sort_uniq compare idxs in
      let v = Bitvec.of_indices 200 idxs in
      Bitvec.to_indices v = sorted && Bitvec.popcount v = List.length sorted)

let prop_bitvec_copy_independent =
  QCheck.Test.make ~name:"bitvec copy is independent" ~count:100
    QCheck.(small_list (int_range 0 63))
    (fun idxs ->
      let v = Bitvec.of_indices 64 idxs in
      let w = Bitvec.copy v in
      Bitvec.set w 0;
      Bitvec.clear w 63;
      Bitvec.equal v (Bitvec.of_indices 64 idxs))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

(* A ring of two-field records behaves like a list queue under any
   push/drop sequence, doubling when full. *)
let prop_ring_model =
  QCheck.Test.make ~name:"ring matches list model" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (option small_int)))
    (fun (cap, ops) ->
      let r = Ring.create ~width:2 cap in
      let model = ref [] in
      let contents () =
        List.init (Ring.length r) (fun i -> (Ring.get r i 0, Ring.get r i 1))
      in
      List.for_all
        (fun op ->
          (match (op, !model) with
          | Some x, _ ->
            if Ring.is_full r then Ring.grow r;
            Ring.push2 r x (-x);
            model := !model @ [ (x, -x) ]
          | None, [] -> ()
          | None, _ :: rest ->
            Ring.drop r;
            model := rest);
          contents () = !model
          && match !model with [] -> Ring.is_empty r | (x, _) :: _ -> Ring.peek r 0 = x)
        ops)

(* Integer and boolean draws allocate nothing: the state is unboxed. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.of_int 9 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 100;
    if Rng.bool r ~p:0.5 then incr acc
  done;
  let w1 = Gc.minor_words () in
  check_bool "draws ran" true (!acc > 0);
  Alcotest.(check (float 0.)) "int/bool draw words" 0. (w1 -. w0)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    check_bool "same seed same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_decorrelated () =
  let parent = Rng.of_int 7 in
  let child = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr same
  done;
  check_int "split streams do not collide" 0 !same

let test_rng_int_bounds () =
  let r = Rng.of_int 1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_choose_weights () =
  let r = Rng.of_int 3 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Rng.choose r [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_int "zero-weight bucket never chosen" 0 counts.(1);
  check_bool "heavier bucket dominates" true (counts.(2) > counts.(0))

let test_rng_geometric_mean () =
  let r = Rng.of_int 9 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r ~mean:5.0
  done;
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "geometric mean near 5" true (mean > 4.5 && mean < 5.5)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_counters () =
  let s = Stats.create () in
  check_int "untouched counter is 0" 0 (Stats.get s "x");
  Stats.incr s "x";
  Stats.add s "x" 4;
  check_int "incr + add" 5 (Stats.get s "x");
  Stats.set s "y" 100;
  Alcotest.(check (list string)) "sorted names" [ "x"; "y" ] (Stats.names s);
  Stats.reset s;
  check_int "reset zeroes" 0 (Stats.get s "x")

let test_stats_per_kilo () =
  let s = Stats.create () in
  Stats.set s "misses" 30;
  Stats.set s "instrs" 2000;
  Alcotest.(check (float 1e-9)) "mpki" 15.0 (Stats.per_kilo s ~num:"misses" ~den:"instrs");
  Alcotest.(check (float 1e-9)) "zero denominator" 0.0
    (Stats.per_kilo s ~num:"misses" ~den:"nope")

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  Stats.set a "x" 1;
  Stats.set b "x" 2;
  Stats.set b "y" 3;
  Stats.merge ~into:a b;
  check_int "merged existing" 3 (Stats.get a "x");
  check_int "merged fresh" 3 (Stats.get a "y")

(* Handles resolved at component creation must not change what the
   table shows until they are bumped, and must keep writing to the same
   table across reset. *)
let test_stats_handle_invisible () =
  let s = Stats.create () in
  let _ = Stats.counter s "idle" in
  Stats.incr s "x";
  Alcotest.(check (list string)) "names" [ "x" ] (Stats.names s);
  Alcotest.(check (list (pair string int)))
    "to_assoc" [ ("x", 1) ] (Stats.to_assoc s)

let test_stats_bump_get () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Stats.bump c;
  Stats.bump c;
  check_int "bump visible through get" 2 (Stats.get s "x");
  Stats.incr s "x";
  Stats.bump c;
  check_int "handle and name share the counter" 4 (Stats.get s "x");
  Stats.bump (Stats.counter s "x");
  check_int "resolving again gives the same counter" 5 (Stats.get s "x")

let test_stats_handle_reset () =
  let s = Stats.create () in
  let c = Stats.counter s "x" in
  Stats.bump c;
  Stats.reset s;
  Stats.bump c;
  check_int "handle survives reset" 1 (Stats.get s "x");
  let snap = Stats.copy s in
  Stats.bump c;
  check_int "handle keeps counting" 2 (Stats.get s "x");
  check_int "copy untouched" 1 (Stats.get snap "x")

let test_stats_copy_diff_drop_unbumped () =
  let s = Stats.create () in
  let _ = Stats.counter s "idle" in
  Stats.set s "x" 5;
  let base = Stats.copy s in
  Alcotest.(check (list string)) "copy" [ "x" ] (Stats.names base);
  Stats.incr s "x";
  Alcotest.(check (list (pair string int)))
    "diff" [ ("x", 1) ] (Stats.to_assoc (Stats.diff s ~baseline:base))

(* Random interleavings of every writer against an association-list
   model of the visible table, compared after each step.  [Copy] takes
   a snapshot that later writes must leave untouched. *)
type stats_op =
  | Resolve of string
  | Bump of string
  | Incr of string
  | Add of string * int
  | Set of string * int
  | Reset
  | Copy

let stats_op_gen =
  let name = QCheck.Gen.oneofl [ "a"; "b"; "c"; "d" ] in
  QCheck.Gen.(
    frequency
      [
        (2, map (fun n -> Resolve n) name);
        (4, map (fun n -> Bump n) name);
        (2, map (fun n -> Incr n) name);
        (2, map2 (fun n k -> Add (n, k)) name (int_range (-3) 3));
        (2, map2 (fun n v -> Set (n, v)) name (int_range (-3) 9));
        (1, return Reset);
        (1, return Copy);
      ])

let stats_op_print = function
  | Resolve n -> "resolve " ^ n
  | Bump n -> "bump " ^ n
  | Incr n -> "incr " ^ n
  | Add (n, k) -> Printf.sprintf "add %s %d" n k
  | Set (n, v) -> Printf.sprintf "set %s %d" n v
  | Reset -> "reset"
  | Copy -> "copy"

let prop_stats_model =
  QCheck.Test.make ~name:"stats handles match an assoc-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map stats_op_print ops))
       QCheck.Gen.(list_size (int_range 0 40) stats_op_gen))
    (fun ops ->
      let s = Stats.create () in
      let handles = Hashtbl.create 4 in
      let handle n =
        match Hashtbl.find_opt handles n with
        | Some c -> c
        | None ->
          let c = Stats.counter s n in
          Hashtbl.add handles n c;
          c
      in
      let model = ref [] and snap = ref (Stats.create (), []) in
      let get n = Option.value (List.assoc_opt n !model) ~default:0 in
      let put n v = model := (n, v) :: List.remove_assoc n !model in
      List.for_all
        (fun op ->
          (match op with
          | Resolve n -> ignore (handle n)
          | Bump n ->
            Stats.bump (handle n);
            put n (get n + 1)
          | Incr n ->
            Stats.incr s n;
            put n (get n + 1)
          | Add (n, k) ->
            Stats.add s n k;
            put n (get n + k)
          | Set (n, v) ->
            Stats.set s n v;
            put n v
          | Reset ->
            Stats.reset s;
            model := List.map (fun (n, _) -> (n, 0)) !model
          | Copy -> snap := (Stats.copy s, !model));
          Stats.to_assoc s = List.sort compare !model
          && Stats.to_assoc (fst !snap) = List.sort compare (snd !snap))
        ops)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_cells () =
  check_string "cell_f" "3.5" (Table.cell_f 3.49999);
  check_string "cell_pct" "16.4%" (Table.cell_pct 16.42);
  let t = Table.create ~title:"t" ~columns:[ "only" ] in
  Alcotest.check_raises "bad row width"
    (Invalid_argument "Table.add_row: cell count does not match columns")
    (fun () -> Table.add_row t "r" [ "1"; "2" ])

let test_table_contains_rows () =
  let t = Table.create ~title:"Overheads" ~columns:[ "ovh" ] in
  Table.add_row t "gcc" [ "21.6%" ];
  Table.add_row t "astar" [ "10.9%" ];
  let s = Table.render t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "gcc row" true (contains "gcc" s);
  check_bool "astar row" true (contains "astar" s);
  check_bool "column header" true (contains "ovh" s)

(* Model for render: every label/cell appears, one line per row plus
   title, header, and rule, and all lines are padded to equal width. *)
let prop_table_render_model =
  let cell = QCheck.Gen.(map (Printf.sprintf "c%d") (int_range 0 999)) in
  let row =
    QCheck.Gen.(
      pair (map (Printf.sprintf "r%d") (int_range 0 999)) (list_size (return 2) cell))
  in
  QCheck.Test.make ~name:"table render matches row model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) row))
    (fun rows ->
      let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
      List.iter (fun (l, cs) -> Table.add_row t l cs) rows;
      let lines = String.split_on_char '\n' (Table.render t) in
      (* title, header, rule, one line per row, trailing "". *)
      List.length lines = 4 + List.length rows
      && List.for_all2
           (fun (l, cs) line ->
             let mem s =
               let nl = String.length s and hl = String.length line in
               let rec go i =
                 i + nl <= hl && (String.sub line i nl = s || go (i + 1))
               in
               go 0
             in
             List.for_all mem (l :: cs))
           rows
           (List.filteri (fun i _ -> i >= 3) lines
           |> List.filter (fun l -> l <> ""))
      &&
      match List.filteri (fun i _ -> i >= 1) lines |> List.filter (( <> ) "") with
      | [] -> rows = []
      | body :: rest ->
        List.for_all (fun l -> String.length l = String.length body) rest)

(* ------------------------------------------------------------------ *)
(* Sha256 / Hmac                                                       *)
(* ------------------------------------------------------------------ *)

(* NIST FIPS 180-4 test vectors. *)
let test_sha256_vectors () =
  check_string "empty string"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.to_hex (Sha256.digest ""));
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.digest "abc"));
  check_string "two-block message"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.to_hex
       (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  check_string "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.digest (String.make 1_000_000 'a')))

let test_sha256_incremental () =
  let whole = Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "the quick brown ";
  Sha256.feed ctx "fox jumps over ";
  Sha256.feed ctx "the lazy dog";
  check_string "incremental equals one-shot" (Sha256.to_hex whole)
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "finalize twice"
    (Invalid_argument "Sha256.finalize: already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

(* RFC 4231 test case 2. *)
let test_hmac_vector () =
  let tag = Hmac.mac ~key:"Jefe" "what do ya want for nothing?" in
  check_string "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Sha256.to_hex tag)

let test_hmac_long_key () =
  (* RFC 4231 test case 6: 131-byte key forces the key-hash path. *)
  let key = String.make 131 '\xaa' in
  let tag = Hmac.mac ~key "Test Using Larger Than Block-Size Key - Hash Key First" in
  check_string "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Sha256.to_hex tag)

let test_hmac_verify () =
  let key = "platform-root" and msg = "measurement||challenge" in
  let tag = Hmac.mac ~key msg in
  check_bool "good tag verifies" true (Hmac.verify ~key ~tag msg);
  check_bool "flipped bit fails" false
    (Hmac.verify ~key ~tag (msg ^ "x"));
  let bad = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  check_bool "tampered tag fails" false (Hmac.verify ~key ~tag:bad msg)

let prop_sha256_incremental_split =
  QCheck.Test.make ~name:"sha256 arbitrary split equals one-shot" ~count:100
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.feed ctx a;
      Sha256.feed ctx b;
      Sha256.finalize ctx = Sha256.digest (a ^ b))

(* ------------------------------------------------------------------ *)
(* Statesig                                                            *)
(* ------------------------------------------------------------------ *)

(* Miniature component folds in the shapes the simulator uses: index
   queues rendered as "i;j;" runs with their lengths hashed through
   [len] (LLC retry/UQ, core issue queues), whole lists through [items]
   (ROB sources, walker levels), slot arrays with empty markers (MSHRs,
   ROB, walker slots), and busy bits (load queue). *)
let fold_queues qs s =
  List.iter
    (fun q ->
      Statesig.len s (List.length q);
      List.iter (Statesig.item s) q;
      Statesig.lit s "|")
    qs

let fold_lists xss s =
  List.iter
    (fun xs ->
      Statesig.items s "[" xs;
      Statesig.lit s "]")
    xss

let fold_slots slots s =
  List.iter
    (function
      | None -> Statesig.none s "-"
      | Some v ->
        Statesig.int s "(" v;
        Statesig.lit s ")")
    slots

let fold_bits bits s = List.iter (Statesig.flag s) bits

(* The renderings differ only in where punctuation falls; the hash sees
   values and lengths only, so it must still tell the two states
   apart. *)
let check_apart name fold a b ~render_a ~render_b =
  check_string (name ^ ": first rendering") render_a (Statesig.render (fold a));
  check_string (name ^ ": second rendering") render_b (Statesig.render (fold b));
  check_bool (name ^ ": hashes differ") true
    (Statesig.hash (fold a) <> Statesig.hash (fold b))

let test_statesig_aliasing () =
  check_apart "queue boundary" fold_queues [ [ 1; 2 ]; [ 3 ] ] [ [ 1 ]; [ 2; 3 ] ]
    ~render_a:"1;2;|3;|" ~render_b:"1;|2;3;|";
  check_apart "list boundary" fold_lists [ [ 1; 2 ]; [ 3 ] ] [ [ 1 ]; [ 2; 3 ] ]
    ~render_a:"[1;2;][3;]" ~render_b:"[1;][2;3;]";
  check_apart "empty slot" fold_slots [ None; Some 5 ] [ Some 5; None ]
    ~render_a:"-(5)" ~render_b:"(5)-";
  check_apart "busy bit" fold_bits [ true; false ] [ false; true ]
    ~render_a:"10" ~render_b:"01"

let test_statesig_labels () =
  let fold label v s =
    Statesig.lit s "[";
    Statesig.int s label v;
    Statesig.bool s " m=" true
  in
  check_string "labels render" "[d=7 m=true" (Statesig.render (fold "d=" 7));
  check_bool "labels and punctuation are not hashed" true
    (Statesig.hash (fold "d=" 7) = Statesig.hash (fold "o=" 7));
  check_bool "values are hashed" true
    (Statesig.hash (fold "d=" 7) <> Statesig.hash (fold "d=" 8))

(* Every state of a small component — two index queues, a list, two
   slots, two busy bits — folded in both modes: equal renderings hash
   equally and different renderings hash differently. *)
let test_statesig_exhaustive () =
  let seqs = [ []; [ 1 ]; [ 2 ]; [ 1; 1 ]; [ 1; 2 ]; [ 2; 1 ]; [ 2; 2 ] ] in
  let slots = [ None; Some 1; Some 2 ] and bits = [ false; true ] in
  let fold (q1, q2, l, s1, s2, b1, b2) s =
    fold_queues [ q1; q2 ] s;
    fold_lists [ l ] s;
    fold_slots [ s1; s2 ] s;
    fold_bits [ b1; b2 ] s
  in
  let ( let* ) xs f = List.concat_map f xs in
  let states =
    let* q1 = seqs in
    let* q2 = seqs in
    let* l = seqs in
    let* s1 = slots in
    let* s2 = slots in
    let* b1 = bits in
    let* b2 = bits in
    [ (q1, q2, l, s1, s2, b1, b2) ]
  in
  let by_render = Hashtbl.create 16384 and by_hash = Hashtbl.create 16384 in
  List.iter
    (fun st ->
      let r = Statesig.render (fold st) and h = Statesig.hash (fold st) in
      (match Hashtbl.find_opt by_render r with
      | Some h' -> check_int ("equal renderings hash equally: " ^ r) h' h
      | None -> Hashtbl.add by_render r h);
      match Hashtbl.find_opt by_hash h with
      | Some r' -> check_string "equal hashes render equally" r' r
      | None -> Hashtbl.add by_hash h r)
    (states @ states);
  check_int "every state renders distinctly" (List.length states)
    (Hashtbl.length by_render)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mi6_util"
    [
      ( "fifo",
        [
          Alcotest.test_case "basic order and fullness" `Quick test_fifo_basic;
          Alcotest.test_case "peek and clear" `Quick test_fifo_peek_clear;
          Alcotest.test_case "enq on full raises" `Quick test_fifo_enq_full;
          Alcotest.test_case "wraparound iteration" `Quick test_fifo_wraparound_iter;
        ]
        @ qsuite [ prop_fifo_model; prop_fifo_wraparound ] );
      ( "bitvec",
        [
          Alcotest.test_case "set/get/clear" `Quick test_bitvec_basic;
          Alcotest.test_case "bounds checking" `Quick test_bitvec_bounds;
          Alcotest.test_case "disjointness" `Quick test_bitvec_disjoint;
          Alcotest.test_case "full/clear_all" `Quick test_bitvec_full;
          Alcotest.test_case "region boundaries" `Quick
            test_bitvec_boundaries;
        ]
        @ qsuite [ prop_bitvec_roundtrip; prop_bitvec_copy_independent ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split decorrelated" `Quick test_rng_split_decorrelated;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "weighted choice" `Quick test_rng_choose_weights;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ("ring", qsuite [ prop_ring_model ]);
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "per kilo" `Quick test_stats_per_kilo;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "unbumped handle is invisible" `Quick
            test_stats_handle_invisible;
          Alcotest.test_case "bump visible through get" `Quick
            test_stats_bump_get;
          Alcotest.test_case "handle survives reset" `Quick
            test_stats_handle_reset;
          Alcotest.test_case "copy and diff drop unbumped" `Quick
            test_stats_copy_diff_drop_unbumped;
        ]
        @ qsuite [ prop_stats_model ] );
      ( "table",
        [
          Alcotest.test_case "cells and width check" `Quick test_table_cells;
          Alcotest.test_case "render contains rows" `Quick test_table_contains_rows;
        ]
        @ qsuite [ prop_table_render_model ] );
      ( "crypto",
        [
          Alcotest.test_case "sha256 NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "sha256 finalize once" `Quick test_sha256_finalize_once;
          Alcotest.test_case "hmac rfc4231 #2" `Quick test_hmac_vector;
          Alcotest.test_case "hmac rfc4231 #6 long key" `Quick test_hmac_long_key;
          Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
        ]
        @ qsuite [ prop_sha256_incremental_split ] );
      ( "statesig",
        [
          Alcotest.test_case "punctuation-only differences hash apart" `Quick
            test_statesig_aliasing;
          Alcotest.test_case "labels render, values hash" `Quick
            test_statesig_labels;
          Alcotest.test_case "hash agrees with rendering" `Quick
            test_statesig_exhaustive;
        ] );
    ]

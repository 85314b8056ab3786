module S = Mi6_core.Schedule

let gen ?(variant = Mi6_core.Config.Fpma) () =
  let open QCheck.Gen in
  let attacker = oneofl S.attackers in
  let point =
    map2
      (fun at attacker -> { S.at; attacker })
      (frequency
         [
           (3, map (fun i -> S.At_instr i) (int_range 0 60));
           (1, map (fun c -> S.At_cycle c) (int_range 0 6000));
         ])
      attacker
  in
  map3
    (fun body_seed points final ->
      { S.variant; body_seed; points; final })
    (int_range 0 99_999)
    (list_size (int_range 0 4) point)
    attacker

let sample ?variant ~seed ~count () =
  (* QCheck.Gen.generate never returns for a negative count. *)
  if count < 0 then invalid_arg "Ni_gen.sample: negative count";
  (* A fresh Random.State keyed on the seed alone, so a printed seed
     pins the exact schedule list a run saw. *)
  let rand = Random.State.make [| 0x6e6967; seed |] in
  QCheck.Gen.generate ~n:count ~rand (gen ?variant ())

let attacker_rank = function
  | S.Probe -> 0
  | S.Train -> 1
  | S.Sweep -> 2
  | S.Stores -> 3

let index_of p = match p.S.at with S.At_instr i -> i | S.At_cycle c -> c

let measure (t : S.t) =
  ( List.length t.S.points,
    List.fold_left (fun acc p -> acc + index_of p) 0 t.S.points,
    List.fold_left (fun acc p -> acc + attacker_rank p.S.attacker) 0 t.S.points
    + attacker_rank t.S.final,
    t.S.body_seed )

let shrink_attacker a = if a = S.Probe then [] else [ S.Probe ]

let shrink_point p =
  let at_candidates =
    match p.S.at with
    | S.At_instr 0 | S.At_cycle 0 -> []
    | S.At_instr i -> [ S.At_instr (i / 2); S.At_instr (i - 1) ]
    | S.At_cycle c -> [ S.At_cycle (c / 2); S.At_cycle (c - 1) ]
  in
  List.map (fun at -> { p with S.at }) at_candidates
  @ List.map (fun a -> { p with S.attacker = a }) (shrink_attacker p.S.attacker)

(* Replace the i-th element by each of its shrinks. *)
let shrink_list_elt shrink_elt xs =
  List.concat
    (List.mapi
       (fun i x ->
         List.map
           (fun x' -> List.mapi (fun j y -> if i = j then x' else y) xs)
           (shrink_elt x))
       xs)

let drop_one xs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs

let shrink (t : S.t) =
  List.map (fun points -> { t with S.points }) (drop_one t.S.points)
  @ List.map
      (fun points -> { t with S.points })
      (shrink_list_elt shrink_point t.S.points)
  @ (if t.S.body_seed > 0 then
       [
         { t with S.body_seed = t.S.body_seed / 2 };
         { t with S.body_seed = t.S.body_seed - 1 };
       ]
     else [])
  @ List.map (fun a -> { t with S.final = a }) (shrink_attacker t.S.final)

let rec greedy_shrink ~falsifies (t : S.t) =
  match List.find_opt falsifies (shrink t) with
  | Some t' -> greedy_shrink ~falsifies t'
  | None -> t

let arbitrary ?variant () =
  QCheck.make ~print:S.to_string
    ~shrink:(fun t -> QCheck.Iter.of_list (shrink t))
    (gen ?variant ())

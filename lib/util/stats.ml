(* A cell is written ([live]) once anything but [counter] has touched
   it; resolved-but-unwritten cells are invisible to every reader. *)
type counter = { mutable v : int; mutable live : bool }
type t = (string, counter) Hashtbl.t

let create () : t = Hashtbl.create 64

let counter t name =
  match Hashtbl.find_opt t name with
  | Some c -> c
  | None ->
    let c = { v = 0; live = false } in
    Hashtbl.add t name c;
    c

let bump c =
  c.v <- c.v + 1;
  c.live <- true

let cell t name =
  let c = counter t name in
  c.live <- true;
  c

let incr t name = bump (counter t name)
let add t name k = let c = cell t name in c.v <- c.v + k
let get t name = match Hashtbl.find_opt t name with Some c -> c.v | None -> 0
let set t name v = (cell t name).v <- v
let reset t = Hashtbl.iter (fun _ c -> c.v <- 0) t
let iter_live f t = Hashtbl.iter (fun k c -> if c.live then f k c.v) t

let names t =
  Hashtbl.fold (fun k c acc -> if c.live then k :: acc else acc) t []
  |> List.sort String.compare

let per_kilo t ~num ~den =
  let d = get t den in
  if d = 0 then 0.0 else 1000.0 *. float_of_int (get t num) /. float_of_int d

let merge ~into src = iter_live (add into) src

let copy t =
  let c = create () in
  iter_live (set c) t;
  c

let diff t ~baseline =
  let d = create () in
  iter_live (fun k v -> set d k (v - get baseline k)) t;
  d

let to_assoc t = List.map (fun name -> (name, get t name)) (names t)

let pp ppf t =
  (* Column width follows the longest counter name so long names stay
     aligned instead of shoving their values out of the column. *)
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 24 (to_assoc t)
  in
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-*s %d@." width name v)
    (to_assoc t)

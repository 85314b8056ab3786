(** MSI coherence states, ordered I < S < M.

    RiscyOO's LLC keeps the L1s coherent with an MSI directory protocol
    (paper Section 5.4.1, citing the CCP protocol of Vijayaraghavan et
    al.). *)

type t = I | S | M

(** [to_int s] is the state's rank, 0 (I), 1 (S) or 2 (M): the code a
    state takes in the links' int rings and in the state folds.
    [of_int] inverts it. *)
val to_int : t -> int

val of_int : int -> t
val leq : t -> t -> bool
val lt : t -> t -> bool

(** [compatible held requested] holds when another child may hold [held]
    while one child acquires [requested] (M is exclusive). *)
val compatible : t -> t -> bool

(** [needed_for ~store] is the minimum state for an access: S for loads,
    M for stores. *)
val needed_for : store:bool -> t

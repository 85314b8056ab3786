(** One state description per component, read as a hash or as a dump.

    A component describes the state that can change from one cycle to
    the next (queues, MSHRs, state-machine phases, scheduled-event
    times) as one fold over an {!acc}: [state : t -> acc -> unit].
    {!hash} runs the fold for the quiet-cycle detector's per-cycle
    signature (equal signatures on consecutive cycles classify the cycle
    as {e quiet}: nothing but the clock advanced); {!render} runs the
    same fold for the labelled dump the quiet-cycle oracle byte-compares
    and bisect slices diff.  Signature and dump therefore cannot
    disagree about which fields make up the state.

    Every distinction a rendering can show must reach the hash: values
    go through {!int}, {!bool}, {!none}, {!flag}, {!item} and {!items};
    {!len} hashes a sequence length that only the rendered brackets
    show; {!lit} is punctuation and is never hashed.  The hash is
    order-dependent and deterministic (no randomized hashing), so
    signatures are comparable across runs and across domains. *)

type acc

(** [int s label v] renders [label] then [v] in decimal; hashes [v]. *)
val int : acc -> string -> int -> unit

(** [bool s label b] renders [label] then [true]/[false]; hashes [b]. *)
val bool : acc -> string -> bool -> unit

(** [none s mark] renders [mark] for an empty slot; hashes [-1]. *)
val none : acc -> string -> unit

(** [flag s b] renders a [1]/[0] busy bit; hashes [b]. *)
val flag : acc -> bool -> unit

(** [item s v] is one element of a [;]-terminated run: renders [v;];
    hashes [v]. *)
val item : acc -> int -> unit

(** [items s label xs] is a whole run: renders [label] then [x;] for
    every element; hashes the length of [xs], then every element. *)
val items : acc -> string -> int list -> unit

(** [len s n] hashes the length of the sequence that follows; renders
    nothing (the dump's brackets already show it). *)
val len : acc -> int -> unit

(** [lit s str] renders punctuation; hashes nothing. *)
val lit : acc -> string -> unit

(** [hash fold] runs [fold] in hash mode and returns the signature. *)
val hash : (acc -> unit) -> int

(** [render fold] runs [fold] in render mode and returns the dump. *)
val render : (acc -> unit) -> string

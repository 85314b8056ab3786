(** Micro-ops consumed by the out-of-order core timing model.

    The trace carries the {e committed} path: branch µops know their real
    outcome, loads and stores carry their addresses.  Register identifiers
    are logical (0..31); the core renames them.  [Enter_kernel] /
    [Exit_kernel] mark trap boundaries (syscalls, timer interrupts): the
    core serializes there and, in the FLUSH/MI6 variants, purges per-core
    microarchitectural state (paper Section 7.1 flushes on both trap entry
    and trap return). *)

type pipe_class = Pipe_alu | Pipe_mem | Pipe_fp

type kind =
  | Alu of { latency : int; pipe : pipe_class }
  | Load of { addr : int }  (** byte address *)
  | Store of { addr : int }
  | Branch of { taken : bool; target : int }
  | Jump of { target : int; kind : [ `Plain | `Call | `Return ] }
  | Enter_kernel
  | Exit_kernel

(** µops are immutable, and a generator may share their parts: every
    [Synth] µop takes its [srcs] list and its [dst] option from one table
    per register, and an ALU µop its [kind] from one value per latency
    class.  Structural equality cannot see the sharing; [Marshal] output
    can, so digest a stream field by field, never through [Marshal]. *)
type t = {
  pc : int;
  kind : kind;
  dst : int option;  (** logical destination register *)
  srcs : int list;  (** logical source registers *)
}

val is_mem : t -> bool

(** [next_pc u] is the address of the next committed instruction. *)
val next_pc : t -> int

(** One-line human rendering ("0x…: kind dst=… srcs=[…]") used by the
    differential tester and causal-slice reports. *)
val to_string : t -> string

(** Convenience constructors used by workload generators and tests. *)

val alu : ?latency:int -> ?pipe:pipe_class -> pc:int -> dst:int -> srcs:int list -> unit -> t
val load : pc:int -> addr:int -> dst:int -> srcs:int list -> unit -> t
val store : pc:int -> addr:int -> srcs:int list -> unit -> t
val branch : pc:int -> taken:bool -> target:int -> srcs:int list -> unit -> t
val jump : pc:int -> target:int -> kind:[ `Plain | `Call | `Return ] -> unit -> t

(** First-Ready, First-Come-First-Served reordering DRAM controller.

    This is the controller the paper {e rejects} for MI6 (Section 5.2):
    it reorders requests so that requests hitting a bank's open row go
    back-to-back, which maximizes bandwidth but makes one program's latency
    depend on another program's bank locality — a cross-domain timing
    channel.  It exists here to demonstrate that leak (see the DRAM-bank
    channel test and bench) and to justify the constant-latency choice. *)

type req = { read : bool; line : int; tag : int }

type config = {
  banks : int;  (** power of two *)
  row_lines : int;  (** lines per row (row size / 64) *)
  hit_latency : int;  (** open-row access *)
  miss_latency : int;  (** row activate + access *)
  max_outstanding : int;
}

val default_config : config

type t

val create : ?trace:Trace.t -> config -> stats:Stats.t -> t
val can_accept : t -> bool
val accept : t -> now:int -> req -> unit
val tick : t -> now:int -> respond:(tag:int -> line:int -> unit) -> unit
val outstanding : t -> int

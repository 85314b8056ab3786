(** The dedicated core-to-LLC link of Figure 1: three independent bounded
    FIFOs.  Upgrade requests and downgrade responses never block each other
    (required for deadlock freedom), and parent-to-child traffic has its
    own channel.

    Each FIFO is an int {!Ring} of three-field records, so sending and
    receiving allocate nothing; the accessors below read the oldest
    message of a ring, which must not be empty. *)

type t = {
  rq : Ring.t;  (** child -> parent upgrade requests *)
  rs : Ring.t;  (** child -> parent downgrade responses *)
  p2c : Ring.t;  (** parent -> child: upgrade responses, downgrade requests *)
}

(** [create ~depth] makes a link whose three FIFOs each hold [depth]
    messages. *)
val create : depth:int -> t

(** [can_send q] — the FIFO has room for a message this cycle. *)
val can_send : Ring.t -> bool

(** [send_req t ~line ~from_s ~to_s] queues an upgrade request on [rq]. *)
val send_req : t -> line:int -> from_s:Msi.t -> to_s:Msi.t -> unit

(** [send_resp t ~line ~to_s ~dirty] queues a downgrade response on [rs];
    [dirty] means it carries writeback data. *)
val send_resp : t -> line:int -> to_s:Msi.t -> dirty:bool -> unit

(** [send_parent t ~downgrade ~line ~to_s] queues a downgrade request
    ([downgrade]) or an upgrade response on [p2c]. *)
val send_parent : t -> downgrade:bool -> line:int -> to_s:Msi.t -> unit

(** The line and the target state of the oldest message on any FIFO. *)
val line : Ring.t -> int

val to_s : Ring.t -> Msi.t

(** [dirty rs] — the oldest downgrade response carries data. *)
val dirty : Ring.t -> bool

(** [is_downgrade p2c] — the oldest parent message is a downgrade
    request (else an upgrade response). *)
val is_downgrade : Ring.t -> bool

(** [state t s] folds the three FIFOs, oldest first, each message as the
    {!Msg} value it stands for (rebuilt and hashed), for the LLC's state
    fold. *)
val state : t -> Statesig.acc -> unit

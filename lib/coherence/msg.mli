(** Coherence messages exchanged between an L1 (child) and the LLC
    (parent), matching the link structure of Figure 1: three independent
    FIFOs carrying (1) upgrade requests from the L1, (2) downgrade
    responses from the L1, and (3) upgrade responses and downgrade requests
    from the LLC.

    The links carry these messages as int records ({!Link}); the types
    are the shapes the LLC's state fold rebuilds and hashes, so the
    quiet-cycle signature and the dump do not depend on that encoding. *)

(** Child-to-parent upgrade request: acquire [to_s] for [line]. *)
type child_req = { line : int; from_s : Msi.t; to_s : Msi.t }

(** Child-to-parent downgrade response: the child dropped [line] to
    [to_s]; [dirty] means the message carries writeback data. *)
type child_resp = { line : int; to_s : Msi.t; dirty : bool }

(** Parent-to-child messages share one FIFO. *)
type parent_msg =
  | Upgrade_resp of { line : int; to_s : Msi.t }
  | Downgrade_req of { line : int; to_s : Msi.t }

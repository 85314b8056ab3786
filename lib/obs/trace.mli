(** Cycle-stamped structured event tracing.

    A trace is a bounded ring buffer of typed events; when full, the
    oldest events are overwritten (and counted as dropped).  Components
    receive a trace handle at construction; the disabled singleton
    {!null} makes every probe a cheap flag test, so an uninstrumented run
    pays (almost) nothing.  Call sites guard event construction with
    {!active} so no event record is ever allocated while tracing is off:

    {[ if Trace.active trace Trace.Llc then
         Trace.emit trace ~now (Trace.Arb_grant { core; kind = "creq" }) ]}

    Export: {!to_chrome_json} writes the Chrome [trace_event] format
    (open the file in [chrome://tracing] or {{:https://ui.perfetto.dev}
    Perfetto}); {!pp} is a compact text dump. *)

(** Event categories, the unit of filtering ([--trace-filter llc,purge]). *)
type category = Core | L1 | Llc | Dram | Ptw | Purge

val all_categories : category list
val category_name : category -> string
val category_of_name : string -> category option

type event =
  | Counter of { core : int; name : string; value : int }
      (** periodic occupancy sample (ROB, fetch queue, issue queues) *)
  | Cache_miss of { cache : string; line : int }
  | Cache_fill of { cache : string; line : int }
  | Arb_grant of { core : int; kind : string }
      (** LLC pipeline-entry arbiter admitted a message from [core];
          [kind] is [creq]/[retry]/[cresp]/[dram] *)
  | Arb_idle of { core : int }
      (** round-robin slot for [core] wasted (MI6 arbiter only) *)
  | Mshr_alloc of { core : int; idx : int; line : int }
  | Mshr_free of { core : int; idx : int }
  | Uq_send of { core : int; line : int }  (** upgrade response granted *)
  | Dq_retry of { core : int; idx : int }  (** MI6 one-cycle-DQ retry *)
  | Dram_cmd of { bank : int; read : bool; row_hit : bool; line : int }
  | Purge_begin of { core : int; kind : string }
  | Purge_phase of { core : int; phase : string }
  | Purge_end of { core : int; cycles : int }
  | Walk_start of { core : int; vpage : int }
  | Walk_end of { core : int; vpage : int; reads : int }

val category_of_event : event -> category

(** [event_core ev] is the core an event is attributed to, when the event
    has a per-core identity ([Dram_cmd] and cache events do not). *)
val event_core : event -> int option

(** [event_label ev] renders the event without its cycle stamp — stable,
    suitable for timeline-equality comparisons. *)
val event_label : event -> string

(** [event_kind_name ev] — the event's constructor as a stable
    lowercase name ([arb_grant], [dram_cmd], ...); the unit of drop
    accounting. *)
val event_kind_name : event -> string

type t

(** [create ?capacity ?filter ()] — an enabled trace keeping the most
    recent [capacity] events (default 65536) of the [filter] categories
    (default: all). *)
val create : ?capacity:int -> ?filter:category list -> unit -> t

(** The disabled trace: [active] is always false, [emit] a no-op.  The
    default for every instrumented component. *)
val null : t

(** [active t cat] — events of [cat] are currently recorded.  Guard event
    construction with this. *)
val active : t -> category -> bool

(** [emit t ~now ev] records [ev] at cycle [now] if its category passes
    the filter, overwriting the oldest event when full. *)
val emit : t -> now:int -> event -> unit

(** Number of buffered events. *)
val length : t -> int

(** Events overwritten because the ring was full. *)
val dropped : t -> int

(** Drop counts broken down by event kind, dominant kind first (ties by
    name); empty when nothing was dropped.  A drop is charged to the
    kind of the event {e overwritten}, not the one arriving. *)
val dropped_by_kind : t -> (string * int) list

(** The kind that lost the most events, with its count. *)
val dominant_dropped : t -> (string * int) option

(** Buffered events, oldest first. *)
val events : t -> (int * event) list

val iter : t -> (cycle:int -> event -> unit) -> unit

(** [reset t] empties the buffer and zeroes the drop counter. *)
val reset : t -> unit

(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]); one trace-event
    per buffered event, cycles as microsecond timestamps, purges as
    begin/end duration slices, occupancy samples as counter tracks. *)
val to_chrome_json : t -> Json.t

(** Compact text dump, one event per line, oldest first. *)
val pp : Format.formatter -> t -> unit

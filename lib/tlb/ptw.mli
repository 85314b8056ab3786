(** Page-table-walker timing engine.

    A walk for a virtual page reads up to three page-table entries through
    the data-cache port; the translation cache short-circuits the upper
    levels.  PTE addresses are a deterministic function of the virtual page
    number over a page-table window in physical memory, so nearby pages
    share PTE cache lines — the locality that makes the L2 TLB and
    translation cache earn their keep.

    The walker issues at most one memory request per cycle through the
    [issue] callback (which may refuse; the walker retries).  The owner
    reports completions with {!mem_response}.  Finished walks invoke their
    continuation with the number of memory reads performed. *)

type t

(** [create ~max_walks ~tcache ~pt_base_line ~table_window_lines] — the
    level-[l] PTE for a page lives within a window of
    [table_window_lines] cache lines starting at
    [pt_base_line + l * table_window_lines]. *)
val create :
  ?trace:Trace.t ->
  ?core:int ->
  max_walks:int ->
  tcache:Trans_cache.t ->
  pt_base_line:int ->
  table_window_lines:int ->
  unit ->
  t

(** [can_start t] and [active_walks t] read a count of live walks that
    [start] and the completing {!mem_response} keep, so they, and a
    [tick] with no walk live, cost O(1). *)
val can_start : t -> bool

val active_walks : t -> int

(** [start ?now t ~vpage ~on_done] begins a walk; [on_done ~reads] fires
    when it finishes.  [now] stamps the walk for the latency histogram and
    trace (observability only; default 0).  Raises if [can_start] is
    false. *)
val start : ?now:int -> t -> vpage:int -> on_done:(reads:int -> unit) -> unit

(** [tick t ~issue] gives the walker one cycle; it calls
    [issue ~line ~id] at most once ([issue] returns acceptance). *)
val tick : t -> issue:(line:int -> id:int -> bool) -> unit

(** [mem_response ?now t ~id] — a PTE read completed. *)
val mem_response : ?now:int -> t -> id:int -> unit

(** Walk start-to-finish latency distribution, in cycles. *)
val walk_latency : t -> Histogram.t

(** [pte_line t ~level ~vpage] — exposed for tests: the cache line the
    walker reads at [level] for [vpage]. *)
val pte_line : t -> level:int -> vpage:int -> int

(** Ids issued by the walker are tagged with this bit to avoid colliding
    with core load/store ids. *)
val id_tag : int

(** [check_invariants t] recounts the live walk slots against the
    count kept; [Error] describes a mismatch.  For tests. *)
val check_invariants : t -> (unit, string) result

(** [state t s] walks the in-flight walk slots through
    {!Mi6_util.Statesig}, for the quiet-cycle signature and the labelled
    dump alike; the translation cache and latency histogram are excluded
    since they only change when a walk also progresses. *)
val state : t -> Statesig.acc -> unit

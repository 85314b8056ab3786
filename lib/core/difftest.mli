(** Differential-testing bridge between the functional reference model
    ({!Mi6_func.Fsim}) and the out-of-order timing core.

    The ooo core is trace-driven: µops carry the committed path (branch
    outcomes, memory addresses) and no architectural values.  The bridge
    therefore checks equivalence as two halves:

    - {e architecturally}, the functional model is the single source of
      truth: {!run_func} executes a real encoded program and captures the
      per-step committed path plus the final architectural state (regs,
      CSRs, data-window memory image, store log);
    - {e microarchitecturally}, {!to_uops} translates that committed path
      into the µop stream the timing core consumes, {!run_ooo} retires it
      through a full variant machine with a retirement probe installed,
      and {!compare_commits} demands the retirement stream be exactly the
      translated path — same µops, same order, same branch outcomes and
      store addresses.

    Any reordering, dropped or duplicated retirement, or wrong
    store-address plumbing in the ooo pipeline shows up as a counterexample
    program, which qcheck then shrinks. *)

type step = {
  s_pc : int;  (** physical pc of the executed instruction *)
  s_instr : Instr.t;
  s_next_pc : int;  (** pc after the step — the committed successor *)
  s_accesses : Fsim.access list;
}

(** Final architectural state of a functional run. *)
type arch_state = {
  regs : int64 array;  (** x0..x31 *)
  csrs : (string * int64) list;  (** curated machine CSRs *)
  data_image : string;  (** raw bytes of the data window *)
  stores : (int * int) list;  (** (paddr, width) per store, program order *)
}

type func_run = { steps : step list; arch : arch_state }

exception Stuck of string
(** The functional run trapped, faulted, or exhausted its step budget
    before reaching the halt marker ([wfi]). *)

(** [run_func ~program ~data_base ~data_bytes ~max_steps ()] loads and
    executes [program] in machine mode until the first [wfi] (excluded
    from [steps]).  [init_regs] seeds architectural registers before the
    first fetch — the taint cross-validation harness uses it to inject a
    secret {e input} that is not part of the program text.  Raises
    {!Stuck} on any trap or on budget exhaustion. *)
val run_func :
  ?init_regs:(Reg.t * int64) list ->
  program:Asm.program ->
  data_base:int ->
  data_bytes:int ->
  max_steps:int ->
  unit ->
  func_run

(** [arch_equal a b] — deep equality of two architectural states. *)
val arch_equal : arch_state -> arch_state -> bool

(** [arch_diff a b] — human-readable first difference, if any. *)
val arch_diff : arch_state -> arch_state -> string option

(** [to_uops run ~func_code_base ~func_data_base] translates the committed
    path into the timing core's µop stream, remapping code addresses into
    the machine's core-0 code region and data addresses into its data
    region.  Loads and stores take their physical address from the step's
    emitted access; branches compute taken/target from the committed
    successor. *)
val to_uops :
  func_run -> func_code_base:int -> func_data_base:int -> Uop.t list

type ooo_run = {
  committed : Uop.t list;  (** retirement order, markers included *)
  cycles : int;
}

(** [run_ooo ?trace ~variant uops] retires the stream through a one-core
    variant machine (full cache hierarchy) with a retirement probe
    installed, optionally recording events into [trace] — the static/
    dynamic agreement harness taps this to let the Audit localize
    divergences. *)
val run_ooo : ?trace:Trace.t -> variant:Config.variant -> Uop.t list -> ooo_run

(** [compare_commits ~expected ~actual] — [Error msg] on the first
    position where the retirement stream deviates from the translated
    committed path (or on a length mismatch). *)
val compare_commits :
  expected:Uop.t list -> actual:Uop.t list -> (unit, string) result

(** Index of the first deviation (including a length mismatch), if any —
    the position {!compare_commits} reports on. *)
val first_mismatch : expected:Uop.t list -> actual:Uop.t list -> int option

(** [explain_divergence ~variant ~index uops] runs [uops] through the
    variant machine twice from reset: once to find the cycle at which
    retirement position [index] happens (the last retirement when
    [index] is past the end), then on a fresh traced machine up to that
    cycle, where it renders {!Bisect.slice_text} — the annotation
    printed alongside a shrunk differential-test counterexample. *)
val explain_divergence :
  ?window:int -> variant:Config.variant -> index:int -> Uop.t list -> string

(** One-line rendering of a µop for counterexample reports. *)
val uop_to_string : Uop.t -> string

(** The discrete-event simulation engine.

    Simulated processors are ordinary OCaml functions whose interactions
    with the shared machine go through effects: the engine handles each
    effect by computing its cost against the {!Mem} model and resuming the
    processor's continuation at the completion cycle.  Within one run all
    scheduling is deterministic (events ordered by cycle, ties broken by
    scheduling order; per-processor RNG streams derived from the run seed).

    Processor code must not leak continuations: a processor either runs to
    completion, blocks forever (which the engine reports as {!Deadlock} or
    {!Progress_failure} once no event remains), or is crash-stopped by a
    fault-injecting policy ({!Sched.Stall_forever}). *)

type ctx = {
  ptime : int array;  (** each processor's local clock *)
  rngs : Rng.t array;  (** each processor's private random stream *)
  stats : Stats.t;  (** the run's {!Api.record} samples *)
  metrics : Stats.t option;  (** the probe's metrics registry *)
  sink : Probe.sink option;  (** the probe's event sink *)
  notes : Probe.note option;  (** the probe's note receiver *)
  scratch : int array array;  (** each processor's {!Api.scratch} *)
  mutable last_progress : int;  (** latest {!Api.progress} cycle *)
}
(** One run's processor-side context: what the direct-call queries of
    {!Api} ([now], [self], [rand], [flip], [record], [progress],
    [scratch] and the probe annotations) read instead of performing an
    effect. *)

type args = {
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable pid : int;
      (** the running processor, or [-1] outside any run *)
  mutable ctx : ctx;  (** the running processor's run *)
  mutable spare : Evq.t list;
      (** empty, reset event queues left by this domain's finished runs *)
}
(** The domain-local slot record shared by {!Api} and the engine.

    [a], [b] and [c] carry the operands of the scheduling effects.  Every
    one of them is a {e constant} effect constructor (performing one
    allocates nothing): {!Api} writes the slots and performs; the engine
    reads them back inside the same synchronous dispatch.

    [pid] and [ctx] name the processor whose code is running.  The
    engine writes [pid] before every [continue] and [match_with], and
    [ctx] once per run; a run saves both on entry and restores them on
    exit, so a run nested inside another run's processor (or inside any
    host callback) leaves the outer context as it found it.  Nothing
    else can run between a write and the processor code that reads it.

    [spare] holds event queues for reuse.  A run takes the first (or
    creates one when none is spare), so a run nested inside another
    run's processor gets a queue of its own.  After a normal finish, and
    after its minor-word accounting, the run {!Evq.reset}s its queue and
    puts it back; a run that raises drops its queue.

    The record is domain-local because independent simulations run
    concurrently on {!Pqworkload.Pool} worker domains.  Only {!Api}
    should touch this. *)

val args : unit -> args
(** this domain's slot record *)

type _ Effect.t +=
  | Read : int Effect.t  (** addr in [a]; returns the value read *)
  | Write : unit Effect.t  (** addr in [a], value in [b] *)
  | Swap : int Effect.t  (** addr in [a], value in [b]; returns the old *)
  | Cas : bool Effect.t  (** addr in [a], expected in [b], desired in [c] *)
  | Faa : int Effect.t  (** addr in [a], delta in [b]; returns the old *)
  | Work : unit Effect.t
      (** local computation for [a] cycles (no memory traffic) *)
  | Wait_change : int Effect.t
      (** addr in [a], stale value in [b]: block until [mem.(addr) <> b];
          returns the observed new value.  Models spinning on a cached
          copy. *)
  | Now : int Effect.t
  | Self : int Effect.t
  | Rand : int Effect.t
  | Flip : bool Effect.t
  | Record : unit Effect.t
  | Progress : unit Effect.t
      (** The queries' effects.  No handler exists for them: {!Api}
          answers the queries by direct calls inside a run, and performs
          these only outside any run, where they raise
          [Effect.Unhandled]. *)

exception Deadlock of string
(** raised when runnable processors remain but no event is pending and no
    fault was injected (legacy, fault-free runs) *)

exception Cycle_limit of int
(** raised when simulated time exceeds [max_cycles] *)

exception Spin_limit of { proc : int; addr : int; wakeups : int }
(** raised when a single [Wait_change] is woken more than
    [max_wait_wakeups] times without its condition holding — a livelock
    diagnostic instead of a silent infinite loop *)

(** What the engine knew when it declared the run stuck: which processors
    had crashed, which were parked on a cache line waiting for a write
    that will never come, which were still spinning (and on what), and
    who last wrote each implicated line — typically the crashed lock
    holder. *)
type diagnosis = {
  at_cycle : int;
  stalled_for : int;  (** cycles since the last completed operation *)
  reason : string;  (** "watchdog expired" or "event queue drained" *)
  faulted : int list;
  parked : (int * int) list;  (** processor, line it waits on *)
  spinning : (int * Sched.op * int) list;
      (** processor, last op kind, last line touched (-1 = none) *)
  writers : (int * int) list;  (** implicated line, last writer *)
}

exception Progress_failure of diagnosis
(** raised (with [~watchdog] set, or whenever a fault was injected) in
    place of looping forever or of the bare {!Deadlock} *)

val pp_diagnosis : Format.formatter -> diagnosis -> unit

type result = {
  cycles : int;  (** cycle count when the last live processor finished *)
  events : int;  (** engine events executed (event-queue pops) *)
  stats : Stats.t;  (** samples recorded via {!Api.record} *)
  mem : Mem.t;  (** final memory, for post-run verification *)
  hits : int;
  misses : int;
  updates : int;
  queue_wait : int;
  faulted : int list;  (** processors crash-stopped by the policy *)
}

val harness_totals : unit -> int * int
(** [(events, minor_words)] accumulated across every completed run in
    the process since the last {!reset_harness_totals} — events executed
    and minor-heap words allocated between spawn and completion,
    including runs on Pool worker domains.  [test/test_alloc.ml]'s
    blocking rows divide the two into words per event; pqperf's traced
    sim workloads ([perf/simbench.ml]) read the event count. *)

val reset_harness_totals : unit -> unit

val run :
  ?machine:Machine.t ->
  ?seed:int ->
  ?policy:Sched.t ->
  ?probe:Probe.t ->
  ?max_cycles:int ->
  ?watchdog:int ->
  ?max_wait_wakeups:int ->
  nprocs:int ->
  setup:(Mem.t -> 'a) ->
  program:('a -> int -> unit) ->
  unit ->
  'a * result
(** [run ~nprocs ~setup ~program ()] allocates shared structures with
    [setup] (host-side, cycle 0), then runs [program shared pid] on each of
    the [nprocs] simulated processors until all non-crashed processors
    finish.

    [policy] (default {!Sched.fifo}) is consulted at every effect
    boundary and may inject bounded stalls, re-rank same-cycle events,
    pause a processor for an unbounded stretch or crash-stop it — the
    hooks schedule exploration and fault injection build on.  With the
    default policy, runs are bit-for-bit identical to the engine without
    the hook.

    [probe] (off by default) attaches an observability probe
    ({!Probe.t}): the engine streams every memory effect, park/wake and
    scheduler decision into its sink, and records CAS outcomes (plus
    whatever instrumented code sends through {!Api.count}) into its
    metrics registry.  Probes are strictly passive — attaching one
    changes no simulated result, and the default path performs no
    probe work at all.

    [watchdog] (off by default) aborts the run with {!Progress_failure}
    when no operation completes (no {!Api.progress} call) for
    that many cycles — turning a global deadlock or livelock into a
    structured verdict.  [max_wait_wakeups] (default 1e6) bounds the
    wakeups of any single [Wait_change] ({!Spin_limit} beyond it). *)

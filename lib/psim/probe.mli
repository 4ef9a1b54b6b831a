(** Observability hook for {!Sim.run}: event tracing and a metrics
    registry, both strictly passive.

    A probe never perturbs a run: emitting events and recording metrics
    consumes no simulated cycles, no RNG draws and pushes no engine
    events, so a probed run produces bit-identical results (stats, final
    time, event order) to the same run without the probe.  Within one
    seed the emitted event stream is itself deterministic, which is what
    makes trace files byte-reproducible. *)

(** What a memory-effect event was.  CAS is split by outcome so failure
    rates fall out of counting. *)
type mem_kind = Read | Write | Swap | Cas_ok | Cas_fail | Faa

val mem_kind_name : mem_kind -> string

(** The event vocabulary.

    [Mem_op] is emitted by the engine for every costed memory effect:
    [addr] the line, [node] its home memory module, [issued] the cycle
    the processor issued it (the event's [time] is its completion).
    [Wake] is emitted on {e every} successful {!Sim.Wait_change} return
    — the waiter observed another processor's write, a synchronization
    edge the race sanitizer consumes — and is preceded by [Park] only
    when the processor first settled onto its cached copy.  [Stall] and
    [Crash] record scheduler-policy decisions (bounded pause until a
    cycle; crash-stop).  [Mark] is an instant
    annotation from instrumented library code ({!Api.mark}); [Span] a
    completed timed interval ({!Api.timed} under a probe). *)
type ev =
  | Mem_op of { kind : mem_kind; addr : int; node : int; issued : int }
  | Park of { addr : int }
  | Wake of { addr : int }
  | Stall of { until : int }
  | Crash
  | Mark of { name : string; arg : int }
  | Span of { name : string; start : int }

(** Tags of the lock-event note protocol emitted on the {!note} channel
    by the [Pqsync] locks (and mirrored by the hostpq [Hlock] wrapper
    for host-side traces).  For every event, operand [a] is the lock's
    identity — the declare_sync'd lock word's address, symbolic via
    {!Mem.name_of} — and [b] is 1 when the acquisition was contended
    (observed a holder / joined a non-empty queue), else 0.

    [acquire] is emitted {e after} ownership is obtained, [release] at
    the start of the release (still owning), [try_fail] on a failed
    non-blocking attempt — which therefore never implies ownership, the
    distinction the lock-order analyzer ({!Pqanalysis.Lockdep}) relies
    on.  The namespace is disjoint from the workload op-note tags
    (1..7, [Pqcheck.Monitor.Tag]): the two protocols share the one
    allocation-free channel, so any note consumer dispatching on tags
    must ignore tags it does not know. *)
module Lock_tag : sig
  val acquire : int
  val release : int
  val try_fail : int
end

type sink = { emit : proc:int -> time:int -> ev -> unit }

type note = { note : proc:int -> time:int -> tag:int -> a:int -> b:int -> unit }
(** Receiver for the all-integer annotation channel ({!Api.note}): a
    [tag] naming the kind of annotation plus two operands, stamped with
    the noting processor and its local cycle count.  Unlike [sink],
    which carries strings and per-event records meant for offline trace
    files, notes are built for {e online} consumers — streaming
    invariant monitors that fold each note into O(1) state as it
    arrives — so the channel allocates nothing per event.  Notes from
    one processor arrive in its program order; across processors they
    arrive in engine dispatch order (nondecreasing simulated time). *)

type t = {
  sink : sink option;
  metrics : Stats.t option;
  notes : note option;
}
(** [sink] receives the event stream; [metrics] receives the named
    counters/histograms recorded via {!Api.count} and by the engine
    (CAS outcome counts); [notes] receives the integer annotation
    stream ({!Api.note}).  Any may be absent. *)

val make : ?sink:sink -> ?metrics:Stats.t -> ?notes:note -> unit -> t

val active : unit -> bool
(** True while a probed {!Sim.run} is executing in the calling domain;
    read via {!Api.probing}.  Instrumented code must consult it before
    doing any probe-only work so that unprobed runs pay nothing.  The
    flag is domain-local, so concurrent simulations in sibling domains
    (parallel sweeps) don't observe each other's probes. *)

val set_active : bool -> unit
(** Set by {!Sim.run} for the duration of a probed run (engine only). *)

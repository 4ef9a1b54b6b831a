(** Processor-side view of the machine.

    These functions may only be called from code running inside
    {!Sim.run}'s [program].  They are the entire instruction set available
    to algorithm implementations: reads, writes, register-to-memory swap,
    compare-and-swap and fetch-and-add (the primitives the paper assumes),
    plus local work, time, processor id, per-processor randomness and
    latency recording.

    Only the scheduling calls ([read], [write], [swap], [cas], [faa],
    [work], [wait_change]) perform an engine effect.  The queries ([now],
    [self], [rand], [flip], [record], [progress] and the probe
    annotations) are plain calls that read the running processor's
    context ({!Sim.args}); outside any run they raise [Effect.Unhandled]
    as the effects once did. *)

val read : int -> int
val write : int -> int -> unit

val swap : int -> int -> int
(** [swap addr v] atomically stores [v] and returns the old value. *)

val cas : int -> expected:int -> desired:int -> bool
val faa : int -> int -> int

val work : int -> unit
(** [work n] spends [n] cycles of local computation. *)

val wait_change : int -> int -> int
(** [wait_change addr v] blocks until [addr] holds a value other than [v]
    and returns it; models spinning on a locally cached copy. *)

val await : int -> until:(int -> bool) -> int
(** [await addr ~until] spins (via {!wait_change}) until [until] holds of
    the value at [addr], and returns that value. *)

val now : unit -> int
val self : unit -> int

val rand : int -> int
(** [rand n] is uniform in [0, n-1] from this processor's private stream. *)

val flip : unit -> bool
val record : string -> int -> unit

val progress : unit -> unit
(** mark the completion of a high-level operation; feeds {!Sim.run}'s
    watchdog.  A no-op unless the run enables one. *)

val scratch : int -> int array
(** [scratch n] is the running processor's private scratch array, at
    least [n] long.  It is host memory outside the simulated machine, as
    free as a register file: using it costs no cycles, performs no
    effect, and no other processor ever sees it.  One array per
    processor per run, shared by every structure the processor operates
    on, so code holding live data in it must not call into another
    structure that uses it.  Asking for more than its current length
    copies the contents into a larger array: re-fetch it after any call
    that may grow it rather than holding it across one. *)

val probing : unit -> bool
(** whether the current run carries a probe ({!Sim.run}'s [?probe]).
    Instrumentation must guard any probe-only work (extra [now] calls,
    key formatting) behind this so unprobed runs pay nothing. *)

val count : string -> int -> unit
(** [count key v] records a sample into the probe's metrics registry;
    free when {!probing} is false.  Use the count
    of samples as a counter and their values as the distribution. *)

val mark : string -> int -> unit
(** [mark name arg] drops an instant annotation into the probe's event
    trace; free when {!probing} is false. *)

val note : int -> int -> int -> unit
(** [note tag a b] delivers an all-integer annotation to the probe's
    [notes] receiver ({!Probe.note}); free when {!probing} is false.
    The streaming channel for online invariant monitors: no strings,
    no allocation, folded into monitor state as it arrives. *)

val timed : string -> (unit -> 'a) -> 'a
(** [timed key f] runs [f] and records its latency in cycles under
    [key].  Under a probe, additionally emits a completed span event. *)

val timed_since : string -> int -> unit
(** [timed_since key t0] closes an interval opened at cycle [t0] (read
    with {!now}) exactly as {!timed} closes its own: it records
    [now () - t0] under [key] and, under a probe, emits the span.  For
    hot loops, where [timed]'s closure would be allocated per call. *)

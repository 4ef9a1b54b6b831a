(** A [Mutex] wrapper speaking the simulator's lock-note protocol, so
    the host queues' locking feeds the same lock-order analyzer
    ([Pqanalysis.Lockdep]) as the simulated ones.

    Untraced (the default), an operation costs the underlying [Mutex]
    call plus one load.  With a {!tracer} installed, every ownership
    transition emits one event mirroring {!Pqsim.Probe.Lock_tag}:
    [acquire] {e after} ownership (operand [b] 1 when the fast-path
    try-lock failed first, i.e. contended), [release] at the {e start}
    of the release (still owning), [try_fail] on a failed {!try_lock}
    (never ownership).  Operand [a] is the lock's creation-ordered
    {!id}, resolvable to a symbol via {!label_of} — the host analogue
    of the simulator's labelled lock word.

    Hostpq depends on nothing, so the tag values are restated locally;
    a unit test pins them equal to {!Pqsim.Probe.Lock_tag}'s. *)

type t

val tag_acquire : int
val tag_release : int
val tag_try_fail : int

val create : ?name:string -> unit -> t
(** [name] is the symbol {!label_of} resolves the lock's {!id} to once
    the lock has emitted a traced event *)

val id : t -> int
val name : t -> string option

val label_of : int -> string option
(** resolve a lock {!id} back to its name — the [?label] argument for
    [Lockdep.analyze] over a host trace.  Only locks that emitted an
    event under the current (or last) tracer resolve: names are recorded
    by traced events, so untraced code keeps no table that grows with
    every lock it creates. *)

val lock : t -> unit
val try_lock : t -> bool
val unlock : t -> unit

type tracer = {
  trace : proc:int -> time:int -> tag:int -> a:int -> b:int -> unit;
}
(** the exact shape of [Lockdep.feed], so an observation buffer plugs
    in directly.  [proc] is the calling domain's id; [time] a shared
    tick.  Events are emitted under an internal lock, so they arrive
    serialized in a total order consistent with every domain's program
    order — the analyzer's stream assumption — and the consumer needs
    no synchronization of its own. *)

val set_tracer : tracer option -> unit
(** install (or clear, with [None]) the process-global tracer and
    reset the tick; installing one also forgets the previous trace's
    names.  Tracing perturbs timing: it is a verification mode, not a
    benchmark mode. *)

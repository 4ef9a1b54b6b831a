(** Event queue for the discrete-event engine.

    A ladder/calendar queue: a sliding window of time-indexed buckets
    (amortized O(1) for the engine's near-monotone event stream) backed
    by a binary heap for far-future events, over an arena of parallel
    arrays indexed by event id.  Events pop in the same strict total
    order the original binary heap used — (time, weight,
    sequence-number) — so the two structures are observably identical.
    The weight is a scheduling-policy tie-break rank among same-cycle
    events (see {!Sched}); the sequence number makes the remaining
    ordering deterministic: events scheduled earlier run earlier. *)

type event = private {
  mutable time : int;
  mutable weight : int;
  mutable seq : int;
  mutable pid : int;
      (** [>= 0] for an engine resume event pushed by {!push_resume};
          [-1] for a closure event pushed by {!push} *)
  mutable v : int;  (** immediate resume value for a {!push_resume} event *)
  mutable run : unit -> unit;
      (** the thunk of a closure event; a no-op for a resume event *)
}
(** A popped event.  Each queue owns one such record: {!pop_exn} copies
    the earliest event into it and returns it, without allocating.

    Lifetime: the record returned by {!pop_exn}/{!pop}/{!drain} holds
    the popped event only until the next pop on the same queue, which
    overwrites it.  Read its fields (or copy them) before popping
    again. *)

type t

val create : unit -> t

val push : t -> time:int -> ?weight:int -> (unit -> unit) -> unit
(** [push t ~time ?weight run] schedules [run] at cycle [time]; among
    same-cycle events, lower [weight] (default 0) fires first. *)

val push_resume : t -> time:int -> pid:int -> v:int -> unit
(** [push_resume t ~time ~pid ~v] schedules (at weight 0, without
    allocating a closure) the engine's resumption of processor [pid]
    with immediate value [v]: the engine's dispatch tests
    [event.pid >= 0] and continues the processor's saved continuation
    itself instead of calling [event.run]. *)

exception Empty

val pop_exn : t -> event
(** [pop_exn t] removes and returns the earliest event without
    allocating; raises {!Empty} if the queue is empty.  The engine's hot
    path — callers test {!is_empty} first rather than handling the
    exception.  The returned record is overwritten by the next pop (see
    {!event}). *)

val pop : t -> event option
(** [pop t] removes and returns the earliest event, or [None] if empty.
    Same representation — and same lifetime rules — as {!pop_exn}, plus
    one [Some] cell. *)

val drain : t -> (event -> unit) -> unit
(** [drain t f] pops every queued event in order, applying [f] to each
    ([f] may {!push} more; draining continues until truly empty).  The
    record passed to [f] is overwritten when the next one pops. *)

val is_empty : t -> bool
val length : t -> int

val pops : t -> int
(** Number of events this queue has popped since {!create} or the last
    {!reset} (the engine's events-executed counter). *)

val reset : t -> unit
(** [reset t] makes an empty queue behave exactly like a fresh
    {!create}: sequence numbers restart at 0, {!pops} at 0, and event
    ids are handed out again from the first.  It keeps the arrays the
    queue has grown, so reusing a queue allocates nothing, and it
    overwrites every thunk the queue still holds (in its arena and in
    the popped-event record) with a no-op, so nothing a finished run
    scheduled stays reachable through the queue.  {!Sim.run} resets its
    queue after a normal finish and keeps it for the next run on the
    same domain.  Raises [Invalid_argument] if the queue is not
    empty. *)

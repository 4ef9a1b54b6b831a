(** Event queue for the discrete-event engine.

    A ladder/calendar queue: a sliding window of time-indexed buckets
    (amortized O(1) for the engine's near-monotone event stream) backed
    by a binary heap for far-future events, over one slot per processor.
    The engine keeps at most one pending event per processor, so the
    queue is keyed by processor id: a processor's slot holds its one
    event, and a push for a processor whose event is still pending
    raises.  Events pop in the same strict total order the original
    binary heap used — (time, weight, sequence-number) — so the two
    structures are observably identical.  The weight is a
    scheduling-policy tie-break rank among same-cycle events (see
    {!Sched}); the sequence number makes the remaining ordering
    deterministic: events scheduled earlier run earlier. *)

(** What the engine does when the event pops. *)
type kind =
  | Resume  (** continue the processor's saved continuation with [v] *)
  | Check  (** run the processor's pending [Wait_change] check *)

type event = private {
  mutable time : int;
  mutable weight : int;
  mutable seq : int;
  mutable pid : int;  (** the processor the event belongs to *)
  mutable v : int;  (** immediate resume value of a {!Resume} event *)
  mutable kind : kind;
}
(** A popped event.  Each queue owns one such record: {!pop_exn} copies
    the earliest event into it and returns it, without allocating.

    Lifetime: the record returned by {!pop_exn} holds the popped event
    only until the next pop on the same queue, which overwrites it.
    Read its fields (or copy them) before popping again. *)

type t

val create : unit -> t

val push : t -> kind:kind -> time:int -> weight:int -> pid:int -> v:int -> unit
(** [push t ~kind ~time ~weight ~pid ~v] schedules processor [pid]'s
    event at cycle [time]; among same-cycle events, lower [weight] fires
    first.  Raises [Invalid_argument] if [pid] is negative or already
    has a pending event. *)

val push_resume : t -> time:int -> pid:int -> v:int -> unit
(** [push_resume t ~time ~pid ~v] is [push t ~kind:Resume ~time
    ~weight:0 ~pid ~v]: the default policy's resumption of processor
    [pid] with immediate value [v]. *)

exception Empty

val pop_exn : t -> event
(** [pop_exn t] removes and returns the earliest event without
    allocating, and frees its processor's slot for the next push;
    raises {!Empty} if the queue is empty.  The engine's hot path —
    callers test {!is_empty} first rather than handling the exception.
    The returned record is overwritten by the next pop (see
    {!event}). *)

val is_empty : t -> bool

val pops : t -> int
(** Number of events this queue has popped since {!create} or the last
    {!reset} (the engine's events-executed counter). *)

val reset : t -> unit
(** [reset t] makes an empty queue behave exactly like a fresh
    {!create}: sequence numbers restart at 0 and {!pops} at 0.  It keeps
    the arrays the queue has grown, so reusing a queue allocates
    nothing.  {!Sim.run} resets its queue after a normal finish and
    keeps it for the next run on the same domain.  Raises
    [Invalid_argument] if the queue is not empty. *)

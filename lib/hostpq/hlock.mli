(** The paper's lock on real hardware — test-and-test-and-set with
    randomized exponential backoff — speaking the simulator's lock-note
    protocol, so the host queues' locking feeds the same lock-order
    analyzer ([Pqanalysis.Lockdep]) as the simulated ones.

    The lock is one atomic word with three states: 0 free, 1 held, 2
    held with a domain possibly parked.  {!try_lock} tests the word and
    then compare-and-sets it from 0 to 1.  {!lock} tries once; if that
    fails it runs test-and-test-and-set rounds, each pausing for a
    uniform random 1..window [Domain.cpu_relax] calls drawn from
    {!Local_rand}, the window doubling from {!backoff_first} to
    {!backoff_limit} as in [Pqsync.Backoff].  After a fixed number of
    rounds the contender parks.  A lock builds no [Mutex] or
    [Condition] of its own: parkers wait in one of {!buckets} shared
    (mutex, condition) pairs, chosen by the lock's {!id} modulo
    {!buckets} and built by the process's first parker.  Under the
    bucket's mutex a parker exchanges the word to 2 and waits on the
    bucket's condition until that exchange returns 0.
    {!unlock} exchanges the word to 0 and, only if it read 2, broadcasts
    under the same mutex.  No wake-up is lost: a parker's exchange and
    its wait both happen under the mutex, so an unlock's broadcast
    cannot fall between them.  The broadcast wakes every parker in the
    bucket, since a bucket serves several locks and a signal could wake
    only a parker of another lock.  A woken domain exchanges 2 back in
    before waiting again, so a parker of another lock, or one whose lock
    was taken again, leaves that lock's word at 2 and its next holder's
    unlock broadcasts.  The buckets are never on the fast path:
    untraced, an uncontended [lock]/[unlock] pair costs one load and one
    CAS plus one exchange, and allocates nothing.
    The lock is not fair: a spinning domain may take it ahead of a
    parked one.

    With a {!tracer} installed, every ownership transition emits one
    event mirroring {!Pqsim.Probe.Lock_tag}: [acquire] {e after}
    ownership (operand [b] 1 when the first try failed, i.e.
    contended), [release] at the {e start} of the release (still
    owning), [try_fail] on a failed {!try_lock} (never ownership).
    Operand [a] is the lock's creation-ordered {!id}, resolvable to a
    symbol via {!label_of} — the host analogue of the simulator's
    labelled lock word.

    Hostpq depends on nothing, so the tag values and the backoff window
    bounds are restated locally; a unit test pins them equal to
    {!Pqsim.Probe.Lock_tag}'s and [Pqsync.Backoff]'s. *)

type t

val tag_acquire : int
val tag_release : int
val tag_try_fail : int

val backoff_first : int
(** the first backoff window, 4 spins *)

val backoff_limit : int
(** the widest backoff window, 512 spins *)

val buckets : int
(** the number of shared parking buckets; locks whose {!id}s are equal
    modulo [buckets] park in the same one *)

val no_index : int
(** the [index] of a lock that is not one of an array's *)

val create : ?name:string -> index:int -> unit -> t
(** [name] is the symbol {!label_of} resolves the lock's {!id} to once
    the lock has emitted a traced event; with an [index] [i >= 0] the
    symbol is [name ^ "[i]"], and with {!no_index} it is [name].
    Construction stores both as they are and formats nothing: the
    symbol is built when a trace first records the lock. *)

val create_padded : ?name:string -> index:int -> unit -> t
(** {!create}, with the lock's state word in a {!Padded} block of its
    own, so no other datum shares its cache lines.  It costs 17 words
    more than {!create}.  {!Multi_pq}'s slots use it: there are a few of
    them and each is hot.  {!Bin_pq}'s 1,024 bins keep the compact
    lock. *)

val id : t -> int

val name : t -> string option
(** the lock's symbol, formatted on each call *)

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

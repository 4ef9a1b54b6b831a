(** Bounded retry with decorrelated-jitter exponential backoff for
    host-side CAS loops.

    Every optimistic loop in this library makes one [t] per operation,
    on its first failed attempt ({!failed}), and calls {!once} before
    each retry: failed attempts back off exponentially (capped), so
    contended loops yield the core instead of hammering the line, and a
    configured attempt budget turns a loop that cannot win — a
    livelock, or a peer stalled at just the wrong time — into a
    diagnosable {!Gave_up} instead of a silent hang.  The default budget
    is effectively unbounded.

    Waits are {e jittered}: each is drawn uniformly from
    [\[base, 3 * previous\]] (capped), from the calling domain's
    {!Local_rand} stream: operations on different domains never share a
    sequence, and nothing on the path writes state shared between
    domains.
    Deterministic doubling would keep the losers of one collision in
    lockstep, re-colliding on every later attempt; decorrelated jitter
    spreads them while the expected wait still grows geometrically. *)

exception Gave_up of { op : string; attempts : int }

type t

val start : ?max_attempts:int -> string -> t
(** [start op] begins an operation's retry budget; [op] names it in
    {!Gave_up}.  [max_attempts] defaults to [max_int] (never give up). *)

val once : t -> unit
(** record a failed attempt: raise {!Gave_up} past the budget, otherwise
    spin briefly (jittered, exponentially longer in expectation,
    capped). *)

val failed : ?max_attempts:int -> string -> t option -> t option
(** [failed op r] records a failed attempt of [op] on [r] with {!once},
    first {!start}ing [r] when it is [None].  A loop threads the result
    into its next attempt, so an operation that never fails allocates
    no [t]. *)

val attempts : t -> int

val spin : t -> int
(** the wait (in [cpu_relax] rounds) the next failed attempt will spin:
    observable backoff state for statistical tests *)

(** Bounded retry with decorrelated-jitter exponential backoff for
    host-side CAS loops.

    Every optimistic loop in this library calls {!once} after each
    failed attempt: failed attempts back off exponentially (capped), so
    contended loops yield the core instead of hammering the line, and a
    configured attempt budget turns a loop that cannot win — a
    livelock, or a peer stalled at just the wrong time — into a
    diagnosable {!Gave_up} instead of a silent hang.

    The retry state is two [int]s that the loop carries as arguments:
    the number of failed attempts so far and the next wait, which starts
    at {!first}.  A retry step allocates nothing, whether it is an
    operation's first failure or its hundredth.

    Waits are {e jittered}: each is drawn uniformly from
    [\[first, 3 * previous\]] (capped at 1024), from the calling domain's
    {!Local_rand} stream: operations on different domains never share a
    sequence, and nothing on the path writes state shared between
    domains.
    Deterministic doubling would keep the losers of one collision in
    lockstep, re-colliding on every later attempt; decorrelated jitter
    spreads them while the expected wait still grows geometrically. *)

exception Gave_up of { op : string; attempts : int }

val first : int
(** the wait (in [cpu_relax] rounds) of an operation's first failed
    attempt *)

val once : max_attempts:int -> string -> failed:int -> int -> int
(** [once ~max_attempts op ~failed spin] records failed attempt number
    [failed] (counting from 1) of [op]: it raises {!Gave_up} once
    [failed] reaches [max_attempts] ([max_int] never gives up), and
    otherwise spins [spin] rounds and returns the next wait, jittered,
    exponentially longer in expectation and capped.  [op] names the
    operation in {!Gave_up}. *)

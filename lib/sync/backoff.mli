(** Randomised exponential backoff for retry loops on the simulated
    machine.  The window is a plain value threaded through the retry
    loop, so backing off allocates nothing:

    {[
      let rec go window =
        if attempt () then ... else go (Backoff.pause window)
      in
      go Backoff.first
    ]} *)

val first : int
(** the initial window, 4 cycles *)

val pause : int -> int
(** [pause window] spins locally for a random duration within [window]
    and returns the widened window (doubling, capped at 512 cycles). *)

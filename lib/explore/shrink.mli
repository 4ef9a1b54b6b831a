(** Greedy minimization of a violating schedule.

    Exploration reports are only useful if the witness is readable: a
    raw random schedule perturbs dozens of steps, nearly all of them
    irrelevant.  [shrink] repeatedly simplifies the schedule — truncate
    the tail, restore individual decisions to the undisturbed default,
    halve surviving delays — re-running the violation predicate after
    each edit and keeping edits that preserve the violation, until a
    fixpoint (or the run budget) is reached. *)

val shrink : violates:(Schedule.t -> bool) -> Schedule.t -> Schedule.t * int
(** [shrink ~violates s] assumes [violates s] already holds and returns
    [(s', runs_spent)] with [violates s'] still true and [s'] no larger
    than [s] (usually far smaller).  At most 400 predicate evaluations,
    i.e. re-runs of the simulator, are spent. *)

(** Adversarial scheduling policies for exploration.

    Each policy here produces a {!Pqsim.Sched.t} the engine consults at
    every effect boundary.  All are deterministic functions of their
    seed, and all are meant to be wrapped in {!record} so the decisions
    actually taken can be replayed and shrunk as a {!Schedule.t}. *)

type recording = {
  policy : Pqsim.Sched.t;  (** pass this to the engine *)
  schedule : unit -> Schedule.t;
      (** the decisions taken so far, as a replayable schedule *)
}

val record : seed:int -> Pqsim.Sched.t -> recording
(** [record ~seed p] wraps [p], logging every decision.  [seed] is the
    workload seed the run uses, stored so the schedule is standalone. *)

val random : seed:int -> Pqsim.Sched.t
(** Seeded preemption fuzzing: at each step, with probability 1/4 stall
    the processor for a uniform 1..300 cycles; always draw a tie-break
    weight uniform in 0..3 so same-cycle races are shuffled too.  Delay
    magnitudes comparable to a queue access move whole operations past
    each other. *)

val pct : seed:int -> nprocs:int -> Pqsim.Sched.t
(** PCT-style priority scheduling (Burckhardt et al., ASPLOS 2010)
    adapted to a time-based engine: every processor gets a random
    priority rank; each of its operations is stalled 50 cycles per rank
    below the top, so high-priority processors systematically race
    ahead.  At 2 random change points within the first 256 steps, the
    processor scheduling at that step is demoted below everyone — the
    priority inversions that catch bugs of preemption depth 3.
    @raise Invalid_argument when [nprocs < 1] *)

(** {1 The named schedules}

    The one schedule vocabulary of the gates: the engine's own order
    plus the two generators above.  The audit, the chaos matrix and the
    rank-error figure all draw from it. *)

type name = Default | Pct | Random

val names : name list
(** [[Default; Pct; Random]] *)

val string_of_name : name -> string
(** ["default"], ["pct"], ["random"] *)

val name_of_string : string -> (name, string) result
(** the inverse of {!string_of_name}; the error lists the valid set *)

val named : name -> seed:int -> nprocs:int -> Pqsim.Sched.t option
(** [None] (the engine's FIFO order) for [Default], else {!pct} or
    {!random} at [seed] *)

(** A schedule: the complete scheduling-policy input of one simulator run.

    The engine consults its policy once per effect boundary, in a
    deterministic order (see {!Pqsim.Sched}).  A run is therefore fully
    determined by the workload seed plus the sequence of decisions the
    policy returned — which is exactly what this type stores.  Replaying
    a schedule reproduces the run bit-for-bit; editing it (zeroing a
    delay, truncating the tail) yields a nearby schedule, which is what
    the {!Shrink} minimizer exploits. *)

type t = {
  seed : int;  (** workload seed (fixes each processor's op script) *)
  decisions : Pqsim.Sched.decision array;
      (** decision at each step; steps beyond the array proceed
          undisturbed ({!Pqsim.Sched.continue_}) *)
}

val empty : seed:int -> t
(** the undisturbed schedule: plain deterministic FIFO order. *)

val decision : t -> int -> Pqsim.Sched.decision
(** [decision t i] is the decision at step [i]
    ({!Pqsim.Sched.continue_} past the end). *)

val replay : t -> Pqsim.Sched.t
(** a pure policy that replays the recorded decisions by step index. *)

val length : t -> int

val perturbations : t -> int
(** number of steps whose decision differs from
    {!Pqsim.Sched.continue_} — the schedule's size in the shrinking
    order. *)

val pp : Format.formatter -> t -> unit
(** compact, reproducible rendering: the seed plus every perturbed step
    as [step:+delay/weight]. *)

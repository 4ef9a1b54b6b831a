(** Fault plans: descriptions of a single injected failure, compiled into
    engine scheduling policies (and memory degradation) for one run.

    Every plan is a deterministic function of its seed, so a faulted run
    is reproducible bit-for-bit: the same (plan, seed, workload seed)
    picks the same victim and the same injection point. *)

type t =
  | Crash_random  (** crash-stop a random processor at a random boundary *)
  | Crash_lock_holder
      (** crash-stop a random processor right after one of its first few
          atomic operations — for the lock-based queues that is, with
          high probability, the completion of a lock acquisition, so the
          victim dies holding the lock *)
  | Pause_resume of { pause : int }
      (** stall a random processor for [pause] cycles, then let it
          resume: a finite fault every algorithm must survive *)
  | Slow_node of { node : int; factor : int }
      (** degrade one memory module's service time by [factor]x: a
          finite, global slowdown every algorithm must survive *)

val default_pause : int
val default_slow_factor : int

val all : t list
(** the four standard plans with default parameters. *)

val name : t -> string
(** short stable identifier: crash-one, crash-lock, pause, slow-node. *)

val names : string list
(** sorted names of {!all}; the valid input set of {!of_string} *)

val of_string : string -> (t, string) result
(** resolves a {!name}; unknown names report the sorted valid set,
    mirroring [Pqcore.Registry] *)

val finite : t -> bool
(** a finite plan's fault ends by itself; failing to terminate under one
    is a bug, never an acceptable verdict. *)

type armed = {
  policy : Pqsim.Sched.t;  (** pass to {!Pqsim.Sim.run} *)
  victim : int option;  (** the processor the fault targets, if any *)
  trigger : string;  (** human-readable injection point *)
}

val arm : t -> seed:int -> nprocs:int -> armed

val degrade : t -> Pqsim.Mem.t -> unit
(** apply the plan's memory-side configuration (no-op for policy-only
    plans); call from the run's [setup]. *)

(** Running one schedule against one queue and checking the result.

    The driver fixes the exploration workload shape (the paper's
    coin-flip op mix, sized small enough for the Wing & Gong
    linearizability search)
    and turns a {!Schedule.t} into a verdict: build the queue from the
    registry, run the workload under the schedule's policy, capture the
    invoke/response history, and classify it. *)

type config = {
  queue : string;  (** registry name *)
  nprocs : int;
  npriorities : int;
  ops_per_proc : int;
  max_states : int;  (** search bound for the linearizability check *)
}

val config :
  ?nprocs:int ->
  ?npriorities:int ->
  ?ops_per_proc:int ->
  ?max_states:int ->
  string ->
  config
(** defaults: 4 processors, 8 priorities, 5 ops/processor, 300k states
    — histories of ~20 overlapping ops, dense enough to race, small
    enough to check in milliseconds. *)

val history : config -> policy:Pqsim.Sched.t -> seed:int -> Pqcheck.History.t
(** record one run under [policy]. *)

val check : config -> Schedule.t -> Verdict.t
(** replay a schedule and classify the history it produces. *)

(** Phased scenarios on the host (real multicore) queues: the same
    {!Pqbenchlib.Scenario} phase interpreter driven by real domains,
    with an exact multiset conservation check over every inserted
    (priority, payload) pair.  Host interleavings are nondeterministic;
    the per-domain op streams (seeded from [(seed, pid)]) are not, and
    conservation is insensitive to interleaving. *)

val queues : (string * (module Hostpq.Host_intf.S)) list
val queue_names : string list

val queue_of_string : string -> (module Hostpq.Host_intf.S)
(** @raise Invalid_argument naming the valid set *)

type outcome = {
  queue : string;
  scenario : string;
  inserts : int;
  deletes : int;
  empties : int;
  leftover : int;
  conserved : (unit, string) result;
}

val soak :
  queue:string ->
  scenario:Pqbenchlib.Scenario.t ->
  nprocs:int ->
  npriorities:int ->
  ops_per_proc:int ->
  seed:int ->
  outcome
(** run a phased scenario on [nprocs] domains (the caller's plus
    [nprocs - 1] spawned), then drain and check conservation.
    @raise Invalid_argument on a {!Pqbenchlib.Scenario.sim_only}
    scenario *)

val run : Format.formatter -> Driver.config -> string list
(** the chaos command's [--host] arm: {!soak} every host queue through
    each of the config's phased scenarios x seeds on [nprocs] domains
    ([ops_per_proc * soak] ops each), print one line per soak, and
    return one gate error per soak that broke conservation *)

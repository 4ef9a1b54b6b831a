(** Dynamic data-race sanitizer over the simulator's probe stream.

    A vector-clock happens-before detector in the FastTrack tradition,
    adapted to the simulated machine.  Happens-before edges come from:

    - {b program order} on each simulated processor;
    - {b RMW release/acquire}: swap, CAS (either outcome) and FAA
      acquire the line's release clock; the mutating ones release the
      processor's clock into it.  Successful CAS/swap/FAA pairs on lock
      and publication words are what carries MCS/TAS lock ownership
      transfer;
    - {b declared synchronization lines}: plain reads of a line marked
      with {!Pqsim.Mem.declare_sync} acquire its release clock (sound
      under the simulator's sequentially consistent memory), and the
      line's accesses are never race candidates — the moral analogue of
      C11 atomics.  Plain writes release into every line's clock;
    - {b wake-after-wait}: a completed [Wait_change] ({!Pqsim.Probe.Wake})
      acquires the watched line's clock.

    Two accesses to the same undeclared line from different processors,
    at least one a write, not both RMWs, and unordered by the above, are
    reported as a race with the line's symbolic label
    ({!Pqsim.Mem.name_of}), both access sites and the detecting
    processor's vector clock.

    There is no allowlist: every race {!Audit} sees is a finding.  The
    three quiescently consistent queues keep their quiescence in
    operation ordering, not in data races (DESIGN.md §13). *)

type dir = R | W

type access = {
  proc : int;
  kind : Pqsim.Probe.mem_kind;
  time : int;
  sync : bool;
}

type race = {
  addr : int;
  label : string option;
  first : access;
  second : access;
  second_clock : int array;
  first_epoch : int;
  count : int;
}

val dir_of : Pqsim.Probe.mem_kind -> dir
val dir_name : dir -> string

(** {1 Event capture} *)

type obs
(** a passive buffering sink for one (or more) probed runs *)

val observer : unit -> obs

val sink : obs -> Pqsim.Probe.sink
(** the buffering event sink, for composing with other analyzers in one
    probe ({!Audit}) *)

val probe : ?metrics:Pqsim.Stats.t -> obs -> Pqsim.Probe.t
(** a probe with just {!sink}, for {!Pqsim.Sim.run} /
    {!Pqbenchlib.Workload.run} *)

val events : obs -> int

val analyze : mem:Pqsim.Mem.t -> obs -> race list
(** [analyze ~mem obs] runs the detector over the captured stream.
    [mem] supplies {!Pqsim.Mem.is_sync} and the labels; pass the memory
    returned by the run that produced [obs].  Races are deduplicated by
    (line, direction signature) with an occurrence count, and sorted by
    address. *)

(** {1 Reporting} *)

val pp_race : Format.formatter -> race -> unit

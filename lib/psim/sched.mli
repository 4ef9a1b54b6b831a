(** Pluggable scheduling policy for the discrete-event engine.

    By default the engine is a deterministic FIFO: events fire in
    (cycle, scheduling-order) order and an operation's continuation
    resumes exactly at its completion cycle.  A policy turns both knobs
    into per-decision hooks, consulted once at every effect boundary —
    each time a processor's continuation is about to be rescheduled:

    - {b delay injection}: the policy may stall the processor for extra
      cycles after the operation completes, perturbing the order in
      which its subsequent shared-memory operations are issued;
    - {b tie-breaking}: the policy assigns a weight; events scheduled
      for the same cycle fire in increasing weight order (scheduling
      order breaks remaining ties), so same-cycle races become policy
      decisions instead of fixed FIFO order;
    - {b fault injection}: the policy may {!Pause} the processor for an
      unbounded stretch, or {!Stall_forever} crash-stop it — the memory
      operation whose completion was being scheduled has already taken
      effect, so a processor crashed right after acquiring a lock holds
      it forever, exactly the failure the paper's blocking algorithms
      cannot survive.

    Policies are ordinary closures and may carry state (random streams,
    priority tables, recorded traces).  The engine consults the policy
    in a deterministic order, so a stateful policy still yields
    bit-for-bit reproducible runs.  {!Pqexplore} builds schedule
    exploration (fuzzing, PCT, bounded exhaustive search) on top of
    this hook; crash-stop and pause faults are policies too. *)

(** the kind of operation whose completion is being scheduled *)
type op = Read | Write | Swap | Cas | Faa | Work | Wait

type info = {
  proc : int;  (** processor being rescheduled *)
  time : int;  (** the operation's natural completion cycle *)
  step : int;  (** global decision index (0, 1, 2, ... within a run) *)
  op : op;
}

type decision = {
  delay : int;  (** extra stall cycles, added to [time]; clamped at 0 *)
  weight : int;  (** tie-break rank among same-cycle events (lower first) *)
}

type verdict =
  | Run of decision  (** resume, possibly delayed / re-ranked *)
  | Pause of int
      (** stall this processor for the given number of cycles (may be
          arbitrarily large) and then resume undisturbed *)
  | Stall_forever
      (** crash-stop: the processor never takes another step.  Its last
          memory operation has already been applied. *)

type t = info -> verdict

val continue_ : decision
(** [{ delay = 0; weight = 0 }] — proceed undisturbed. *)

val run_ : verdict
(** [Run continue_] — the always-benign verdict. *)

val fifo : t
(** the default policy: never delays, never re-ranks, never faults; with
    it the engine behaves exactly as it did before policies existed. *)

(** The adaptive meta-queue: a {!Pqcore.Pq_intf.t} delegating to one of
    two backend registry queues, with safe migration between them at
    quiescent epoch boundaries driven by the {!Classifier}.

    The fast path wraps each backend operation in a two-word handshake
    over simulated memory (publish a per-processor active flag, check
    the migration flag); a migrator sets the migration flag, awaits all
    active flags, then drains the old backend and reinserts into the
    new one before republishing the current-backend word.  Because the
    structure is quiescent during the drain, the multiset of elements
    is preserved exactly — conservation and strict rank-0 hold through
    any number of switches.  Protocol details and the argument for its
    safety are in DESIGN.md §17. *)

type config = {
  light : string;  (** backend under the Light regime *)
  heavy : string;  (** backend under the Heavy regime *)
  classifier : Classifier.config;
  initial : Classifier.regime;  (** starting regime/backend *)
}

val default : config
(** SingleLock under Light, FunnelTree under Heavy.  The meta-queue
    reaches a classifier decision point after every op; the
    classifier's [min_window] is what actually spaces samples out. *)

val backends : config -> string list
(** [[light; heavy]] *)

val validate : config -> unit
(** @raise Invalid_argument on an unknown backend — the message names
    the valid backend set (sorted), mirroring {!Pqcore.Registry} — on
    identical backends, or on a bad classifier config *)

(** one completed migration *)
type switch = {
  sw_at : int;  (** cycle the migration completed *)
  sw_proc : int;  (** processor that performed it *)
  sw_from : string;
  sw_to : string;
  sw_regime : string;  (** ["light"] / ["heavy"] *)
  sw_moved : int;  (** elements drained and reinserted *)
}

type state
(** host-side observer: classifier state plus the switch log *)

val create :
  ?metrics:Pqsim.Stats.t ->
  config ->
  Pqsim.Mem.t ->
  Pqcore.Pq_intf.params ->
  Pqcore.Pq_intf.t * state
(** [create ~metrics config mem params] builds both backends plus the
    control words and returns the meta-queue with its observer.
    [metrics] is the probe's registry ({!Pqsim.Probe.make}[ ~metrics]) —
    the classifier's contention signals; omitted, only the op-rate
    signal drives adaptation.  Designed for {!Pqbenchlib.Scenario.run_sim}'s
    [?create] hook (the meta-queue is deliberately {e not} in the
    registry: it is built over it).
    @raise Invalid_argument per {!validate} *)

val switches : state -> switch list
(** chronological *)

val flips : state -> int
(** classifier regime changes (>= migrations: a flip during a race may
    be reconciled without a drain) *)

val windows : state -> int
(** classifier decision windows evaluated *)

(** Derived rates from a probed run's metrics registry.

    Instrumented library code ({!Pqsync.Mcs}, {!Pqsync.Tas},
    {!Pqfunnel.Engine}, {!Pqcounters.Combtree}) reports raw counters and
    latency samples into the probe's {!Pqsim.Stats.t}; this module turns
    them into the paper-level quantities: combining rate, elimination
    rate, CAS failure rate, lock wait/hold distributions. *)

type derived = {
  cas_ok : int;
  cas_fail : int;
  cas_failure_rate : float;  (** failed / all CAS *)
  lock_acquires : int;
  lock_releases : int;
  lock_contended : int;  (** acquisitions that found the lock taken *)
  lock_wait_total : int;  (** cycles spent waiting for locks, summed *)
  lock_wait_mean : float;
  lock_wait_p99 : int;
  lock_hold_mean : float;
  lock_hold_p99 : int;
  funnel_ops : int;
  funnel_combined : int;
  funnel_eliminated : int;  (** pairs; each finishes two operations *)
  funnel_central : int;
  funnel_declined : int;
  funnel_contended : int;
  combining_rate : float;  (** combined / ops *)
  elimination_rate : float;  (** (2 * eliminated) / ops *)
  comb_ops : int;
  comb_absorbed : int;
  comb_central : int;
  comb_combining_rate : float;  (** absorbed / ops *)
  remote_traffic : int;  (** inter-socket coherence transactions *)
  local_traffic : int;  (** intra-socket coherence transactions *)
  remote_share : float;  (** remote / (remote + local) *)
}

val derive : Pqsim.Stats.t -> derived
(** missing keys yield zero counts and 0.0 rates *)

val to_json : derived -> Json.t
val pp : Format.formatter -> derived -> unit
(** human-readable block; sections with no data are omitted *)

(** {2 Windowed rates}

    The online classifier ([Pqadapt.Classifier]) consumes the metrics
    registry as a stream: take a cumulative {!sample} at each decision
    point and derive the {!window} of rates since the previous one.
    Sampling is a host-side read of the registry — it never perturbs the
    simulation — and the sequence of samples is a pure function of the
    (deterministic) probe stream. *)

type sample = {
  s_cas_ok : int;
  s_cas_fail : int;
  s_lock_acquires : int;
  s_lock_wait_total : int;
  s_remote : int;
  s_local : int;
}
(** cumulative counters at one instant *)

val empty_sample : sample
(** the zero sample: the start-of-run baseline, and what {!sample} of an
    empty registry returns *)

val sample : Pqsim.Stats.t -> sample

type window = {
  w_cas : int;  (** CAS attempts in the window *)
  w_cas_fail_rate : float;  (** failed / attempts; 0.0 on an empty window *)
  w_lock_acquires : int;
  w_lock_wait_mean : float;  (** wait cycles per acquire; 0.0 when none *)
  w_traffic : int;  (** coherence transactions in the window *)
  w_remote_share : float;  (** remote / traffic; 0.0 on an empty window *)
}

val window : prev:sample -> cur:sample -> window
(** rates over the half-open interval [(prev, cur]]; an empty window
    (equal samples) yields all-zero counts and 0.0 rates, never NaN *)

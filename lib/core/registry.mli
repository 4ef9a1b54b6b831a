(** Name-indexed construction of every priority queue in the paper, for
    the benchmarks and CLI. *)

val names : string list
(** every constructible queue, including ablation variants *)

val names_paper : string list
(** the paper's seven queues, in presentation order *)

val scalable_names : string list
(** the four queues of Figures 7-9 *)

val names_relaxed : string list
(** the relaxed MultiQueue family — quiescent rank error bounded by
    configuration, not zero; listed apart from the strict queues *)

val create : string -> Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** @raise Invalid_argument on unknown names (the message lists every
    valid name, sorted) or out-of-range params ({!Pq_intf.validate}) *)

(** {!Pqrelaxed.Multiqueue} behind the {!Pq_intf} face, with the
    registry's ablation variants: base pick-2 ("MultiQueue"), more slots
    ("MultiQueueC4"), swapping stickiness ("MultiQueueSticky") and per-slot
    insertion/deletion buffers ("MultiQueueBuffered"). *)

val names : string list
(** variant names, base first *)

val config_of_name : string -> Pqrelaxed.Multiqueue.config option

val rank_bound_for : string -> nprocs:int -> int option
(** the rank-error bound the verification gate holds a variant to;
    [None] for non-MultiQueue names *)

val slack_per_dangling : string -> int
(** how many elements one crash-interrupted operation of queue [name]
    can strand in local state — the [slack_per_dangling] a conservation
    monitor allows per dangling operation: 1, plus a MultiQueue
    variant's insertion and deletion buffers *)

val create : string -> Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** @raise Invalid_argument on unknown variant names *)

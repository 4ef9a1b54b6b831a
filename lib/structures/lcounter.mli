(** MCS-lock-protected shared counter.

    The paper's FunnelTree uses these at tree levels below the funnel
    cut-off, where traffic is low enough that queue-lock serialisation is
    cheaper than funnel overhead. *)

type t

val create : ?name:Pqsim.Mem.name -> Pqsim.Mem.t -> nprocs:int -> init:int -> t
(** [?name] labels the value word ([name.value]) and the lock's words for
    the contention profiler *)

val get : t -> int
val peek : Pqsim.Mem.t -> t -> int
val fai : t -> int
val fad : t -> int
val bfai : t -> bound:int -> int
val bfad : t -> bound:int -> int

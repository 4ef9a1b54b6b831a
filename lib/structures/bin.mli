(** The paper's "bin" (Figure 1): a bounded bag of words protected by an
    MCS lock.  [is_empty] is a single costed read of the size word — the
    cheap emptiness test the linear-scan queues depend on. *)

type t

val create : ?name:string -> Pqsim.Mem.t -> nprocs:int -> cap:int -> t
(** [?name] labels the size word, element array and lock for the
    contention profiler *)

val none : int
(** [min_int]: what {!delete} answers for an empty bin, so a delete
    allocates no option.  It is not a valid element. *)

val insert : t -> int -> bool
(** [insert b e] adds [e]; false when the bin is full.
    @raise Invalid_argument if [e] is {!none} *)

val is_empty : t -> bool
(** one read, no lock *)

val delete : t -> int
(** removes an unspecified element (LIFO order here, as in the paper's
    array implementation), or answers {!none} when the bin is empty *)

val size_now : Pqsim.Mem.t -> t -> int
(** host-side size, for post-run verification *)

val drain_now : Pqsim.Mem.t -> t -> int list
(** host-side contents, for post-run verification *)

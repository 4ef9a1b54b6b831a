(** Bounded-range concurrent skip list (the base of the paper's SkipList
    queue, Figure 12).

    One node is pre-allocated per priority, each holding a {!Bin}.  A node
    is {e threaded} into the skip list while its bin may hold items.
    Threading follows Pugh's lock-based insertion (lock the predecessor at
    each level, validate, link); only the {e first} node is ever
    unthreaded (by the delete path, under the head's and the node's
    locks), which is sound because the minimum-priority node's predecessor
    at every one of its levels is the head.

    A three-state flag serialises threading: 0 = unthreaded, 1 = threading
    in progress, 2 = threaded.  [unthread_first] refuses to touch a node
    whose threading is still in progress. *)

type t
type node

val create :
  ?name:Pqsim.Mem.name ->
  Pqsim.Mem.t ->
  nprocs:int ->
  npriorities:int ->
  bin_cap:int ->
  seed:int ->
  t
(** [?name] labels each node's lock, state word, forward pointers and bin
    for the contention profiler *)

val node_of_pri : t -> int -> node
val bin : node -> Bin.t

val ensure_threaded : t -> int -> unit
(** [ensure_threaded t pri] threads priority [pri]'s node unless it is
    already threaded or being threaded by another processor.  Call after
    inserting into the node's bin. *)

val none : int
(** [-1]: what {!first}, {!next} and {!unthread_first} answer in place of
    a node, so iterating allocates no option *)

val first : t -> int
(** costed read: the priority of the lowest threaded node, or {!none} *)

val next : t -> int -> int
(** [next t p] is a costed read of the bottom-level successor of priority
    [p]'s node: its priority, or {!none}.  Together with {!first} this
    iterates the threaded nodes in priority order. *)

val unthread_first : t -> int
(** Unlinks the first node if it is fully threaded and answers its
    priority; {!none} if the list is empty or the first node's threading
    is still in flight. *)

val threaded_now : Pqsim.Mem.t -> node -> bool
(** host-side, for verification *)

val invariants_now : Pqsim.Mem.t -> t -> (unit, string) result
(** host-side structural check: each level sorted by priority, level-l
    membership implies level-(l-1) membership, threaded flags consistent *)

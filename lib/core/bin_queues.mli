(** The paper's bin queues: two walks over per-priority bins.

    - {b linear} (Figure 2): an array of bins, one per priority.
      Insertion drops the element into its priority's bin; delete-min
      scans the bins from the smallest priority upward and takes from the
      first that yields an element, optionally testing each bin for
      emptiness with a single read first.
    - {b tree} (Figure 3): a binary tree of shared counters over the
      bins.  Each internal counter holds the number of elements in its
      left (lower-priority) subtree.  Insertion ascends from its leaf
      with fetch-and-increment on every node entered from the left;
      delete-min descends from the root with bounded fetch-and-decrement,
      going left when the counter was positive.

    A walk reaches its bins through one {e bin face} (the MCS-locked
    {!Pqstruct.Bin}, the funnel stack {!Pqfunnel.Fstack}, or the funnel
    queue {!Pqfunnel.Fqueue}) and the tree reaches its counters through
    one {e counter face} ({!Pqstruct.Lcounter}, or FunnelTree's mix of
    funnel and locked counters).  A face is one record per kind of bin or
    counter.  Each queue below builds its own structures, in its own
    order and under its own {!Pqsim.Mem} labels. *)

(** {1 The queues} *)

val simple_linear : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** SimpleLinear: the linear walk over MCS-locked bins.  delete-min
    tests emptiness with a single read and locks only promising bins.
    Linearizable; the paper's low-concurrency champion. *)

val simple_tree : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** SimpleTree: the tree walk over MCS-locked counters and MCS-locked
    bins.  Quiescently consistent; its root counter is the hot spot that
    motivates FunnelTree. *)

val linear_funnels : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** LinearFunnels (new in the paper): SimpleLinear with each bin replaced
    by a combining-funnel stack.  delete-min still tests emptiness with a
    single read of each stack's top pointer before paying for a funnel
    traversal, which the paper stresses is crucial.  Quiescently
    consistent; the method of choice for very small priority ranges at
    high concurrency. *)

val linear_funnels_no_check : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** ablation variant: delete-min enters the funnel without first testing
    the stack's top pointer for emptiness *)

val linear_funnels_fifo : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** Section 3.2 variant: funnel FIFO bins, fair among equal priorities,
    no elimination *)

val linear_funnels_hybrid : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** Section 3.2 variant: elimination in the funnel, FIFO order for
    elements that reach the central queue *)

val funnel_tree : Pqsim.Mem.t -> Pq_intf.params -> Pq_intf.t
(** FunnelTree (the paper's headline algorithm): SimpleTree with the
    hot-spot pieces replaced by combining funnels: funnel counters
    (fetch-and-increment / bounded fetch-and-decrement with elimination)
    at the top [funnel_cutoff] tree levels where traffic concentrates,
    MCS-locked counters below, and funnel stacks as the leaf bins.
    Quiescently consistent; the paper's method of choice for 8+
    priorities at high concurrency. *)

(** {1 Tree shape}

    A complete binary tree over [nleaves] = the next power of two above
    the priority range.  Internal nodes use 1-based heap indexing (root
    1, children 2n / 2n+1); the leaf for priority [i] is node
    [nleaves + i]. *)

val leaves_for : int -> int
(** smallest power of two >= the priority range *)

val depth_of : int -> int
(** depth of a node in 1-based heap indexing; the root is at depth 0 *)

val height : npriorities:int -> int
(** depth of the leaves for a priority range: the number of counter
    levels an insert traverses (N=16 -> 4, N=1024 -> 10); reported by
    the scale-1k sweeps alongside N *)

val is_left_child : int -> bool
(** whether a node is its parent's left (lower-priority) child *)

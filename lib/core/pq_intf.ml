(** The common face of every bounded-range priority queue in the paper.

    A queue instance is a record of closures over its simulated-memory
    structures.  [insert] and [delete_min] must be called from processor
    context (inside {!Pqsim.Sim.run}); the [*_now] fields are host-side
    hooks used by tests and verification after a run. *)

type t = {
  name : string;
  npriorities : int;
  insert : pri:int -> payload:int -> bool;
      (** [false] when the structure rejected the element (capacity) *)
  delete_min : unit -> (int * int) option;
      (** removes an element of (approximately, for the quiescently
          consistent queues) minimal priority; [None] when the queue
          appears empty *)
  drain_now : Pqsim.Mem.t -> (int * int) list;
      (** host-side: elements still in the structure, as (pri, payload) *)
  check_now : Pqsim.Mem.t -> (unit, string) result;
      (** host-side structural invariants at quiescence *)
}

(** Construction parameters shared by all queue families. *)
type params = {
  nprocs : int;
  npriorities : int;
  capacity : int;
      (** element bound: simultaneous elements in a heap queue, elements
          in one bin of a bin queue *)
  seed : int;  (** structure-level randomness (skip list levels) *)
  ops_per_proc : int;  (** upper bound, sizes funnel-stack node pools *)
  funnel_config : Pqfunnel.Engine.config option;  (** None = defaults *)
  funnel_cutoff : int;  (** FunnelTree: tree levels (from root) using funnels *)
}

let validate (p : params) =
  let bad = ref [] in
  let need_pos name v = if v < 1 then bad := Printf.sprintf "%s = %d (want >= 1)" name v :: !bad in
  need_pos "ops_per_proc" p.ops_per_proc;
  need_pos "capacity" p.capacity;
  need_pos "npriorities" p.npriorities;
  need_pos "nprocs" p.nprocs;
  match !bad with
  | [] -> ()
  | bad ->
      invalid_arg
        ("Pq_intf.validate: invalid params: " ^ String.concat ", " bad)

let default_params ~nprocs ~npriorities =
  {
    nprocs;
    npriorities;
    capacity = 2048;
    seed = 7;
    ops_per_proc = 4096;
    funnel_config = None;
    funnel_cutoff = 4;
  }

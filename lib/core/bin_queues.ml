(* The paper's four bin queues, plus LinearFunnels' three variants, as
   two walks: Figure 2's linear scan and Figure 3's counter tree.  A walk
   reaches its bins through a bin face and the tree reaches its counters
   through a counter face: one record of functions per kind, so no bin
   or counter carries closures of its own. *)

(* ------------------------------------------------------------------ *)
(* Tree shape, in 1-based heap indexing (see the interface) *)

let leaves_for npriorities =
  let rec go n = if n >= npriorities then n else go (2 * n) in
  go 1

let depth_of node =
  let rec go n d = if n <= 1 then d else go (n / 2) (d + 1) in
  go node 0

let leaf_index ~nleaves pri = nleaves + pri
let height ~npriorities = depth_of (leaves_for npriorities)
let is_leaf ~nleaves node = node >= nleaves
let parent node = node / 2
let left node = 2 * node
let right node = (2 * node) + 1
let is_left_child node = node land 1 = 0

(* ------------------------------------------------------------------ *)
(* Faces *)

type 'b bin = {
  insert : 'b -> int -> bool;  (* false when the bin is full *)
  is_empty : 'b -> bool;
  delete : 'b -> int;  (* Pqstruct.Bin.none when the bin is empty *)
  size_now : Pqsim.Mem.t -> 'b -> int;
  drain_now : Pqsim.Mem.t -> 'b -> int list;
}

type 'c counter = {
  inc : 'c -> unit;
  bfad : 'c -> int;  (* bounded at 0; answers the value before *)
  peek : Pqsim.Mem.t -> 'c -> int;
}

let or_none = function Some e -> e | None -> Pqstruct.Bin.none

let locked_bin =
  {
    insert = Pqstruct.Bin.insert;
    is_empty = Pqstruct.Bin.is_empty;
    delete = Pqstruct.Bin.delete;
    size_now = Pqstruct.Bin.size_now;
    drain_now = Pqstruct.Bin.drain_now;
  }

let stack_bin =
  {
    insert =
      (fun s e ->
        Pqfunnel.Fstack.push s e;
        true);
    is_empty = Pqfunnel.Fstack.is_empty;
    delete = (fun s -> or_none (Pqfunnel.Fstack.pop s));
    size_now = Pqfunnel.Fstack.size_now;
    drain_now = Pqfunnel.Fstack.drain_now;
  }

let fifo_bin =
  {
    insert =
      (fun q e ->
        Pqfunnel.Fqueue.enqueue q e;
        true);
    is_empty = Pqfunnel.Fqueue.is_empty;
    delete = (fun q -> or_none (Pqfunnel.Fqueue.dequeue q));
    size_now = Pqfunnel.Fqueue.size_now;
    drain_now = Pqfunnel.Fqueue.drain_now;
  }

let locked_counter =
  {
    inc = (fun c -> ignore (Pqstruct.Lcounter.fai c));
    bfad = (fun c -> Pqstruct.Lcounter.bfad c ~bound:0);
    peek = Pqstruct.Lcounter.peek;
  }

(* FunnelTree's counters: funnels at the top levels, MCS-locked below *)
type mixed = Funnel of Pqfunnel.Fcounter.t | Locked of Pqstruct.Lcounter.t

let mixed_counter =
  {
    inc =
      (function
      | Funnel c -> ignore (Pqfunnel.Fcounter.inc c)
      | Locked c -> locked_counter.inc c);
    bfad =
      (function
      | Funnel c -> Pqfunnel.Fcounter.dec c
      | Locked c -> locked_counter.bfad c);
    peek =
      (fun mem -> function
        | Funnel c -> Pqfunnel.Fcounter.peek mem c
        | Locked c -> locked_counter.peek mem c);
  }

(* ------------------------------------------------------------------ *)
(* The walks.  The recursive steps are top level, so a delete-min
   allocates nothing but its result. *)

let drain face bins mem =
  List.concat
    (List.mapi
       (fun pri b -> List.map (fun e -> (pri, e)) (face.drain_now mem b))
       (Array.to_list bins))

(* Figure 2: the first nonempty bin from [i] on; with [precheck] a bin
   whose emptiness test reads empty is passed without a delete *)
let rec scan face ~precheck bins i =
  if i >= Array.length bins then None
  else if precheck && face.is_empty bins.(i) then
    scan face ~precheck bins (i + 1)
  else
    let e = face.delete bins.(i) in
    if e = Pqstruct.Bin.none then scan face ~precheck bins (i + 1)
    else Some (i, e)

let linear ~name ~precheck face bins =
  let check_now mem =
    let rec go i =
      if i >= Array.length bins then Ok ()
      else if face.size_now mem bins.(i) < 0 then
        Error (Printf.sprintf "negative bin size at %d" i)
      else go (i + 1)
    in
    go 0
  in
  {
    Pq_intf.name;
    npriorities = Array.length bins;
    insert = (fun ~pri ~payload -> face.insert bins.(pri) payload);
    delete_min = (fun () -> scan face ~precheck bins 0);
    drain_now = drain face bins;
    check_now;
  }

(* Figure 3, insert: from the leaf up, increment every counter entered
   from its left child *)
let rec climb cface counters n =
  if n > 1 then begin
    if is_left_child n then cface.inc counters.(parent n);
    climb cface counters (parent n)
  end

(* Figure 3, delete-min: from the root down, left when the bounded
   decrement found the left subtree nonempty; answers the leaf's
   priority *)
let rec descend cface counters n =
  let nleaves = Array.length counters in
  if is_leaf ~nleaves n then n - nleaves
  else
    descend cface counters
      (if cface.bfad counters.(n) > 0 then left n else right n)

(* [counters] is indexed by node, 1 .. nleaves-1; index 0 is unused *)
let tree ~name face bins cface counters =
  let nleaves = Array.length counters and npriorities = Array.length bins in
  let insert ~pri ~payload =
    if face.insert bins.(pri) payload then begin
      climb cface counters (leaf_index ~nleaves pri);
      true
    end
    else false
  in
  let delete_min () =
    let pri = descend cface counters 1 in
    if pri >= npriorities then None
    else
      let e = face.delete bins.(pri) in
      if e = Pqstruct.Bin.none then None else Some (pri, e)
  in
  (* counters must be non-negative; at quiescence each counter equals the
     number of elements in its left subtree *)
  let check_now mem =
    let rec subtree_count n =
      if is_leaf ~nleaves n then
        let pri = n - nleaves in
        if pri < npriorities then face.size_now mem bins.(pri) else 0
      else subtree_count (left n) + subtree_count (right n)
    in
    let rec go n =
      if is_leaf ~nleaves n then Ok ()
      else
        let c = cface.peek mem counters.(n) in
        let held = subtree_count (left n) in
        if c < 0 then Error (Printf.sprintf "negative counter at node %d" n)
        else if c <> held then
          Error
            (Printf.sprintf "counter at node %d is %d, left subtree holds %d"
               n c held)
        else
          match go (left n) with Error _ as e -> e | Ok () -> go (right n)
    in
    go 1
  in
  {
    Pq_intf.name;
    npriorities;
    insert;
    delete_min;
    drain_now = drain face bins;
    check_now;
  }

(* ------------------------------------------------------------------ *)
(* The registry's queues.  Each builds its structures in its own order
   under its own labels: the order fixes every address, and with it
   every simulated cycle. *)

let locked_bins ~name mem (p : Pq_intf.params) =
  Array.init p.npriorities (fun pri ->
      Pqstruct.Bin.create ~name:(Index (name, pri)) mem ~nprocs:p.nprocs
        ~cap:p.capacity)

let stack ~name mem (p : Pq_intf.params) pool =
  Pqfunnel.Fstack.create ~name mem ~nprocs:p.nprocs ?config:p.funnel_config
    ~pool ()

let fifo ~elim ~name mem (p : Pq_intf.params) pool =
  Pqfunnel.Fqueue.create ~name mem ~nprocs:p.nprocs ?config:p.funnel_config
    ~elim ~pool ()

let pool mem (p : Pq_intf.params) =
  Pqfunnel.Pool.create mem ~nprocs:p.nprocs ~pushes_per_proc:p.ops_per_proc

let simple_linear mem p =
  linear ~name:"SimpleLinear" ~precheck:true locked_bin
    (locked_bins ~name:(Root "SimpleLinear.bin") mem p)

let funnels ~name ~precheck face make mem (p : Pq_intf.params) =
  let pool = pool mem p in
  let bin = Pqsim.Mem.Field (Root name, "bin") in
  linear ~name ~precheck face
    (Array.init p.npriorities (fun pri ->
         make ~name:(Pqsim.Mem.Index (bin, pri)) mem p pool))

let linear_funnels =
  funnels ~name:"LinearFunnels" ~precheck:true stack_bin stack

let linear_funnels_no_check =
  funnels ~name:"LinearFunnelsNoCheck" ~precheck:false stack_bin stack

let linear_funnels_fifo =
  funnels ~name:"LinearFunnelsFifo" ~precheck:true fifo_bin (fifo ~elim:false)

let linear_funnels_hybrid =
  funnels ~name:"LinearFunnelsHybrid" ~precheck:true fifo_bin
    (fifo ~elim:true)

let simple_tree mem (p : Pq_intf.params) =
  (* MCS-locked counters, per the paper: "tree of bins using MCS locks" *)
  let counters =
    Array.init (leaves_for p.npriorities) (fun n ->
        Pqstruct.Lcounter.create
          ~name:(Index (Root "SimpleTree.counter", n))
          mem ~nprocs:p.nprocs ~init:0)
  in
  tree ~name:"SimpleTree" locked_bin
    (locked_bins ~name:(Root "SimpleTree.bin") mem p)
    locked_counter counters

let funnel_tree mem (p : Pq_intf.params) =
  let counters =
    Array.init (leaves_for p.npriorities) (fun n ->
        if n = 0 then Locked (Pqstruct.Lcounter.create mem ~nprocs:1 ~init:0)
          (* index 0 unused *)
        else if depth_of n < p.funnel_cutoff then begin
          (* traffic at depth d is ~nprocs / 2^d: size the funnel to it *)
          let traffic = max 2 (p.nprocs lsr depth_of n) in
          let config =
            match p.funnel_config with
            | Some c -> c
            | None -> Pqfunnel.Engine.default_config ~nprocs:traffic
          in
          Funnel
            (Pqfunnel.Fcounter.create
               ~name:(Index (Root "FunnelTree.counter", n))
               mem ~nprocs:p.nprocs ~config ~floor:0 ~init:0 ())
        end
        else
          Locked
            (Pqstruct.Lcounter.create
               ~name:(Index (Root "FunnelTree.counter", n))
               mem ~nprocs:p.nprocs ~init:0))
  in
  let pool = pool mem p in
  let stacks =
    Array.init p.npriorities (fun pri ->
        stack ~name:(Index (Root "FunnelTree.stack", pri)) mem p pool)
  in
  tree ~name:"FunnelTree" stack_bin stacks mixed_counter counters

open Pqsim

(* node layout: [value][next]; the central FIFO is a head and a tail word
   behind a test-and-set lock (the funnel keeps arrivals rare) *)
type central = { head : int; tail : int; lock : Pqsync.Tas.t }

type t = {
  f : Engine.t;
  c : central;
  pool : Pool.t;
  elim : bool;
  found : bool array;
  client : Engine.client;
}

let value_of = Chain.value_of
let next_of = Chain.next_of
let is_empty t = Api.read t.c.head = 0

(* Preorder: root's element first, then each child subtree in combining
   order — the same serialization the dequeue distribution assumes.  Each
   member's child list is read first, then its subtrees, then its own
   node, which lands in the slot reserved before the subtrees.  Returns
   the next free node slot. *)
let rec preorder f buf pid n stack =
  let k = Engine.read_children f pid buf stack in
  let stop = preorder_kids f buf (n + 1) stack k 0 in
  buf.(n) <- Engine.opval_of f pid;
  stop

and preorder_kids f buf n stack k i =
  if i = k then n
  else
    preorder_kids f buf
      (preorder f buf buf.(stack + i) n (stack + k))
      stack k (i + 1)

let try_central_enq f c ~cap ~me ~sum =
  assert (sum > 0 && sum <= cap);
  let buf = Chain.scratch f ~cap and base = Chain.region f in
  let stop = preorder f buf me base (base + cap) in
  for i = base to stop - 2 do
    Api.write (next_of buf.(i)) buf.(i + 1)
  done;
  Api.write (next_of buf.(stop - 1)) 0;
  Pqsync.Tas.acquire c.lock;
  let tl = Api.read c.tail in
  if tl = 0 then Api.write c.head buf.(base)
  else Api.write (next_of tl) buf.(base);
  Api.write c.tail buf.(stop - 1);
  Pqsync.Tas.release c.lock;
  0

let try_central_deq c ~sum =
  let k = -sum in
  assert (k > 0);
  Pqsync.Tas.acquire c.lock;
  let h = Api.read c.head in
  let r =
    if h = 0 then 0
    else begin
      let last = Chain.walk h 1 k in
      let new_head = Api.read (next_of last) in
      Api.write c.head new_head;
      if new_head = 0 then Api.write c.tail 0;
      (* detach, so drains and stale readers never run past the slice *)
      Api.write (next_of last) 0;
      h
    end
  in
  Pqsync.Tas.release c.lock;
  r

let create ?name mem ~nprocs ?config ?(elim = false) ?pool
    ?(max_pushes_per_proc = 0) () =
  let config =
    match config with Some c -> c | None -> Engine.default_config ~nprocs
  in
  let pool =
    match pool with
    | Some p -> p
    | None ->
        if max_pushes_per_proc <= 0 then
          invalid_arg "Fqueue.create: need a pool or max_pushes_per_proc";
        Pool.create mem ~nprocs ~pushes_per_proc:max_pushes_per_proc
  in
  let head = Mem.alloc mem 1 in
  let tail = Mem.alloc mem 1 in
  (match name with
  | Some n ->
      Mem.label mem ~addr:head ~len:1 (n ^ ".head");
      Mem.label mem ~addr:tail ~len:1 (n ^ ".tail")
  | None -> ());
  (* [head] backs the lock-free emptiness test; [tail] stays lock-guarded *)
  Mem.declare_sync mem ~addr:head ~len:1;
  (* the lock word is allocated before the funnel, as the simulated
     memory layout has always had it *)
  let lock =
    Pqsync.Tas.create ?name:(Option.map (fun n -> n ^ ".lock") name) mem
  in
  let f = Engine.create ?name mem ~nprocs ~config in
  let c = { head; tail; lock } in
  let cap = Chain.cap f and found = Array.make nprocs false in
  let client =
    Chain.client f ~cap ~found
      ~push:(fun ~me ~sum -> try_central_enq f c ~cap ~me ~sum)
      ~pop:(fun ~sum -> try_central_deq c ~sum)
  in
  { f; c; pool; elim; found; client }

let enqueue t v =
  let me = Api.self () in
  let node = Pool.alloc t.pool ~pid:me in
  Api.write (value_of node) v;
  Api.write (next_of node) 0;
  ignore
    (Engine.operate t.f t.client ~sign:1 ~opval:node ~homogeneous:true
       ~allow_elim:t.elim)

let dequeue t =
  let v =
    Engine.operate t.f t.client ~sign:(-1) ~opval:0 ~homogeneous:true
      ~allow_elim:t.elim
  in
  if t.found.(Api.self ()) then Some v else None

let size_now mem t =
  let rec go c n = if c = 0 then n else go (Mem.peek mem (next_of c)) (n + 1) in
  go (Mem.peek mem t.c.head) 0

let drain_now mem t =
  let rec go c acc =
    if c = 0 then List.rev acc
    else go (Mem.peek mem (next_of c)) (Mem.peek mem (value_of c) :: acc)
  in
  go (Mem.peek mem t.c.head) []

open Pqsim

(* node layout: [value][next] *)

type t = {
  f : Engine.t;
  top : int;
  pool : Pool.t;
  elim : bool;
  found : bool array;
  client : Engine.client;
}

let value_of = Chain.value_of
let next_of = Chain.next_of
let alloc_node t pid = Pool.alloc t.pool ~pid
let is_empty t = Api.read t.top = 0

(* Collect the node of every member of the combining tree rooted at [pid]
   into [buf.(n) ..] in preorder (records are stable while members wait
   for their results); the member's children are staged at
   [buf.(stack) ..].  Returns the next free node slot. *)
let rec collect f buf pid n stack =
  buf.(n) <- Engine.opval_of f pid;
  let k = Engine.read_children f pid buf stack in
  collect_kids f buf (n + 1) stack k 0

and collect_kids f buf n stack k i =
  if i = k then n
  else
    collect_kids f buf
      (collect f buf buf.(stack + i) n (stack + k))
      stack k (i + 1)

(* the chain links each member's node to the one collected before it:
   the last-collected node heads the chain, the root's node ends it *)
let try_central_push f ~top ~cap ~me ~sum =
  assert (sum > 0 && sum <= cap);
  let buf = Chain.scratch f ~cap and base = Chain.region f in
  let stop = collect f buf me base (base + cap) in
  for i = stop - 1 downto base + 1 do
    Api.write (next_of buf.(i)) buf.(i - 1)
  done;
  let t0 = Api.read top in
  Api.write (next_of buf.(base)) t0;
  if Api.cas top ~expected:t0 ~desired:buf.(stop - 1) then 0
  else Engine.retry

let try_central_pop ~top ~sum =
  let k = -sum in
  assert (k > 0);
  let t0 = Api.read top in
  if t0 = 0 then 0 (* empty: the whole tree receives null chains *)
  else begin
    let last = Chain.walk t0 1 k in
    let new_top = Api.read (next_of last) in
    if Api.cas top ~expected:t0 ~desired:new_top then t0 else Engine.retry
  end

let create ?name mem ~nprocs ?config ?(elim = true) ?pool
    ?(max_pushes_per_proc = 0) () =
  let config =
    match config with Some c -> c | None -> Engine.default_config ~nprocs
  in
  let pool =
    match pool with
    | Some p -> p
    | None ->
        if max_pushes_per_proc <= 0 then
          invalid_arg "Fstack.create: need a pool or max_pushes_per_proc";
        Pool.create mem ~nprocs ~pushes_per_proc:max_pushes_per_proc
  in
  let top = Mem.alloc mem 1 in
  (match name with
  | Some n -> Mem.label mem ~addr:top ~len:1 (Field (n, "top"))
  | None -> ());
  (* lock-free emptiness test + read-then-CAS publication point *)
  Mem.declare_sync mem ~addr:top ~len:1;
  let f = Engine.create ?name mem ~nprocs ~config in
  let cap = Chain.cap f and found = Array.make nprocs false in
  let client =
    Chain.client f ~cap ~found
      ~push:(fun ~me ~sum -> try_central_push f ~top ~cap ~me ~sum)
      ~pop:(fun ~sum -> try_central_pop ~top ~sum)
  in
  { f; top; pool; elim; found; client }

let push t v =
  let me = Api.self () in
  let node = alloc_node t me in
  Api.write (value_of node) v;
  Api.write (next_of node) 0;
  ignore
    (Engine.operate t.f t.client ~sign:1 ~opval:node ~homogeneous:true
       ~allow_elim:t.elim)

let pop t =
  let v =
    Engine.operate t.f t.client ~sign:(-1) ~opval:0 ~homogeneous:true
      ~allow_elim:t.elim
  in
  if t.found.(Api.self ()) then Some v else None

let size_now mem t =
  let rec go c n = if c = 0 then n else go (Mem.peek mem (next_of c)) (n + 1) in
  go (Mem.peek mem t.top) 0

let drain_now mem t =
  let rec go c acc =
    if c = 0 then List.rev acc
    else go (Mem.peek mem (next_of c)) (Mem.peek mem (value_of c) :: acc)
  in
  go (Mem.peek mem t.top) []

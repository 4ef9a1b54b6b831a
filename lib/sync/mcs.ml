open Pqsim

(* Layout: [tail][node_0 locked][node_0 next][node_1 locked][node_1 next]...
   A node address identifies the waiter; tail = 0 means free. *)

type t = { tail : int; nodes : int; acq_at : int array }

let words ~nprocs = 1 + (2 * nprocs)

let create ?name mem ~nprocs =
  let tail = Mem.alloc mem (words ~nprocs) in
  (match name with
  | Some n ->
      Mem.label mem ~addr:tail ~len:1 (n ^ ".tail");
      Mem.label mem ~addr:(tail + 1) ~len:(2 * nprocs) (n ^ ".nodes")
  | None -> ());
  Mem.declare_sync mem ~addr:tail ~len:(words ~nprocs);
  { tail; nodes = tail + 1; acq_at = Array.make nprocs 0 }

let id t = t.tail

let node t pid = t.nodes + (2 * pid)
let is_zero v = v = 0
let is_set v = v <> 0
let locked_of node = node
let next_of node = node + 1

let acquire t =
  let probing = Api.probing () in
  let t0 = if probing then Api.now () else 0 in
  let me = node t (Api.self ()) in
  Api.write (next_of me) 0;
  Api.write (locked_of me) 1;
  let pred = Api.swap t.tail me in
  if pred <> 0 then begin
    Api.write (next_of pred) me;
    ignore (Api.await (locked_of me) ~until:is_zero)
  end;
  if probing then begin
    let acquired = Api.now () in
    Api.count "lock.acquire" 1;
    Api.count "lock.wait" (acquired - t0);
    if pred <> 0 then Api.count "lock.contend" 1;
    Api.note Probe.Lock_tag.acquire t.tail (if pred <> 0 then 1 else 0);
    t.acq_at.(Api.self ()) <- acquired
  end

let try_acquire t =
  let me = node t (Api.self ()) in
  Api.write (next_of me) 0;
  let ok = Api.cas t.tail ~expected:0 ~desired:me in
  (if Api.probing () then
     if ok then begin
       Api.count "lock.acquire" 1;
       Api.count "lock.wait" 0;
       Api.note Probe.Lock_tag.acquire t.tail 0;
       t.acq_at.(Api.self ()) <- Api.now ()
     end
     else begin
       (* the CAS observed a non-empty queue: same contention event the
          blocking path counts, same key, so rates stay commensurable *)
       Api.count "lock.contend" 1;
       Api.note Probe.Lock_tag.try_fail t.tail 0
     end);
  ok

let release t =
  (if Api.probing () then begin
     Api.count "lock.release" 1;
     Api.count "lock.hold" (Api.now () - t.acq_at.(Api.self ()));
     Api.note Probe.Lock_tag.release t.tail 0
   end);
  let me = node t (Api.self ()) in
  let succ = Api.read (next_of me) in
  if succ <> 0 then Api.write (locked_of succ) 0
  else if not (Api.cas t.tail ~expected:me ~desired:0) then begin
    (* a successor is in the middle of linking itself in *)
    let succ = Api.await (next_of me) ~until:is_set in
    Api.write (locked_of succ) 0
  end

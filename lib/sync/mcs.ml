open Pqsim

(* Layout: [tail][node_0 locked][node_0 next][node_1 locked][node_1 next]...
   A node address identifies the waiter; tail = 0 means free. *)

(* [acq_at] is host-side probe bookkeeping (acquisition cycle per
   processor), made on the first probed acquisition: an unprobed run
   never needs it. *)
type t = { tail : int; nprocs : int; mutable acq_at : int array }

let words ~nprocs = 1 + (2 * nprocs)

let make mem ~nprocs =
  let tail = Mem.alloc mem (words ~nprocs) in
  Mem.declare_sync mem ~addr:tail ~len:(words ~nprocs);
  { tail; nprocs; acq_at = [||] }

let create ?name mem ~nprocs =
  let t = make mem ~nprocs in
  (match name with
  | Some n ->
      Mem.label mem ~addr:t.tail ~len:1 (Field (n, "tail"));
      Mem.label mem ~addr:(t.tail + 1) ~len:(2 * nprocs) (Field (n, "nodes"))
  | None -> ());
  t

(* lock [i] of an array is named [name[i]], its words [name[i].tail] and
   [name[i].nodes(+k)], as {!create} would name them *)
let create_array ~name mem ~nprocs n =
  let locks = Array.init n (fun _ -> make mem ~nprocs) in
  (if n > 0 then
     let addr = locks.(0).tail and stride = words ~nprocs in
     Mem.label_records mem ~addr ~count:n ~stride ~len:1 ~field:"tail" name;
     Mem.label_records mem ~addr:(addr + 1) ~count:n ~stride
       ~len:(2 * nprocs) ~field:"nodes" name);
  locks

let id t = t.tail

let stamp t acquired =
  if Array.length t.acq_at = 0 then t.acq_at <- Array.make t.nprocs 0;
  t.acq_at.(Api.self ()) <- acquired

let acquired_at t =
  if Array.length t.acq_at = 0 then 0 else t.acq_at.(Api.self ())

let node t pid = t.tail + 1 + (2 * pid)
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
    stamp t acquired
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
       stamp t (Api.now ())
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
     Api.count "lock.hold" (Api.now () - acquired_at t);
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

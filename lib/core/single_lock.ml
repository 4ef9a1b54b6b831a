
let create mem (p : Pq_intf.params) =
  let lock =
    Pqsync.Mcs.create ~name:(Root "SingleLock.lock") mem ~nprocs:p.nprocs
  in
  let heap =
    Pqstruct.Seqheap.create ~name:(Root "SingleLock.heap") mem ~cap:p.capacity
  in
  let insert ~pri ~payload =
    let key = Pqstruct.Elem.pack ~pri ~payload in
    Pqsync.Mcs.acquire lock;
    let ok = Pqstruct.Seqheap.insert heap key in
    Pqsync.Mcs.release lock;
    ok
  in
  let delete_min () =
    Pqsync.Mcs.acquire lock;
    let e = Pqstruct.Seqheap.extract_min heap in
    Pqsync.Mcs.release lock;
    if e = Pqstruct.Seqheap.none then None
    else Some (Pqstruct.Elem.pri e, Pqstruct.Elem.payload e)
  in
  let drain_now mem =
    Pqstruct.Seqheap.peek_list mem heap
    |> List.map (fun e -> (Pqstruct.Elem.pri e, Pqstruct.Elem.payload e))
  in
  let check_now mem =
    (* heap property over the raw array *)
    let xs = Array.of_list (Pqstruct.Seqheap.peek_list mem heap) in
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i v ->
        if i > 0 && xs.((i - 1) / 2) > v then
          ok := Error (Printf.sprintf "heap violation at %d" i))
      xs;
    !ok
  in
  {
    Pq_intf.name = "SingleLock";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }


(* the first nonempty bin from [i] on; top level, so a delete_min
   allocates nothing but its result *)
let rec scan bins i =
  if i >= Array.length bins then None
  else if Pqstruct.Bin.is_empty bins.(i) then scan bins (i + 1)
  else
    let e = Pqstruct.Bin.delete bins.(i) in
    if e = Pqstruct.Bin.none then scan bins (i + 1) else Some (i, e)

let create mem (p : Pq_intf.params) =
  let bins =
    Array.init p.npriorities (fun pri ->
        Pqstruct.Bin.create
          ~name:(Index (Root "SimpleLinear.bin", pri))
          mem ~nprocs:p.nprocs ~cap:p.bin_capacity)
  in
  let insert ~pri ~payload = Pqstruct.Bin.insert bins.(pri) payload in
  let delete_min () = scan bins 0 in
  let drain_now mem =
    List.concat_map
      (fun pri ->
        List.map (fun e -> (pri, e)) (Pqstruct.Bin.drain_now mem bins.(pri)))
      (List.init p.npriorities Fun.id)
  in
  let check_now mem =
    let ok = ref (Ok ()) in
    Array.iteri
      (fun i b ->
        if Pqstruct.Bin.size_now mem b < 0 then
          ok := Error (Printf.sprintf "negative bin size at %d" i))
      bins;
    !ok
  in
  {
    Pq_intf.name = "SimpleLinear";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }

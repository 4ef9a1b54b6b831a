
let create mem (p : Pq_intf.params) =
  let nleaves = Treeshape.leaves_for p.npriorities in
  (* MCS-locked counters, per the paper: "tree of bins using MCS locks";
     indexed by internal node id 1 .. nleaves-1 *)
  let counters =
    Array.init nleaves (fun i ->
        Pqstruct.Lcounter.create
          ~name:(Index (Root "SimpleTree.counter", i))
          mem ~nprocs:p.nprocs ~init:0)
  in
  let bins =
    Array.init p.npriorities (fun pri ->
        Pqstruct.Bin.create
          ~name:(Index (Root "SimpleTree.bin", pri))
          mem ~nprocs:p.nprocs ~cap:p.bin_capacity)
  in
  let insert ~pri ~payload =
    if Pqstruct.Bin.insert bins.(pri) payload then begin
      let n = ref (Treeshape.leaf_index ~nleaves pri) in
      while !n > 1 do
        let parent = Treeshape.parent !n in
        if Treeshape.is_left_child !n then
          ignore (Pqstruct.Lcounter.fai counters.(parent));
        n := parent
      done;
      true
    end
    else false
  in
  let delete_min () =
    let n = ref 1 in
    while not (Treeshape.is_leaf ~nleaves !n) do
      let i = Pqstruct.Lcounter.bfad counters.(!n) ~bound:0 in
      n := if i > 0 then Treeshape.left !n else Treeshape.right !n
    done;
    let pri = !n - nleaves in
    if pri >= p.npriorities then None
    else
      let e = Pqstruct.Bin.delete bins.(pri) in
      if e = Pqstruct.Bin.none then None else Some (pri, e)
  in
  let drain_now mem =
    List.concat_map
      (fun pri ->
        List.map (fun e -> (pri, e)) (Pqstruct.Bin.drain_now mem bins.(pri)))
      (List.init p.npriorities Fun.id)
  in
  let check_now mem =
    (* counters must be non-negative; at quiescence each counter equals the
       number of elements in its left subtree *)
    let leaf_count pri =
      if pri < p.npriorities then Pqstruct.Bin.size_now mem bins.(pri) else 0
    in
    let rec subtree_count n =
      if Treeshape.is_leaf ~nleaves n then leaf_count (n - nleaves)
      else subtree_count (Treeshape.left n) + subtree_count (Treeshape.right n)
    in
    let rec go n =
      if Treeshape.is_leaf ~nleaves n then Ok ()
      else
        let c = Pqstruct.Lcounter.peek mem counters.(n) in
        if c < 0 then Error (Printf.sprintf "negative counter at node %d" n)
        else if c <> subtree_count (Treeshape.left n) then
          Error
            (Printf.sprintf "counter at node %d is %d, left subtree holds %d"
               n c
               (subtree_count (Treeshape.left n)))
        else
          match go (Treeshape.left n) with
          | Error _ as e -> e
          | Ok () -> go (Treeshape.right n)
    in
    go 1
  in
  {
    Pq_intf.name = "SimpleTree";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }

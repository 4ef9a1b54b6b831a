
type counter =
  | Funnel of Pqfunnel.Fcounter.t
  | Locked of Pqstruct.Lcounter.t

let create mem (p : Pq_intf.params) =
  let nleaves = Treeshape.leaves_for p.npriorities in
  let counters =
    Array.init nleaves (fun n ->
        if n = 0 then Locked (Pqstruct.Lcounter.create mem ~nprocs:1 ~init:0)
          (* index 0 unused *)
        else if Treeshape.depth_of n < p.funnel_cutoff then begin
          (* traffic at depth d is ~nprocs / 2^d: size the funnel to it *)
          let traffic = max 2 (p.nprocs lsr Treeshape.depth_of n) in
          let config =
            match p.funnel_config with
            | Some c -> c
            | None -> Pqfunnel.Engine.default_config ~nprocs:traffic
          in
          Funnel
            (Pqfunnel.Fcounter.create
               ~name:(Printf.sprintf "FunnelTree.counter[%d]" n)
               mem ~nprocs:p.nprocs ~config ~elim:p.funnel_elim ~floor:0
               ~init:0 ())
        end
        else
          Locked
            (Pqstruct.Lcounter.create
               ~name:(Printf.sprintf "FunnelTree.counter[%d]" n)
               mem ~nprocs:p.nprocs ~init:0))
  in
  let pool =
    Pqfunnel.Pool.create mem ~nprocs:p.nprocs ~pushes_per_proc:p.ops_per_proc
  in
  let stacks =
    Array.init p.npriorities (fun pri ->
        Pqfunnel.Fstack.create
          ~name:(Printf.sprintf "FunnelTree.stack[%d]" pri)
          mem ~nprocs:p.nprocs ?config:p.funnel_config ~elim:p.funnel_elim
          ~pool ())
  in
  let counter_inc n =
    match counters.(n) with
    | Funnel c -> ignore (Pqfunnel.Fcounter.inc c)
    | Locked c -> ignore (Pqstruct.Lcounter.fai c)
  in
  let counter_bfad n =
    match counters.(n) with
    | Funnel c -> Pqfunnel.Fcounter.dec c
    | Locked c -> Pqstruct.Lcounter.bfad c ~bound:0
  in
  let insert ~pri ~payload =
    Pqfunnel.Fstack.push stacks.(pri) payload;
    let n = ref (Treeshape.leaf_index ~nleaves pri) in
    while !n > 1 do
      let parent = Treeshape.parent !n in
      if Treeshape.is_left_child !n then counter_inc parent;
      n := parent
    done;
    true
  in
  let delete_min () =
    let n = ref 1 in
    while not (Treeshape.is_leaf ~nleaves !n) do
      let i = counter_bfad !n in
      n := if i > 0 then Treeshape.left !n else Treeshape.right !n
    done;
    let pri = !n - nleaves in
    if pri >= p.npriorities then None
    else
      match Pqfunnel.Fstack.pop stacks.(pri) with
      | Some e -> Some (pri, e)
      | None -> None
  in
  let drain_now mem =
    List.concat_map
      (fun pri ->
        List.map
          (fun e -> (pri, e))
          (Pqfunnel.Fstack.drain_now mem stacks.(pri)))
      (List.init p.npriorities Fun.id)
  in
  let check_now mem =
    let counter_peek n =
      match counters.(n) with
      | Funnel c -> Pqfunnel.Fcounter.peek mem c
      | Locked c -> Pqstruct.Lcounter.peek mem c
    in
    let leaf_count pri =
      if pri < p.npriorities then Pqfunnel.Fstack.size_now mem stacks.(pri)
      else 0
    in
    let rec subtree_count n =
      if Treeshape.is_leaf ~nleaves n then leaf_count (n - nleaves)
      else subtree_count (Treeshape.left n) + subtree_count (Treeshape.right n)
    in
    let rec go n =
      if Treeshape.is_leaf ~nleaves n then Ok ()
      else
        let c = counter_peek n in
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
    Pq_intf.name = "FunnelTree";
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }

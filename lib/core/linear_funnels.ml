(* A per-priority funnel bin, abstracted so the stack (the paper's
   choice), the pure FIFO and the hybrid variants share the queue code. *)
type fbin = {
  fb_push : int -> unit;
  fb_pop : unit -> int option;
  fb_is_empty : unit -> bool;
  fb_drain : Pqsim.Mem.t -> int list;
}

let stack_bin ~name mem (p : Pq_intf.params) pool =
  let s =
    Pqfunnel.Fstack.create ~name mem ~nprocs:p.nprocs ?config:p.funnel_config
      ~elim:p.funnel_elim ~pool ()
  in
  {
    fb_push = Pqfunnel.Fstack.push s;
    fb_pop = (fun () -> Pqfunnel.Fstack.pop s);
    fb_is_empty = (fun () -> Pqfunnel.Fstack.is_empty s);
    fb_drain = (fun mem -> Pqfunnel.Fstack.drain_now mem s);
  }

let fifo_bin ~elim ~name mem (p : Pq_intf.params) pool =
  let q =
    Pqfunnel.Fqueue.create ~name mem ~nprocs:p.nprocs ?config:p.funnel_config
      ~elim ~pool ()
  in
  {
    fb_push = Pqfunnel.Fqueue.enqueue q;
    fb_pop = (fun () -> Pqfunnel.Fqueue.dequeue q);
    fb_is_empty = (fun () -> Pqfunnel.Fqueue.is_empty q);
    fb_drain = (fun mem -> Pqfunnel.Fqueue.drain_now mem q);
  }

(* the first nonempty bin from [i] on, scanned at top level so a
   delete-min allocates no closure *)
let rec scan bins ~precheck i =
  if i >= Array.length bins then None
  else if precheck && bins.(i).fb_is_empty () then scan bins ~precheck (i + 1)
  else
    match bins.(i).fb_pop () with
    | Some e -> Some (i, e)
    | None -> scan bins ~precheck (i + 1)

let create_gen ~precheck ~name ~mk_bin mem (p : Pq_intf.params) =
  let pool =
    Pqfunnel.Pool.create mem ~nprocs:p.nprocs ~pushes_per_proc:p.ops_per_proc
  in
  let bins =
    Array.init p.npriorities (fun pri ->
        mk_bin ~name:(Printf.sprintf "%s.bin[%d]" name pri) mem p pool)
  in
  let insert ~pri ~payload =
    bins.(pri).fb_push payload;
    true
  in
  let delete_min () = scan bins ~precheck 0 in
  let drain_now mem =
    List.concat_map
      (fun pri -> List.map (fun e -> (pri, e)) (bins.(pri).fb_drain mem))
      (List.init p.npriorities Fun.id)
  in
  let check_now _mem = Ok () in
  {
    Pq_intf.name = name;
    npriorities = p.npriorities;
    insert;
    delete_min;
    drain_now;
    check_now;
  }

let create mem p =
  create_gen ~precheck:true ~name:"LinearFunnels" ~mk_bin:stack_bin mem p

(* ablation: pay a full funnel traversal even on empty stacks *)
let create_no_precheck mem p =
  create_gen ~precheck:false ~name:"LinearFunnelsNoCheck" ~mk_bin:stack_bin
    mem p

(* Section 3.2 variants: FIFO bins for fairness among equal priorities *)
let create_fifo mem p =
  create_gen ~precheck:true ~name:"LinearFunnelsFifo"
    ~mk_bin:(fifo_bin ~elim:false) mem p

let create_hybrid mem p =
  create_gen ~precheck:true ~name:"LinearFunnelsHybrid"
    ~mk_bin:(fifo_bin ~elim:true) mem p

(* Adapter from the pqrelaxed MultiQueue family to the Pq_intf face, plus
   the registry's ablation variants.  Elements are Elem-packed so a slot
   key carries both priority and payload, like the heap queues. *)

let configs =
  [
    ("MultiQueue", Pqrelaxed.Multiqueue.default);
    ("MultiQueueC4", { Pqrelaxed.Multiqueue.default with c = 4 });
    ("MultiQueueSticky", { Pqrelaxed.Multiqueue.default with stickiness = 8 });
    ("MultiQueueBuffered", { Pqrelaxed.Multiqueue.default with buf = 8 });
  ]

let names = List.map fst configs

let config_of_name name = List.assoc_opt name configs

let rank_bound_for name ~nprocs =
  Option.map
    (fun cfg -> Pqrelaxed.Multiqueue.rank_bound cfg ~nprocs)
    (config_of_name name)

(* one crash-interrupted op can strand its whole in-hand batch: 1
   element, plus anything the variant stages in per-op buffers *)
let slack_per_dangling name =
  match config_of_name name with
  | Some cfg -> 1 + (2 * cfg.Pqrelaxed.Multiqueue.buf)
  | None -> 1

let unpack e = (Pqstruct.Elem.pri e, Pqstruct.Elem.payload e)

let create_named name cfg mem (p : Pq_intf.params) =
  let q =
    Pqrelaxed.Multiqueue.create ~name:(Root name) mem ~nprocs:p.nprocs
      ~capacity:p.capacity
      cfg
  in
  {
    Pq_intf.name;
    npriorities = p.npriorities;
    insert =
      (fun ~pri ~payload ->
        Pqrelaxed.Multiqueue.insert q (Pqstruct.Elem.pack ~pri ~payload));
    delete_min =
      (fun () ->
        let e = Pqrelaxed.Multiqueue.delete_min q in
        if e = Pqrelaxed.Multiqueue.empty then None else Some (unpack e));
    drain_now =
      (fun mem -> List.map unpack (Pqrelaxed.Multiqueue.drain_now mem q));
    check_now = (fun mem -> Pqrelaxed.Multiqueue.check_now mem q);
  }

let create name mem p =
  match config_of_name name with
  | Some cfg -> create_named name cfg mem p
  | None -> invalid_arg ("Multi_queue.create: unknown variant " ^ name)

(* Adapter from the pqrelaxed MultiQueue family to the Pq_intf face, plus
   the registry's ablation variants.  Elements are Elem-packed so a slot
   key carries both priority and payload, like the heap queues. *)

let configs =
  [
    ("MultiQueue", Pqrelaxed.Multiqueue.default);
    ("MultiQueueC4", { Pqrelaxed.Multiqueue.default with c = 4 });
    ("MultiQueueSticky", { Pqrelaxed.Multiqueue.default with stickiness = 8 });
    ( "MultiQueueBuffered",
      { Pqrelaxed.Multiqueue.default with ins_buf = 8; del_buf = 8 } );
  ]

let names = List.map fst configs

let config_of_name name = List.assoc_opt name configs

let rank_bound_for name ~nprocs =
  Option.map
    (fun cfg -> Pqrelaxed.Multiqueue.rank_bound cfg ~nprocs)
    (config_of_name name)

(* Elem.pack's 24-bit payloads overflow at the paper's 256-processor
   workload scale (payload = pid * 100_000 + op); a slot key is one
   63-bit simulated word, so this family packs with 40 payload bits —
   same ordering (priority first, then payload), more headroom *)
let payload_bits = 40
let max_payload = 1 lsl payload_bits

let pack ~pri ~payload =
  if payload < 0 || payload >= max_payload then
    invalid_arg "Multi_queue: payload out of range";
  (pri lsl payload_bits) lor payload

let unpack e = (e lsr payload_bits, e land (max_payload - 1))

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
      (fun ~pri ~payload -> Pqrelaxed.Multiqueue.insert q (pack ~pri ~payload));
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

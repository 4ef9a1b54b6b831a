let table =
  [
    ("SingleLock", Single_lock.create);
    ("HuntEtAl", Hunt.create);
    ("SkipList", Skiplist.create);
    ("SimpleLinear", Bin_queues.simple_linear);
    ("SimpleTree", Bin_queues.simple_tree);
    ("LinearFunnels", Bin_queues.linear_funnels);
    ("FunnelTree", Bin_queues.funnel_tree);
    (* variants beyond the paper's seven: the no-precheck ablation and the
       Section 3.2 fairness alternatives *)
    ("LinearFunnelsNoCheck", Bin_queues.linear_funnels_no_check);
    ("LinearFunnelsFifo", Bin_queues.linear_funnels_fifo);
    ("LinearFunnelsHybrid", Bin_queues.linear_funnels_hybrid);
  ]
  (* the relaxed MultiQueue family (pqrelax): not queues from the paper,
     but the comparison points the rank-error subsystem quantifies *)
  @ List.map (fun n -> (n, Multi_queue.create n)) Multi_queue.names

let names = List.map fst table
let names_relaxed = Multi_queue.names

let variants =
  [ "LinearFunnelsNoCheck"; "LinearFunnelsFifo"; "LinearFunnelsHybrid" ]
  @ names_relaxed

let names_paper =
  List.filter (fun n -> not (List.mem n variants)) (List.map fst table)

let scalable_names =
  [ "SimpleLinear"; "SimpleTree"; "LinearFunnels"; "FunnelTree" ]

let create name mem params =
  match List.assoc_opt name table with
  | Some f ->
      Pq_intf.validate params;
      f mem params
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.create: unknown queue %S (known: %s)" name
           (String.concat ", " (List.sort compare names)))

(* Throughput of the host (real multicore) priority queues under genuine
   Domain parallelism — the quick way for a downstream user to pick an
   implementation for their core count.

   Each domain runs the paper's coin-flip workload (50/50 insert /
   delete-min over 16 priorities) for a fixed number of operations;
   we report million ops/second for 1..N domains per implementation,
   each beside the minor-heap words allocated per operation (every
   domain's [Gc.minor_words] delta, summed).

   Run with:  dune exec examples/host_throughput.exe *)

let npriorities = 16
let ops_per_domain = 200_000

let bench (module Q : Hostpq.Host_intf.S) ndomains =
  let q = Q.create ~npriorities () in
  let worker d () =
    let rng = Random.State.make [| d; 42 |] in
    let w0 = Gc.minor_words () in
    for i = 1 to ops_per_domain do
      if Random.State.bool rng then
        Q.insert q ~pri:(Random.State.int rng npriorities) i
      else ignore (Q.delete_min q)
    done;
    Gc.minor_words () -. w0
  in
  let t0 = Unix.gettimeofday () in
  let words =
    List.init ndomains (fun d -> Domain.spawn (worker d))
    |> List.fold_left (fun acc d -> acc +. Domain.join d) 0.
  in
  let dt = Unix.gettimeofday () -. t0 in
  let ops = float_of_int (ndomains * ops_per_domain) in
  (ops /. dt /. 1e6, words /. ops)

let () =
  let max_domains =
    min 8 (max 2 (Domain.recommended_domain_count () - 1))
  in
  let impls : (string * (module Hostpq.Host_intf.S)) list =
    [
      ("locked-heap", (module Hostpq.Locked_heap));
      ("bin-pq", (module Hostpq.Bin_pq));
      ("tree-pq", (module Hostpq.Tree_pq));
      ("multiqueue", (module Hostpq.Multi_pq));
    ]
  in
  let domain_counts =
    List.filter (fun d -> d <= max_domains) [ 1; 2; 4; 8 ]
  in
  Printf.printf
    "host throughput: 50/50 insert/delete-min, %d priorities, %d ops per \
     domain (Mops/s, higher is better; minor words/op, lower is better)\n\n"
    npriorities ops_per_domain;
  Printf.printf "%12s" "domains";
  List.iter (fun d -> Printf.printf "%16d" d) domain_counts;
  print_newline ();
  List.iter
    (fun (name, m) ->
      Printf.printf "%12s" name;
      List.iter
        (fun d ->
          let mops, words = bench m d in
          Printf.printf "%8.2f %5.2fw" mops words)
        domain_counts;
      print_newline ())
    impls;
  print_newline ();
  print_endline
    "The mutex heap serializes everything; the bin queue scales until its\n\
     low bins contend; the tree queue (FunnelTree's design on atomics)\n\
     spreads traffic across counters and elimination stacks; the\n\
     multiqueue trades exact minima for independent slots.  A delete that\n\
     finds an element allocates its 5-word Some (pri, v), so about 2.5\n\
     words/op is the floor here; the bin and tree queues add a 3-word\n\
     cons cell per insert, and the tree queue the stack's Some v."

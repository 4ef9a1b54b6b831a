(* The benchmark's vocabulary: its workloads, the queues each one runs,
   and every metric with its unit.  BENCHMARK.json declares the same
   names and units (plus bounds and directions); the smoke check holds
   the two equal. *)

let workloads = [ "sim-fig7"; "sim-fig6"; "host-coinflip"; "host-hold" ]

(* Fig 7's four scalable queues, and Fig 6's seven plus the MultiQueue *)
let sim_fig7_queues = Pqcore.Registry.scalable_names
let sim_fig6_queues = Pqcore.Registry.names_paper @ [ "MultiQueue" ]

(* Host queues measured on two domains; all three lock through Hlock.
   HostTreePQ is left out: its elimination stacks lose elements under
   two-domain contention, so its reps fail the conservation check (see
   README.md). *)
let host_queues : (string * (module Hostpq.Host_intf.S)) list =
  [
    ("HostLockedHeap", (module Hostpq.Locked_heap));
    ("HostBinPQ", (module Hostpq.Bin_pq));
    ("HostMultiPQ", (module Hostpq.Multi_pq));
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("minor_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("evq.ns_per_event", "ns/event");
    ("evq.words_per_event", "words/event");
    ("evq.events_per_op", "events/op");
    ("evq.replay_coverage", "ratio");
    ("evq.share", "ratio");
    ("mem.ns_per_access", "ns/access");
    ("mem.words_per_access", "words/access");
    ("mem.accesses_per_op", "accesses/op");
    ("mem.replay_fidelity", "ratio");
    ("mem.hit_ratio", "ratio");
    ("mem.misses_per_op", "misses/op");
    ("mem.queue_wait_per_op", "cycles/op");
    ("mem.share", "ratio");
    ("sim.residual_ns_per_op", "ns/op");
    ("sim.residual_share", "ratio");
    ("sync.lock_wait_per_op", "cycles/op");
    ("sync.lock_contended_ratio", "ratio");
    ("sync.cas_fail_ratio", "ratio");
    ("funnel.combining_rate", "ratio");
    ("funnel.elimination_rate", "ratio");
    ("trace.overhead", "ratio");
  ]
  @ List.concat_map
      (fun q ->
        [
          ("core." ^ q ^ ".cycles_per_op", "cycles/op");
          ("core." ^ q ^ ".empty_delete_ratio", "ratio");
          ("core." ^ q ^ ".host_ns_per_op", "ns/op");
          ("core." ^ q ^ ".words_per_op", "words/op");
        ])
      sim_fig6_queues
  @ List.concat_map
      (fun (h, _) ->
        [
          ("hostpq." ^ h ^ ".ops_per_s", "op/s");
          ("hostpq." ^ h ^ ".ops_per_s_1d", "op/s");
          ("hostpq." ^ h ^ ".insert_ns_p50", "ns");
          ("hostpq." ^ h ^ ".insert_ns_p99", "ns");
          ("hostpq." ^ h ^ ".delete_ns_p50", "ns");
          ("hostpq." ^ h ^ ".delete_ns_p99", "ns");
          ("hostpq." ^ h ^ ".latency_samples", "count");
          ("hostpq." ^ h ^ ".empty_delete_ratio", "ratio");
          ("hostpq." ^ h ^ ".words_per_op", "words/op");
        ])
      host_queues
  @ List.concat_map
      (fun (h, _) ->
        [
          ("hlock." ^ h ^ ".acquires_per_op", "count/op");
          ("hlock." ^ h ^ ".contended_ratio", "ratio");
          ("hlock." ^ h ^ ".try_fail_ratio", "ratio");
        ])
      host_queues

let metrics ~trace = if trace then per_layer else end_to_end

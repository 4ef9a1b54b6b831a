(* The allocation gate for the simulated-processor path and the host
   queues.

   The engine allocates host memory only where the OCaml runtime must:
   one 2-word continuation per scheduling effect (read, write, swap, cas,
   faa, work, wait_change).  Queries (now, self, rand, record, ...) are
   plain calls; parking, waking and the event queue's scans allocate
   nothing; and the funnel engine, its clients, the locks and the heap,
   bin and skip-list structures allocate nothing per operation
   (DESIGN.md §20).  The host queues allocate only
   what their results need (DESIGN.md §21).  Minor-heap words are
   deterministic for a given compiler and input, so this test pins them.

   Run on its own it prints the measured table:

     dune exec test/test_alloc.exe *)

open Pqsim

let table = Buffer.create 1024

let gate ~what ~unit ~bound measured =
  Printf.bprintf table "%-40s %7.3f %s  (bound %.3f)\n" what measured unit
    bound;
  if measured > bound then
    Alcotest.failf "%s: %.3f %s, over the bound %.3f" what measured unit bound

(* ------------------------------------------------------------------ *)
(* whole queues: Workload.run at P=64, for every queue pqperf's sim-fig6
   workload runs.  The bound is the value measured when the gate was
   set, plus 10%; the workload's own bookkeeping (latency samples, result
   options) is included. *)

let queue_gate queue ~measured () =
  Sim.reset_harness_totals ();
  ignore
    (Pqbenchlib.Workload.run
       (Pqbenchlib.Workload.spec ~queue ~nprocs:64 ~npriorities:16));
  let events, words = Sim.harness_totals () in
  gate
    ~what:(queue ^ " P=64")
    ~unit:"words/event" ~bound:(1.1 *. measured)
    (float_of_int words /. float_of_int events)

(* ------------------------------------------------------------------ *)
(* construction: the minor words Registry.create allocates for each
   sim-fig6 queue at pqperf's parameters (P=16, Workload.params_of), as
   a run that builds the queue and does nothing else minus a run that
   builds nothing.  Each run follows a full major collection, so both
   reuse a dead memory's tables and a spare event queue.  Names cost
   only their unformatted steps (Mem.name), so formatting them again at
   construction (about 40,800 words a run for FunnelTree, 22,100 for
   LinearFunnels, 6,500 for SkipList) fails these rows. *)

let construction_gate queue ~measured () =
  let p =
    Pqbenchlib.Workload.params_of
      (Pqbenchlib.Workload.spec ~queue ~nprocs:16 ~npriorities:16)
  in
  let run setup =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (Sim.run ~nprocs:16 ~setup ~program:(fun _ _ -> ()) ());
    Gc.minor_words () -. w0
  in
  let build mem = ignore (Pqcore.Registry.create queue mem p) in
  ignore (run build);
  let built = run build and bare = run ignore in
  gate
    ~what:(queue ^ " construction P=16")
    ~unit:"words/run" ~bound:(1.1 *. measured) (built -. bare)

(* ------------------------------------------------------------------ *)
(* exact counts: engine events and memory operations (hits + misses +
   updates) of one Workload.run of each of pqperf's sim-fig6 queues at
   P=16, seed 42.  Both are exact for a given input, whatever the
   compiler, so they are pinned to equality: a change that adds an event
   or an access (a wait re-check, say) shows here even where it moves no
   simulated cycle. *)

let counts_gate queue ~events ~memops () =
  Sim.reset_harness_totals ();
  let s = Pqbenchlib.Workload.spec ~queue ~nprocs:16 ~npriorities:16 in
  let r = Pqbenchlib.Workload.run s in
  let measured_events, _ = Sim.harness_totals () in
  let measured_memops = Mem.hits r.mem + Mem.misses r.mem + Mem.updates r.mem in
  let ops = float_of_int (s.nprocs * s.ops_per_proc) in
  Printf.bprintf table "%-40s %7.3f events/op, %7.3f accesses/op\n"
    (queue ^ " P=16 seed 42")
    (float_of_int measured_events /. ops)
    (float_of_int measured_memops /. ops);
  Alcotest.(check int) (queue ^ " events") events measured_events;
  Alcotest.(check int) (queue ^ " memory operations") memops measured_memops

(* ------------------------------------------------------------------ *)
(* primitives at P=1: minor words per performed effect, as the marginal
   rate between runs of [n] and [2n] iterations, so the fixed cost of
   starting a run (handler closures, the fiber) drops out.  Only the
   runtime's continuation may remain: 2 words per effect. *)

let iterations = 1_000

let per_effect ?(results = 0) ~setup ~op () =
  let run n =
    Sim.reset_harness_totals ();
    ignore
      (Sim.run ~nprocs:1 ~setup
         ~program:(fun s _ ->
           for _ = 1 to n do
             op s
           done)
         ());
    Sim.harness_totals ()
  in
  let e1, w1 = run iterations in
  let e2, w2 = run (2 * iterations) in
  (* [results] words per iteration are the operation's own return value,
     allocated for the caller *)
  float_of_int (w2 - w1 - (results * iterations)) /. float_of_int (e2 - e1)

(* HuntEtAl's construction: minor words per heap node, as the marginal
   rate between heaps of [n] and [2n] nodes at P=64, so the run's fixed
   cost drops out.  A node costs its lock's record; all the locks share
   two label registrations (Mem.label_records), and a lock makes its
   probe-only timestamps only under a probe.  Naming every node lock
   eagerly costs 80 words a node, and with eager timestamps it cost
   141. *)
let hunt_construction () =
  let build capacity =
    let p =
      { (Pqcore.Pq_intf.default_params ~nprocs:64 ~npriorities:16) with
        capacity }
    in
    let w0 = Gc.minor_words () in
    ignore
      (Sim.run ~nprocs:64
         ~setup:(fun mem -> Pqcore.Registry.create "HuntEtAl" mem p)
         ~program:(fun _ _ -> ())
         ());
    Gc.minor_words () -. w0
  in
  ignore (build iterations);
  let w1 = build iterations in
  let w2 = build (2 * iterations) in
  (w2 -. w1) /. float_of_int iterations

let primitive_gate ~what measure () =
  gate ~what:(what ^ " P=1") ~unit:"words/effect" ~bound:2.0 (measure ())

let fcounter_inc =
  per_effect
    ~setup:(fun mem -> Pqfunnel.Fcounter.create mem ~nprocs:1 ~init:0 ())
    ~op:(fun c -> ignore (Pqfunnel.Fcounter.inc c))

(* [pop] returns its element in a [Some] cell: 2 words per iteration that
   belong to the caller, not to the funnel path *)
let fstack_push_pop =
  per_effect ~results:2
    ~setup:(fun mem ->
      Pqfunnel.Fstack.create mem ~nprocs:1
        ~max_pushes_per_proc:(2 * iterations) ())
    ~op:(fun s ->
      Pqfunnel.Fstack.push s 7;
      ignore (Pqfunnel.Fstack.pop s))

let tas_acquire_release =
  per_effect
    ~setup:(fun mem -> Pqsync.Tas.create mem)
    ~op:(fun l ->
      Pqsync.Tas.acquire l;
      Pqsync.Tas.release l)

(* ------------------------------------------------------------------ *)
(* one warm run: the major-heap words a Sim.run at P=16 allocates
   directly (not promoted from the minor heap), one read per processor,
   after a first run and a full major collection.  A warm run takes its
   domain's spare event queue and the dead first run's memory
   reservation, so nothing it builds is large enough for the major heap;
   a run that built its queue afresh would allocate the two 4,096-word
   bucket arrays there. *)

let warm_run_major_words () =
  let run () =
    ignore
      (Sim.run ~nprocs:16
         ~setup:(fun mem -> Mem.alloc mem 1)
         ~program:(fun a _ -> ignore (Api.read a))
         ())
  in
  run ();
  Gc.full_major ();
  let _, promoted0, major0 = Gc.counters () in
  run ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. major0 -. (promoted1 -. promoted0)

(* ------------------------------------------------------------------ *)
(* host queues and their helpers on one domain: minor words per call, as
   the marginal rate between [n] and [2n] calls on freshly prepared
   state, after one untimed pass that does any lazy per-domain set-up.
   Single-domain calls never contend, so every count is exact.  An
   insert allocates nothing but a cons cell where the queue keeps lists,
   a delete_min nothing but its 5-word [Some (pri, v)] result, and a
   retry step or an uncontended bounded-counter step nothing at all; the
   rows say where a queue's own structure adds to that. *)

let per_call ~prepare ~op () =
  let run n =
    let x = prepare n in
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      op x i
    done;
    let w = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity x);
    w
  in
  ignore (run iterations);
  let w1 = run iterations in
  let w2 = run (2 * iterations) in
  (w2 -. w1) /. float_of_int iterations

let exact_gate ~what ~expect measure () =
  let measured = measure () in
  Printf.bprintf table "%-40s %7.3f words/call   (exactly %.0f)\n" what
    measured expect;
  if measured <> expect then
    Alcotest.failf "%s: %.3f words/call, expected exactly %.0f" what measured
      expect

let host_npriorities = 1024

module Host_rows (Q : Hostpq.Host_intf.S) = struct
  (* a queue of [4n] elements, so [2n] deletions never leave a pick-2
     queue's slots empty enough to retry *)
  let filled n =
    let q = Q.create ~npriorities:host_npriorities () in
    for i = 1 to 4 * n do
      Q.insert q ~pri:(i * 7919 mod host_npriorities) i
    done;
    q

  (* the same queue drained: grown to its working size, then empty *)
  let drained n =
    let q = filled n in
    while Q.delete_min q <> None do
      ()
    done;
    q

  let delete q _ = ignore (Sys.opaque_identity (Q.delete_min q))

  let rows ~name ~insert ~delete:deleted ~empty =
    let row what expect ~prepare ~op =
      let what = name ^ "." ^ what in
      Alcotest.test_case what `Quick
        (exact_gate ~what ~expect (per_call ~prepare ~op))
    in
    [
      row "insert" insert ~prepare:drained ~op:(fun q i ->
          Q.insert q ~pri:(i * 7919 mod host_npriorities) i);
      row "delete_min" deleted ~prepare:filled ~op:delete;
      row "delete_min (empty)" empty ~prepare:drained ~op:delete;
    ]
end

(* a fixed slot count, so the fill covers every slot whatever the core
   count *)
module Multi_pq4 = struct
  include Hostpq.Multi_pq

  let create ~npriorities () = create_sized ~npriorities ~slots:4 ()
end

let host_helper_rows =
  let open Hostpq in
  let row what expect ~prepare ~op =
    Alcotest.test_case what `Quick
      (exact_gate ~what ~expect (per_call ~prepare ~op))
  in
  [
    row "Retry.once" 0.
      ~prepare:(fun _ -> Retry.start "gate")
      ~op:(fun r _ -> Retry.once r);
    row "Bounded_counter.inc (ceiling)" 0.
      ~prepare:(fun _ -> Bounded_counter.create ~ceil:max_int 0)
      ~op:(fun c _ -> ignore (Bounded_counter.inc c));
    row "Bounded_counter.dec (floor)" 0.
      ~prepare:(fun n -> Bounded_counter.create ~floor:0 (4 * n))
      ~op:(fun c _ -> ignore (Bounded_counter.dec c));
    (* the lock's fast paths: one CAS and one exchange, or a failed
       test of a held word *)
    row "Hlock.lock + unlock (uncontended)" 0.
      ~prepare:(fun _ -> Hlock.create ())
      ~op:(fun l _ ->
        Hlock.lock l;
        Hlock.unlock l);
    row "Hlock.try_lock (held, fails)" 0.
      ~prepare:(fun _ ->
        let l = Hlock.create () in
        Hlock.lock l;
        l)
      ~op:(fun l _ -> ignore (Sys.opaque_identity (Hlock.try_lock l)));
    (* the pushed cons cell and the popped [Some v] *)
    row "Elim_stack.push + pop" 5.
      ~prepare:(fun _ -> Elim_stack.create ())
      ~op:(fun s i ->
        Elim_stack.push s i;
        ignore (Sys.opaque_identity (Elim_stack.pop s)));
  ]

let () =
  Fun.protect
    ~finally:(fun () ->
      print_newline ();
      print_string (Buffer.contents table))
    (fun () ->
      Alcotest.run ~and_exit:false "pqalloc"
        [
          ( "queues",
            [
              Alcotest.test_case "FunnelTree" `Quick
                (queue_gate "FunnelTree" ~measured:2.058);
              Alcotest.test_case "LinearFunnels" `Quick
                (queue_gate "LinearFunnels" ~measured:2.074);
              Alcotest.test_case "SimpleTree" `Quick
                (queue_gate "SimpleTree" ~measured:2.017);
              Alcotest.test_case "SimpleLinear" `Quick
                (queue_gate "SimpleLinear" ~measured:2.008);
              Alcotest.test_case "SingleLock" `Quick
                (queue_gate "SingleLock" ~measured:2.068);
              Alcotest.test_case "HuntEtAl" `Quick
                (queue_gate "HuntEtAl" ~measured:1.951);
              Alcotest.test_case "SkipList" `Quick
                (queue_gate "SkipList" ~measured:1.907);
              Alcotest.test_case "MultiQueue" `Quick
                (queue_gate "MultiQueue" ~measured:2.169);
              Alcotest.test_case "HuntEtAl construction" `Quick (fun () ->
                  gate ~what:"HuntEtAl construction P=64" ~unit:"words/node"
                    ~bound:(1.1 *. 4.014) (hunt_construction ()));
            ] );
          ( "construction",
            List.map
              (fun (queue, measured) ->
                Alcotest.test_case queue `Quick
                  (construction_gate queue ~measured))
              [
                ("SingleLock", 75.);
                ("HuntEtAl", 2664.);
                ("SkipList", 1899.);
                ("SimpleLinear", 872.);
                ("SimpleTree", 1562.);
                ("LinearFunnels", 3234.);
                ("FunnelTree", 5082.);
                ("MultiQueue", 2151.);
              ] );
          ( "counts",
            List.map
              (fun (queue, events, memops) ->
                Alcotest.test_case queue `Quick
                  (counts_gate queue ~events ~memops))
              [
                ("SingleLock", 10328, 9688);
                ("HuntEtAl", 44034, 43394);
                ("SkipList", 98296, 94050);
                ("SimpleLinear", 14876, 14236);
                ("SimpleTree", 22167, 21527);
                ("LinearFunnels", 26715, 25410);
                ("FunnelTree", 42810, 41652);
                ("MultiQueue", 14095, 12887);
              ] );
          ( "primitives",
            [
              Alcotest.test_case "Fcounter.inc" `Quick
                (primitive_gate ~what:"Fcounter.inc" fcounter_inc);
              Alcotest.test_case "Fstack.push + pop" `Quick
                (primitive_gate ~what:"Fstack.push + pop" fstack_push_pop);
              Alcotest.test_case "Tas.acquire + release" `Quick
                (primitive_gate ~what:"Tas.acquire + release"
                   tas_acquire_release);
            ] );
          ( "engine",
            [
              Alcotest.test_case "warm Sim.run major words" `Quick
                (fun () ->
                  gate ~what:"warm Sim.run P=16 (major heap)"
                    ~unit:"words/run" ~bound:0. (warm_run_major_words ()));
            ] );
          ( "host",
            (let module R = Host_rows (Hostpq.Locked_heap) in
             R.rows ~name:"Locked_heap" ~insert:0. ~delete:5. ~empty:0.)
            @ (let module R = Host_rows (Hostpq.Bin_pq) in
               R.rows ~name:"Bin_pq" ~insert:3. ~delete:5. ~empty:0.)
            (* an empty queue fails every pick-2 attempt: one retry
               state (5 words) in its [Some] (2) *)
            @ (let module R = Host_rows (Multi_pq4) in
               R.rows ~name:"Multi_pq" ~insert:0. ~delete:5. ~empty:7.)
            (* the elimination stack's cons cell on insert; its [Some v]
               under the queue's [Some (pri, v)] on delete *)
            @ (let module R = Host_rows (Hostpq.Tree_pq) in
               R.rows ~name:"Tree_pq" ~insert:3. ~delete:7. ~empty:0.)
            @ host_helper_rows );
        ])

(* The allocation gate for the simulated-processor path.

   The engine allocates host memory only where the OCaml runtime must:
   one 2-word continuation per scheduling effect (read, write, swap, cas,
   faa, work, wait_change).  Queries (now, self, rand, record, ...) are
   plain calls, and the funnel engine, its clients and the locks allocate
   nothing per operation (DESIGN.md §20).  Minor-heap words are
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
(* whole queues: Workload.run at P=64.  The bound is the value measured
   when the gate was set, plus 10%; the workload's own bookkeeping
   (latency samples, conservation lists, result options) is included. *)

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
                (queue_gate "FunnelTree" ~measured:2.210);
              Alcotest.test_case "LinearFunnels" `Quick
                (queue_gate "LinearFunnels" ~measured:2.278);
              Alcotest.test_case "SimpleTree" `Quick
                (queue_gate "SimpleTree" ~measured:2.697);
              Alcotest.test_case "SimpleLinear" `Quick
                (queue_gate "SimpleLinear" ~measured:2.716);
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
        ])

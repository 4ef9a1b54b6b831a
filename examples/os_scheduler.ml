(* An operating-system run queue on the simulated 64-processor machine —
   the scenario the paper's introduction motivates (bounded priority
   ranges "as can be found in operating system schedulers").

   64 simulated processors share one run queue.  Each scheduling round a
   processor dequeues the highest-priority ready task, "runs" it for its
   remaining quantum, then either re-enqueues it (demoted one priority
   level, as an aging scheduler would) or retires it.  We run the same
   trace over a centralized SingleLock queue and over FunnelTree and
   compare makespan and per-dispatch latency.

   Run with:  dune exec examples/os_scheduler.exe *)

open Pqsim

let nprocs = 64
let npriorities = 8
let tasks_per_proc = 6
let quantum = 50

let run queue_name =
  let dispatched = ref 0 in
  let retired = ref 0 in
  let _, result =
    Sim.run ~nprocs ~seed:2026
      ~setup:(fun mem ->
        let params =
          {
            (Pqcore.Pq_intf.default_params ~nprocs ~npriorities) with
            capacity = (nprocs * tasks_per_proc) + 1;
            ops_per_proc = tasks_per_proc * (npriorities + 1);
          }
        in
        Pqcore.Registry.create queue_name mem params)
      ~program:(fun q pid ->
        (* every processor seeds the queue with freshly arrived tasks *)
        for t = 1 to tasks_per_proc do
          let pri = Api.rand npriorities in
          ignore
            (q.Pqcore.Pq_intf.insert ~pri ~payload:((pid * 100) + t))
        done;
        (* then schedules until the queue is empty *)
        let rec schedule () =
          match
            Api.timed "dispatch" (fun () -> q.Pqcore.Pq_intf.delete_min ())
          with
          | None -> () (* no ready task: this processor idles out *)
          | Some (pri, task) ->
              incr dispatched;
              Api.work quantum;
              if pri + 1 < npriorities then begin
                (* task not finished: re-enqueue demoted (aging) *)
                ignore (q.Pqcore.Pq_intf.insert ~pri:(pri + 1) ~payload:task);
                schedule ()
              end
              else begin
                incr retired;
                schedule ()
              end
        in
        schedule ())
      ()
  in
  let mean = Stats.mean result.Sim.stats "dispatch" in
  Printf.printf
    "%-12s  makespan %7d cycles   dispatches %5d   retired %4d   mean \
     dispatch latency %6.0f cycles\n"
    queue_name result.Sim.cycles !dispatched !retired mean

let () =
  Printf.printf
    "OS run-queue simulation: %d processors, %d priority levels, aging \
     scheduler\n\n"
    nprocs npriorities;
  List.iter run [ "SingleLock"; "SimpleTree"; "FunnelTree" ];
  print_newline ();
  print_endline
    "The centralized heap serializes every dispatch; the funnel tree keeps\n\
     dispatch latency flat by diffusing the hot counters near the root."

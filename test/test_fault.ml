(* Tests for fault injection: the engine's fault primitives (crash-stop,
   pause, watchdog, spin limit, degraded memory), the fault plans, and
   the chaos driver's progress verdicts, post-fault safety and gate on
   the coin-flip scenario. *)

open Pqchaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* engine primitives *)

let test_watchdog_fires () =
  (* a processor that never performs Progress trips the watchdog, and the
     diagnosis says so *)
  match
    Pqsim.Sim.run ~nprocs:1 ~watchdog:100
      ~setup:(fun _ -> ())
      ~program:(fun () _ ->
        for _ = 1 to 50 do
          Pqsim.Api.work 50
        done)
      ()
  with
  | exception Pqsim.Sim.Progress_failure d ->
      Alcotest.(check string) "reason" "watchdog expired" d.Pqsim.Sim.reason;
      check_bool "stalled at least the threshold" true
        (d.Pqsim.Sim.stalled_for > 100)
  | _ -> Alcotest.fail "expected Progress_failure"

let test_progress_feeds_watchdog () =
  (* the identical loop completes once each iteration reports progress *)
  let _, r =
    Pqsim.Sim.run ~nprocs:1 ~watchdog:100
      ~setup:(fun _ -> ())
      ~program:(fun () _ ->
        for _ = 1 to 50 do
          Pqsim.Api.work 50;
          Pqsim.Api.progress ()
        done)
      ()
  in
  check_int "all iterations ran" 2500 r.Pqsim.Sim.cycles

let test_crash_stop_drops_continuation () =
  (* proc 0 is crash-stopped at its second decision; proc 1 finishes and
     the run ends with the crash on record *)
  let policy info =
    if info.Pqsim.Sched.proc = 0 && info.Pqsim.Sched.step >= 2 then
      Pqsim.Sched.Stall_forever
    else Pqsim.Sched.run_
  in
  let cell, r =
    Pqsim.Sim.run ~nprocs:2 ~policy
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
      ~program:(fun cell pid ->
        for i = 1 to 10 do
          Pqsim.Api.write (cell + pid) i
        done)
      ()
  in
  Alcotest.(check (list int)) "proc 0 recorded crashed" [ 0 ] r.Pqsim.Sim.faulted;
  check_int "survivor finished all writes" 10
    (Pqsim.Mem.peek r.Pqsim.Sim.mem (cell + 1));
  check_bool "victim stopped early" true
    (Pqsim.Mem.peek r.Pqsim.Sim.mem cell < 10)

let test_crash_strands_waiter_with_diagnosis () =
  (* proc 0 crashes on the very write proc 1 is waiting to see change
     again; the drained event queue becomes a structured diagnosis naming
     the parked processor, the line, and the crashed last writer *)
  let flag = ref (-1) in
  let policy info =
    if info.Pqsim.Sched.proc = 0 && info.Pqsim.Sched.op = Pqsim.Sched.Write
    then Pqsim.Sched.Stall_forever
    else Pqsim.Sched.run_
  in
  match
    Pqsim.Sim.run ~nprocs:2 ~policy
      ~setup:(fun mem ->
        let a = Pqsim.Mem.alloc mem 1 in
        flag := a;
        a)
      ~program:(fun a pid ->
        if pid = 0 then begin
          Pqsim.Api.work 10;
          Pqsim.Api.write a 1 (* crashes here; the store still lands *)
        end
        else ignore (Pqsim.Api.await a ~until:(fun v -> v = 2)))
      ()
  with
  | exception Pqsim.Sim.Progress_failure d ->
      Alcotest.(check string) "reason" "event queue drained" d.Pqsim.Sim.reason;
      Alcotest.(check (list int)) "crashed proc" [ 0 ] d.Pqsim.Sim.faulted;
      check_bool "waiter parked on the flag line" true
        (List.mem (1, !flag) d.Pqsim.Sim.parked);
      check_bool "crashed proc implicated as last writer" true
        (List.mem (!flag, 0) d.Pqsim.Sim.writers)
  | _ -> Alcotest.fail "expected Progress_failure"

let test_pause_is_transparent () =
  (* an unbounded-looking pause only delays completion *)
  let paused = ref false in
  let policy info =
    if info.Pqsim.Sched.proc = 0 && not !paused then begin
      paused := true;
      Pqsim.Sched.Pause 10_000
    end
    else Pqsim.Sched.run_
  in
  let c, r =
    Pqsim.Sim.run ~nprocs:2 ~policy
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
      ~program:(fun c _ ->
        for _ = 1 to 5 do
          ignore (Pqsim.Api.faa c 1)
        done)
      ()
  in
  Alcotest.(check (list int)) "nobody faulted" [] r.Pqsim.Sim.faulted;
  check_int "all ops applied" 10 (Pqsim.Mem.peek r.Pqsim.Sim.mem c);
  check_bool "pause visible in the cycle count" true
    (r.Pqsim.Sim.cycles >= 10_000)

let test_spin_limit_bounds_wakeups () =
  (* same-value stores re-wake a spinner without satisfying it; the
     engine turns that livelock into Spin_limit instead of running it to
     the end of time *)
  match
    Pqsim.Sim.run ~nprocs:2 ~max_wait_wakeups:10
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
      ~program:(fun a pid ->
        if pid = 0 then
          for _ = 1 to 1000 do
            Pqsim.Api.write a 0
          done
        else ignore (Pqsim.Api.wait_change a 0))
      ()
  with
  | exception Pqsim.Sim.Spin_limit { proc; wakeups; _ } ->
      check_int "the spinner is implicated" 1 proc;
      check_bool "past the bound" true (wakeups > 10)
  | _ -> Alcotest.fail "expected Spin_limit"

let test_degraded_node_slows_service () =
  let run factor =
    let _, r =
      Pqsim.Sim.run ~nprocs:4
        ~setup:(fun mem ->
          let a = Pqsim.Mem.alloc mem 1 in
          if factor > 1 then
            Pqsim.Mem.degrade_node mem
              ~node:(Pqsim.Machine.home_module (Pqsim.Mem.machine mem) a)
              ~factor;
          a)
        ~program:(fun a _ ->
          for _ = 1 to 20 do
            ignore (Pqsim.Api.faa a 1)
          done)
        ()
    in
    r.Pqsim.Sim.cycles
  in
  check_bool "8x slower module stretches the run" true (run 8 > run 1)

(* ------------------------------------------------------------------ *)
(* plans *)

let test_plan_names_roundtrip () =
  List.iter
    (fun p ->
      match Plan.of_string (Plan.name p) with
      | Ok p' ->
          Alcotest.(check string) "name survives parsing" (Plan.name p)
            (Plan.name p')
      | Error e -> Alcotest.fail e)
    Plan.all;
  check_bool "unknown plan rejected" true
    (Result.is_error (Plan.of_string "meteor-strike"))

let test_plan_unknown_error_names_valid_set () =
  (* mirror Registry: the error must list every valid arm, sorted *)
  Alcotest.(check (list string))
    "names are sorted"
    (List.sort compare (List.map Plan.name Plan.all))
    Plan.names;
  match Plan.of_string "meteor-strike" with
  | Ok _ -> Alcotest.fail "parsed an unknown plan"
  | Error e ->
      check_bool "error names the rejected input" true
        (try
           ignore (Str.search_forward (Str.regexp_string "meteor-strike") e 0);
           true
         with Not_found -> false);
      List.iter
        (fun n ->
          check_bool
            (Printf.sprintf "error lists %s" n)
            true
            (try
               ignore (Str.search_forward (Str.regexp_string n) e 0);
               true
             with Not_found -> false))
        Plan.names

let test_plan_finiteness () =
  check_bool "crash plans are not finite" false
    (Plan.finite Plan.Crash_random || Plan.finite Plan.Crash_lock_holder);
  check_bool "pause and slow-node are finite" true
    (Plan.finite (Plan.Pause_resume { pause = 1 })
    && Plan.finite (Plan.Slow_node { node = 0; factor = 2 }))

let test_arm_deterministic () =
  let a = Plan.arm Plan.Crash_random ~seed:5 ~nprocs:8 in
  let b = Plan.arm Plan.Crash_random ~seed:5 ~nprocs:8 in
  Alcotest.(check string) "same seed, same injection" a.Plan.trigger
    b.Plan.trigger;
  check_bool "victim inside the machine" true
    (match a.Plan.victim with Some v -> v >= 0 && v < 8 | None -> false)

(* ------------------------------------------------------------------ *)
(* progress verdicts of the chaos driver's coin-flip cells *)

let coinflip ~queues ~plans ~seeds ~ops_per_proc =
  Driver.run
    {
      Driver.quick with
      queues;
      scenarios = [ "coinflip" ];
      plans = None :: List.map Option.some plans;
      scheds = [ Pqexplore.Policy.Default ];
      seeds;
      ops_per_proc;
    }

let test_single_lock_blocks_on_crashed_lock_holder () =
  (* the paper's baseline is blocking: kill the lock holder and every
     other processor is stuck — and the engine proves it, with no safety
     violation among the survivors *)
  let cells =
    coinflip ~queues:[ "SingleLock" ] ~plans:[ Plan.Crash_lock_holder ]
      ~seeds:[ 42; 1; 7 ] ~ops_per_proc:Driver.quick.ops_per_proc
  in
  List.iter
    (fun (c : Driver.cell) ->
      if c.plan = "crash-lock" then
        Alcotest.(check string)
          (Printf.sprintf "seed %d verdict" c.seed)
          "blocked"
          (Driver.verdict_label c.verdict))
    cells;
  Alcotest.(check (list string))
    "a blocking queue may block under a crash: gate passes" []
    (Driver.gate cells)

let test_finite_faults_never_block () =
  (* pause and slow-node end by themselves: every queue must finish.
     This is the hang-proofing acceptance test for the funnel engine's
     bounded waiting loops. *)
  let cells =
    coinflip ~queues:Pqcore.Registry.names_paper
      ~plans:
        [
          Plan.Pause_resume { pause = 2_000 };
          Plan.Slow_node { node = 0; factor = 4 };
        ]
      ~seeds:[ 1; 2 ] ~ops_per_proc:5
  in
  List.iter
    (fun (c : Driver.cell) ->
      check_bool
        (Printf.sprintf "%s/%s seed %d not blocked" c.queue c.plan c.seed)
        false
        (match c.verdict with Driver.Blocked _ -> true | _ -> false))
    cells;
  Alcotest.(check (list string)) "gate passes" [] (Driver.gate cells)

let test_crash_faults_preserve_safety () =
  (* whatever a crash does to progress, the surviving operations must
     still conserve elements and stay within the rank bound *)
  let cells =
    coinflip ~queues:Pqcore.Registry.names_paper
      ~plans:[ Plan.Crash_random; Plan.Crash_lock_holder ]
      ~seeds:[ 1; 2 ] ~ops_per_proc:5
  in
  List.iter
    (fun (c : Driver.cell) ->
      check_bool
        (Printf.sprintf "%s/%s seed %d safe (%s)" c.queue c.plan c.seed
           (Driver.verdict_detail c.verdict))
        false
        (match c.verdict with Driver.Safety_violation _ -> true | _ -> false))
    cells

let test_gate_rejects_finite_plan_blockage () =
  (* fabricate the verdicts the gate exists to catch *)
  let cell =
    {
      Driver.queue = "SingleLock";
      scenario = "coinflip";
      plan = "none";
      sched = "default";
      seed = 1;
      verdict = Driver.Healthy;
      cycles = 0;
      ops = 0;
      worst_rank = 0;
      bound = 0;
      live_high_water = 0;
      dangling = 0;
    }
  in
  let gated plan verdict = Driver.gate [ { cell with plan; verdict } ] <> [] in
  List.iter
    (fun plan ->
      check_bool (plan ^ ": blockage gated") true
        (gated plan (Driver.Blocked "synthetic hang")))
    [ "pause"; "slow-node"; "none" ];
  List.iter
    (fun plan ->
      check_bool (plan ^ ": blockage recorded, not gated") false
        (gated plan (Driver.Blocked "synthetic hang")))
    [ "crash-one"; "crash-lock" ];
  List.iter
    (fun plan ->
      check_bool (plan ^ ": safety violation gated") true
        (gated plan (Driver.Safety_violation "synthetic loss")))
    Driver.plan_names;
  (* and the verdict the gate reads: a real run, re-judged with its rank
     error at and then one over the queue's bound *)
  List.iter
    (fun queue ->
      let c, o =
        Driver.run_cell Driver.quick ~queue ~scenario:"coinflip" ~plan:None
          ~sched:Pqexplore.Policy.Default ~seed:1 ~baseline:None
      in
      let with_rank max_rank =
        let rank = { o.monitor.rank with max_rank } in
        let verdict =
          Driver.judge Driver.quick ~queue ~baseline:None
            { o with monitor = { o.monitor with rank } }
        in
        { c with verdict }
      in
      Alcotest.(check (list string))
        (queue ^ " run passes") [] (Driver.gate [ c ]);
      Alcotest.(check (list string))
        (queue ^ " rank at bound passes") []
        (Driver.gate [ with_rank c.bound ]);
      check_bool (queue ^ " rank over bound gated") true
        (Driver.gate [ with_rank (c.bound + 1) ] <> []))
    [ "SingleLock"; "MultiQueue" ]

let () =
  Alcotest.run "pqfault"
    [
      ( "engine",
        [
          Alcotest.test_case "watchdog fires" `Quick test_watchdog_fires;
          Alcotest.test_case "progress feeds watchdog" `Quick
            test_progress_feeds_watchdog;
          Alcotest.test_case "crash-stop drops continuation" `Quick
            test_crash_stop_drops_continuation;
          Alcotest.test_case "crash strands waiter with diagnosis" `Quick
            test_crash_strands_waiter_with_diagnosis;
          Alcotest.test_case "pause is transparent" `Quick
            test_pause_is_transparent;
          Alcotest.test_case "spin limit bounds wakeups" `Quick
            test_spin_limit_bounds_wakeups;
          Alcotest.test_case "degraded node slows service" `Quick
            test_degraded_node_slows_service;
        ] );
      ( "plans",
        [
          Alcotest.test_case "names roundtrip" `Quick test_plan_names_roundtrip;
          Alcotest.test_case "unknown error names the valid set" `Quick
            test_plan_unknown_error_names_valid_set;
          Alcotest.test_case "finiteness" `Quick test_plan_finiteness;
          Alcotest.test_case "arming deterministic" `Quick
            test_arm_deterministic;
        ] );
      ( "driver",
        [
          Alcotest.test_case "SingleLock blocks on crashed lock holder"
            `Quick test_single_lock_blocks_on_crashed_lock_holder;
          Alcotest.test_case "finite faults never block" `Slow
            test_finite_faults_never_block;
          Alcotest.test_case "crashes preserve safety" `Slow
            test_crash_faults_preserve_safety;
          Alcotest.test_case "gate rejects finite-plan blockage" `Quick
            test_gate_rejects_finite_plan_blockage;
        ] );
    ]

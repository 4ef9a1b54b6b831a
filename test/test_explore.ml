(* Tests for the pqexplore subsystem: the engine's scheduling-policy
   hook, schedule record/replay, the adversarial policies, the greedy
   shrinker, and a small exploration budget over all seven registered
   queues checking the paper's consistency claims. *)

open Pqexplore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* engine hook: weights break same-cycle ties, fifo changes nothing *)

let test_evq_weight_tiebreak () =
  let q = Pqsim.Evq.create () in
  let push pid ~time ~weight =
    Pqsim.Evq.push q ~kind:Pqsim.Evq.Resume ~time ~weight ~pid ~v:0
  in
  push 2 ~time:5 ~weight:2;
  push 0 ~time:5 ~weight:0;
  push 1 ~time:5 ~weight:1;
  push 3 ~time:3 ~weight:9;
  let rec drain acc =
    if Pqsim.Evq.is_empty q then List.rev acc
    else drain ((Pqsim.Evq.pop_exn q).Pqsim.Evq.pid :: acc)
  in
  Alcotest.(check (list int))
    "time first, then weight, then scheduling order" [ 3; 0; 1; 2 ] (drain [])

let test_fifo_policy_is_identity () =
  let h = Pqcheck.History.record ~queue:"SimpleTree" ~nprocs:4 ~npriorities:8
      ~ops_per_proc:5 ~seed:3 () in
  let h' =
    Pqcheck.History.record ~queue:"SimpleTree" ~nprocs:4 ~npriorities:8
      ~ops_per_proc:5 ~seed:3 ~policy:Pqsim.Sched.fifo ()
  in
  let h'' =
    Pqcheck.History.record ~queue:"SimpleTree" ~nprocs:4 ~npriorities:8
      ~ops_per_proc:5 ~seed:3
      ~policy:(Schedule.replay (Schedule.empty ~seed:3))
      ()
  in
  check_bool "explicit fifo = default" true (h = h');
  check_bool "empty schedule = default" true (h = h'')

(* ------------------------------------------------------------------ *)
(* record / replay *)

let test_record_replay_fidelity () =
  let cfg = Driver.config "FunnelTree" in
  let seed = 11 in
  let rec_ = Policy.record ~seed (Policy.random ~seed) in
  let h = Driver.history cfg ~policy:rec_.Policy.policy ~seed in
  let s = rec_.Policy.schedule () in
  check_bool "trace is non-trivial" true (Schedule.perturbations s > 0);
  let h' = Driver.history cfg ~policy:(Schedule.replay s) ~seed in
  check_bool "replay reproduces the run" true (h = h')

let test_policies_deterministic () =
  let sample mk =
    let p = mk () in
    List.init 40 (fun step ->
        p { Pqsim.Sched.proc = step mod 4; time = step * 10; step; op = Read })
  in
  let r () = Policy.random ~seed:5 in
  check_bool "random" true (sample r = sample r);
  let p () = Policy.pct ~seed:5 ~nprocs:4 in
  check_bool "pct" true (sample p = sample p)

let test_pct_ranks_procs () =
  (* with no change points hit, one proc is never delayed and some proc
     always is (nprocs > 1) *)
  let p = Policy.pct ~seed:2 ~nprocs:3 in
  let ds =
    List.init 30 (fun step ->
        let delay =
          match
            p { Pqsim.Sched.proc = step mod 3; time = 0; step = step + 1000; op = Read }
          with
          | Pqsim.Sched.Run d -> d.Pqsim.Sched.delay
          | Pqsim.Sched.Pause n -> n
          | Pqsim.Sched.Stall_forever -> max_int
        in
        (step mod 3, delay))
  in
  let delays_of p = List.filter_map (fun (q, d) -> if q = p then Some d else None) ds in
  let per_proc = List.init 3 delays_of in
  check_bool "some proc undelayed" true
    (List.exists (fun l -> List.for_all (( = ) 0) l) per_proc);
  check_bool "some proc delayed" true
    (List.exists (fun l -> List.for_all (fun d -> d > 0) l) per_proc)

(* ------------------------------------------------------------------ *)
(* verdict levels *)

let ev proc op t0 t1 = { Pqcheck.History.proc; op; t0; t1 }
let ins pri payload = Pqcheck.History.Insert { pri; payload; accepted = true }
let del r = Pqcheck.History.Delete_min r

let test_verdict_levels () =
  let lin_ok = [ ev 0 (ins 5 1) 0 1; ev 0 (del (Some (5, 1))) 2 3 ] in
  Alcotest.(check string)
    "linearizable" "Linearizable"
    (Verdict.level_to_string (Verdict.level (Verdict.classify lin_ok)));
  (* not linearizable, but an overlapping op removes the quiescent point *)
  let quiescent =
    [
      ev 0 (ins 5 1) 0 1;
      ev 2 (ins 9 3) 0 12;
      ev 1 (ins 3 2) 1 2;
      ev 3 (del (Some (5, 1))) 5 10;
    ]
  in
  Alcotest.(check string)
    "quiescent" "Quiescently consistent"
    (Verdict.level_to_string (Verdict.level (Verdict.classify quiescent)));
  (* a lost element across a quiescent point: a real inconsistency *)
  let inconsistent = [ ev 0 (ins 5 1) 0 1; ev 1 (del None) 10 11 ] in
  Alcotest.(check string)
    "inconsistent" "INCONSISTENT"
    (Verdict.level_to_string (Verdict.level (Verdict.classify inconsistent)))

let test_refuted_qc_runs_no_search () =
  (* not quiescently consistent, and a linearizability search would need
     more than one state; at a one-state bound only a verdict that runs
     no search can still read "not linearizable" *)
  let h =
    [
      ev 0 (ins 5 1) 0 1;
      ev 1 (ins 3 2) 0 1;
      ev 2 (del (Some (5, 1))) 10 11;
    ]
  in
  let v = Verdict.classify ~max_states:1 h in
  check_bool "quiescent consistency refuted" true (Verdict.qc_violated v);
  check_bool "hence linearizability refuted" true (Verdict.lin_violated v);
  check_bool "a search at this bound gives up" true
    (Pqcheck.Lincheck.linearizable ~max_states:1 h = Pqcheck.Lincheck.Gave_up)

(* ------------------------------------------------------------------ *)
(* shrinker *)

let test_shrink_greedy_minimizes () =
  (* synthetic predicate: violation iff step 7 stalls at least 16 cycles;
     everything else in the schedule is noise the shrinker must remove *)
  let noisy =
    {
      Schedule.seed = 0;
      decisions =
        Array.init 64 (fun i ->
            { Pqsim.Sched.delay = 100 + i; weight = i mod 3 });
    }
  in
  let violates (s : Schedule.t) = (Schedule.decision s 7).Pqsim.Sched.delay >= 16 in
  check_bool "noisy schedule violates" true (violates noisy);
  let s, runs = Shrink.shrink ~violates noisy in
  check_bool "still violates" true (violates s);
  check_int "single perturbation left" 1 (Schedule.perturbations s);
  check_int "schedule truncated to the decisive step" 8 (Schedule.length s);
  check_bool "delay minimized toward the threshold" true
    ((Schedule.decision s 7).Pqsim.Sched.delay < 100);
  check_bool "spent runs" true (runs > 0)

let test_shrink_idempotent () =
  (* a shrunk schedule is a fixpoint: shrinking it again changes nothing *)
  let noisy =
    {
      Schedule.seed = 9;
      decisions =
        Array.init 48 (fun i ->
            { Pqsim.Sched.delay = 200 + i; weight = (i * 7) mod 5 });
    }
  in
  let violates (s : Schedule.t) =
    (Schedule.decision s 11).Pqsim.Sched.delay >= 32
  in
  let s1, _ = Shrink.shrink ~violates noisy in
  check_bool "shrunk schedule still violates" true (violates s1);
  let s2, _ = Shrink.shrink ~violates s1 in
  check_bool "second shrink still violates" true (violates s2);
  check_bool "second shrink is a fixpoint" true (s1 = s2)

let test_shrunk_witness_still_violates () =
  (* end-to-end: find a real linearizability violation on SimpleLinear,
     then confirm the shrunk witness schedule reproduces one *)
  let cfg = Driver.config "SimpleLinear" in
  let r =
    Explore.run ~cfg ~seed:1 ~queue:"SimpleLinear"
      ~policy:(Explore.Named Policy.Random) ~budget:64 ()
  in
  check_bool "explorer finds the scan violation" true (r.Explore.lin_violations > 0);
  match r.Explore.lin_witness with
  | None -> Alcotest.fail "violations counted but no witness kept"
  | Some w ->
      let v = Driver.check cfg w.Explore.schedule in
      check_bool "shrunk schedule still violates linearizability" true
        (Verdict.lin_violated v);
      check_bool "shrinking never grows the schedule" true
        (Schedule.perturbations w.Explore.schedule
        <= Schedule.perturbations w.Explore.original)

(* ------------------------------------------------------------------ *)
(* exploration over every registered queue *)

let explore_claim queue () =
  let expect_lin = List.mem queue [ "SingleLock"; "HuntEtAl" ] in
  let relaxed = List.mem queue Pqcore.Registry.names_relaxed in
  let budget = if relaxed then 40 else 24 in
  let r =
    Explore.run ~queue ~policy:(Explore.Named Policy.Random) ~budget ~seed:7 ()
  in
  check_int "budget consumed" budget r.Explore.runs;
  if relaxed then
    (* the MultiQueue's relaxation is structural: the explorer must
       refute even quiescent consistency (pick-2 skips the true minimum
       at quiescence).  How far it strays is the rank gate's business. *)
    check_bool
      (queue ^ " is visibly relaxed: quiescent consistency refuted")
      true
      (r.Explore.level = Verdict.Inconsistent)
  else begin
    check_bool
      (queue ^ " never violates quiescent consistency")
      true
      (r.Explore.level <> Verdict.Inconsistent);
    if expect_lin then
      Alcotest.(check string)
        (queue ^ " stays linearizable under adversarial schedules")
        "Linearizable"
        (Verdict.level_to_string r.Explore.level)
  end

let test_dfs_exhausts_bounded_space () =
  let cfg = Driver.config ~nprocs:2 ~ops_per_proc:4 "SingleLock" in
  let policy = Explore.Dfs { horizon = 5; branching = 2; quantum = 120 } in
  let r = Explore.run ~cfg ~queue:"SingleLock" ~policy ~budget:1000 () in
  check_int "all 2^5 interleaving vectors executed" 32 r.Explore.runs;
  Alcotest.(check string)
    "every bounded interleaving linearizable" "Linearizable"
    (Verdict.level_to_string r.Explore.level)

let test_pct_explores () =
  let r =
    Explore.run ~queue:"FunnelTree" ~policy:(Explore.Named Policy.Pct)
      ~budget:12 ~seed:3 ()
  in
  check_int "runs" 12 r.Explore.runs;
  check_bool "no quiescent violation" true
    (r.Explore.level <> Verdict.Inconsistent)

(* ------------------------------------------------------------------ *)
(* the named schedules are the generators, not copies of them *)

let test_named_schedules () =
  let cfg = Driver.config ~nprocs:4 "SkipList" in
  let seed = 9 in
  let decisions policy =
    let r = Policy.record ~seed policy in
    ignore (Driver.history cfg ~policy:r.Policy.policy ~seed);
    (r.Policy.schedule ()).Schedule.decisions
  in
  let named n = Policy.named n ~seed ~nprocs:4 in
  check_bool "default is the engine's order" true (named Policy.Default = None);
  check_bool "pct decides as Policy.pct" true
    (decisions (Option.get (named Policy.Pct))
    = decisions (Policy.pct ~seed ~nprocs:4));
  check_bool "random decides as Policy.random" true
    (decisions (Option.get (named Policy.Random))
    = decisions (Policy.random ~seed));
  check_bool "pct and random differ" false
    (decisions (Option.get (named Policy.Pct))
    = decisions (Option.get (named Policy.Random)));
  Alcotest.(check (list string))
    "names" [ "default"; "pct"; "random" ]
    (List.map Policy.string_of_name Policy.names);
  match Policy.name_of_string "fair" with
  | Ok _ -> Alcotest.fail "parsed an unknown schedule"
  | Error e ->
      List.iter
        (fun n ->
          let n = Policy.string_of_name n in
          check_bool ("error lists " ^ n) true
            (try
               ignore (Str.search_forward (Str.regexp_string n) e 0);
               true
             with Not_found -> false))
        Policy.names

let () =
  Alcotest.run "pqexplore"
    [
      ( "engine-hook",
        [
          Alcotest.test_case "evq weight tie-break" `Quick
            test_evq_weight_tiebreak;
          Alcotest.test_case "fifo policy is identity" `Quick
            test_fifo_policy_is_identity;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "replay fidelity" `Quick
            test_record_replay_fidelity;
          Alcotest.test_case "policies deterministic" `Quick
            test_policies_deterministic;
          Alcotest.test_case "pct ranks processors" `Quick test_pct_ranks_procs;
          Alcotest.test_case "named schedules" `Quick test_named_schedules;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "levels" `Quick test_verdict_levels;
          Alcotest.test_case "refuted QC runs no search" `Quick
            test_refuted_qc_runs_no_search;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "greedy minimization" `Quick
            test_shrink_greedy_minimizes;
          Alcotest.test_case "shrink idempotent" `Quick test_shrink_idempotent;
          Alcotest.test_case "shrunk witness reproduces" `Quick
            test_shrunk_witness_still_violates;
        ] );
      ( "claims",
        List.map
          (fun q -> Alcotest.test_case q `Quick (explore_claim q))
          Pqcore.Registry.names
        @ [
            Alcotest.test_case "dfs exhausts bounded space" `Quick
              test_dfs_exhausts_bounded_space;
            Alcotest.test_case "pct explores" `Quick test_pct_explores;
          ] );
    ]

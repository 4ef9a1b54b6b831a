(* Tests for the pqchaos subsystem: the workload generators (QCheck
   properties), the streaming invariant monitor (unit cases plus an
   equivalence replay against the post-hoc rank oracle), the chaos
   driver's verdict taxonomy and gate, bounded monitor memory on long
   soaks, and the host-side scenario soaks. *)

module S = Pqbenchlib.Scenario
module M = Pqcheck.Monitor
module D = Pqchaos.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* generators *)

let prop_graph_connected_positive =
  QCheck.Test.make ~name:"sssp graphs are connected with positive weights"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 80))
    (fun (seed, nodes) ->
      let g = Pqbenchlib.Graph.generate ~seed ~nodes in
      let weights_ok = ref true in
      for v = 0 to nodes - 1 do
        Array.iter
          (fun (u, w) ->
            if u < 0 || u >= nodes || w < 1 || w > Pqbenchlib.Graph.max_weight
            then weights_ok := false)
          (Pqbenchlib.Graph.edges g v)
      done;
      (* BFS from 0 must reach every node *)
      let seen = Array.make nodes false in
      let queue = Queue.create () in
      Queue.push 0 queue;
      seen.(0) <- true;
      let reached = ref 1 in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        Array.iter
          (fun (u, _) ->
            if not seen.(u) then begin
              seen.(u) <- true;
              incr reached;
              Queue.push u queue
            end)
          (Pqbenchlib.Graph.edges g v)
      done;
      let dist = Pqbenchlib.Graph.dijkstra g ~src:0 in
      !weights_ok && !reached = nodes
      && Array.for_all
           (fun d -> d >= 0 && d <= Pqbenchlib.Graph.max_path_length g)
           dist)

let prop_graph_deterministic =
  QCheck.Test.make ~name:"graph generation is deterministic per seed"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 2 60))
    (fun (seed, nodes) ->
      let g1 = Pqbenchlib.Graph.generate ~seed ~nodes
      and g2 = Pqbenchlib.Graph.generate ~seed ~nodes in
      Pqbenchlib.Graph.nedges g1 = Pqbenchlib.Graph.nedges g2
      && Pqbenchlib.Graph.dijkstra g1 ~src:0
         = Pqbenchlib.Graph.dijkstra g2 ~src:0)

let prop_zipf_matches_pmf =
  (* empirical frequencies track the discretised pmf: each rank within
     5 sigma of its binomial expectation plus a small absolute floor —
     a loose-enough band that a correct sampler essentially never
     trips it, while a wrong skew (off by ~0.3) reliably does *)
  QCheck.Test.make ~name:"zipf sampler matches its target skew" ~count:8
    QCheck.(pair (int_bound 10_000) (pair (int_range 4 64) (int_range 0 15)))
    (fun (seed, (n, s10)) ->
      let s = float_of_int s10 /. 10. in
      let z = Pqbenchlib.Zipf.make ~n ~s in
      let rng = Random.State.make [| seed; 0x21f |] in
      let draws = 20_000 in
      let counts = Array.make n 0 in
      for _ = 1 to draws do
        let k = Pqbenchlib.Zipf.sample z ~draw:(Random.State.int rng) in
        counts.(k) <- counts.(k) + 1
      done;
      let ok = ref true in
      for k = 0 to n - 1 do
        let p = Pqbenchlib.Zipf.pmf z k in
        let emp = float_of_int counts.(k) /. float_of_int draws in
        let sigma = sqrt (p *. (1. -. p) /. float_of_int draws) in
        if Float.abs (emp -. p) > (5. *. sigma) +. 0.004 then ok := false
      done;
      !ok)

(* a sorted-list model queue: the exact sequential reference the phase
   interpreter is checked against *)
let model_ops () =
  let contents = ref [] in
  let seen = Hashtbl.create 64 in
  let inserts = ref 0 and deletes = ref 0 in
  let ops =
    {
      S.insert =
        (fun ~pri ~payload ->
          incr inserts;
          Hashtbl.replace seen (pri, payload)
            (1 + Option.value ~default:0 (Hashtbl.find_opt seen (pri, payload)));
          contents :=
            List.merge compare [ (pri, payload) ] !contents;
          true);
      S.delete_min =
        (fun () ->
          match !contents with
          | [] -> None
          | ((pri, payload) as x) :: tl ->
              incr deletes;
              contents := tl;
              (match Hashtbl.find_opt seen (pri, payload) with
              | Some 1 -> Hashtbl.remove seen (pri, payload)
              | Some k -> Hashtbl.replace seen (pri, payload) (k - 1)
              | None -> Hashtbl.replace seen (pri, payload) (-1));
              Some x);
    }
  in
  (ops, contents, seen, inserts, deletes)

let prop_hold_conserves_on_model =
  QCheck.Test.make
    ~name:"hold model conserves elements on a sorted-list model queue"
    ~count:50
    QCheck.(
      triple (int_bound 10_000) (int_range 1 200) (int_range 2 64))
    (fun (seed, ops_n, npriorities) ->
      let ops, contents, seen, inserts, deletes = model_ops () in
      let rng = Random.State.make [| seed; 0x901d |] in
      let ctx =
        {
          S.pid = 0;
          nprocs = 1;
          npriorities;
          rand = Random.State.int rng;
          work = ignore;
        }
      in
      (* the scenario's own prefill, then one hold phase *)
      let seq = ref 0 in
      for _ = 1 to S.prefill_per_proc S.hold do
        ignore (ops.S.insert ~pri:(ctx.S.rand npriorities) ~payload:!seq);
        incr seq
      done;
      S.run_phases ctx ops ~seq
        [ S.Hold { ops = ops_n; lag = 1 + (seed mod 31) } ];
      (* every insert is either deleted or still in the model, exactly *)
      !inserts - !deletes = List.length !contents
      && List.for_all (fun x -> Hashtbl.mem seen x) !contents
      && Hashtbl.fold (fun _ k acc -> acc + k) seen 0
         = List.length !contents
      && List.sort compare !contents = !contents)

(* ------------------------------------------------------------------ *)
(* streaming monitor: unit cases via direct note feeding *)

let tag = (M.Tag.ins_invoke, M.Tag.ins_ok, M.Tag.del_invoke, M.Tag.del_some)

let test_monitor_phantom_delete () =
  let ins_invoke, ins_ok, del_invoke, del_some = tag in
  ignore (ins_invoke, ins_ok);
  let m = M.create ~npriorities:8 ~nprocs:2 in
  M.note m ~proc:0 ~time:0 ~tag:del_invoke ~a:0 ~b:0;
  M.note m ~proc:0 ~time:5 ~tag:del_some ~a:3 ~b:9;
  let r = M.finalize m ~leftover:[] in
  check_int "phantom flagged" 1 r.M.phantoms;
  check_bool "conservation fails" true (Result.is_error r.M.conservation)

let test_monitor_duplicate_delete () =
  let ins_invoke, ins_ok, del_invoke, del_some = tag in
  let m = M.create ~npriorities:8 ~nprocs:2 in
  M.note m ~proc:0 ~time:0 ~tag:ins_invoke ~a:3 ~b:9;
  M.note m ~proc:0 ~time:2 ~tag:ins_ok ~a:3 ~b:9;
  M.note m ~proc:0 ~time:10 ~tag:del_invoke ~a:0 ~b:0;
  M.note m ~proc:0 ~time:12 ~tag:del_some ~a:3 ~b:9;
  M.note m ~proc:0 ~time:20 ~tag:del_invoke ~a:0 ~b:0;
  M.note m ~proc:0 ~time:22 ~tag:del_some ~a:3 ~b:9;
  let r = M.finalize m ~leftover:[] in
  check_int "second return is a phantom" 1 r.M.phantoms;
  check_bool "conservation fails" true (Result.is_error r.M.conservation)

let test_monitor_missing_leftover () =
  let ins_invoke, ins_ok, _, _ = tag in
  let m = M.create ~npriorities:8 ~nprocs:2 in
  M.note m ~proc:0 ~time:0 ~tag:ins_invoke ~a:2 ~b:5;
  M.note m ~proc:0 ~time:2 ~tag:ins_ok ~a:2 ~b:5;
  let r = M.finalize m ~leftover:[] in
  check_bool "vanished element detected" true
    (Result.is_error r.M.conservation);
  (* and with the element actually drained, the same stream passes *)
  let m = M.create ~npriorities:8 ~nprocs:2 in
  M.note m ~proc:0 ~time:0 ~tag:ins_invoke ~a:2 ~b:5;
  M.note m ~proc:0 ~time:2 ~tag:ins_ok ~a:2 ~b:5;
  let r = M.finalize m ~leftover:[ (2, 5) ] in
  check_bool "drained element conserved" true (Result.is_ok r.M.conservation)

let test_monitor_rank_out_of_order () =
  (* two settled inserts (1 and 3); deleting 3 while 1 is live is rank
     error 1 at the next quiescent point *)
  let ins_invoke, ins_ok, del_invoke, del_some = tag in
  let m = M.create ~npriorities:8 ~nprocs:2 in
  M.note m ~proc:0 ~time:0 ~tag:ins_invoke ~a:1 ~b:0;
  M.note m ~proc:0 ~time:2 ~tag:ins_ok ~a:1 ~b:0;
  M.note m ~proc:0 ~time:4 ~tag:ins_invoke ~a:3 ~b:1;
  M.note m ~proc:0 ~time:6 ~tag:ins_ok ~a:3 ~b:1;
  M.note m ~proc:0 ~time:10 ~tag:del_invoke ~a:0 ~b:0;
  M.note m ~proc:0 ~time:12 ~tag:del_some ~a:3 ~b:1;
  let r = M.finalize m ~leftover:[ (1, 0) ] in
  check_int "rank 1 for skipping the minimum" 1 r.M.rank.M.max_rank;
  check_bool "conserved" true (Result.is_ok r.M.conservation)

(* ------------------------------------------------------------------ *)
(* streaming monitor == post-hoc oracle on complete histories *)

(* run a scenario under a recording probe, then replay the same note
   stream through a fresh monitor and reconstruct the operation history
   for the post-hoc oracle (Rank): the streaming reformulation must agree *)
let record ~queue ~scenario ~seed ~policy =
  let notes = ref [] in
  let probe =
    Pqsim.Probe.make
      ~notes:
        {
          Pqsim.Probe.note =
            (fun ~proc ~time ~tag ~a ~b ->
              notes := (proc, time, tag, a, b) :: !notes);
        }
      ()
  in
  let o =
    S.run_sim ~probe ?policy ~queue ~nprocs:4 ~npriorities:16
      ~ops_per_proc:20 ~seed scenario
  in
  check_bool "fault-free run completed" true (o.S.aborted = None);
  (List.rev !notes, o)

let history_of_notes notes =
  let pending = Hashtbl.create 8 in
  List.filter_map
    (fun (proc, time, tg, a, b) ->
      if tg = M.Tag.ins_invoke || tg = M.Tag.del_invoke then begin
        Hashtbl.replace pending proc (a, b, time);
        None
      end
      else if
        (* the channel multiplexes protocols: only op-response tags
           close an invocation (lock notes etc. must be ignored) *)
        not
          (tg = M.Tag.ins_ok || tg = M.Tag.ins_reject || tg = M.Tag.del_some
         || tg = M.Tag.del_none)
      then None
      else
        match Hashtbl.find_opt pending proc with
        | None -> None
        | Some (ia, ib, t0) ->
            Hashtbl.remove pending proc;
            let op =
              if tg = M.Tag.ins_ok then
                Pqcheck.History.Insert
                  { pri = ia; payload = ib; accepted = true }
              else if tg = M.Tag.ins_reject then
                Pqcheck.History.Insert
                  { pri = ia; payload = ib; accepted = false }
              else if tg = M.Tag.del_some then
                Pqcheck.History.Delete_min (Some (a, b))
              else Pqcheck.History.Delete_min None
            in
            Some { Pqcheck.History.proc; op; t0; t1 = time })
    notes

let check_same_rank (s : Rank.stats) (r : M.rank_stats) =
  check_int "same deletes" s.deletes r.deletes;
  check_int "same empties" s.empties r.empties;
  check_int "same max rank" s.max_rank r.max_rank;
  Alcotest.(check (float 1e-9)) "same mean rank" s.mean_rank r.mean_rank;
  check_int "same max delay" s.max_delay r.max_delay;
  Alcotest.(check (float 1e-9)) "same mean delay" s.mean_delay r.mean_delay

let equivalence_case ~queue ~scenario ~seed ~policy () =
  let notes, o = record ~queue ~scenario ~seed ~policy in
  let m =
    M.create
      ~npriorities:(S.npriorities_for scenario ~default:16)
      ~nprocs:4
  in
  List.iter
    (fun (proc, time, tag, a, b) -> M.note m ~proc ~time ~tag ~a ~b)
    notes;
  let r = M.finalize m ~leftover:o.S.leftover in
  check_bool "stream conserved" true (Result.is_ok r.M.conservation);
  check_bool "run_sim's own monitor agrees" true (r = o.S.monitor);
  check_same_rank (Rank.measure (history_of_notes notes)) r.M.rank

let equivalence_cases =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun (sname, scenario) ->
          List.concat_map
            (fun seed ->
              List.map
                (fun (pname, policy) ->
                  Alcotest.test_case
                    (Printf.sprintf "%s/%s seed %d %s" queue sname seed pname)
                    `Quick
                    (equivalence_case ~queue ~scenario ~seed ~policy))
                [
                  ("default", None);
                  ( "fuzzed",
                    Some (Pqexplore.Policy.random ~seed:(seed + 5)) );
                ])
            [ 42; 1 ])
        [ ("coinflip", S.coinflip); ("hold", S.hold); ("burst", S.burst) ])
    [ "SkipList"; "MultiQueue" ]

(* the other direction: a History.record history replayed as notes by
   Monitor.of_history (the rank figure's meter) against the oracle, for
   a relaxed and a strict queue under every named schedule *)
let of_history_cases =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun seed ->
          List.map
            (fun name ->
              Alcotest.test_case
                (Printf.sprintf "of_history %s seed %d %s" queue seed
                   (Pqexplore.Policy.string_of_name name))
                `Quick
                (fun () ->
                  let h =
                    Pqcheck.History.record ~queue ~nprocs:8 ~npriorities:16
                      ~ops_per_proc:30 ~seed
                      ?policy:(Pqexplore.Policy.named name ~seed ~nprocs:8)
                      ()
                  in
                  check_same_rank (Rank.measure h) (M.of_history h)))
            Pqexplore.Policy.names)
        [ 42; 7 ])
    [ "MultiQueue"; "FunnelTree" ]

(* ------------------------------------------------------------------ *)
(* run_sim's own conservation verdict: a registry queue wrapped through
   ~create to lose an accepted insert, or to hand one element out twice,
   must fail its fault-free run's check; the queue unwrapped must pass *)

let faulty_queue fault mem params =
  let q = Pqcore.Registry.create "SkipList" mem params in
  let inserts = ref 0 and replay = ref None in
  match fault with
  | `None -> q
  | `Drop_insert ->
      {
        q with
        Pqcore.Pq_intf.insert =
          (fun ~pri ~payload ->
            incr inserts;
            !inserts = 3 || q.insert ~pri ~payload);
      }
  | `Return_twice ->
      {
        q with
        Pqcore.Pq_intf.delete_min =
          (fun () ->
            match !replay with
            | Some (`Pending e) ->
                replay := Some `Done;
                Some e
            | _ -> (
                match q.delete_min () with
                | Some e as r when !replay = None ->
                    replay := Some (`Pending e);
                    r
                | r -> r));
      }

let conservation_case (name, fault, ok) =
  Alcotest.test_case name `Quick (fun () ->
      let o =
        S.run_sim ~create:(faulty_queue fault) ~queue:"SkipList" ~nprocs:4
          ~npriorities:16 ~ops_per_proc:20 ~seed:42 S.hold
      in
      check_bool (name ^ ": completed") true (o.S.aborted = None);
      check_bool (name ^ ": monitor conservation") ok
        (Result.is_ok o.S.monitor.M.conservation);
      check_bool (name ^ ": check") ok (Result.is_ok o.S.check))

let conservation_cases =
  List.map conservation_case
    [
      ("unwrapped queue conserves", `None, true);
      ("dropped insert fails the check", `Drop_insert, false);
      ("element returned twice fails the check", `Return_twice, false);
    ]

(* ------------------------------------------------------------------ *)
(* the chaos driver *)

let test_driver_tiny_matrix_gates_clean () =
  let cfg =
    {
      D.quick with
      queues = [ "SkipList"; "MultiQueue" ];
      scenarios = [ "coinflip"; "hold" ];
      plans = [ None; Some (Pqchaos.Plan.Pause_resume { pause = 5_000 }) ];
      scheds = [ Pqexplore.Policy.Default; Pqexplore.Policy.Pct ];
      seeds = [ 42 ];
      ops_per_proc = 8;
    }
  in
  let cells = D.run cfg in
  check_int "full cross product" (2 * 2 * 2 * 2) (List.length cells);
  Alcotest.(check (list string)) "gate clean" [] (D.gate cells);
  List.iter
    (fun (c : D.cell) ->
      if c.queue = "SkipList" then
        check_int
          (Printf.sprintf "strict rank 0 (%s/%s/%s)" c.scenario c.plan c.sched)
          0 c.worst_rank)
    cells

let test_driver_crash_blockage_not_gated () =
  (* SingleLock dying with the lock held is recorded as blocked, and the
     gate accepts it because the fault is a crash *)
  let cfg =
    {
      D.quick with
      queues = [ "SingleLock" ];
      scenarios = [ "coinflip" ];
      plans = [ None; Some Pqchaos.Plan.Crash_lock_holder ];
      scheds = [ Pqexplore.Policy.Default ];
      seeds = [ 42 ];
      ops_per_proc = 8;
    }
  in
  let cells = D.run cfg in
  Alcotest.(check (list string)) "gate clean" [] (D.gate cells);
  check_bool "crash cell recorded as blocked" true
    (List.exists
       (fun (c : D.cell) ->
         c.plan = "crash-lock" && D.verdict_label c.verdict = "blocked")
       cells)

let test_driver_jobs_invariant () =
  let cfg =
    {
      D.quick with
      queues = [ "SkipList"; "MultiQueueC4" ];
      scenarios = [ "hold"; "sssp" ];
      plans = [ None; Some Pqchaos.Plan.Crash_random ];
      scheds = [ Pqexplore.Policy.Default ];
      seeds = [ 42; 7 ];
      ops_per_proc = 8;
    }
  in
  check_bool "jobs=1 and jobs=4 agree cell-for-cell" true
    (D.run ~jobs:1 cfg = D.run ~jobs:4 cfg)

let test_driver_soak_memory_bounded () =
  (* a soak 10x the longest tier-1 gate run (rank: 30 ops/proc): the
     monitor's high-water marks must track the live population, not the
     note count — streaming, no trace buffering *)
  let cfg =
    {
      D.quick with
      queues = [ "SkipList" ];
      scenarios = [ "hold" ];
      plans = [ None ];
      scheds = [ Pqexplore.Policy.Default ];
      seeds = [ 42 ];
      ops_per_proc = 30;
      soak = 10;
    }
  in
  match D.run cfg with
  | [ (c : D.cell) ] ->
      Alcotest.(check string) "healthy" "healthy" (D.verdict_label c.verdict);
      check_bool "ran the full soak" true (c.ops >= 4 * 30 * 10);
      (* hold keeps the population near its prefill: the live table must
         stay O(population), orders below the op count *)
      check_bool
        (Printf.sprintf "live high-water bounded (%d)" c.live_high_water)
        true
        (c.live_high_water <= 64)
  | cells -> Alcotest.fail (Printf.sprintf "expected 1 cell, got %d" (List.length cells))

let test_schedule_and_plan_parsing () =
  List.iter
    (fun n ->
      let s = Pqexplore.Policy.string_of_name n in
      check_bool ("roundtrip " ^ s) true
        (Pqexplore.Policy.name_of_string s = Ok n))
    Pqexplore.Policy.names;
  check_bool "unknown schedule rejected" true
    (Result.is_error (Pqexplore.Policy.name_of_string "fair"));
  (match D.plan_of_string "none" with
  | Ok None -> ()
  | _ -> Alcotest.fail "none must parse as the fault-free arm");
  (match D.plan_of_string "pause" with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "pause must parse");
  match D.plan_of_string "meteor-strike" with
  | Ok _ -> Alcotest.fail "parsed an unknown plan"
  | Error e ->
      check_bool "error lists the fault-free arm too" true
        (try
           ignore (Str.search_forward (Str.regexp_string "none") e 0);
           true
         with Not_found -> false)

(* a config that could pass vacuously, or that the engine cannot build,
   is rejected before any cell runs, naming the field *)
let config_rejection_cases =
  List.map
    (fun (field, cfg) ->
      Alcotest.test_case ("rejects bad " ^ field) `Quick (fun () ->
          match D.run cfg with
          | exception D.Invalid_config { field = f; _ } ->
              Alcotest.(check string) "rejected field" field f
          | cells ->
              Alcotest.fail
                (Printf.sprintf "ran %d cells" (List.length cells))))
    [
      ("queues", { D.quick with queues = [] });
      ("scenarios", { D.quick with scenarios = [] });
      ("seeds", { D.quick with seeds = [] });
      ("nprocs", { D.quick with nprocs = 0 });
      ("npriorities", { D.quick with npriorities = 0 });
      ("ops_per_proc", { D.quick with ops_per_proc = 0 });
      ("soak", { D.quick with soak = 0 });
    ]

(* ------------------------------------------------------------------ *)
(* host-side soaks *)

let host_soak_cases =
  List.concat_map
    (fun (qname, _) ->
      List.map
        (fun (sname, scenario) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s conserves" qname sname)
            `Quick
            (fun () ->
              let o =
                Pqchaos.Host.soak ~queue:qname ~scenario ~nprocs:4
                  ~npriorities:16 ~ops_per_proc:50 ~seed:42
              in
              (match o.Pqchaos.Host.conserved with
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              check_bool "did work" true
                (o.Pqchaos.Host.inserts > 0 || o.Pqchaos.Host.deletes > 0)))
        [ ("coinflip", S.coinflip); ("hold", S.hold); ("burst", S.burst) ])
    Pqchaos.Host.queues

let test_host_rejects_sim_only () =
  check_bool "sssp needs the simulator" true
    (try
       ignore
         (Pqchaos.Host.soak ~queue:"HostBinPQ" ~scenario:(S.sssp ())
            ~nprocs:2 ~npriorities:256 ~ops_per_proc:4 ~seed:42);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "chaos"
    [
      qsuite "generators"
        [
          prop_graph_connected_positive;
          prop_graph_deterministic;
          prop_zipf_matches_pmf;
          prop_hold_conserves_on_model;
        ];
      ( "monitor",
        [
          Alcotest.test_case "phantom delete flagged" `Quick
            test_monitor_phantom_delete;
          Alcotest.test_case "duplicate delete flagged" `Quick
            test_monitor_duplicate_delete;
          Alcotest.test_case "vanished element flagged" `Quick
            test_monitor_missing_leftover;
          Alcotest.test_case "rank error measured" `Quick
            test_monitor_rank_out_of_order;
        ] );
      ("monitor=oracle", equivalence_cases @ of_history_cases);
      ("conservation", conservation_cases);
      ( "driver",
        [
          Alcotest.test_case "tiny matrix gates clean" `Quick
            test_driver_tiny_matrix_gates_clean;
          Alcotest.test_case "crash blockage recorded, not gated" `Quick
            test_driver_crash_blockage_not_gated;
          Alcotest.test_case "jobs-invariant cells" `Slow
            test_driver_jobs_invariant;
          Alcotest.test_case "10x soak, bounded monitor memory" `Slow
            test_driver_soak_memory_bounded;
          Alcotest.test_case "schedule and plan parsing" `Quick
            test_schedule_and_plan_parsing;
        ]
        @ config_rejection_cases );
      ( "host",
        host_soak_cases
        @ [
            Alcotest.test_case "sim-only rejected" `Quick
              test_host_rejects_sim_only;
          ] );
    ]

(* Tests for the pqadapt subsystem: the pure per-window classifier
   decision (thresholds, dead band, contention signals), the stateful
   hysteresis/cooldown machinery, config validation for both the
   classifier and the meta-queue, the end-to-end adapt gate (switching
   in both directions, conservation through migrations, jobs
   invariance), and the BENCH.json adapt section round-trip. *)

module C = Pqadapt.Classifier
module M = Pqadapt.Meta
module D = Pqadapt.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let vote : C.vote Alcotest.testable =
  let pp fmt v =
    Format.pp_print_string fmt
      (match v with
      | C.For_light -> "For_light"
      | C.For_heavy -> "For_heavy"
      | C.Abstain -> "Abstain")
  in
  Alcotest.testable pp ( = )

let regime : C.regime Alcotest.testable =
  let pp fmt r = Format.pp_print_string fmt (C.regime_name r) in
  Alcotest.testable pp ( = )

let quiet : Pqtrace.Metrics.window =
  {
    Pqtrace.Metrics.w_cas = 0;
    w_cas_fail_rate = 0.;
    w_lock_acquires = 0;
    w_lock_wait_mean = 0.;
    w_traffic = 0;
    w_remote_share = 0.;
  }

(* ------------------------------------------------------------------ *)
(* classify: the pure per-window decision *)

let test_classify_rate_bands () =
  let c = C.default in
  check_bool "low rate votes light" true
    (C.classify c ~rate:(c.C.light_rate /. 2.) ~wait_rate:0. quiet
    = C.For_light);
  check_bool "high rate votes heavy" true
    (C.classify c ~rate:(c.C.heavy_rate +. 1.) ~wait_rate:0. quiet
    = C.For_heavy);
  Alcotest.check vote "dead band abstains" C.Abstain
    (C.classify c
       ~rate:((c.C.light_rate +. c.C.heavy_rate) /. 2.)
       ~wait_rate:0. quiet)

let test_classify_contention_signals () =
  let c = C.default in
  let casy =
    { quiet with Pqtrace.Metrics.w_cas = c.C.min_traffic; w_cas_fail_rate = c.C.cas_fail_heavy }
  in
  Alcotest.check vote "saturated CAS failures vote heavy at any rate"
    C.For_heavy
    (C.classify c ~rate:0. ~wait_rate:0. casy);
  Alcotest.check vote "lock-wait intensity votes heavy" C.For_heavy
    (C.classify c ~rate:0. ~wait_rate:c.C.lock_wait_heavy quiet);
  let remote =
    { quiet with Pqtrace.Metrics.w_traffic = c.C.min_traffic; w_remote_share = c.C.remote_share_heavy }
  in
  Alcotest.check vote "remote-dominated traffic votes heavy" C.For_heavy
    (C.classify c ~rate:0. ~wait_rate:0. remote)

let test_classify_min_traffic_guard () =
  let c = C.default in
  (* the same saturated rates on a sub-threshold sample count are noise,
     so the quiet low-rate verdict wins *)
  let sparse =
    {
      quiet with
      Pqtrace.Metrics.w_cas = c.C.min_traffic - 1;
      w_cas_fail_rate = 1.;
      w_traffic = c.C.min_traffic - 1;
      w_remote_share = 1.;
    }
  in
  Alcotest.check vote "sparse windows don't trip contention signals"
    C.For_light
    (C.classify c ~rate:0. ~wait_rate:0. sparse)

(* ------------------------------------------------------------------ *)
(* observe: hysteresis, abstention, cooldown *)

(* rate thresholds 2.0 / 5.0 ops per kilocycle; with stats:None only the
   op-rate signal exists, so ops deltas pick the vote directly *)
let cfg =
  {
    C.default with
    C.min_window = 10;
    heavy_rate = 5.0;
    light_rate = 2.0;
    hysteresis = 2;
    cooldown = 1000;
  }

let test_observe_hysteresis_needs_streak () =
  let t = C.create { cfg with C.cooldown = 0 } in
  (* Light incumbent: H, L (incumbent resets), H, H -> flip on the
     second consecutive dissent only *)
  Alcotest.check regime "one dissent is not enough" C.Light
    (C.observe t ~stats:None ~now:10 ~ops:100);
  Alcotest.check regime "incumbent vote resets the streak" C.Light
    (C.observe t ~stats:None ~now:20 ~ops:100);
  Alcotest.check regime "streak restarts at one" C.Light
    (C.observe t ~stats:None ~now:30 ~ops:200);
  Alcotest.check regime "second consecutive dissent flips" C.Heavy
    (C.observe t ~stats:None ~now:40 ~ops:300);
  check_int "one flip" 1 (C.flips t);
  check_int "four windows" 4 (C.windows t)

let test_observe_abstain_keeps_streak () =
  let t = C.create ~regime:C.Heavy cfg in
  Alcotest.check regime "first light dissent" C.Heavy
    (C.observe t ~stats:None ~now:10_000 ~ops:0);
  (* 35 ops / 10k cycles = 3.5/kc: dead band, abstains, streak survives *)
  Alcotest.check regime "abstention holds the regime" C.Heavy
    (C.observe t ~stats:None ~now:20_000 ~ops:35);
  Alcotest.check regime "second dissent completes the streak" C.Light
    (C.observe t ~stats:None ~now:30_000 ~ops:35);
  check_int "one flip" 1 (C.flips t)

let test_observe_cooldown_refractory () =
  let t = C.create ~regime:C.Heavy cfg in
  ignore (C.observe t ~stats:None ~now:10 ~ops:0);
  Alcotest.check regime "flip to light" C.Light
    (C.observe t ~stats:None ~now:20 ~ops:0);
  (* saturated rate inside the cooldown window: resampled, not voted *)
  Alcotest.check regime "refractory window can't flip back" C.Light
    (C.observe t ~stats:None ~now:30 ~ops:1000);
  Alcotest.check regime "still refractory near the end" C.Light
    (C.observe t ~stats:None ~now:1015 ~ops:2000);
  check_int "no flip during cooldown" 1 (C.flips t);
  (* past hold_until votes count again *)
  ignore (C.observe t ~stats:None ~now:1025 ~ops:2100);
  Alcotest.check regime "post-cooldown dissent flips back" C.Heavy
    (C.observe t ~stats:None ~now:1035 ~ops:2200);
  check_int "two flips" 2 (C.flips t)

let test_observe_short_window_short_circuits () =
  let t = C.create cfg in
  ignore (C.observe t ~stats:None ~now:10 ~ops:100);
  Alcotest.check regime "sub-min_window call is a no-op" C.Light
    (C.observe t ~stats:None ~now:15 ~ops:10_000);
  check_int "short-circuited call not counted" 1 (C.windows t)

let test_observe_deterministic_replay () =
  let feed t =
    List.map
      (fun (now, ops) -> C.regime_name (C.observe t ~stats:None ~now ~ops))
      [ (10, 0); (20, 35); (30, 40); (40, 300); (1041, 1300); (1051, 1400) ]
  in
  let a = feed (C.create ~regime:C.Heavy cfg) in
  let b = feed (C.create ~regime:C.Heavy cfg) in
  check_string "identical regime traces" (String.concat "," a)
    (String.concat "," b)

(* ------------------------------------------------------------------ *)
(* config validation *)

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_classifier_validate () =
  raises_invalid "inverted rate thresholds" (fun () ->
      C.validate { cfg with C.heavy_rate = 1.0; light_rate = 2.0 });
  raises_invalid "zero hysteresis" (fun () ->
      C.validate { cfg with C.hysteresis = 0 });
  raises_invalid "negative cooldown" (fun () ->
      C.validate { cfg with C.cooldown = -1 });
  C.validate cfg

let test_meta_validate () =
  M.validate M.default;
  raises_invalid "identical backends" (fun () ->
      M.validate { M.default with M.light = M.default.M.heavy });
  raises_invalid "zero epoch" (fun () ->
      M.validate { M.default with M.epoch_ops = 0 });
  match M.validate { M.default with M.light = "NoSuchQueue" } with
  | exception Invalid_argument msg ->
      check_bool "unknown-backend error names the valid set" true
        (let re = Str.regexp_string "known:" in
         try
           ignore (Str.search_forward re msg 0);
           true
         with Not_found -> false)
  | () -> Alcotest.fail "unknown backend accepted"

(* ------------------------------------------------------------------ *)
(* the gate end to end *)

let test_driver_gate_and_jobs_invariance () =
  let r1 = D.run ~jobs:1 D.quick in
  let r2 = D.run ~jobs:3 D.quick in
  check_string "reports byte-identical across jobs"
    (D.report_to_string r1) (D.report_to_string r2);
  check_bool "quick gate passes" true (r1.D.errors = []);
  check_bool "switched into the light backend" true (r1.D.to_light >= 1);
  check_bool "switched into the heavy backend" true (r1.D.to_heavy >= 1);
  List.iter
    (fun (run : D.run) ->
      check_bool
        (Printf.sprintf "%s conservation check green" run.D.r_queue)
        true
        (run.D.r_check = Ok () && run.D.r_aborted = None))
    (r1.D.adaptive :: r1.D.statics);
  (* switches are chronological and move between the configured pair *)
  let backends = M.backends r1.D.cfg.D.meta in
  ignore
    (List.fold_left
       (fun prev (s : M.switch) ->
         check_bool "switch timeline is chronological" true (prev <= s.M.sw_at);
         check_bool "switch endpoints are the configured backends" true
           (List.mem s.M.sw_from backends && List.mem s.M.sw_to backends
          && s.M.sw_from <> s.M.sw_to);
         check_bool "no elements lost in transit" true (s.M.sw_moved >= 0);
         s.M.sw_at)
       0 r1.D.switches);
  (* the recorded verdicts match a fresh judgement *)
  check_string "judge is reproducible"
    (String.concat ";" r1.D.errors)
    (String.concat ";" (D.judge r1))

let test_bench_out_round_trip () =
  let r = D.run ~jobs:2 D.quick in
  let fig =
    {
      Pqtrace.Bench_out.id = "fig6";
      title = "t";
      xlabel = "P";
      series = [ { Pqtrace.Bench_out.name = "s"; points = [ (2, 1.0) ] } ];
    }
  in
  let doc adapt =
    Pqtrace.Bench_out.to_string
      {
        Pqtrace.Bench_out.seed = 42;
        scale = "test";
        figures = [ fig ];
        metrics = [];
        gates = [ ("adapt", adapt) ];
      }
  in
  (match Pqtrace.Bench_out.validate_string (doc (D.to_json r)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "adapt section rejected by validator: %s" e);
  (* a corrupted section must be rejected: a phase whose best static
     beats its worst is internally inconsistent *)
  let bad_phase =
    Pqtrace.Json.(
      Obj
        [
          ("phase", String "p");
          ("adaptive", Float 1.0);
          ("best_queue", String "a");
          ("best", Float 5.0);
          ("worst_queue", String "b");
          ("worst", Float 2.0);
        ])
  in
  let bad =
    match D.to_json r with
    | Pqtrace.Json.Obj kvs ->
        Pqtrace.Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "phases" then (k, Pqtrace.Json.List [ bad_phase ])
               else (k, v))
             kvs)
    | j -> j
  in
  check_bool "inconsistent phase rejected" true
    (Result.is_error (Pqtrace.Bench_out.validate_string (doc bad)))

(* `pqbench adapt --quick --procs 8` must run the classifier the
   library scales to 8 processors, not quick's P=16 thresholds *)
let test_procs_sets_classifier () =
  match
    Pqanalysis.Gate.(configure adapt) [ ("quick", ""); ("procs", "8") ]
  with
  | Error e -> Alcotest.fail e
  | Ok c ->
      let k = c.D.meta.M.classifier in
      check_int "procs" 8 c.D.nprocs;
      Alcotest.(check (float 1e-9)) "heavy_rate" 2.56 k.C.heavy_rate;
      Alcotest.(check (float 1e-9)) "light_rate" 1.76 k.C.light_rate;
      Alcotest.(check (float 1e-9)) "lock_wait_heavy" 1600. k.C.lock_wait_heavy;
      check_bool "classifier_for ~nprocs:8" true
        (k = D.classifier_for ~nprocs:8);
      let classifier = D.quick.meta.classifier in
      check_bool "every other field is quick's" true
        ({ c with nprocs = 16; meta = { c.meta with classifier } } = D.quick)

let () =
  Alcotest.run "pqadapt"
    [
      ( "classify",
        [
          Alcotest.test_case "rate bands" `Quick test_classify_rate_bands;
          Alcotest.test_case "contention signals" `Quick
            test_classify_contention_signals;
          Alcotest.test_case "min-traffic guard" `Quick
            test_classify_min_traffic_guard;
        ] );
      ( "observe",
        [
          Alcotest.test_case "hysteresis needs a streak" `Quick
            test_observe_hysteresis_needs_streak;
          Alcotest.test_case "abstention keeps the streak" `Quick
            test_observe_abstain_keeps_streak;
          Alcotest.test_case "cooldown is refractory" `Quick
            test_observe_cooldown_refractory;
          Alcotest.test_case "short windows short-circuit" `Quick
            test_observe_short_window_short_circuits;
          Alcotest.test_case "deterministic replay" `Quick
            test_observe_deterministic_replay;
        ] );
      ( "validate",
        [
          Alcotest.test_case "classifier config" `Quick test_classifier_validate;
          Alcotest.test_case "meta config" `Quick test_meta_validate;
        ] );
      ( "gate",
        [
          Alcotest.test_case "passes, switches both ways, jobs-invariant"
            `Slow test_driver_gate_and_jobs_invariance;
          Alcotest.test_case "BENCH.json adapt round-trip" `Slow
            test_bench_out_round_trip;
          Alcotest.test_case "--procs sets the classifier" `Quick
            test_procs_sets_classifier;
        ] );
    ]

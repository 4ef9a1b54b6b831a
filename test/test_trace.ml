(* Tests for the pqtrace observability subsystem: probe passivity, trace
   byte-determinism, the conservation laws the instrumentation promises
   (lock acquires = releases; every funnel/combining operation terminates
   exactly once), the hand-rolled JSON codec, BENCH.json validation and
   the contention profiler's symbolic attribution. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* probe passivity: a probed run is bit-identical to an unprobed one *)

let run_workload ?probe queue =
  Pqbenchlib.Workload.run ~ops_per_proc:12 ?probe
    (Pqbenchlib.Workload.spec ~queue ~nprocs:8 ~npriorities:16)

let test_probe_passive () =
  List.iter
    (fun queue ->
      let plain = run_workload queue in
      let metrics = Pqsim.Stats.create () in
      let recorder = Pqtrace.Recorder.create () in
      let probed =
        run_workload ~probe:(Pqsim.Probe.make ~metrics ()) queue
      in
      let traced =
        run_workload ~probe:(Pqtrace.Recorder.probe recorder) queue
      in
      check_int (queue ^ " cycles, metrics probe") plain.cycles probed.cycles;
      check_int (queue ^ " cycles, trace probe") plain.cycles traced.cycles;
      Alcotest.(check (float 0.0))
        (queue ^ " latency") plain.latency_all probed.latency_all;
      check_int (queue ^ " inserts") plain.inserts probed.inserts;
      check_int (queue ^ " deletes") plain.deletes probed.deletes;
      check_bool (queue ^ " probe saw metrics") true
        (Pqsim.Stats.keys metrics <> []);
      check_bool (queue ^ " probe saw events") true
        (Pqtrace.Recorder.length recorder > 0))
    [ "SingleLock"; "FunnelTree"; "SkipList" ]

(* ------------------------------------------------------------------ *)
(* trace export: same seed => identical bytes; both formats parse *)

let test_trace_bytes_deterministic () =
  let go () =
    let recorder, r =
      Pqbenchlib.Profiler.trace_queue ~seed:7 ~ops_per_proc:8
        ~queue:"FunnelTree" ~nprocs:4 ()
    in
    let mem = r.Pqbenchlib.Workload.mem in
    ( Pqtrace.Recorder.to_chrome ~mem recorder,
      Pqtrace.Recorder.to_jsonl ~mem recorder )
  in
  let c1, j1 = go () in
  let c2, j2 = go () in
  check_string "chrome trace bytes" c1 c2;
  check_string "jsonl bytes" j1 j2

let test_chrome_trace_parses () =
  let recorder, r =
    Pqbenchlib.Profiler.trace_queue ~seed:3 ~ops_per_proc:5
      ~queue:"SimpleLinear" ~nprocs:4 ()
  in
  let mem = r.Pqbenchlib.Workload.mem in
  match Pqtrace.Json.of_string (Pqtrace.Recorder.to_chrome ~mem recorder) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok doc -> (
      match
        Option.bind (Pqtrace.Json.member "traceEvents" doc) Pqtrace.Json.to_list
      with
      | None -> Alcotest.fail "no traceEvents array"
      | Some evs ->
          check_bool "has events" true (List.length evs > 4);
          (* every record carries a phase tag *)
          List.iter
            (fun ev ->
              match
                Option.bind (Pqtrace.Json.member "ph" ev) Pqtrace.Json.to_str
              with
              | Some ("X" | "i" | "M") -> ()
              | Some ph -> Alcotest.failf "unexpected phase %S" ph
              | None -> Alcotest.fail "event without ph")
            evs)

let test_jsonl_lines_parse () =
  let recorder, r =
    Pqbenchlib.Profiler.trace_queue ~seed:3 ~ops_per_proc:5
      ~queue:"SingleLock" ~nprocs:4 ()
  in
  let text = Pqtrace.Recorder.to_jsonl ~mem:r.Pqbenchlib.Workload.mem recorder in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (Pqtrace.Recorder.length recorder)
    (List.length lines);
  List.iter
    (fun line ->
      match Pqtrace.Json.of_string line with
      | Error e -> Alcotest.failf "jsonl line does not parse: %s" e
      | Ok obj ->
          check_bool "has time" true (Pqtrace.Json.member "t" obj <> None))
    lines

let test_recorder_limit () =
  let recorder, _ =
    Pqbenchlib.Profiler.trace_queue ~seed:5 ~ops_per_proc:10 ~limit:16
      ~queue:"FunnelTree" ~nprocs:8 ()
  in
  check_int "buffer capped" 16 (Pqtrace.Recorder.length recorder);
  check_bool "drops counted" true (Pqtrace.Recorder.dropped recorder > 0)

(* ------------------------------------------------------------------ *)
(* conservation laws *)

let derived_of queue ~nprocs =
  (Pqbenchlib.Profiler.profile_queue ~ops_per_proc:12 ~queue ~nprocs ())
    .Pqbenchlib.Profiler.derived

let test_lock_conservation () =
  List.iter
    (fun queue ->
      let d = derived_of queue ~nprocs:8 in
      check_bool (queue ^ " locks used") true (d.Pqtrace.Metrics.lock_acquires > 0);
      check_int
        (queue ^ " acquires = releases")
        d.Pqtrace.Metrics.lock_acquires d.Pqtrace.Metrics.lock_releases;
      check_bool
        (queue ^ " contended <= acquires")
        true
        (d.Pqtrace.Metrics.lock_contended <= d.Pqtrace.Metrics.lock_acquires))
    [ "SingleLock"; "HuntEtAl"; "SimpleTree"; "SkipList"; "SimpleLinear" ]

let test_funnel_conservation () =
  let d = derived_of "FunnelTree" ~nprocs:16 in
  let open Pqtrace.Metrics in
  check_bool "funnel ops seen" true (d.funnel_ops > 0);
  check_int "ops = central + combined + 2*eliminated" d.funnel_ops
    (d.funnel_central + d.funnel_combined + (2 * d.funnel_eliminated))

let test_combtree_conservation () =
  let metrics = Pqsim.Stats.create () in
  let nprocs = 16 in
  let _, _ =
    Pqsim.Sim.run ~nprocs ~seed:11
      ~probe:(Pqsim.Probe.make ~metrics ())
      ~setup:(fun mem -> Pqcounters.Combtree.create mem ~nprocs ())
      ~program:(fun c _ ->
        for _ = 1 to 10 do
          Pqsim.Api.work 5;
          ignore (c.Pqcounters.Ctr_intf.inc ())
        done)
      ()
  in
  let d = Pqtrace.Metrics.derive metrics in
  let open Pqtrace.Metrics in
  check_int "comb ops all issued" (nprocs * 10) d.comb_ops;
  check_int "ops = absorbed + central" d.comb_ops
    (d.comb_absorbed + d.comb_central);
  check_bool "combining happened" true (d.comb_absorbed > 0)

let test_cas_counts () =
  let d = derived_of "SkipList" ~nprocs:16 in
  let open Pqtrace.Metrics in
  check_bool "cas seen" true (d.cas_ok > 0);
  check_bool "failure rate in [0,1]" true
    (d.cas_failure_rate >= 0. && d.cas_failure_rate <= 1.)

(* ------------------------------------------------------------------ *)
(* windowed rates: the sample/window stream the adaptive classifier
   consumes (Pqadapt.Classifier) *)

let test_window_empty () =
  (* equal samples — including the all-zero baseline — must yield zero
     counts and 0.0 rates, never NaN *)
  let open Pqtrace.Metrics in
  List.iter
    (fun s ->
      let w = window ~prev:s ~cur:s in
      check_int "no cas" 0 w.w_cas;
      check_int "no acquires" 0 w.w_lock_acquires;
      check_int "no traffic" 0 w.w_traffic;
      Alcotest.(check (float 0.)) "cas rate" 0. w.w_cas_fail_rate;
      Alcotest.(check (float 0.)) "wait mean" 0. w.w_lock_wait_mean;
      Alcotest.(check (float 0.)) "remote share" 0. w.w_remote_share)
    [
      empty_sample;
      {
        s_cas_ok = 5;
        s_cas_fail = 2;
        s_lock_acquires = 9;
        s_lock_wait_total = 140;
        s_remote = 3;
        s_local = 8;
      };
    ]

let test_window_single_sample () =
  (* one recorded event per signal: the window from the zero baseline
     reports exactly that event, with well-defined means *)
  let s = Pqsim.Stats.create () in
  Pqsim.Stats.record s "lock.acquire" 1;
  Pqsim.Stats.record s "lock.wait" 37;
  Pqsim.Stats.record s "cas.fail" 1;
  Pqsim.Stats.record s "mem.remote" 1;
  let open Pqtrace.Metrics in
  let w = window ~prev:empty_sample ~cur:(sample s) in
  check_int "one cas attempt" 1 w.w_cas;
  Alcotest.(check (float 0.)) "all cas failed" 1. w.w_cas_fail_rate;
  check_int "one acquire" 1 w.w_lock_acquires;
  Alcotest.(check (float 0.)) "wait mean is the sample" 37. w.w_lock_wait_mean;
  check_int "one transaction" 1 w.w_traffic;
  Alcotest.(check (float 0.)) "all remote" 1. w.w_remote_share

let test_window_delta_only () =
  (* a window reflects only what happened between its two samples, not
     the cumulative history *)
  let s = Pqsim.Stats.create () in
  let count n key v =
    for _ = 1 to n do
      Pqsim.Stats.record s key v
    done
  in
  count 6 "cas.ok" 1;
  count 2 "cas.fail" 1;
  count 4 "lock.acquire" 1;
  Pqsim.Stats.record s "lock.wait" 100;
  count 10 "mem.local" 1;
  let open Pqtrace.Metrics in
  let first = sample s in
  count 1 "cas.ok" 1;
  count 3 "cas.fail" 1;
  count 2 "lock.acquire" 1;
  Pqsim.Stats.record s "lock.wait" 60;
  count 2 "mem.remote" 1;
  count 2 "mem.local" 1;
  let w = window ~prev:first ~cur:(sample s) in
  check_int "cas delta" 4 w.w_cas;
  Alcotest.(check (float 1e-9)) "fail rate of the delta" 0.75 w.w_cas_fail_rate;
  check_int "acquire delta" 2 w.w_lock_acquires;
  Alcotest.(check (float 1e-9)) "wait mean of the delta" 30. w.w_lock_wait_mean;
  check_int "traffic delta" 4 w.w_traffic;
  Alcotest.(check (float 1e-9)) "remote share of the delta" 0.5 w.w_remote_share

let test_derive_empty_registry () =
  (* derive on a registry with no samples: zero counts, 0.0 rates *)
  let d = Pqtrace.Metrics.derive (Pqsim.Stats.create ()) in
  let open Pqtrace.Metrics in
  check_int "no cas" 0 (d.cas_ok + d.cas_fail);
  check_int "no locks" 0 d.lock_acquires;
  check_int "no traffic" 0 (d.remote_traffic + d.local_traffic);
  Alcotest.(check (float 0.)) "cas rate" 0. d.cas_failure_rate;
  Alcotest.(check (float 0.)) "wait mean" 0. d.lock_wait_mean;
  Alcotest.(check (float 0.)) "remote share" 0. d.remote_share

(* ------------------------------------------------------------------ *)
(* Stats distribution summaries (p99, histogram, edge cases) *)

let test_stats_percentiles () =
  let t = Pqsim.Stats.create () in
  for i = 1 to 100 do
    Pqsim.Stats.record t "x" i
  done;
  check_int "p50" 50 (Pqsim.Stats.percentile t "x" 0.50);
  check_int "p99" 99 (Pqsim.Stats.percentile t "x" 0.99);
  check_int "p100" 100 (Pqsim.Stats.percentile t "x" 1.0);
  check_int "p0" 1 (Pqsim.Stats.percentile t "x" 0.0);
  match Pqsim.Stats.summary t "x" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
      check_int "summary p99" 99 s.Pqsim.Stats.p99;
      check_int "summary max" 100 s.Pqsim.Stats.max

let test_stats_single_sample () =
  let t = Pqsim.Stats.create () in
  Pqsim.Stats.record t "one" 42;
  List.iter
    (fun p -> check_int "1-sample percentile" 42 (Pqsim.Stats.percentile t "one" p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_stats_ties () =
  let t = Pqsim.Stats.create () in
  for _ = 1 to 10 do
    Pqsim.Stats.record t "tied" 7
  done;
  check_int "tied p99" 7 (Pqsim.Stats.percentile t "tied" 0.99)

let test_stats_empty_key () =
  let t = Pqsim.Stats.create () in
  check_int "count" 0 (Pqsim.Stats.count t "missing");
  check_int "sum" 0 (Pqsim.Stats.sum t "missing");
  check_int "percentile" 0 (Pqsim.Stats.percentile t "missing" 0.99);
  check_bool "summary" true (Pqsim.Stats.summary t "missing" = None);
  check_bool "histogram" true (Pqsim.Stats.histogram t "missing" = []);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p must be within [0, 1]") (fun () ->
      ignore (Pqsim.Stats.percentile t "missing" 1.5))

let test_stats_histogram_buckets () =
  let t = Pqsim.Stats.create () in
  List.iter (Pqsim.Stats.record t "h") [ 0; 1; 2; 3; 4; 100 ];
  (* buckets: 0 -> bound 0; 1 -> bound 1; 2,3 -> bound 3; 4 -> bound 7;
     100 -> bound 127 *)
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (0, 1); (1, 1); (3, 2); (7, 1); (127, 1) ]
    (Pqsim.Stats.histogram t "h")

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let open Pqtrace.Json in
  let v =
    Obj
      [
        ("s", String "he\"llo\n\t\\");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("whole", Float 3.0);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; List []; Obj [] ]);
      ]
  in
  match of_string (to_string v) with
  | Ok v' -> check_bool "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_parse_errors () =
  let bad s =
    match Pqtrace.Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s
  in
  List.iter bad
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{'a':1}" ]

let test_json_accessors () =
  let open Pqtrace.Json in
  match of_string "{\"a\": [1, 2.5], \"b\": \"x\"}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
      check_bool "member missing" true (member "zz" v = None);
      check_bool "int via to_float" true
        (Option.bind (member "a" v) to_list
        |> Option.map (List.filter_map to_float)
        = Some [ 1.0; 2.5 ]);
      check_bool "to_str" true
        (Option.bind (member "b" v) to_str = Some "x")

(* ------------------------------------------------------------------ *)
(* BENCH.json writer + validator *)

let sample_doc () =
  Pqtrace.Bench_out.make ~seed:42 ~scale:"tiny"
    [
      {
        Pqtrace.Bench_out.id = "fig6";
        title = "t";
        xlabel = "P";
        series =
          [ { Pqtrace.Bench_out.name = "SingleLock"; points = [ (2, 10.5) ] } ];
      };
    ]

let test_bench_out_valid () =
  let text = Pqtrace.Bench_out.to_string (sample_doc ()) in
  (match Pqtrace.Bench_out.validate_string text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-produced document rejected: %s" e);
  check_string "deterministic bytes" text
    (Pqtrace.Bench_out.to_string (sample_doc ()))

let test_bench_out_rejects_tampered () =
  let doc = Pqtrace.Bench_out.to_json (sample_doc ()) in
  let tampered =
    match doc with
    | Pqtrace.Json.Obj fields ->
        [
          ("no figures", Pqtrace.Json.Obj (List.remove_assoc "figures" fields));
          ( "bad version",
            Pqtrace.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "schema_version" then (k, Pqtrace.Json.Int 999)
                   else (k, v))
                 fields) );
          ( "empty figures",
            Pqtrace.Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "figures" then (k, Pqtrace.Json.List []) else (k, v))
                 fields) );
          ( "unknown section",
            Pqtrace.Json.Obj (fields @ [ ("rank", Pqtrace.Json.Obj []) ]) );
          ( "repeated figures key",
            Pqtrace.Json.Obj (fields @ [ ("figures", Pqtrace.Json.List []) ]) );
          ( "harness section",
            Pqtrace.Json.Obj
              (fields
              @ [
                  ( "harness",
                    Pqtrace.Json.Obj
                      [
                        ("jobs", Pqtrace.Json.Int 1);
                        ("wall_s", Pqtrace.Json.Float 1.5);
                        ("experiments", Pqtrace.Json.List []);
                      ] );
                ]) );
        ]
    | _ -> Alcotest.fail "document is not an object"
  in
  List.iter
    (fun (what, bad) ->
      match Pqtrace.Bench_out.validate bad with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    tampered;
  (* a repeated key is named with its path, at any depth *)
  (match
     Pqtrace.Bench_out.validate_string
       {|{"schema_version":1,"paper":"p","seed":1,"scale":"s","figures":[{"id":"a","title":"t","xlabel":"P","series":[{"name":"n","name":"m","points":[]}]}]}|}
   with
  | Error e ->
      check_string "repeated key error" e
        "BENCH.figures[0].series[0]: repeated key \"name\""
  | Ok () -> Alcotest.fail "validator accepted a repeated nested key");
  match Pqtrace.Bench_out.validate_string "{not json" with
  | Ok () -> Alcotest.fail "validator accepted garbage"
  | Error _ -> ()

(* the audit matrix's first cell, as a one-row report *)
let audit_config =
  let cfg = Pqanalysis.Audit.config in
  {
    cfg with
    queues = [ List.hd cfg.queues ];
    scheds = [ List.hd cfg.scheds ];
    seeds = [ List.hd cfg.seeds ];
  }

let audit_report =
  lazy (List.hd (Pqanalysis.Audit.run ~jobs:1 audit_config))

let with_audit report =
  match sample_doc () with
  | { Pqtrace.Bench_out.figures; _ } ->
      Pqtrace.Bench_out.make ~seed:42 ~scale:"tiny"
        ~audit:(Pqanalysis.Audit.to_json audit_config [ report ])
        figures

let test_bench_out_audit_valid () =
  let r = Lazy.force audit_report in
  let text = Pqtrace.Bench_out.to_string (with_audit r) in
  (match Pqtrace.Bench_out.validate_string text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "audit section rejected: %s" e);
  check_string "deterministic bytes" text
    (Pqtrace.Bench_out.to_string (with_audit r));
  (* a failing row is representable: its finding clears both pass flags *)
  let failing =
    Pqtrace.Bench_out.to_json
      (with_audit
         {
           r with
           cells =
             List.map
               (fun (c : Pqchaos.Driver.cell) ->
                 { c with verdict = Pqchaos.Driver.Blocked "Exit" })
               r.cells;
         })
  in
  (match Pqtrace.Bench_out.validate failing with
  | Ok () -> ()
  | Error e -> Alcotest.failf "failing audit rejected: %s" e);
  check_bool "section fails" true
    (Option.bind (Pqtrace.Json.member "audit" failing)
       (Pqtrace.Json.member "pass")
    = Some (Pqtrace.Json.Bool false))

(* rewrite one field of the encoded section, at [path] below "audit" *)
let tamper_audit path v =
  let open Pqtrace.Json in
  let rec set path j =
    match (path, j) with
    | [], _ -> v
    | `Key k :: rest, Obj fields ->
        Obj (List.map (fun (k', x) -> if k' = k then (k', set rest x) else (k', x)) fields)
    | `First :: rest, List (x :: xs) -> List (set rest x :: xs)
    | _ -> j
  in
  set (`Key "audit" :: path)
    (Pqtrace.Bench_out.to_json (with_audit (Lazy.force audit_report)))

let test_bench_out_audit_rejects () =
  (* the section's own consistency rules, as enforced by the validator *)
  let open Pqtrace.Json in
  let row = [ `Key "queues"; `First ] in
  let cases =
    [
      ("section pass contradicting rows", tamper_audit [ `Key "pass" ] (Bool false));
      ("row pass with findings",
        tamper_audit (row @ [ `Key "findings" ]) (List [ String "race X" ]));
      ("row fail without findings", tamper_audit (row @ [ `Key "pass" ]) (Bool false));
      ("passing row carrying a race",
        tamper_audit (row @ [ `Key "counts"; `Key "races" ]) (Int 1));
      ("passing row over its rank bound",
        tamper_audit (row @ [ `Key "counts"; `Key "worst_rank" ]) (Int 1_000_000));
      ("counts without the verdict's terms",
        tamper_audit (row @ [ `Key "counts" ]) (Obj [ ("cells", Int 9) ]));
      ("negative count",
        tamper_audit (row @ [ `Key "counts" ]) (Obj [ ("races", Int (-1)) ]));
      ("non-integer count",
        tamper_audit (row @ [ `Key "counts" ]) (Obj [ ("races", String "0") ]));
      ("empty queues", tamper_audit [ `Key "queues" ] (List []));
      ("empty seeds", tamper_audit [ `Key "seeds" ] (List []));
      ("nprocs 0", tamper_audit [ `Key "nprocs" ] (Int 0));
    ]
  in
  List.iter
    (fun (what, doc) ->
      match Pqtrace.Bench_out.validate doc with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    cases

(* The hand-kept schema file against the three drivers' encoders: in a
   document carrying every section, each object the schema describes
   with [properties] must carry exactly those keys, all of them
   [required]; the top level carries exactly {!Bench_out.sections}. *)
let test_schema_matches_encoders () =
  let open Pqtrace.Json in
  let schema =
    let ic = open_in_bin "../schema/bench.schema.json" in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match of_string text with
    | Ok j -> j
    | Error e -> Alcotest.failf "schema does not parse: %s" e
  in
  let chaos_cfg =
    {
      Pqchaos.Driver.quick with
      queues = [ "SingleLock" ];
      scenarios = [ "coinflip" ];
      plans = [ None ];
      scheds = [ Pqexplore.Policy.Default ];
      seeds = [ 1 ];
    }
  in
  let adapt = Pqadapt.Driver.run ~jobs:1 Pqadapt.Driver.quick in
  check_bool "adapt switched (its switch objects are checked)" true
    (adapt.Pqadapt.Driver.switches <> []);
  let doc =
    match sample_doc () with
    | { Pqtrace.Bench_out.figures; _ } ->
        Pqtrace.Bench_out.to_json
          (Pqtrace.Bench_out.make ~seed:42 ~scale:"tiny"
             ~metrics:[ ("m", Int 1) ]
             ~audit:
               (Pqanalysis.Audit.to_json audit_config
                  [ Lazy.force audit_report ])
             ~chaos:
               (Pqchaos.Driver.to_json chaos_cfg
                  (Pqchaos.Driver.run ~jobs:1 chaos_cfg))
             ~adapt:(Pqadapt.Driver.to_json adapt)
             figures)
  in
  let keys = function Obj kvs -> List.map fst kvs | _ -> [] in
  let sorted l = List.sort compare l in
  let strings j =
    Option.value ~default:[]
      (Option.map (List.filter_map to_str) (Option.bind j to_list))
  in
  check_bool "top-level properties are the sections" true
    (sorted (keys (Option.get (member "properties" schema)))
    = sorted Pqtrace.Bench_out.sections);
  check_bool "the document carries every section" true
    (keys doc = Pqtrace.Bench_out.sections);
  let rec walk path schema j =
    match (member "properties" schema, j) with
    | Some props, Obj kvs ->
        if path <> "BENCH" then begin
          check_bool (path ^ ": properties = emitted keys") true
            (sorted (keys props) = sorted (List.map fst kvs));
          check_bool (path ^ ": required = emitted keys") true
            (sorted (strings (member "required" schema))
            = sorted (List.map fst kvs))
        end;
        List.iter
          (fun (k, sub) ->
            match List.assoc_opt k kvs with
            | Some v -> walk (path ^ "." ^ k) sub v
            | None -> ())
          (match props with Obj p -> p | _ -> [])
    | None, List items -> (
        match (member "items" schema, items) with
        | Some item, x :: _ -> walk (path ^ "[0]") item x
        | Some item, [] when member "properties" item <> None ->
            Alcotest.failf "%s: empty in the test document" path
        | _ -> ())
    | _ -> ()
  in
  walk "BENCH" schema doc

(* ------------------------------------------------------------------ *)
(* contention profiler: symbolic attribution and ranking *)

let test_mem_labels () =
  let mem = Pqsim.Mem.create (Pqsim.Machine.make ~nprocs:2 ()) in
  let addr = Pqsim.Mem.alloc mem 4 in
  Pqsim.Mem.label mem ~addr ~len:4 (Root "thing");
  check_bool "base word" true (Pqsim.Mem.name_of mem addr = Some "thing");
  check_bool "offset word" true
    (Pqsim.Mem.name_of mem (addr + 2) = Some "thing+2");
  check_bool "past the label" true (Pqsim.Mem.name_of mem (addr + 4) = None)

let test_profile_symbolic_ranking () =
  let r =
    Pqbenchlib.Profiler.profile_queue ~ops_per_proc:15 ~top:64
      ~queue:"SimpleTree" ~nprocs:64 ()
  in
  let rows = r.Pqbenchlib.Profiler.hottest in
  check_bool "root counter attributed" true
    (Pqtrace.Profile.find rows "SimpleTree.counter[1]" <> None);
  let index_of prefix =
    let rec go i = function
      | [] -> None
      | row :: rest -> (
          match row.Pqtrace.Profile.name with
          | Some n when String.length n >= String.length prefix
                        && String.sub n 0 (String.length prefix) = prefix ->
              Some i
          | _ -> go (i + 1) rest)
    in
    go 0 rows
  in
  match (index_of "SimpleTree.counter[1].", index_of "SimpleTree.bin[") with
  | Some root, Some bin ->
      check_bool "root counter hotter than any bin" true (root < bin)
  | Some _, None -> () (* no bin line hot enough to rank: fine *)
  | None, _ -> Alcotest.fail "root counter line not in the profile"

let () =
  Alcotest.run "trace"
    [
      ( "probe",
        [
          Alcotest.test_case "passive" `Quick test_probe_passive;
          Alcotest.test_case "trace bytes deterministic" `Quick
            test_trace_bytes_deterministic;
          Alcotest.test_case "chrome trace parses" `Quick
            test_chrome_trace_parses;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
          Alcotest.test_case "recorder limit" `Quick test_recorder_limit;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "lock acquires = releases" `Quick
            test_lock_conservation;
          Alcotest.test_case "funnel ops" `Quick test_funnel_conservation;
          Alcotest.test_case "combining tree ops" `Quick
            test_combtree_conservation;
          Alcotest.test_case "cas outcome counts" `Quick test_cas_counts;
        ] );
      ( "windows",
        [
          Alcotest.test_case "empty window" `Quick test_window_empty;
          Alcotest.test_case "single sample" `Quick test_window_single_sample;
          Alcotest.test_case "delta only" `Quick test_window_delta_only;
          Alcotest.test_case "derive on empty registry" `Quick
            test_derive_empty_registry;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
          Alcotest.test_case "ties" `Quick test_stats_ties;
          Alcotest.test_case "empty key" `Quick test_stats_empty_key;
          Alcotest.test_case "histogram buckets" `Quick
            test_stats_histogram_buckets;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "bench-out",
        [
          Alcotest.test_case "valid" `Quick test_bench_out_valid;
          Alcotest.test_case "rejects tampered" `Quick
            test_bench_out_rejects_tampered;
          Alcotest.test_case "audit section valid" `Quick
            test_bench_out_audit_valid;
          Alcotest.test_case "audit section rejects" `Quick
            test_bench_out_audit_rejects;
          Alcotest.test_case "schema = encoders" `Quick
            test_schema_matches_encoders;
        ] );
      ( "profile",
        [
          Alcotest.test_case "mem labels" `Quick test_mem_labels;
          Alcotest.test_case "symbolic ranking" `Quick
            test_profile_symbolic_ranking;
        ] );
    ]

(* The determinism gate for the fast harness.

   The performance work (flat-array memory model, non-allocating event
   queue, domain-parallel sweeps) promises that nothing observable moved:
   every quick-scale figure table, every BENCH.json series, every JSONL
   trace and the exact report text `pqbench audit`, `pqbench chaos
   --quick --verbose` and `pqbench adapt --quick` write with --report is
   byte-for-byte what the pre-optimisation engine printed, and
   independent of --jobs; so is the text `pqbench explore --queue all
   --budget 64` prints under each exploration policy, since it was
   first pinned.  These tests pin that promise to checked-in SHA-256
   fixtures (test/digests/golden.sha256).

   If a digest changes, the change is either a bug or an intentional
   engine-semantics change; the latter must be blessed explicitly:

     PQ_BLESS=1 dune test

   writes the freshly computed digests to digests/golden.sha256 inside
   the build sandbox (the test then passes); copy that file back over
   test/digests/golden.sha256 and justify the change in the PR. *)

let fixture_path = "digests/golden.sha256"

let read_fixtures () =
  let ic = open_in fixture_path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.index_opt line ' ' with
        | Some i ->
            go
              ((String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1))
              :: acc)
        | None -> go acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let blessing () = Sys.getenv_opt "PQ_BLESS" = Some "1"

(* ------------------------------------------------------------------ *)
(* computing the artifacts *)

(* capture what [f] prints to stdout (the figure tables go there; the
   per-point progress ticker goes to stderr and is not part of the
   contract) *)
let capture_stdout f =
  let path = Filename.temp_file "pq_tables" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let r = Fun.protect ~finally:restore f in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  (text, r)

let quick ~jobs = { Pqbenchlib.Figures.quick with jobs }

(* quick-scale tables + the BENCH.json series built from them *)
let figures_digests ~jobs =
  let tables, figures =
    capture_stdout (fun () -> Pqbenchlib.Figures.collect (quick ~jobs))
  in
  let json =
    Pqtrace.Bench_out.to_string
      {
        Pqtrace.Bench_out.seed = 42;
        scale = "quick";
        figures;
        metrics = [];
        gates = [];
      }
  in
  (Sha256.digest_string tables, Sha256.digest_string json)

(* the sample JSONL trace, with `pqbench trace`'s defaults: the digest
   here is the digest of the PREFIX.jsonl file that command writes *)
let trace_digest ~seed =
  let recorder, r =
    Pqbenchlib.Profiler.trace_queue ~queue:"FunnelTree" ~nprocs:8
      ~npriorities:16 ~ops_per_proc:10 ~seed ~limit:1_000_000 ()
  in
  Sha256.digest_string
    (Pqtrace.Recorder.to_jsonl ~mem:r.Pqbenchlib.Workload.mem recorder)

(* the text each gate command prints and writes with --report, built
   from Pqanalysis.Gate as the CLI builds it: the gate's config after
   --quick and --verbose where it has them, keyed by that command line
   ("chaos-quick-verbose-report") *)
let pinned_flags (g : _ Pqanalysis.Gate.spec) =
  let has f = List.exists (fun (d : _ Pqanalysis.Gate.field) -> List.hd d.names = f) in
  List.filter
    (fun f -> (f = "quick" && Option.is_some g.quick) || has f g.fields)
    [ "quick"; "verbose" ]

let gate_key (Pqanalysis.Gate.Gate g) =
  String.concat "-" ((g.name :: pinned_flags g) @ [ "report" ])

let gate_digests ~jobs =
  List.map
    (fun (Pqanalysis.Gate.Gate g as gate) ->
      let args = List.map (fun f -> (f, "")) (pinned_flags g) in
      let cfg = Result.get_ok (Pqanalysis.Gate.configure g args) in
      (gate_key gate, Sha256.digest_string (g.run ~jobs cfg).report))
    Pqanalysis.Gate.all

(* the text `pqbench explore --queue all --budget 64 --policy P` prints,
   by the library call the CLI makes: the one pin on schedule replay and
   the dfs enumerator *)
let explore_digests () =
  List.map
    (fun policy ->
      let text, _ =
        Pqexplore.Explore.report ~seed:42
          ~cfg:(fun queue -> Pqexplore.Driver.config queue)
          ~policy:
            (Result.get_ok (Pqexplore.Explore.policy_kind_of_string policy))
          ~budget:64 Pqcore.Registry.names_paper
      in
      ("explore-" ^ policy ^ "-report", Sha256.digest_string text))
    [ "random"; "pct"; "dfs" ]

(* ------------------------------------------------------------------ *)
(* the tests *)

let test_sha256_vectors () =
  (* FIPS 180-4 vectors: empty, one-block, two-block *)
  Alcotest.(check string)
    "sha256(\"\")"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  Alcotest.(check string)
    "sha256(abc)"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  Alcotest.(check string)
    "sha256(two-block vector)"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string
       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let golden () =
  let tables1, json1 = figures_digests ~jobs:1 in
  let tables4, json4 = figures_digests ~jobs:4 in
  (* jobs-independence first: this holds whether or not the fixtures are
     being re-blessed *)
  Alcotest.(check string) "tables: --jobs 4 = --jobs 1" tables1 tables4;
  Alcotest.(check string) "BENCH series: --jobs 4 = --jobs 1" json1 json4;
  let gates1 = gate_digests ~jobs:1 in
  List.iter2
    (fun (name, d1) (_, d4) ->
      Alcotest.(check string) (name ^ ": --jobs 4 = --jobs 1") d1 d4)
    gates1 (gate_digests ~jobs:4);
  let traces = List.map (fun s -> (s, trace_digest ~seed:s)) [ 42; 1; 7 ] in
  let computed =
    ("figures-quick-tables", tables1)
    :: ("figures-quick-json", json1)
    :: List.map (fun (s, d) -> (Printf.sprintf "trace-s%d" s, d)) traces
    @ gates1
    @ explore_digests ()
  in
  if blessing () then begin
    if not (Sys.file_exists (Filename.dirname fixture_path)) then
      Sys.mkdir (Filename.dirname fixture_path) 0o755;
    let oc = open_out fixture_path in
    List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) computed;
    close_out oc;
    Printf.eprintf
      "[bless] wrote %s in the build sandbox; copy it to test/digests/ and \
       justify the digest change\n%!"
      fixture_path
  end
  else
    let fixtures = read_fixtures () in
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k fixtures with
        | Some want -> Alcotest.(check string) k want v
        | None -> Alcotest.failf "no fixture for %s (re-bless?)" k)
      computed

(* the report files test/dune has the CLI write, each named by its
   fixture key (`pqbench chaos --quick --verbose --jobs 2 --report
   chaos-quick-verbose-report.txt'): this pins the command line's own
   defaults, which the library digests above cannot see *)
let cli_reports () =
  let fixtures = read_fixtures () in
  List.iter
    (fun gate ->
      let key = gate_key gate in
      let ic = open_in_bin (key ^ ".txt") in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check (option string))
        (key ^ ".txt") (List.assoc_opt key fixtures)
        (Some (Sha256.digest_string text)))
    Pqanalysis.Gate.all

let () =
  Alcotest.run "harness"
    [
      ( "determinism",
        [
          Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "golden digests, jobs 1 = jobs 4" `Slow golden;
          Alcotest.test_case "CLI report files match the digests" `Quick
            cli_reports;
        ] );
    ]

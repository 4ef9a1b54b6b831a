(* Tests for the benchmark harness itself: the workload driver (which
   doubles as an end-to-end stress test of every queue), the counter
   bench, and the table renderer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* workload driver *)

let test_run_produces_sane_metrics () =
  let r =
    Pqbenchlib.Workload.run ~ops_per_proc:20
      (Pqbenchlib.Workload.spec ~queue:"SimpleLinear" ~nprocs:8 ~npriorities:16)
  in
  check_bool "latency positive" true (r.latency_all > 0.);
  check_bool "cycles positive" true (r.cycles > 0);
  check_int "ops accounted" (8 * 20) (r.inserts + r.deletes + r.empty_deletes)

let test_run_deterministic () =
  let go () =
    (Pqbenchlib.Workload.run ~ops_per_proc:15
       (Pqbenchlib.Workload.spec ~queue:"FunnelTree" ~nprocs:16 ~npriorities:16))
      .cycles
  in
  check_int "same seed, same cycles" (go ()) (go ())

let test_run_seed_sensitivity () =
  let go seed =
    (Pqbenchlib.Workload.run ~ops_per_proc:15
       {
         (Pqbenchlib.Workload.spec ~queue:"SimpleTree" ~nprocs:16
            ~npriorities:16)
         with
         seed;
       })
      .cycles
  in
  check_bool "different seeds differ" true (go 1 <> go 2)

let test_all_queues_verify_under_workload () =
  (* the driver raises Verification_failure if conservation or an
     invariant breaks; run every queue through it *)
  List.iter
    (fun queue ->
      ignore
        (Pqbenchlib.Workload.run ~ops_per_proc:12
           (Pqbenchlib.Workload.spec ~queue ~nprocs:10 ~npriorities:8)))
    Pqcore.Registry.names

let test_insert_bias_extremes () =
  let all_inserts =
    Pqbenchlib.Workload.run ~ops_per_proc:10
      {
        (Pqbenchlib.Workload.spec ~queue:"SimpleLinear" ~nprocs:4
           ~npriorities:8)
        with
        insert_bias = 100;
      }
  in
  check_int "all ops were inserts" 40 all_inserts.inserts;
  let all_deletes =
    Pqbenchlib.Workload.run ~ops_per_proc:10
      {
        (Pqbenchlib.Workload.spec ~queue:"SimpleLinear" ~nprocs:4
           ~npriorities:8)
        with
        insert_bias = 0;
      }
  in
  check_int "all ops were (empty) deletes" 40 all_deletes.empty_deletes

(* the conservation ledger against the sorted-list check it replaced:
   for any inserts and any deleted/remaining elements — the inserted
   ones, with one lost, duplicated, invented or re-prioritised — it
   answers exactly what comparing the sorted multisets answers.  With
   [stride] past 100_000, payloads of neighbouring processors collide. *)
let ledger_case ~collide =
  let open QCheck.Gen in
  int_range 1 3 >>= fun nprocs ->
  let stride = if collide then 100_006 else 6 in
  let j = map2 (fun hi lo -> if collide && hi then 100_000 + lo else lo) bool (int_range 1 6) in
  list_size (int_range 0 12) (triple (int_bound (nprocs - 1)) j (int_bound 3))
  >>= fun ins ->
  (* one successful insert per (pid, j) *)
  let ins =
    List.sort_uniq (fun (p, j, _) (p', j', _) -> compare (p, j) (p', j')) ins
  in
  let elements =
    List.map
      (fun (pid, j, pri) -> (pri, Pqbenchlib.Workload.Ledger.payload ~pid ~j))
      ins
  in
  int_bound 4 >>= fun mutation ->
  int_bound 20 >>= fun at ->
  pair (int_bound 3) (int_range (-1) 300_010) >>= fun invented ->
  let n = List.length elements in
  let out =
    match mutation with
    | 1 when n > 0 -> List.filteri (fun i _ -> i <> at mod n) elements
    | 2 when n > 0 -> List.nth elements (at mod n) :: elements
    | 3 -> invented :: elements
    | 4 when n > 0 ->
        List.mapi
          (fun i (pri, payload) ->
            if i = at mod n then ((pri + 1) mod 4, payload) else (pri, payload))
          elements
    | _ -> elements
  in
  shuffle_l out >>= fun out ->
  list_repeat (List.length out) (pair bool (int_bound (nprocs - 1)))
  >>= fun routes ->
  return (nprocs, stride, ins, List.combine out routes)

let ledger_matches_sorted_check ~collide =
  QCheck.Test.make ~count:(if collide then 60 else 500)
    ~name:
      (if collide then "ledger = sorted check, colliding payloads"
       else "ledger = sorted check")
    (QCheck.make (ledger_case ~collide))
    (fun (nprocs, stride, ins, routed) ->
      let module L = Pqbenchlib.Workload.Ledger in
      let l = L.create ~nprocs ~stride in
      List.iter (fun (pid, j, pri) -> L.insert l ~pid ~j ~pri) ins;
      let remaining = ref [] in
      List.iter
        (fun ((pri, payload), (deleted, pid)) ->
          if deleted then L.delete l ~pid ~pri ~payload
          else remaining := (pri, payload) :: !remaining)
        routed;
      let inserted =
        List.map (fun (pid, j, pri) -> (pri, L.payload ~pid ~j)) ins
      in
      let sorted = List.sort compare in
      L.balances l ~remaining:!remaining
      = (sorted inserted = sorted (List.map fst routed)))

let test_contention_grows_with_procs () =
  let lat p =
    (Pqbenchlib.Workload.run ~ops_per_proc:15
       (Pqbenchlib.Workload.spec ~queue:"SingleLock" ~nprocs:p ~npriorities:16))
      .latency_all
  in
  check_bool "centralized queue degrades" true (lat 32 > 2. *. lat 2)

(* ------------------------------------------------------------------ *)
(* counter bench *)

let test_counterbench_runs () =
  let l =
    Pqbenchlib.Counterbench.run ~mode:Pqbenchlib.Counterbench.Faa ~nprocs:8
      ~dec_percent:50 ~ops_per_proc:20 ()
  in
  check_bool "positive latency" true (l > 0.)

let test_counterbench_elim_helps_at_scale () =
  let l elim =
    Pqbenchlib.Counterbench.run
      ~mode:(Pqbenchlib.Counterbench.Bounded { elim })
      ~nprocs:64 ~dec_percent:50 ~ops_per_proc:25 ()
  in
  check_bool "elimination cheaper at 64 procs" true (l true < l false)

(* ------------------------------------------------------------------ *)
(* table rendering *)

let test_table_render () =
  let s =
    Pqbenchlib.Table.render ~title:"t" ~xlabel:"x"
      [
        { Pqbenchlib.Table.label = "a"; points = [ (1, 10.); (2, 20.) ] };
        { Pqbenchlib.Table.label = "b"; points = [ (1, 30.) ] };
      ]
  in
  check_bool "has title" true
    (String.length s > 0
    &&
    try
      ignore (Str.search_forward (Str.regexp_string "== t ==") s 0);
      true
    with Not_found -> false)

let test_table_missing_cells () =
  let s =
    Pqbenchlib.Table.render ~title:"t" ~xlabel:"x"
      [
        { Pqbenchlib.Table.label = "a"; points = [ (1, 10.) ] };
        { Pqbenchlib.Table.label = "b"; points = [ (2, 20.) ] };
      ]
  in
  (* the (2, "a") cell must render as "-" *)
  check_bool "dash for missing" true (String.contains s '-')

let test_table_rows_alignment () =
  let s =
    Pqbenchlib.Table.render_rows ~title:"x" ~header:[ "col"; "val" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      lines
  in
  (* all non-empty data lines after the title share one width *)
  match widths with
  | _title :: rest ->
      let data = List.filter (fun w -> w > 3) rest in
      check_bool "aligned" true
        (match data with
        | w :: ws -> List.for_all (fun x -> x = w) ws
        | [] -> false)
  | [] -> Alcotest.fail "no lines"

(* ------------------------------------------------------------------ *)
(* quick figure smoke: tiny scales, checks the plumbing end to end *)

let tiny = { Pqbenchlib.Figures.ops = 6; max_procs = 8; jobs = 1 }

let test_figures_smoke () =
  (* suppress the tables; we only care that every experiment runs and
     verifies *)
  let dev_null = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel dev_null) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      close_out dev_null)
    (fun () ->
      ignore (Pqbenchlib.Figures.fig6 tiny);
      ignore (Pqbenchlib.Figures.fig7 tiny);
      ignore (Pqbenchlib.Figures.ablation_precheck tiny))

let () =
  Alcotest.run "pqbenchlib"
    [
      ( "workload",
        [
          Alcotest.test_case "sane metrics" `Quick
            test_run_produces_sane_metrics;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_run_seed_sensitivity;
          Alcotest.test_case "all queues verify" `Quick
            test_all_queues_verify_under_workload;
          Alcotest.test_case "insert bias extremes" `Quick
            test_insert_bias_extremes;
          Alcotest.test_case "contention grows" `Quick
            test_contention_grows_with_procs;
        ] );
      ( "ledger",
        List.map QCheck_alcotest.to_alcotest
          [
            ledger_matches_sorted_check ~collide:false;
            ledger_matches_sorted_check ~collide:true;
          ] );
      ( "counterbench",
        [
          Alcotest.test_case "runs" `Quick test_counterbench_runs;
          Alcotest.test_case "elimination helps at scale" `Quick
            test_counterbench_elim_helps_at_scale;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "missing cells" `Quick test_table_missing_cells;
          Alcotest.test_case "alignment" `Quick test_table_rows_alignment;
        ] );
      ( "figures",
        [ Alcotest.test_case "tiny smoke" `Quick test_figures_smoke ] );
    ]

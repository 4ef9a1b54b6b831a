(* Tests for bins, counters, the sequential heap and the skip-list base. *)

open Pqsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Elem packing *)

let test_elem_roundtrip () =
  List.iter
    (fun (p, v) ->
      let e = Pqstruct.Elem.pack ~pri:p ~payload:v in
      check_int "pri" p (Pqstruct.Elem.pri e);
      check_int "payload" v (Pqstruct.Elem.payload e))
    [
      (0, 0);
      (1, 42);
      (511, 12345);
      (512, Pqstruct.Elem.max_payload - 1);
      (* the workloads' payload pid * 100_000 + op at P=256 *)
      (255, 25_600_000);
      (1023, Pqstruct.Elem.max_payload - 1);
    ];
  (* priority-major: the word comparison is the element comparison *)
  check_bool "priority-major order" true
    (Pqstruct.Elem.pack ~pri:1 ~payload:(Pqstruct.Elem.max_payload - 1)
    < Pqstruct.Elem.pack ~pri:2 ~payload:0);
  match Pqstruct.Elem.pack ~pri:0 ~payload:Pqstruct.Elem.max_payload with
  | _ -> Alcotest.fail "oversized payload accepted"
  | exception Invalid_argument _ -> ()

let test_elem_order =
  QCheck.Test.make ~name:"elem order follows priority order" ~count:500
    QCheck.(quad (int_bound 511) (int_bound 1000) (int_bound 511) (int_bound 1000))
    (fun (p1, v1, p2, v2) ->
      let e1 = Pqstruct.Elem.pack ~pri:p1 ~payload:v1
      and e2 = Pqstruct.Elem.pack ~pri:p2 ~payload:v2 in
      if p1 < p2 then e1 < e2 else if p1 > p2 then e1 > e2 else true)

(* ------------------------------------------------------------------ *)
(* Bin *)

(* the bin answers [Bin.none] when empty; the tests compare options *)
let bin_delete b =
  let e = Pqstruct.Bin.delete b in
  if e = Pqstruct.Bin.none then None else Some e

let test_bin_fifo_lifo_semantics () =
  let _, result =
    Sim.run ~nprocs:1
      ~setup:(fun mem -> Pqstruct.Bin.create mem ~nprocs:1 ~cap:8)
      ~program:(fun b _ ->
        assert (Pqstruct.Bin.is_empty b);
        assert (Pqstruct.Bin.insert b 10);
        assert (Pqstruct.Bin.insert b 20);
        assert (not (Pqstruct.Bin.is_empty b));
        (* array bin deletes in LIFO order *)
        assert (bin_delete b = Some 20);
        assert (bin_delete b = Some 10);
        assert (bin_delete b = None))
      ()
  in
  check_bool "ran" true (result.Sim.cycles > 0)

let test_bin_capacity () =
  let _, result =
    Sim.run ~nprocs:1
      ~setup:(fun mem -> Pqstruct.Bin.create mem ~nprocs:1 ~cap:2)
      ~program:(fun b _ ->
        assert (Pqstruct.Bin.insert b 1);
        assert (Pqstruct.Bin.insert b 2);
        assert (not (Pqstruct.Bin.insert b 3)))
      ()
  in
  ignore result

let test_bin_concurrent_conservation () =
  (* half the processors insert tagged values, half delete; afterwards
     inserted = deleted + remaining, with no duplicates *)
  let nprocs = 16 and per = 30 in
  let deleted = Array.make nprocs [] in
  let inserted = Array.make nprocs [] in
  let b, result =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Bin.create mem ~nprocs ~cap:4096)
      ~program:(fun b pid ->
        if pid mod 2 = 0 then
          for i = 1 to per do
            let v = (pid * 1000) + i in
            if Pqstruct.Bin.insert b v then
              inserted.(pid) <- v :: inserted.(pid);
            Api.work 3
          done
        else
          for _ = 1 to per do
            (match bin_delete b with
            | Some v -> deleted.(pid) <- v :: deleted.(pid)
            | None -> ());
            Api.work 3
          done)
      ()
  in
  let all_inserted = Array.to_list inserted |> List.concat in
  let all_deleted = Array.to_list deleted |> List.concat in
  let remaining = Pqstruct.Bin.drain_now result.Sim.mem b in
  check_int "conservation"
    (List.length all_inserted)
    (List.length all_deleted + List.length remaining);
  let sorted l = List.sort compare l in
  Alcotest.(check (list int))
    "multiset conservation" (sorted all_inserted)
    (sorted (all_deleted @ remaining))

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter_fai_exact () =
  let nprocs = 16 in
  let c, result =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Counter.create mem ~init:0)
      ~program:(fun c _ ->
        for _ = 1 to 25 do
          ignore (Pqstruct.Counter.fai c)
        done)
      ()
  in
  check_int "exact" (nprocs * 25) (Pqstruct.Counter.peek result.Sim.mem c)

let test_counter_bfad_floor () =
  (* more decrements than the initial value: counter must stop at bound *)
  let nprocs = 8 in
  let c, result =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Counter.create mem ~init:10)
      ~program:(fun c _ ->
        for _ = 1 to 10 do
          ignore (Pqstruct.Counter.bfad c ~bound:0)
        done)
      ()
  in
  check_int "clamped at bound" 0 (Pqstruct.Counter.peek result.Sim.mem c)

let test_counter_bfad_successes_count () =
  (* the number of bfad calls that return > bound equals the initial value *)
  let nprocs = 8 and init = 23 in
  let wins = Array.make nprocs 0 in
  let _, _ =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Counter.create mem ~init)
      ~program:(fun c pid ->
        for _ = 1 to 10 do
          if Pqstruct.Counter.bfad c ~bound:0 > 0 then
            wins.(pid) <- wins.(pid) + 1
        done)
      ()
  in
  check_int "exactly init successes" init (Array.fold_left ( + ) 0 wins)

let test_counter_bfai_ceiling () =
  let nprocs = 8 in
  let c, result =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Counter.create mem ~init:0)
      ~program:(fun c _ ->
        for _ = 1 to 10 do
          ignore (Pqstruct.Counter.bfai c ~bound:15)
        done)
      ()
  in
  check_int "clamped at ceiling" 15 (Pqstruct.Counter.peek result.Sim.mem c)

let test_counter_mixed_never_below_bound () =
  let nprocs = 12 in
  let c, result =
    Sim.run ~nprocs
      ~setup:(fun mem -> Pqstruct.Counter.create mem ~init:0)
      ~program:(fun c pid ->
        for _ = 1 to 40 do
          if pid mod 2 = 0 then ignore (Pqstruct.Counter.fai c)
          else ignore (Pqstruct.Counter.bfad c ~bound:0);
          Api.work 2
        done)
      ()
  in
  check_bool "non-negative" true (Pqstruct.Counter.peek result.Sim.mem c >= 0)

(* ------------------------------------------------------------------ *)
(* Seqheap *)

(* the heap answers [Seqheap.none] when empty; the tests compare options *)
let extract_min h =
  let k = Pqstruct.Seqheap.extract_min h in
  if k = Pqstruct.Seqheap.none then None else Some k

let test_seqheap_sorted_output () =
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  let out = ref [] in
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem -> Pqstruct.Seqheap.create mem ~cap:64)
      ~program:(fun h _ ->
        List.iter (fun k -> assert (Pqstruct.Seqheap.insert h k)) input;
        let rec drain () =
          match extract_min h with
          | Some k ->
              out := k :: !out;
              drain ()
          | None -> ()
        in
        drain ())
      ()
  in
  Alcotest.(check (list int))
    "ascending" (List.sort compare input) (List.rev !out)

let test_seqheap_prop =
  QCheck.Test.make ~name:"seqheap sorts any input" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (int_bound 100_000))
    (fun input ->
      let out = ref [] in
      let _ =
        Sim.run ~nprocs:1
          ~setup:(fun mem -> Pqstruct.Seqheap.create mem ~cap:128)
          ~program:(fun h _ ->
            List.iter (fun k -> assert (Pqstruct.Seqheap.insert h k)) input;
            let rec drain () =
              match extract_min h with
              | Some k ->
                  out := k :: !out;
                  drain ()
              | None -> ()
            in
            drain ())
          ()
      in
      List.rev !out = List.sort compare input)

let test_seqheap_interleaved () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem -> Pqstruct.Seqheap.create mem ~cap:16)
      ~program:(fun h _ ->
        assert (Pqstruct.Seqheap.insert h 5);
        assert (Pqstruct.Seqheap.insert h 1);
        assert (extract_min h = Some 1);
        assert (Pqstruct.Seqheap.insert h 3);
        assert (extract_min h = Some 3);
        assert (extract_min h = Some 5);
        assert (extract_min h = None))
      ()
  in
  ()

let test_seqheap_capacity () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem -> Pqstruct.Seqheap.create mem ~cap:2)
      ~program:(fun h _ ->
        assert (Pqstruct.Seqheap.insert h 1);
        assert (Pqstruct.Seqheap.insert h 2);
        assert (not (Pqstruct.Seqheap.insert h 3)))
      ()
  in
  ()

(* ------------------------------------------------------------------ *)
(* Skipbase *)

(* priorities, or [Skipbase.none]; the tests compare options *)
let some_pri p = if p = Pqstruct.Skipbase.none then None else Some p
let first t = some_pri (Pqstruct.Skipbase.first t)
let unthread_first t = some_pri (Pqstruct.Skipbase.unthread_first t)

let test_skip_thread_single () =
  let t, result =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs:1 ~npriorities:16 ~bin_cap:8
          ~seed:5)
      ~program:(fun t _ ->
        Pqstruct.Skipbase.ensure_threaded t 7;
        Pqstruct.Skipbase.ensure_threaded t 3;
        Pqstruct.Skipbase.ensure_threaded t 11;
        (* first must be the lowest threaded priority *)
        assert (first t = Some 3))
      ()
  in
  match Pqstruct.Skipbase.invariants_now result.Sim.mem t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_skip_unthread_first () =
  let t, result =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs:1 ~npriorities:16 ~bin_cap:8
          ~seed:5)
      ~program:(fun t _ ->
        List.iter (Pqstruct.Skipbase.ensure_threaded t) [ 4; 9; 2 ];
        assert (unthread_first t = Some 2);
        assert (first t = Some 4);
        (* rethreading after unthread works *)
        Pqstruct.Skipbase.ensure_threaded t 2;
        assert (first t = Some 2))
      ()
  in
  match Pqstruct.Skipbase.invariants_now result.Sim.mem t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_skip_unthread_empty () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs:1 ~npriorities:8 ~bin_cap:4
          ~seed:1)
      ~program:(fun t _ ->
        assert (unthread_first t = None);
        assert (first t = None))
      ()
  in
  ()

let test_skip_concurrent_threading () =
  (* many processors thread random priorities concurrently; structure must
     satisfy all invariants afterwards and contain every priority *)
  let nprocs = 16 and npri = 64 in
  let t, result =
    Sim.run ~nprocs ~seed:3
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs ~npriorities:npri ~bin_cap:4
          ~seed:7)
      ~program:(fun t pid ->
        for i = 0 to (npri / nprocs) - 1 do
          Pqstruct.Skipbase.ensure_threaded t ((i * nprocs) + pid);
          Api.work (Api.rand 20)
        done)
      ()
  in
  (match Pqstruct.Skipbase.invariants_now result.Sim.mem t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "all threaded" true
    (List.for_all
       (fun p ->
         Pqstruct.Skipbase.threaded_now result.Sim.mem
           (Pqstruct.Skipbase.node_of_pri t p))
       (List.init npri Fun.id))

let test_skip_concurrent_thread_unthread () =
  (* half the processors thread, half unthread the first; invariants must
     hold at quiescence *)
  let nprocs = 12 and npri = 32 in
  let t, result =
    Sim.run ~nprocs ~seed:11
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs ~npriorities:npri ~bin_cap:4
          ~seed:13)
      ~program:(fun t pid ->
        for i = 1 to 20 do
          if pid mod 2 = 0 then
            Pqstruct.Skipbase.ensure_threaded t (Api.rand npri)
          else ignore (unthread_first t);
          Api.work (Api.rand (10 + i))
        done)
      ()
  in
  match Pqstruct.Skipbase.invariants_now result.Sim.mem t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_skip_duplicate_threading_is_noop () =
  let t, result =
    Sim.run ~nprocs:8
      ~setup:(fun mem ->
        Pqstruct.Skipbase.create mem ~nprocs:8 ~npriorities:8 ~bin_cap:4
          ~seed:2)
      ~program:(fun t _ ->
        (* everyone threads the same priority *)
        Pqstruct.Skipbase.ensure_threaded t 5)
      ()
  in
  (match Pqstruct.Skipbase.invariants_now result.Sim.mem t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "threaded" true
    (Pqstruct.Skipbase.threaded_now result.Sim.mem
       (Pqstruct.Skipbase.node_of_pri t 5))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pqstruct"
    [
      ( "elem",
        [ Alcotest.test_case "roundtrip" `Quick test_elem_roundtrip ] );
      qsuite "elem-props" [ test_elem_order ];
      ( "bin",
        [
          Alcotest.test_case "lifo semantics" `Quick
            test_bin_fifo_lifo_semantics;
          Alcotest.test_case "capacity" `Quick test_bin_capacity;
          Alcotest.test_case "concurrent conservation" `Quick
            test_bin_concurrent_conservation;
        ] );
      ( "counter",
        [
          Alcotest.test_case "fai exact" `Quick test_counter_fai_exact;
          Alcotest.test_case "bfad floor" `Quick test_counter_bfad_floor;
          Alcotest.test_case "bfad success count" `Quick
            test_counter_bfad_successes_count;
          Alcotest.test_case "bfai ceiling" `Quick test_counter_bfai_ceiling;
          Alcotest.test_case "mixed never below bound" `Quick
            test_counter_mixed_never_below_bound;
        ] );
      ( "seqheap",
        [
          Alcotest.test_case "sorted output" `Quick test_seqheap_sorted_output;
          Alcotest.test_case "interleaved" `Quick test_seqheap_interleaved;
          Alcotest.test_case "capacity" `Quick test_seqheap_capacity;
        ] );
      qsuite "seqheap-props" [ test_seqheap_prop ];
      ( "skipbase",
        [
          Alcotest.test_case "thread single" `Quick test_skip_thread_single;
          Alcotest.test_case "unthread first" `Quick test_skip_unthread_first;
          Alcotest.test_case "unthread empty" `Quick test_skip_unthread_empty;
          Alcotest.test_case "concurrent threading" `Quick
            test_skip_concurrent_threading;
          Alcotest.test_case "concurrent thread/unthread" `Quick
            test_skip_concurrent_thread_unthread;
          Alcotest.test_case "duplicate threading noop" `Quick
            test_skip_duplicate_threading_is_noop;
        ] );
    ]

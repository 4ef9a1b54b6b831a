(* Cross-cutting tests for all seven priority queue algorithms.  Every
   queue must satisfy: sequential priority-queue semantics, multiset
   conservation under concurrency, structural invariants at quiescence,
   and the paper's quiescent-consistency guarantee (k deletions after a
   quiescent point return the k smallest priorities). *)

open Pqsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_params ~nprocs ~npriorities =
  { (Pqcore.Pq_intf.default_params ~nprocs ~npriorities) with capacity = 512 }

let all_names = Pqcore.Registry.names

(* the strict queues: everything promising exact delete-min.  The
   relaxed MultiQueue family shares the registry face and the
   conservation/invariant tests, but not the exact-semantics ones
   (sorted drains, quiescent min) — its ordering contract is the
   rank-error bound, gated by `pqbench audit` and test_relaxed.ml *)
let strict_names =
  List.filter
    (fun n -> not (List.mem n Pqcore.Registry.names_relaxed))
    all_names

(* ------------------------------------------------------------------ *)
(* sequential semantics *)

let seq_drains_sorted name () =
  let input = [ 7; 3; 3; 11; 0; 5; 15; 1; 8; 2 ] in
  let out = ref [] in
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (mk_params ~nprocs:1 ~npriorities:16))
      ~program:(fun q _ ->
        List.iteri
          (fun i pri -> assert (q.Pqcore.Pq_intf.insert ~pri ~payload:i))
          input;
        let rec drain () =
          match q.Pqcore.Pq_intf.delete_min () with
          | Some (pri, _) ->
              out := pri :: !out;
              drain ()
          | None -> ()
        in
        drain ())
      ()
  in
  Alcotest.(check (list int))
    "priorities ascending" (List.sort compare input) (List.rev !out)

let seq_empty_returns_none name () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (mk_params ~nprocs:1 ~npriorities:8))
      ~program:(fun q _ ->
        assert (q.Pqcore.Pq_intf.delete_min () = None);
        assert (q.Pqcore.Pq_intf.insert ~pri:3 ~payload:42);
        (match q.Pqcore.Pq_intf.delete_min () with
        | Some (3, 42) -> ()
        | Some (p, v) ->
            Alcotest.failf "expected (3,42), got (%d,%d)" p v
        | None -> Alcotest.fail "expected an element");
        assert (q.Pqcore.Pq_intf.delete_min () = None))
      ()
  in
  ()

let seq_interleaved name () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (mk_params ~nprocs:1 ~npriorities:8))
      ~program:(fun q _ ->
        let ins pri = assert (q.Pqcore.Pq_intf.insert ~pri ~payload:pri) in
        let del () =
          match q.Pqcore.Pq_intf.delete_min () with
          | Some (p, _) -> p
          | None -> -1
        in
        ins 5;
        ins 2;
        assert (del () = 2);
        ins 1;
        ins 7;
        assert (del () = 1);
        assert (del () = 5);
        assert (del () = 7);
        assert (del () = -1))
      ()
  in
  ()

(* ------------------------------------------------------------------ *)
(* concurrent conservation + invariants *)

let concurrent_conservation ?(nprocs = 12) ?(npriorities = 16) ?(iters = 25)
    ?(seed = 3) name () =
  let inserted = Array.make nprocs [] in
  let deleted = Array.make nprocs [] in
  let q, result =
    Sim.run ~nprocs ~seed
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (mk_params ~nprocs ~npriorities))
      ~program:(fun q pid ->
        for i = 1 to iters do
          if Api.flip () then begin
            let pri = Api.rand npriorities in
            let payload = (pid * 1000) + i in
            if q.Pqcore.Pq_intf.insert ~pri ~payload then
              inserted.(pid) <- (pri, payload) :: inserted.(pid)
          end
          else begin
            match q.Pqcore.Pq_intf.delete_min () with
            | Some (pri, payload) ->
                deleted.(pid) <- (pri, payload) :: deleted.(pid)
            | None -> ()
          end;
          Api.work (Api.rand 10)
        done)
      ()
  in
  let all_inserted = Array.to_list inserted |> List.concat in
  let all_deleted = Array.to_list deleted |> List.concat in
  let remaining = q.Pqcore.Pq_intf.drain_now result.Sim.mem in
  let sorted l = List.sort compare l in
  Alcotest.(check (list (pair int int)))
    "multiset conservation" (sorted all_inserted)
    (sorted (all_deleted @ remaining));
  match q.Pqcore.Pq_intf.check_now result.Sim.mem with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

let conservation_many_seeds name () =
  for seed = 100 to 105 do
    concurrent_conservation ~seed name ()
  done

(* ------------------------------------------------------------------ *)
(* quiescent consistency: after a quiescent point, k deletions return
   exactly the k smallest priorities present *)

let quiescent_min_guarantee ?(nprocs = 8) ?(npriorities = 32) name () =
  let per_proc_inserts = 6 and per_proc_deletes = 3 in
  let inserted = Array.make nprocs [] in
  let deleted = Array.make nprocs [] in
  let _ =
    Sim.run ~nprocs ~seed:17
      ~setup:(fun mem ->
        let q =
          Pqcore.Registry.create name mem (mk_params ~nprocs ~npriorities)
        in
        let b = Pqsync.Barrier.create mem ~nprocs in
        (q, b))
      ~program:(fun (q, b) pid ->
        for i = 1 to per_proc_inserts do
          let pri = Api.rand npriorities in
          if q.Pqcore.Pq_intf.insert ~pri ~payload:((pid * 100) + i) then
            inserted.(pid) <- pri :: inserted.(pid)
        done;
        Pqsync.Barrier.wait b;
        for _ = 1 to per_proc_deletes do
          match q.Pqcore.Pq_intf.delete_min () with
          | Some (pri, _) -> deleted.(pid) <- pri :: deleted.(pid)
          | None -> ()
        done)
      ()
  in
  let all_inserted =
    Array.to_list inserted |> List.concat |> List.sort compare
  in
  let all_deleted = Array.to_list deleted |> List.concat |> List.sort compare in
  let k = List.length all_deleted in
  check_int "all deletions found elements" (nprocs * per_proc_deletes) k;
  let expected = List.filteri (fun i _ -> i < k) all_inserted in
  Alcotest.(check (list int)) "k smallest priorities" expected all_deleted

(* ------------------------------------------------------------------ *)
(* higher-concurrency smoke per queue (scalable queues only, to keep the
   suite fast) *)

let smoke_high_concurrency name () =
  concurrent_conservation ~nprocs:48 ~npriorities:16 ~iters:10 ~seed:9 name ()

(* ------------------------------------------------------------------ *)
(* model-based property test: a random interleaving of inserts and
   delete-mins, executed sequentially, must agree with a reference
   sorted-multiset model at every step *)

type op = Ins of int | Del

let op_gen npriorities =
  QCheck.Gen.(
    frequency
      [ (3, map (fun p -> Ins p) (int_bound (npriorities - 1))); (2, return Del) ])

let prop_matches_model name =
  let npriorities = 16 in
  QCheck.Test.make
    ~name:(name ^ " matches the sequential model")
    ~count:60
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 120) (op_gen npriorities)))
    (fun ops ->
      let ok = ref true in
      let _ =
        Sim.run ~nprocs:1
          ~setup:(fun mem ->
            Pqcore.Registry.create name mem
              (mk_params ~nprocs:1 ~npriorities))
          ~program:(fun q _ ->
            let model = ref [] in
            let payload = ref 0 in
            List.iter
              (fun op ->
                match op with
                | Ins pri ->
                    incr payload;
                    if q.Pqcore.Pq_intf.insert ~pri ~payload:!payload then
                      model := List.merge compare [ (pri, !payload) ] !model
                | Del -> (
                    let got = q.Pqcore.Pq_intf.delete_min () in
                    match (got, !model) with
                    | None, [] -> ()
                    | Some (pri, _), (mpri, _) :: rest when pri = mpri ->
                        (* same priority; drop one element of that
                           priority from the model (payload order is
                           unspecified for bags) *)
                        ignore rest;
                        let rec remove = function
                          | (p', v') :: tl when p' = pri ->
                              ignore v';
                              tl
                          | hd :: tl -> hd :: remove tl
                          | [] -> []
                        in
                        model := remove !model
                    | _ -> ok := false))
              ops)
          ()
      in
      !ok)

(* ------------------------------------------------------------------ *)
(* queue-specific details *)

let test_bitrev_permutation () =
  (* within each heap level, slots form a permutation *)
  let module H = struct
    let bitrev = Pqcore.Hunt.For_tests.bitrev_slot
  end in
  for level = 0 to 6 do
    let lo = 1 lsl level and hi = (1 lsl (level + 1)) - 1 in
    let slots = List.init (hi - lo + 1) (fun i -> H.bitrev (lo + i)) in
    let sorted = List.sort_uniq compare slots in
    check_int
      (Printf.sprintf "level %d is a permutation" level)
      (hi - lo + 1) (List.length sorted);
    check_bool "within level" true
      (List.for_all (fun s -> s >= lo && s <= hi) slots)
  done

let test_treeshape () =
  check_int "leaves rounds up" 16 (Pqcore.Treeshape.leaves_for 9);
  check_int "leaves exact power" 8 (Pqcore.Treeshape.leaves_for 8);
  check_int "depth of root" 0 (Pqcore.Treeshape.depth_of 1);
  check_int "depth of 5" 2 (Pqcore.Treeshape.depth_of 5);
  check_bool "left child" true (Pqcore.Treeshape.is_left_child 4);
  check_bool "right child" false (Pqcore.Treeshape.is_left_child 5)

let test_capacity_rejection () =
  (* SingleLock with tiny capacity must reject, not corrupt *)
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create "SingleLock" mem
          {
            (Pqcore.Pq_intf.default_params ~nprocs:1 ~npriorities:4) with
            capacity = 2;
          })
      ~program:(fun q _ ->
        assert (q.Pqcore.Pq_intf.insert ~pri:1 ~payload:1);
        assert (q.Pqcore.Pq_intf.insert ~pri:2 ~payload:2);
        assert (not (q.Pqcore.Pq_intf.insert ~pri:3 ~payload:3));
        assert (q.Pqcore.Pq_intf.delete_min () <> None))
      ()
  in
  ()

let test_registry_unknown () =
  let raised =
    try
      ignore
        (Sim.run ~nprocs:1
           ~setup:(fun mem ->
             Pqcore.Registry.create "NoSuchQueue" mem
               (mk_params ~nprocs:1 ~npriorities:4))
           ~program:(fun _ _ -> ())
           ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "raises" true raised

let per_queue_suite name =
  ( name,
    [
      Alcotest.test_case "sequential sorted drain" `Quick
        (seq_drains_sorted name);
      Alcotest.test_case "empty returns None" `Quick
        (seq_empty_returns_none name);
      Alcotest.test_case "interleaved" `Quick (seq_interleaved name);
      Alcotest.test_case "concurrent conservation" `Quick
        (concurrent_conservation name);
      Alcotest.test_case "conservation x6 seeds" `Slow
        (conservation_many_seeds name);
      Alcotest.test_case "quiescent min guarantee" `Quick
        (quiescent_min_guarantee name);
    ] )

let scalable_extra name =
  ( name ^ "-scale",
    [
      Alcotest.test_case "48-processor smoke" `Slow
        (smoke_high_concurrency name);
    ] )

(* PR 4's recorded latent finding: HuntEtAl deadlocked under the
   random-preemption audit schedule at seed 123.  Root cause: delete_min's
   sift-down released a child lock it had already dropped on the
   empty-tag path, which unlocked a later holder's acquisition and
   stranded that holder's successor forever.  The exact audit repro, now
   expected to complete (the watchdog turns any regression into a prompt
   Progress_failure instead of a hung test). *)
let test_hunt_random_preemption_seed123 () =
  let spec =
    {
      (Pqbenchlib.Workload.spec ~queue:"HuntEtAl" ~nprocs:16 ~npriorities:16)
      with
      Pqbenchlib.Workload.ops_per_proc = 40;
      seed = 123;
    }
  in
  let r =
    Pqbenchlib.Workload.run ~watchdog:2_000_000
      ~policy:(Pqexplore.Policy.random ~seed:123 ())
      spec
  in
  Alcotest.(check bool) "run completed" true (r.Pqbenchlib.Workload.cycles > 0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let relaxed_suite name =
  ( name,
    [
      Alcotest.test_case "empty returns None" `Quick
        (seq_empty_returns_none name);
      Alcotest.test_case "concurrent conservation" `Quick
        (concurrent_conservation name);
      Alcotest.test_case "conservation x6 seeds" `Slow
        (conservation_many_seeds name);
    ] )

let () =
  Alcotest.run "pqcore"
    (List.map per_queue_suite strict_names
    @ List.map relaxed_suite Pqcore.Registry.names_relaxed
    @ List.map scalable_extra Pqcore.Registry.scalable_names
    @ [ qsuite "model-props" (List.map prop_matches_model strict_names) ]
    @ [
        ( "details",
          [
            Alcotest.test_case "bit reversal permutation" `Quick
              test_bitrev_permutation;
            Alcotest.test_case "tree shape" `Quick test_treeshape;
            Alcotest.test_case "capacity rejection" `Quick
              test_capacity_rejection;
            Alcotest.test_case "registry unknown" `Quick test_registry_unknown;
            Alcotest.test_case "hunt random preemption seed 123" `Quick
              test_hunt_random_preemption_seed123;
          ] );
      ])

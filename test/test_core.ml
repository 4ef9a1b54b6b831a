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

(* ------------------------------------------------------------------ *)
(* symbolic names: every queue's construction registers its labels
   unformatted and Mem.name_of renders them on demand.  The digest of
   name_of over every allocated word (one line a word, "-" where no
   label covers it) is pinned to the value measured when each name was
   still formatted at construction, so deferred names read exactly as
   the eager ones did, "+k" offsets included. *)

let name_digests =
  [
    ("SingleLock", 3, "27f2692a97d2668fcf9dc43dac9e1191");
    ("HuntEtAl", 3, "137ebed389c9fb7d8ee3b4384d2a80b5");
    ("SkipList", 3, "f2e9a10fdc9414994867cb3458d67ca0");
    ("SimpleLinear", 3, "3597a91b22007cae271cd42ec743c68e");
    ("SimpleTree", 3, "6eb8c19ac4693156c3f7baaea6899d11");
    ("LinearFunnels", 3, "6e6d2bc952a06ff4ebd7a77cbd0149b6");
    ("FunnelTree", 3, "ddc4f73afdb95ec268e97bb80428d0e0");
    ("LinearFunnelsNoCheck", 3, "74bcf5a6b2e8a26efa1c4c1bb5db53bc");
    ("LinearFunnelsFifo", 3, "274006abc4b23a007da669593052c742");
    ("LinearFunnelsHybrid", 3, "1788bd5560b09018848fb0c9d8c5b859");
    ("MultiQueue", 3, "a85c7fb84b587ecc0ca1e9e973406b7c");
    ("MultiQueueC4", 3, "00567acab6f4efeb698161d119f54b11");
    ("MultiQueueSticky", 3, "4460db4dd06649b8f13bc874b923b6a7");
    ("MultiQueueBuffered", 3, "2ab5c3991a9963fe6cd5a24aba63e897");
    ("SingleLock", 16, "769d07b2f6075eea8c6af551fd8d9033");
    ("HuntEtAl", 16, "d9f0c4323c0f3cb5ffa01d3071c56d32");
    ("SkipList", 16, "0d1e10167315cee8f6a1aabd8be15966");
    ("SimpleLinear", 16, "62f50697819c30e0e4399fc344443e61");
    ("SimpleTree", 16, "ee4fd06d2933fbed97792c5f79fdfc4d");
    ("LinearFunnels", 16, "89b00855bab5fa96b7288d1b03731d5c");
    ("FunnelTree", 16, "4658bc773de7ac815c5b82581c5db3b7");
    ("LinearFunnelsNoCheck", 16, "d6a6860a653daba35c34dc10e7c5d669");
    ("LinearFunnelsFifo", 16, "b64d3287b60dee592e5b55a4735c464e");
    ("LinearFunnelsHybrid", 16, "e55c54a658ae7d882fbc145446bfe9cc");
    ("MultiQueue", 16, "d2de9e0cb0a69e95fc66320c9537c3f6");
    ("MultiQueueC4", 16, "249209d3a4eb6b9b455d46715a07412d");
    ("MultiQueueSticky", 16, "b98449a3968bed1b4ca6e27981a577ca");
    ("MultiQueueBuffered", 16, "36a9800cf7d71e3eae7ca4d0d0d1fc4d")
  ]

let name_digest queue nprocs () =
  let mem = Pqsim.Mem.create (Pqsim.Machine.make ~nprocs ()) in
  ignore
    (Pqcore.Registry.create queue mem
       (Pqcore.Pq_intf.default_params ~nprocs ~npriorities:16));
  let b = Buffer.create 4096 in
  for addr = 0 to Pqsim.Mem.words_allocated mem - 1 do
    Buffer.add_string b
      (Option.value (Pqsim.Mem.name_of mem addr) ~default:"-");
    Buffer.add_char b '\n'
  done;
  let _, _, pinned =
    List.find (fun (q, p, _) -> q = queue && p = nprocs) name_digests
  in
  Alcotest.(check string)
    (Printf.sprintf "%s P=%d" queue nprocs)
    pinned
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let name_suite =
  ( "names",
    List.concat_map
      (fun nprocs ->
        List.map
          (fun queue ->
            Alcotest.test_case
              (Printf.sprintf "%s P=%d" queue nprocs)
              `Quick (name_digest queue nprocs))
          all_names)
      [ 3; 16 ] )

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
    @ [ name_suite ]
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

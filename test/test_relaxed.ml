(* Tests for the relaxed-queue subsystem: the MultiQueue slot against a
   sorted-list model, the MultiQueue family's conservation and race
   audits, the rank-error oracle on hand-built histories, parameter
   validation, and the host-side MultiQueue port. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* the slot's and the queue's empty answer is a sentinel key; the models
   below compare options *)
let extract slot =
  let v = Pqrelaxed.Slot.extract slot in
  if v = Pqrelaxed.Slot.empty_top then None else Some v

let delete_min q =
  let v = Pqrelaxed.Multiqueue.delete_min q in
  if v = Pqrelaxed.Multiqueue.empty then None else Some v

(* ------------------------------------------------------------------ *)
(* the slot: an exact sequential priority queue on simulated memory *)

let test_slot_model =
  (* a slot — heap plus optional insertion/deletion buffers — against a
     reference sorted-list model, in the style of the evq model test:
     exactness is the slot's whole contract (the MultiQueue's relaxation
     must come only from slot choice, never from inside a slot) *)
  QCheck.Test.make ~name:"slot matches sorted-list model across buffer configs"
    ~count:150
    QCheck.(
      triple (int_bound 3) (int_bound 3)
        (list (pair bool (int_bound 100))))
    (fun (ins_cap, del_cap, script) ->
      let cap = 8 in
      let results = ref [] in
      let (mem, slot), _ =
        Pqsim.Sim.run ~nprocs:1 ~seed:5
          ~setup:(fun mem ->
            (mem, Pqrelaxed.Slot.create mem ~cap ~ins_cap ~del_cap))
          ~program:(fun (_, slot) _pid ->
            List.iter
              (fun (is_extract, key) ->
                (if is_extract then
                   results := `Ext (extract slot) :: !results
                 else results := `Ins (Pqrelaxed.Slot.insert slot key) :: !results);
                Pqsim.Api.progress ())
              script)
          ()
      in
      let model = ref [] in
      let ok =
        List.for_all2
          (fun (is_extract, key) result ->
            if is_extract then begin
              match (!model, result) with
              | [], `Ext None -> true
              | m :: rest, `Ext (Some v) ->
                  model := rest;
                  v = m
              | _ -> false
            end
            else if List.length !model < cap then begin
              model := List.merge compare !model [ key ];
              result = `Ins true
            end
            else result = `Ins false)
          script
          (List.rev !results)
      in
      let leftovers = List.sort compare (Pqrelaxed.Slot.peek_all mem slot) in
      let checked =
        match Pqrelaxed.Slot.check mem slot with Ok () -> true | Error _ -> false
      in
      ok && leftovers = !model && checked)

(* ------------------------------------------------------------------ *)
(* the MultiQueue family in the simulator *)

let variants =
  List.map
    (fun name -> (name, Option.get (Pqcore.Multi_queue.config_of_name name)))
    Pqcore.Multi_queue.names

let mq_conservation (name, cfg) () =
  (* concurrent inserts and deletes, then at quiescence: structural
     invariants hold and the element multiset is conserved *)
  let nprocs = 6 and per = 14 in
  let inserted = Array.make nprocs [] and deleted = Array.make nprocs [] in
  let (mem, q), _ =
    Pqsim.Sim.run ~nprocs ~seed:3
      ~setup:(fun mem ->
        ( mem,
          Pqrelaxed.Multiqueue.create ~name:(Root name) mem ~nprocs
            ~capacity:((nprocs * per) + 1)
            cfg ))
      ~program:(fun (_, q) pid ->
        for i = 0 to per - 1 do
          let key = (pid * 1000) + i in
          if Pqrelaxed.Multiqueue.insert q key then
            inserted.(pid) <- key :: inserted.(pid);
          Pqsim.Api.progress ();
          if i mod 3 = 2 then begin
            (match delete_min q with
            | Some k -> deleted.(pid) <- k :: deleted.(pid)
            | None -> ());
            Pqsim.Api.progress ()
          end
        done)
      ()
  in
  (match Pqrelaxed.Multiqueue.check_now mem q with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let all a = List.concat (Array.to_list a) in
  let sorted = List.sort compare in
  Alcotest.(check (list int))
    "conservation" (sorted (all inserted))
    (sorted (all deleted @ Pqrelaxed.Multiqueue.drain_now mem q))

let mq_delete_only_none_when_empty (name, cfg) () =
  (* a single processor drains everything it inserted: every delete of a
     nonempty queue answers Some (the full-scan fallback guarantees it),
     and one more answers None *)
  let n = 20 in
  let got = ref [] and after = ref (Some (-1)) in
  let _ =
    Pqsim.Sim.run ~nprocs:1 ~seed:9
      ~setup:(fun mem ->
        Pqrelaxed.Multiqueue.create ~name:(Root name) mem ~nprocs:1
          ~capacity:(n + 1) cfg)
      ~program:(fun q _pid ->
        for i = 1 to n do
          ignore (Pqrelaxed.Multiqueue.insert q i);
          Pqsim.Api.progress ()
        done;
        for _ = 1 to n do
          (match delete_min q with
          | Some k -> got := k :: !got
          | None -> ());
          Pqsim.Api.progress ()
        done;
        after := delete_min q;
        Pqsim.Api.progress ())
      ()
  in
  Alcotest.(check (list int))
    "drained exactly the inserts"
    (List.init n (fun i -> i + 1))
    (List.sort compare !got);
  check_bool "then empty" true (!after = None)

(* one queue's audit report over its cells of the audit matrix, optionally
   for one seed only *)
let audit ?seed queue =
  let cells =
    List.filter
      (fun (c : Pqanalysis.Audit.cell) ->
        c.queue = queue && Option.fold ~none:true ~some:(( = ) c.seed) seed)
      Pqanalysis.Audit.cells
  in
  Pqanalysis.Audit.merge queue (List.map Pqanalysis.Audit.run_cell cells)

let check_clean (r : Pqanalysis.Audit.report) =
  Alcotest.(check (list string)) "no findings" [] (Pqanalysis.Audit.findings r)

let mq_race_audit (name, _) seed () =
  (* the variant's audit cells for one seed — default, random and PCT
     schedules: no data races at all (every race is a finding) and no
     other finding *)
  let r = audit ~seed name in
  check_int "three schedules" 3 r.cells;
  check_int "no races" 0 (List.length r.races);
  check_clean r

(* ------------------------------------------------------------------ *)
(* the rank-error oracle on hand-built histories *)

let ev ?(proc = 0) op t0 t1 = { Pqcheck.History.proc; op; t0; t1 }
let ins ?proc ~pri ~payload t0 t1 =
  ev ?proc (Pqcheck.History.Insert { pri; payload; accepted = true }) t0 t1
let del ?proc r t0 t1 = ev ?proc (Pqcheck.History.Delete_min r) t0 t1

let test_rank_exact_history () =
  (* quiescently separated ops answered in exact priority order: zero
     rank error, zero delay *)
  let h =
    [
      ins ~pri:0 ~payload:1 0 1;
      ins ~pri:5 ~payload:2 4 5;
      del (Some (0, 1)) 10 12;
      del (Some (5, 2)) 20 22;
    ]
  in
  let s = Rank.measure h in
  check_int "deletes" 2 s.Rank.deletes;
  check_int "empties" 0 s.empties;
  check_int "max rank" 0 s.max_rank;
  check_int "max delay" 0 s.max_delay

let test_rank_certain_overtake () =
  (* the larger-priority element is returned first across quiescent
     points: rank error 1 on that delete, delay 1 on the overtaken
     element *)
  let h =
    [
      ins ~pri:0 ~payload:1 0 1;
      ins ~pri:5 ~payload:2 4 5;
      del (Some (5, 2)) 10 12;
      del (Some (0, 1)) 20 22;
    ]
  in
  let s = Rank.measure h in
  check_int "max rank" 1 s.Rank.max_rank;
  Alcotest.(check (float 1e-9)) "mean rank" 0.5 s.mean_rank;
  check_int "max delay" 1 s.max_delay;
  check_int "p99 rank" 1 s.p99_rank

let test_rank_false_empty () =
  (* None returned while an element is definitely live: counted against
     the empty answer *)
  let h = [ ins ~pri:0 ~payload:1 0 1; del None 10 12 ] in
  let s = Rank.measure h in
  check_int "empties" 1 s.Rank.empties;
  check_int "max rank" 1 s.max_rank

let test_rank_conservative_overlap () =
  (* same shape, but no quiescent point between insert and delete (the
     busy intervals [0,4] and [5,8] touch): the insert is not definitely
     live, so the oracle must not charge the empty answer — this is the
     conservatism that keeps quiescently consistent queues at zero *)
  let h = [ ins ~pri:0 ~payload:1 0 4; del None 5 8 ] in
  let s = Rank.measure h in
  check_int "empties" 1 s.Rank.empties;
  check_int "max rank" 0 s.max_rank

let test_rank_strict_queues_zero () =
  (* one representative strict queue over its audit cells: the gate
     property itself (every nonzero would be a real ordering violation) *)
  let r = audit "SkipList" in
  check_int "bound 0" 0 r.bound;
  check_int "rank 0" 0 r.worst_rank;
  check_clean r

let test_rank_multiqueue_bounded () =
  let r = audit "MultiQueue" in
  check_bool "finite bound" true (r.bound > 0);
  check_bool "within bound" true (r.worst_rank <= r.bound);
  check_clean r;
  (* three seeds x three schedules *)
  check_int "cells" 9 r.cells

let test_rank_deterministic () =
  let r1 = audit ~seed:42 "MultiQueueC4" in
  let r2 = audit ~seed:42 "MultiQueueC4" in
  check_bool "byte-stable report" true (r1 = r2)

(* ------------------------------------------------------------------ *)
(* parameter validation and registry surfacing *)

let base = Pqcore.Pq_intf.default_params ~nprocs:4 ~npriorities:16

let rejects field p =
  match Pqcore.Pq_intf.validate p with
  | () -> Alcotest.failf "validate accepted bad %s" field
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "message names %s (got %S)" field msg)
        true
        (let re = Str.regexp_string field in
         try ignore (Str.search_forward re msg 0); true
         with Not_found -> false)

let test_validate_rejects () =
  rejects "nprocs" { base with nprocs = 0 };
  rejects "npriorities" { base with npriorities = 0 };
  rejects "capacity" { base with capacity = -1 };
  rejects "bin_capacity" { base with bin_capacity = 0 };
  rejects "ops_per_proc" { base with ops_per_proc = 0 };
  Pqcore.Pq_intf.validate base

let test_registry_validates () =
  (* every family rejects bad params the same way, through create *)
  List.iter
    (fun queue ->
      match
        let _, _ =
          Pqsim.Sim.run ~nprocs:1
            ~setup:(fun mem ->
              Pqcore.Registry.create queue mem { base with nprocs = 0 })
            ~program:(fun _ _ -> ())
            ()
        in
        ()
      with
      | () -> Alcotest.failf "%s accepted nprocs = 0" queue
      | exception Invalid_argument _ -> ())
    [ "SingleLock"; "MultiQueue" ]

let test_registry_unknown_name_sorted () =
  match
    Pqsim.Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create "NoSuchQueue" mem base)
      ~program:(fun _ _ -> ())
      ()
  with
  | _ -> Alcotest.fail "unknown name accepted"
  | exception Invalid_argument msg ->
      let pos sub =
        try Str.search_forward (Str.regexp_string sub) msg 0
        with Not_found -> Alcotest.failf "message lacks %s: %S" sub msg
      in
      (* all families listed, in sorted order *)
      check_bool "FunnelTree < HuntEtAl" true (pos "FunnelTree" < pos "HuntEtAl");
      check_bool "MultiQueue < SingleLock" true
        (pos "MultiQueue" < pos "SingleLock");
      ignore (pos "MultiQueueBuffered");
      ignore (pos "SkipList")

let test_names_relaxed () =
  Alcotest.(check (list string))
    "family" [ "MultiQueue"; "MultiQueueC4"; "MultiQueueSticky"; "MultiQueueBuffered" ]
    Pqcore.Registry.names_relaxed;
  List.iter
    (fun n ->
      check_bool (n ^ " constructible") true (List.mem n Pqcore.Registry.names))
    Pqcore.Registry.names_relaxed

let test_rank_bound_for () =
  check_bool "strict queues have no bound" true
    (Pqcore.Multi_queue.rank_bound_for "SingleLock" ~nprocs:8 = None);
  List.iter
    (fun n ->
      match Pqcore.Multi_queue.rank_bound_for n ~nprocs:8 with
      | Some b -> check_bool (n ^ " bound positive") true (b > 0)
      | None -> Alcotest.failf "%s has no bound" n)
    Pqcore.Multi_queue.names

let test_pack_roundtrip () =
  List.iter
    (fun (pri, payload) ->
      let e = Pqcore.Multi_queue.pack ~pri ~payload in
      Alcotest.(check (pair int int))
        "roundtrip" (pri, payload)
        (Pqcore.Multi_queue.unpack e))
    [ (0, 0); (7, 1); (255, 25_600_000); (1023, Pqcore.Multi_queue.max_payload - 1) ];
  (* packing orders by priority first: the slot key comparison is the
     element comparison *)
  check_bool "priority-major order" true
    (Pqcore.Multi_queue.pack ~pri:1 ~payload:Pqcore.Multi_queue.(max_payload - 1)
    < Pqcore.Multi_queue.pack ~pri:2 ~payload:0);
  match Pqcore.Multi_queue.pack ~pri:0 ~payload:Pqcore.Multi_queue.max_payload with
  | _ -> Alcotest.fail "oversized payload accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* the host-side MultiQueue port *)

module H = Hostpq.Multi_pq

let test_host_drain_conserves () =
  let q = H.create_sized ~npriorities:64 ~slots:4 () in
  check_int "slots as sized" 4 (H.slots q);
  let rng = Random.State.make [| 21 |] in
  let input = List.init 200 (fun _ -> Random.State.int rng 64) in
  List.iter (fun pri -> H.insert q ~pri pri) input;
  check_int "length" 200 (H.length q);
  (* a relaxed delete is allowed to return out of order, but on a
     nonempty queue it must never answer None (the exhaustive-scan
     fallback), and the multiset must be conserved *)
  let got =
    List.init 200 (fun _ ->
        match H.delete_min q with
        | Some (pri, _) -> pri
        | None -> Alcotest.fail "None from a nonempty queue")
  in
  Alcotest.(check (list int)) "conservation" (List.sort compare input)
    (List.sort compare got);
  check_bool "then empty" true (H.delete_min q = None)

let test_host_bad_priority () =
  let q = H.create ~npriorities:4 () in
  check_bool "default slots >= 2" true (H.slots q >= 2);
  let raised = try H.insert q ~pri:4 0; false with Invalid_argument _ -> true in
  check_bool "out of range rejected" true raised;
  let raised =
    try ignore (H.create_sized ~npriorities:4 ~slots:0 ()); false
    with Invalid_argument _ -> true
  in
  check_bool "zero slots rejected" true raised

let test_host_concurrent_conservation () =
  let ndomains = 4 and iters = 2_000 and npriorities = 16 in
  let q = H.create ~npriorities () in
  let worker d () =
    let rng = Random.State.make [| d; 77 |] in
    let inserted = ref [] and deleted = ref [] in
    for i = 1 to iters do
      if Random.State.bool rng then begin
        let pri = Random.State.int rng npriorities in
        let v = (d * 1_000_000) + i in
        H.insert q ~pri v;
        inserted := v :: !inserted
      end
      else
        match H.delete_min q with
        | Some (_, v) -> deleted := v :: !deleted
        | None -> ()
    done;
    (!inserted, !deleted)
  in
  let results =
    List.init ndomains (fun d -> Domain.spawn (worker d))
    |> List.map Domain.join
  in
  let inserted = List.concat_map fst results in
  let deleted = List.concat_map snd results in
  let rec drain acc =
    match H.delete_min q with Some (_, v) -> drain (v :: acc) | None -> acc
  in
  let sorted = List.sort compare in
  Alcotest.(check (list int))
    "multiset conservation" (sorted inserted)
    (sorted (deleted @ drain []))

let test_host_payloads () =
  let q = H.create_sized ~npriorities:8 ~slots:2 () in
  H.insert q ~pri:3 "three";
  H.insert q ~pri:1 "one";
  let got = [ H.delete_min q; H.delete_min q ] in
  check_bool "payloads intact" true
    (List.sort compare got = [ Some (1, "one"); Some (3, "three") ])

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "relaxed"
    [
      ("slot-model", qsuite [ test_slot_model ]);
      ( "multiqueue-sim",
        List.concat_map
          (fun ((name, _) as v) ->
            [
              Alcotest.test_case (name ^ " conservation") `Quick
                (mq_conservation v);
              Alcotest.test_case (name ^ " drains to empty") `Quick
                (mq_delete_only_none_when_empty v);
            ])
          variants );
      ( "race-audit",
        List.concat_map
          (fun ((name, _) as v) ->
            List.map
              (fun seed ->
                Alcotest.test_case
                  (Printf.sprintf "%s seed %d" name seed)
                  `Slow (mq_race_audit v seed))
              [ 42; 1; 7 ])
          variants );
      ( "rank-oracle",
        [
          Alcotest.test_case "exact history" `Quick test_rank_exact_history;
          Alcotest.test_case "certain overtake" `Quick
            test_rank_certain_overtake;
          Alcotest.test_case "false empty" `Quick test_rank_false_empty;
          Alcotest.test_case "conservative under overlap" `Quick
            test_rank_conservative_overlap;
          Alcotest.test_case "strict queue measures zero" `Quick
            test_rank_strict_queues_zero;
          Alcotest.test_case "multiqueue within bound" `Quick
            test_rank_multiqueue_bounded;
          Alcotest.test_case "deterministic per seed" `Quick
            test_rank_deterministic;
        ] );
      ( "params",
        [
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "registry validates" `Quick test_registry_validates;
          Alcotest.test_case "unknown name lists sorted" `Quick
            test_registry_unknown_name_sorted;
          Alcotest.test_case "names_relaxed" `Quick test_names_relaxed;
          Alcotest.test_case "rank_bound_for" `Quick test_rank_bound_for;
          Alcotest.test_case "element packing" `Quick test_pack_roundtrip;
        ] );
      ( "host-multiqueue",
        [
          Alcotest.test_case "drain conserves, never false-empty" `Quick
            test_host_drain_conserves;
          Alcotest.test_case "bad arguments" `Quick test_host_bad_priority;
          Alcotest.test_case "concurrent conservation" `Quick
            test_host_concurrent_conservation;
          Alcotest.test_case "payloads" `Quick test_host_payloads;
        ] );
    ]

(* Tests for the host (real multicore) library: sequential semantics,
   property tests, and conservation under genuine Domain parallelism. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* generic per-implementation tests *)

module type QUEUE = Hostpq.Host_intf.S

let seq_sorted (module Q : QUEUE) () =
  let q = Q.create ~npriorities:32 () in
  let input = [ 7; 3; 3; 31; 0; 5; 15; 1; 8; 2 ] in
  List.iter (fun pri -> Q.insert q ~pri pri) input;
  check_int "length" (List.length input) (Q.length q);
  let rec drain acc =
    match Q.delete_min q with
    | Some (pri, _) -> drain (pri :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list int)) "ascending" (List.sort compare input) (drain [])

let seq_payloads (module Q : QUEUE) () =
  let q = Q.create ~npriorities:4 () in
  Q.insert q ~pri:2 "two";
  Q.insert q ~pri:0 "zero";
  (match Q.delete_min q with
  | Some (0, "zero") -> ()
  | _ -> Alcotest.fail "expected (0, zero)");
  (match Q.delete_min q with
  | Some (2, "two") -> ()
  | _ -> Alcotest.fail "expected (2, two)");
  check_bool "empty" true (Q.delete_min q = None)

let seq_bad_priority (module Q : QUEUE) () =
  let q = Q.create ~npriorities:4 () in
  let raised = try Q.insert q ~pri:4 0; false with Invalid_argument _ -> true in
  check_bool "out of range rejected" true raised

let prop_sorted (module Q : QUEUE) =
  QCheck.Test.make
    ~name:"host queue drains any input sorted"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 200) (int_bound 63))
    (fun input ->
      let q = Q.create ~npriorities:64 () in
      List.iter (fun pri -> Q.insert q ~pri pri) input;
      let rec drain acc =
        match Q.delete_min q with
        | Some (pri, _) -> drain (pri :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare input)

let concurrent_conservation (module Q : QUEUE) () =
  let ndomains = 4 and iters = 2_000 and npriorities = 16 in
  let q = Q.create ~npriorities () in
  let worker d () =
    let rng = Random.State.make [| d; 77 |] in
    let inserted = ref [] and deleted = ref [] in
    for i = 1 to iters do
      if Random.State.bool rng then begin
        let pri = Random.State.int rng npriorities in
        let v = (d * 1_000_000) + i in
        Q.insert q ~pri v;
        inserted := v :: !inserted
      end
      else
        match Q.delete_min q with
        | Some (_, v) -> deleted := v :: !deleted
        | None -> ()
    done;
    (!inserted, !deleted)
  in
  let domains =
    List.init ndomains (fun d -> Domain.spawn (worker d))
  in
  let results = List.map Domain.join domains in
  let inserted = List.concat_map fst results in
  let deleted = List.concat_map snd results in
  let remaining =
    let rec drain acc =
      match Q.delete_min q with
      | Some (_, v) -> drain (v :: acc)
      | None -> acc
    in
    drain []
  in
  let sorted = List.sort compare in
  Alcotest.(check (list int))
    "multiset conservation" (sorted inserted)
    (sorted (deleted @ remaining))

let quiescent_k_smallest (module Q : QUEUE) () =
  (* parallel insert phase, join (quiescent point), parallel delete phase:
     deletions must return exactly the k smallest priorities *)
  let ndomains = 4 and per_ins = 500 and per_del = 200 in
  let npriorities = 64 in
  let q = Q.create ~npriorities () in
  let ins d () =
    let rng = Random.State.make [| d; 13 |] in
    List.init per_ins (fun _ ->
        let pri = Random.State.int rng npriorities in
        Q.insert q ~pri pri;
        pri)
  in
  let inserted =
    List.init ndomains (fun d -> Domain.spawn (ins d))
    |> List.map Domain.join |> List.concat
  in
  let del () =
    List.filter_map (fun _ -> Q.delete_min q) (List.init per_del Fun.id)
    |> List.map fst
  in
  let deleted =
    List.init ndomains (fun _ -> Domain.spawn del)
    |> List.map Domain.join |> List.concat
  in
  check_int "all deletes succeeded" (ndomains * per_del) (List.length deleted);
  let expected =
    List.filteri
      (fun i _ -> i < ndomains * per_del)
      (List.sort compare inserted)
  in
  Alcotest.(check (list int))
    "k smallest priorities" expected
    (List.sort compare deleted)

let stress_sorted_drain (module Q : QUEUE) () =
  (* heavier mixed load across more domains than the basic conservation
     test: bursty insert-heavy then delete-heavy phases, then at
     quiescence the host drains the survivors, checking both multiset
     conservation and that the drain comes out in priority order *)
  let ndomains = 6 and iters = 3_000 and npriorities = 32 in
  let q = Q.create ~npriorities () in
  let worker d () =
    let rng = Random.State.make [| d; 991 |] in
    let inserted = ref [] and deleted = ref [] in
    for i = 1 to iters do
      let insert_pct = if i <= iters / 2 then 70 else 30 in
      if Random.State.int rng 100 < insert_pct then begin
        let pri = Random.State.int rng npriorities in
        let v = (d * 1_000_000) + i in
        Q.insert q ~pri v;
        inserted := (pri, v) :: !inserted
      end
      else
        match Q.delete_min q with
        | Some (pri, v) -> deleted := (pri, v) :: !deleted
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
  let rec drain acc last =
    match Q.delete_min q with
    | Some (pri, v) ->
        if pri < last then
          Alcotest.failf "drain not sorted at quiescence: %d after %d" pri last;
        drain ((pri, v) :: acc) pri
    | None -> acc
  in
  let remaining = drain [] min_int in
  let sorted = List.sort compare in
  Alcotest.(check (list (pair int int)))
    "multiset conservation under stress" (sorted inserted)
    (sorted (deleted @ remaining))

let implementations : (string * (module QUEUE)) list =
  [
    ("locked-heap", (module Hostpq.Locked_heap));
    ("bin-pq", (module Hostpq.Bin_pq));
    ("tree-pq", (module Hostpq.Tree_pq));
  ]

(* ------------------------------------------------------------------ *)
(* payload storage: the heaps keep payloads in a plain ['a array] whose
   vacated slots hold an immediate filler, the bins in lists *)

let stores : (string * (module QUEUE)) list =
  [
    ("locked-heap", (module Hostpq.Locked_heap));
    ("bin-pq", (module Hostpq.Bin_pq));
    ("multiqueue", (module Hostpq.Multi_pq));
  ]

(* a drained queue keeps no removed payload reachable *)
let space_safety (module Q : QUEUE) () =
  let n = 300 and npriorities = 16 in
  let q = Q.create ~npriorities () in
  let tracked = Weak.create n in
  (* boxed payloads, made in a frame of their own so that no local of
     this one keeps one alive *)
  let fill () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set tracked i (Some payload);
      Q.insert q ~pri:(i mod npriorities) payload
    done
  in
  fill ();
  let rec drain k =
    match Q.delete_min q with Some _ -> drain (k + 1) | None -> k
  in
  check_int "drained" n (drain 0);
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.check tracked i then
      Alcotest.failf "payload %d is still reachable from the drained queue" i
  done;
  (* the queue itself must outlive the check *)
  check_int "empty" 0 (Q.length q)

(* a float payload is stored boxed in the filler-initialised array and
   comes back intact *)
let float_payloads (module Q : QUEUE) () =
  let q = Q.create ~npriorities:8 () in
  let input = List.init 64 (fun i -> (i mod 8, float_of_int i +. 0.5)) in
  List.iter (fun (pri, x) -> Q.insert q ~pri x) input;
  let rec drain acc =
    match Q.delete_min q with Some e -> drain (e :: acc) | None -> acc
  in
  Alcotest.(check (list (pair int (float 0.))))
    "same multiset" (List.sort compare input)
    (List.sort compare (drain []))

(* ------------------------------------------------------------------ *)
(* elimination stack *)

let test_stack_sequential () =
  let s = Hostpq.Elim_stack.create () in
  check_bool "empty" true (Hostpq.Elim_stack.is_empty s);
  Hostpq.Elim_stack.push s 1;
  Hostpq.Elim_stack.push s 2;
  check_int "lifo" 2 (Option.get (Hostpq.Elim_stack.pop s));
  check_int "lifo" 1 (Option.get (Hostpq.Elim_stack.pop s));
  check_bool "drained" true (Hostpq.Elim_stack.pop s = None)

let test_stack_concurrent_conservation () =
  let s = Hostpq.Elim_stack.create () in
  let ndomains = 4 and iters = 5_000 in
  let worker d () =
    let rng = Random.State.make [| d; 5 |] in
    let pushed = ref [] and popped = ref [] in
    for i = 1 to iters do
      if Random.State.bool rng then begin
        let v = (d * 1_000_000) + i in
        Hostpq.Elim_stack.push s v;
        pushed := v :: !pushed
      end
      else
        match Hostpq.Elim_stack.pop s with
        | Some v -> popped := v :: !popped
        | None -> ()
    done;
    (!pushed, !popped)
  in
  let results =
    List.init ndomains (fun d -> Domain.spawn (worker d))
    |> List.map Domain.join
  in
  let pushed = List.concat_map fst results in
  let popped = List.concat_map snd results in
  let rec drain acc =
    match Hostpq.Elim_stack.pop s with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let remaining = drain [] in
  let sorted = List.sort compare in
  Alcotest.(check (list int))
    "conservation" (sorted pushed)
    (sorted (popped @ remaining))

let test_stack_randomized_pause_stress () =
  (* domains stall at random points — mid-push, mid-pop, while parked in
     the elimination array — simulating preemption by the OS scheduler.
     Conservation must hold, and nobody may hang or give up under the
     default (unbounded) retry budget. *)
  let s = Hostpq.Elim_stack.create ~slots:2 () in
  let ndomains = 4 and iters = 2_000 in
  let worker d () =
    let rng = Random.State.make [| d; 31 |] in
    let pushed = ref [] and popped = ref [] in
    for i = 1 to iters do
      (if Random.State.int rng 100 < 2 then
         Unix.sleepf (float_of_int (Random.State.int rng 3) /. 10_000.)
       else
         for _ = 1 to Random.State.int rng 50 do
           Domain.cpu_relax ()
         done);
      if Random.State.bool rng then begin
        let v = (d * 1_000_000) + i in
        Hostpq.Elim_stack.push s v;
        pushed := v :: !pushed
      end
      else
        match Hostpq.Elim_stack.pop s with
        | Some v -> popped := v :: !popped
        | None -> ()
    done;
    (!pushed, !popped)
  in
  let results =
    List.init ndomains (fun d -> Domain.spawn (worker d))
    |> List.map Domain.join
  in
  let pushed = List.concat_map fst results in
  let popped = List.concat_map snd results in
  let rec drain acc =
    match Hostpq.Elim_stack.pop s with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let sorted = List.sort compare in
  Alcotest.(check (list int))
    "conservation under randomized pauses" (sorted pushed)
    (sorted (popped @ drain []))

let test_stack_two_domain_reps () =
  (* two domains, 50/50 push/pop, one elimination slot, 20 fresh stacks:
     every push that parks is either stolen by a pop or withdrawn back to
     the stack, so nothing may be lost or duplicated in any rep *)
  for rep = 1 to 20 do
    let s = Hostpq.Elim_stack.create ~slots:1 () in
    let iters = 20_000 in
    let ready = Atomic.make 0 in
    let worker d () =
      let rng = Random.State.make [| d; rep |] in
      let pushed = ref [] and popped = ref [] in
      (* start together, so the two domains really contend *)
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      for i = 1 to iters do
        if Random.State.bool rng then begin
          let v = (d * 1_000_000) + i in
          Hostpq.Elim_stack.push s v;
          pushed := v :: !pushed
        end
        else
          match Hostpq.Elim_stack.pop s with
          | Some v -> popped := v :: !popped
          | None -> ()
      done;
      (!pushed, !popped)
    in
    let results =
      List.init 2 (fun d -> Domain.spawn (worker d)) |> List.map Domain.join
    in
    let rec drain acc =
      match Hostpq.Elim_stack.pop s with
      | Some v -> drain (v :: acc)
      | None -> acc
    in
    let sorted = List.sort compare in
    Alcotest.(check (list int))
      (Printf.sprintf "conservation, rep %d" rep)
      (sorted (List.concat_map fst results))
      (sorted (List.concat_map snd results @ drain []))
  done

(* ------------------------------------------------------------------ *)
(* retry budget *)

let test_retry_gives_up_on_budget () =
  let b = Hostpq.Retry.start ~max_attempts:3 "unit" in
  Hostpq.Retry.once b;
  Hostpq.Retry.once b;
  (match Hostpq.Retry.once b with
  | exception Hostpq.Retry.Gave_up { op; attempts } ->
      Alcotest.(check string) "names the operation" "unit" op;
      check_int "at the budget" 3 attempts
  | () -> Alcotest.fail "expected Gave_up at the attempt budget");
  check_int "attempts counted" 3 (Hostpq.Retry.attempts b)

let test_retry_default_never_gives_up () =
  let b = Hostpq.Retry.start "unit" in
  for _ = 1 to 1_000 do
    Hostpq.Retry.once b
  done;
  check_int "still going" 1_000 (Hostpq.Retry.attempts b)

let test_retry_jitter_decorrelates () =
  (* losers of one collision must not stay in lockstep: after the same
     number of failed attempts, independent operations' next waits
     should be spread over the range, not equal *)
  let n = 256 and rounds = 6 in
  let spins =
    Array.init n (fun _ ->
        let b = Hostpq.Retry.start "jitter" in
        for _ = 1 to rounds do
          Hostpq.Retry.once b
        done;
        Hostpq.Retry.spin b)
  in
  Array.iter
    (fun s -> check_bool "wait within [1, cap]" true (s >= 1 && s <= 1024))
    spins;
  let distinct =
    List.length (List.sort_uniq compare (Array.to_list spins))
  in
  check_bool "many distinct waits across operations" true (distinct >= 16);
  (* the expected wait still grows geometrically (~1.5x per attempt:
     uniform on [1, 3*prev]); after 6 attempts the mean is far from the
     deterministic-doubling start but must respect the cap *)
  let mean =
    float_of_int (Array.fold_left ( + ) 0 spins) /. float_of_int n
  in
  check_bool "mean backoff grew" true (mean > 3.);
  check_bool "mean backoff capped" true (mean <= 1024.)

let test_retry_jitter_caps () =
  let b = Hostpq.Retry.start "cap" in
  for _ = 1 to 40 do
    Hostpq.Retry.once b
  done;
  check_bool "wait never exceeds the cap" true (Hostpq.Retry.spin b <= 1024)

let test_retry_domains_differ () =
  (* waits are drawn from the domain's own stream: the first operations
     of two domains must not back off in lockstep *)
  let waits () =
    let b = Hostpq.Retry.start "per-domain" in
    List.init 8 (fun _ ->
        Hostpq.Retry.once b;
        Hostpq.Retry.spin b)
  in
  let first = Domain.join (Domain.spawn waits) in
  let second = Domain.join (Domain.spawn waits) in
  check_bool "different waits" true (first <> second)

(* ------------------------------------------------------------------ *)
(* lock names *)

let test_hlock_names_follow_traces () =
  (* names are recorded by traced events, so a program that creates
     locks untraced keeps no table that grows with them *)
  let open Hostpq.Hlock in
  let quiet = create ~name:"quiet" () in
  lock quiet;
  unlock quiet;
  let traced = create ~name:"traced" () in
  set_tracer (Some { trace = (fun ~proc:_ ~time:_ ~tag:_ ~a:_ ~b:_ -> ()) });
  lock traced;
  unlock traced;
  set_tracer None;
  Alcotest.(check (option string))
    "a traced lock resolves" (Some "traced") (label_of (id traced));
  Alcotest.(check (option string))
    "an untraced lock keeps no name" None (label_of (id quiet));
  (* a new trace starts with no names and records its own locks *)
  set_tracer (Some { trace = (fun ~proc:_ ~time:_ ~tag:_ ~a:_ ~b:_ -> ()) });
  lock quiet;
  unlock quiet;
  set_tracer None;
  Alcotest.(check (option string))
    "the earlier trace's lock is forgotten" None (label_of (id traced));
  Alcotest.(check (option string))
    "this trace's lock resolves" (Some "quiet") (label_of (id quiet))

(* ------------------------------------------------------------------ *)
(* bounded counter *)

let test_counter_floor () =
  let c = Hostpq.Bounded_counter.create ~floor:0 5 in
  for _ = 1 to 10 do
    ignore (Hostpq.Bounded_counter.dec c)
  done;
  check_int "clamped" 0 (Hostpq.Bounded_counter.get c)

let test_counter_concurrent_exact () =
  let c = Hostpq.Bounded_counter.create 0 in
  let ndomains = 4 and iters = 10_000 in
  List.init ndomains (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to iters do
            ignore (Hostpq.Bounded_counter.inc c)
          done))
  |> List.iter Domain.join;
  check_int "exact" (ndomains * iters) (Hostpq.Bounded_counter.get c)

let test_counter_concurrent_floor_wins () =
  let init = 10_000 in
  let c = Hostpq.Bounded_counter.create ~floor:0 init in
  let ndomains = 4 and iters = 5_000 in
  let wins =
    List.init ndomains (fun _ ->
        Domain.spawn (fun () ->
            let w = ref 0 in
            for _ = 1 to iters do
              if Hostpq.Bounded_counter.dec c > 0 then incr w
            done;
            !w))
    |> List.map Domain.join |> List.fold_left ( + ) 0
  in
  check_int "exactly init wins" init wins;
  check_int "at floor" 0 (Hostpq.Bounded_counter.get c)

let test_tree_pq_counters_settle () =
  let q = Hostpq.Tree_pq.create ~npriorities:32 () in
  let ndomains = 4 and iters = 3_000 in
  List.init ndomains (fun d ->
      Domain.spawn (fun () ->
          let rng = Random.State.make [| d; 3 |] in
          for _ = 1 to iters do
            if Random.State.bool rng then
              Hostpq.Tree_pq.insert q ~pri:(Random.State.int rng 32) 1
            else ignore (Hostpq.Tree_pq.delete_min q)
          done))
  |> List.iter Domain.join;
  match Hostpq.Tree_pq.check q with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  let per_impl (iname, m) =
    ( iname,
      [
        Alcotest.test_case "sequential sorted" `Quick (seq_sorted m);
        Alcotest.test_case "payloads" `Quick (seq_payloads m);
        Alcotest.test_case "bad priority" `Quick (seq_bad_priority m);
        Alcotest.test_case "concurrent conservation" `Quick
          (concurrent_conservation m);
        Alcotest.test_case "quiescent k smallest" `Quick
          (quiescent_k_smallest m);
        Alcotest.test_case "stress: conservation + sorted drain" `Quick
          (stress_sorted_drain m);
      ] )
  in
  Alcotest.run "hostpq"
    (List.map per_impl implementations
    @ [
        qsuite "props"
          (List.map (fun (_, m) -> prop_sorted m) implementations);
        ( "space-safety",
          List.map
            (fun (iname, m) ->
              Alcotest.test_case iname `Quick (space_safety m))
            stores );
        ( "float-payloads",
          List.map
            (fun (iname, m) ->
              Alcotest.test_case iname `Quick (float_payloads m))
            stores );
        ( "elim-stack",
          [
            Alcotest.test_case "sequential" `Quick test_stack_sequential;
            Alcotest.test_case "concurrent conservation" `Quick
              test_stack_concurrent_conservation;
            Alcotest.test_case "randomized-pause stress" `Quick
              test_stack_randomized_pause_stress;
            Alcotest.test_case "two-domain conservation x20" `Quick
              test_stack_two_domain_reps;
          ] );
        ( "retry",
          [
            Alcotest.test_case "gives up at the budget" `Quick
              test_retry_gives_up_on_budget;
            Alcotest.test_case "default never gives up" `Quick
              test_retry_default_never_gives_up;
            Alcotest.test_case "jitter decorrelates backoff" `Quick
              test_retry_jitter_decorrelates;
            Alcotest.test_case "jitter respects the cap" `Quick
              test_retry_jitter_caps;
            Alcotest.test_case "streams differ across domains" `Quick
              test_retry_domains_differ;
          ] );
        ( "hlock",
          [
            Alcotest.test_case "names follow traces" `Quick
              test_hlock_names_follow_traces;
          ] );
        ( "bounded-counter",
          [
            Alcotest.test_case "floor" `Quick test_counter_floor;
            Alcotest.test_case "concurrent exact" `Quick
              test_counter_concurrent_exact;
            Alcotest.test_case "concurrent floor wins" `Quick
              test_counter_concurrent_floor_wins;
          ] );
        ( "tree-pq-invariants",
          [
            Alcotest.test_case "counters settle" `Quick
              test_tree_pq_counters_settle;
          ] );
      ])

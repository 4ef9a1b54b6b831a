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

(* emptied part way: every removed payload is unreachable while the
   queue still holds the rest.  Here each bin stays within the 8 slots
   that a bin keeps when it drains, and one bin keeps some of its
   elements, so a popped slot that stays in a live array must be
   overwritten (the case above drains bins 19 deep, whose arrays are
   dropped whole) *)
let space_safety_partial (module Q : QUEUE) () =
  let n = 96 and npriorities = 16 and removed = 63 in
  let q = Q.create ~npriorities () in
  let tracked = Weak.create n in
  let fill () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set tracked i (Some payload);
      Q.insert q ~pri:(i mod npriorities) payload
    done
  in
  fill ();
  let gone = Array.make n false in
  let remove () =
    for _ = 1 to removed do
      match Q.delete_min q with
      | Some (_, payload) -> gone.(!payload) <- true
      | None -> Alcotest.fail "the queue ran empty"
    done
  in
  remove ();
  Gc.full_major ();
  Array.iteri
    (fun i g ->
      if g && Weak.check tracked i then
        Alcotest.failf "removed payload %d is still reachable from the queue"
          i)
    gone;
  check_int "the rest stay" (n - removed) (Q.length q)

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
(* the packed heap against the payload-moving reference heap *)

type heap_op = Push of int | Pop

(* a fill of [fill] pushes, then [mixed] pushes and pops, then (in the
   property) a full drain.  Key ranges run from one key, where every
   push ties, to the whole packed range; fills pass the 16-entry initial
   capacity and the 1,024-entry one. *)
let heap_ops_gen =
  let open QCheck.Gen in
  let* range = oneofl [ 1; 3; 16; 1024; Hostpq.Heap.key_limit ] in
  let* fill = oneofl [ 0; 5; 17; 300; 1100 ] in
  let* mixed = int_range 0 400 in
  let* pop_pct = int_range 0 70 in
  let push = map (fun k -> Push k) (int_bound (range - 1)) in
  let op =
    let* r = int_bound 99 in
    if r < pop_pct then return Pop else push
  in
  let* pushes = list_repeat fill push in
  let* ops = list_repeat mixed op in
  return (range, pushes @ ops)

let heap_ops_print (range, ops) =
  Printf.sprintf "keys < %d, %d ops, %d pops" range (List.length ops)
    (List.length (List.filter (( = ) Pop) ops))

(* both heaps pop the same (key, payload) pairs, and agree on size and
   least key after every operation *)
let prop_heap_reference =
  QCheck.Test.make ~name:"heap pops = reference heap pops" ~count:300
    (QCheck.make ~print:heap_ops_print heap_ops_gen)
    (fun (_, ops) ->
      let module H = Hostpq.Heap in
      let h = H.create () and r = Ref_heap.create () in
      let same () =
        H.size h = Ref_heap.size r && H.min_key h = Ref_heap.min_key r
      in
      let show = function
        | Some (k, v) -> Printf.sprintf "(%d, %d)" k v
        | None -> "None"
      in
      let pop () =
        let got = H.pop h and want = Ref_heap.pop r in
        if got <> want then
          QCheck.Test.fail_reportf "popped %s, reference popped %s" (show got)
            (show want);
        got
      in
      List.iteri
        (fun v op ->
          (match op with
          | Push k ->
              H.push h k v;
              Ref_heap.push r k v
          | Pop -> ignore (pop ()));
          if not (same ()) then
            QCheck.Test.fail_reportf "size or least key differs after op %d" v)
        ops;
      let rec drain () = match pop () with Some _ -> drain () | None -> () in
      drain ();
      same ())

(* priorities pack into 31 bits of a heap entry: the heap queues refuse
   more than 2^31 of them, and the top one comes back whole *)
let test_key_range () =
  let open Hostpq in
  let over = Heap.key_limit + 1 in
  let rejects what f =
    check_bool (what ^ " rejects 2^31 + 1 priorities") true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  rejects "Locked_heap.create" (fun () ->
      Locked_heap.create ~npriorities:over ());
  rejects "Multi_pq.create" (fun () -> Multi_pq.create ~npriorities:over ());
  rejects "Multi_pq.create_sized" (fun () ->
      Multi_pq.create_sized ~npriorities:over ~slots:2 ());
  let top = Heap.key_limit - 1 in
  let q = Locked_heap.create ~npriorities:Heap.key_limit () in
  Locked_heap.insert q ~pri:top "top";
  Locked_heap.insert q ~pri:0 "bottom";
  Alcotest.(check (list (option (pair int string))))
    "2^31 priorities: both ends come back whole"
    [ Some (0, "bottom"); Some (top, "top"); None ]
    (List.init 3 (fun _ -> Locked_heap.delete_min q));
  let m = Multi_pq.create_sized ~npriorities:Heap.key_limit ~slots:2 () in
  Multi_pq.insert m ~pri:top "top";
  check_bool "Multi_pq at the top priority" true
    (Multi_pq.delete_min m = Some (top, "top"))

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

module Retry = Hostpq.Retry

(* [n] failed attempts of one operation, carried the way the library's
   loops carry them; the wait the next failure would spin *)
let retry_waits ?(max_attempts = max_int) op n =
  let rec go failed spin =
    if failed = n then spin
    else
      let failed = failed + 1 in
      go failed (Retry.once ~max_attempts op ~failed spin)
  in
  go 0 Retry.first

let test_retry_gives_up_on_budget () =
  let attempts = ref 0 in
  let rec go failed spin =
    let failed = failed + 1 in
    attempts := failed;
    go failed (Retry.once ~max_attempts:3 "unit" ~failed spin)
  in
  (match go 0 Retry.first with
  | exception Retry.Gave_up { op; attempts } ->
      Alcotest.(check string) "names the operation" "unit" op;
      check_int "at the budget" 3 attempts
  | _ -> Alcotest.fail "expected Gave_up at the attempt budget");
  check_int "attempts counted" 3 !attempts

let test_retry_default_never_gives_up () =
  let attempts = ref 0 in
  let rec go failed spin =
    if failed < 1_000 then begin
      let failed = failed + 1 in
      attempts := failed;
      go failed (Retry.once ~max_attempts:max_int "unit" ~failed spin)
    end
  in
  go 0 Retry.first;
  check_int "still going" 1_000 !attempts

let test_retry_jitter_decorrelates () =
  (* losers of one collision must not stay in lockstep: after the same
     number of failed attempts, independent operations' next waits
     should be spread over the range, not equal *)
  let n = 256 and rounds = 6 in
  let spins = Array.init n (fun _ -> retry_waits "jitter" rounds) in
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
  check_bool "wait never exceeds the cap" true (retry_waits "cap" 40 <= 1024)

let test_retry_domains_differ () =
  (* waits are drawn from the domain's own stream: the first operations
     of two domains must not back off in lockstep *)
  let waits () =
    let rec go failed spin acc =
      if failed = 8 then List.rev acc
      else
        let failed = failed + 1 in
        let spin = Retry.once ~max_attempts:max_int "per-domain" ~failed spin in
        go failed spin (spin :: acc)
    in
    go 0 Retry.first []
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
  let quiet = create ~name:"quiet" ~index:no_index () in
  lock quiet;
  unlock quiet;
  let traced = create ~name:"traced" ~index:no_index () in
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

(* the lock itself *)

let test_hlock_mutual_exclusion () =
  (* more domains than cores, so holders are preempted mid-section and
     contenders exhaust their spin rounds and park; a plain counter
     incremented under the lock must still come out exact *)
  let open Hostpq.Hlock in
  let l = create ~index:no_index () in
  let counter = ref 0 in
  let ndomains = 6 and iters = 20_000 in
  List.init ndomains (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to iters do
            lock l;
            counter := !counter + 1;
            unlock l
          done))
  |> List.iter Domain.join;
  check_int "exact" (ndomains * iters) !counter

let test_hlock_forced_parking () =
  (* a holder sleeping far longer than the spin rounds last forces its
     contenders to park; each then holds the lock a little while, so the
     others wake to a taken lock and park again.  A lost wake-up hangs
     here. *)
  let open Hostpq.Hlock in
  let l = create ~index:no_index () in
  let acquired = Atomic.make 0 in
  lock l;
  let contenders =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            lock l;
            Atomic.incr acquired;
            Unix.sleepf 0.002;
            unlock l))
  in
  Unix.sleepf 0.02;
  check_int "none acquired while held" 0 (Atomic.get acquired);
  unlock l;
  List.iter Domain.join contenders;
  check_int "all acquired" 3 (Atomic.get acquired);
  check_bool "free at the end" true (try_lock l);
  unlock l

let test_hlock_shared_bucket () =
  (* four locks whose ids share one parking bucket, each with a domain
     parked behind a holder that keeps it 20 ms per parker.  The holder
     releases them in the reverse of the parking order, so an unlock
     whose wake-up reaches only one parker of the bucket (a signal, not
     a broadcast) wakes another lock's parker first and strands its
     own.  The join is timed: a stranded parker fails the test instead
     of hanging it. *)
  let open Hostpq.Hlock in
  let k = 4 in
  let first = create ~index:no_index () in
  let rec same_bucket acc n =
    if n = k then List.rev acc
    else
      let l = create ~index:no_index () in
      if (id l - id first) mod buckets = 0 then same_bucket (l :: acc) (n + 1)
      else same_bucket acc n
  in
  let locks = same_bucket [ first ] 1 in
  List.iter lock locks;
  let acquired = Atomic.make 0 and release = Atomic.make false in
  let parkers =
    List.map
      (fun l ->
        let d =
          Domain.spawn (fun () ->
              lock l;
              Atomic.incr acquired;
              while not (Atomic.get release) do
                Unix.sleepf 0.001
              done;
              unlock l)
        in
        (* parked before the next parker starts *)
        Unix.sleepf 0.02;
        d)
      locks
  in
  check_int "none acquired while held" 0 (Atomic.get acquired);
  List.iter
    (fun l ->
      unlock l;
      Unix.sleepf 0.005)
    (List.rev locks);
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get acquired < k && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let got = Atomic.get acquired in
  Atomic.set release true;
  if got < k then
    Alcotest.failf "%d of %d parkers acquired within 5 s: a wake-up was lost"
      got k;
  List.iter Domain.join parkers;
  List.iter
    (fun l ->
      check_bool "free at the end" true (try_lock l);
      unlock l)
    locks

let test_hlock_queue_names () =
  (* under a tracer, the queues' lock ids resolve to their full names,
     [bin-pq.bin[i]] and [multiqueue.slot[i]] formatted from a base and
     an index *)
  let open Hostpq in
  let acquired = ref [] in
  Hlock.set_tracer
    (Some
       {
         Hlock.trace =
           (fun ~proc:_ ~time:_ ~tag ~a ~b:_ ->
             if tag = Hlock.tag_acquire then acquired := a :: !acquired);
       });
  (* [length] locks every bin or slot once, in index order *)
  ignore (Bin_pq.length (Bin_pq.create ~npriorities:3 ()));
  ignore (Multi_pq.length (Multi_pq.create_sized ~npriorities:4 ~slots:2 ()));
  ignore (Locked_heap.length (Locked_heap.create ~npriorities:2 ()));
  Hlock.set_tracer None;
  Alcotest.(check (list (option string)))
    "labels"
    (List.map Option.some
       [
         "bin-pq.bin[0]";
         "bin-pq.bin[1]";
         "bin-pq.bin[2]";
         "multiqueue.slot[0]";
         "multiqueue.slot[1]";
         "locked-heap.lock";
       ])
    (List.rev_map Hlock.label_of !acquired)

let test_hlock_try_lock () =
  let open Hostpq.Hlock in
  let l = create ~index:no_index () in
  lock l;
  check_bool "fails while held" false
    (Domain.join (Domain.spawn (fun () -> try_lock l)));
  unlock l;
  check_bool "succeeds once free" true
    (Domain.join (Domain.spawn (fun () ->
         let ok = try_lock l in
         if ok then unlock l;
         ok)));
  check_bool "free at the end" true (try_lock l);
  unlock l

let test_hlock_contended_flag () =
  (* [acquire]'s operand [b] is 1 exactly when the first try failed:
     0 for an uncontended lock, 1 for a domain that called [lock] while
     another held it *)
  let open Hostpq.Hlock in
  let l = create ~index:no_index () in
  let events = ref [] in
  set_tracer
    (Some
       {
         trace =
           (fun ~proc ~time:_ ~tag ~a ~b ->
             if a = id l && tag = tag_acquire then
               events := (proc, b) :: !events);
       });
  let main = (Domain.self () :> int) in
  lock l;
  let calling = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Atomic.set calling true;
        lock l;
        unlock l;
        (Domain.self () :> int))
  in
  while not (Atomic.get calling) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  unlock l;
  let other = Domain.join d in
  lock l;
  unlock l;
  set_tracer None;
  Alcotest.(check (list (pair int int)))
    "acquires in order, contended only for the waiting domain"
    [ (main, 0); (other, 1); (main, 0) ]
    (List.rev !events)

(* ------------------------------------------------------------------ *)
(* the bin queue's occupancy bitmap *)

type bin_op = Insert of int | Delete

(* priorities on and beside the bitmap's 62-bin word boundaries *)
let bitmap_sizes = [ 1; 61; 62; 63; 64; 124; 125; 1000; 1024 ]

let bin_ops_gen =
  let open QCheck.Gen in
  let* n = oneofl bitmap_sizes in
  let pri =
    oneof
      [
        int_bound (n - 1);
        map (fun p -> min p (n - 1)) (oneofl [ 0; 60; 61; 62; 63; 123; 124 ]);
        return (n - 1);
      ]
  in
  let op = frequency [ (3, map (fun p -> Insert p) pri); (2, return Delete) ] in
  let+ ops = list_size (int_range 0 300) op in
  (n, ops)

let bin_ops_print (n, ops) =
  Printf.sprintf "npriorities %d: %s" n
    (String.concat " "
       (List.map
          (function Insert p -> Printf.sprintf "+%d" p | Delete -> "-")
          ops))

(* against a sorted multiset: each delete_min returns the model's least
   priority, None exactly when the model is empty, and length agrees at
   the end *)
let prop_bin_bitmap_model =
  QCheck.Test.make ~name:"bin-pq bitmap vs sorted multiset" ~count:300
    (QCheck.make ~print:bin_ops_print bin_ops_gen)
    (fun (n, ops) ->
      let module B = Hostpq.Bin_pq in
      let q = B.create ~npriorities:n () in
      let rec insert_sorted p = function
        | x :: rest when x < p -> x :: insert_sorted p rest
        | l -> p :: l
      in
      let step model op =
        match (op, model) with
        | Insert p, _ ->
            B.insert q ~pri:p p;
            insert_sorted p model
        | Delete, [] ->
            if B.delete_min q <> None then
              QCheck.Test.fail_report "delete_min found an element in an empty queue";
            []
        | Delete, m :: rest -> (
            match B.delete_min q with
            | Some (p, v) when p = m && v = p -> rest
            | Some (p, _) ->
                QCheck.Test.fail_reportf "delete_min gave %d, model min %d" p m
            | None -> QCheck.Test.fail_reportf "delete_min gave None, model min %d" m)
      in
      let model = List.fold_left step [] ops in
      B.length q = List.length model)

(* within a priority, the array-stack bins pop in the order of the
   lists they replaced: last in, first out.  Payloads are distinct, and
   bins over 3 priorities grow past 8 and 16 slots, drain, and refill *)
let bin_order_gen =
  let open QCheck.Gen in
  let* n = oneofl [ 1; 2; 3; 16 ] in
  let* inserts = int_range 1 4 in
  let op =
    frequency
      [
        (inserts, map (fun p -> Insert p) (int_bound (n - 1)));
        (2, return Delete);
      ]
  in
  let+ ops = list_size (int_range 0 400) op in
  (n, ops)

let prop_bin_order =
  QCheck.Test.make ~name:"bin-pq pop order vs list bins" ~count:300
    (QCheck.make ~print:bin_ops_print bin_order_gen)
    (fun (n, ops) ->
      let module B = Hostpq.Bin_pq in
      let q = B.create ~npriorities:n () in
      let model = Array.make n [] in
      let rec model_pop i =
        if i = n then None
        else
          match model.(i) with
          | v :: rest ->
              model.(i) <- rest;
              Some (i, v)
          | [] -> model_pop (i + 1)
      in
      List.iteri
        (fun v op ->
          match op with
          | Insert p ->
              B.insert q ~pri:p v;
              model.(p) <- v :: model.(p)
          | Delete ->
              let got = B.delete_min q and want = model_pop 0 in
              if got <> want then
                let show = function
                  | Some (p, v) -> Printf.sprintf "(%d, %d)" p v
                  | None -> "None"
                in
                QCheck.Test.fail_reportf "delete_min gave %s, lists give %s"
                  (show got) (show want))
        ops;
      B.length q = Array.fold_left (fun acc l -> acc + List.length l) 0 model)

let test_bin_hold_stress () =
  (* Scenario.hold's rule on two domains over a prefilled 1,024-priority
     queue: every element deleted is reinserted, so the drain at the end
     must give back exactly the prefill, by count and by payload sum *)
  let module B = Hostpq.Bin_pq in
  let npriorities = 1024 and prefill = 4096 and iters = 50_000 in
  let q = B.create ~npriorities () in
  let rng = Random.State.make [| 17 |] in
  for v = 0 to prefill - 1 do
    B.insert q ~pri:(Random.State.int rng npriorities) v
  done;
  let worker d () =
    let rng = Random.State.make [| d; 29 |] in
    for _ = 1 to iters do
      match B.delete_min q with
      | Some (p, v) ->
          B.insert q ~pri:((p + 1 + Random.State.int rng 64) mod npriorities) v
      | None -> Alcotest.fail "a prefilled hold queue ran empty"
    done
  in
  List.init 2 (fun d -> Domain.spawn (worker d)) |> List.iter Domain.join;
  check_int "length at quiescence" prefill (B.length q);
  let rec drain count sum last =
    match B.delete_min q with
    | Some (p, v) ->
        if p < last then Alcotest.failf "drain not sorted: %d after %d" p last;
        drain (count + 1) (sum + v) p
    | None -> (count, sum)
  in
  let count, sum = drain 0 0 0 in
  check_int "count conserved" prefill count;
  check_int "payload sum conserved" (prefill * (prefill - 1) / 2) sum

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

(* a padded atomic is still an atomic: two domains each make [n]
   fetch-and-add and [n] compare-and-set increments on one, and none is
   lost *)
let test_padded_atomic () =
  let a = Hostpq.Padded.copy (Atomic.make 0) in
  check_bool "padded to 16 words" true
    (Obj.size (Obj.repr a) >= 16 && Hostpq.Padded.words = 16);
  let n = 100_000 in
  let rec cas_incr () =
    let v = Atomic.get a in
    if not (Atomic.compare_and_set a v (v + 1)) then cas_incr ()
  in
  let work () =
    for _ = 1 to n do
      ignore (Atomic.fetch_and_add a 1);
      cas_incr ()
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  check_int "every increment counted" (4 * n) (Atomic.get a)

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
            stores
          @ List.map
              (fun (iname, m) ->
                Alcotest.test_case (iname ^ " partial drain") `Quick
                  (space_safety_partial m))
              stores );
        qsuite "heap-reference" [ prop_heap_reference ];
        ( "key-range",
          [
            Alcotest.test_case "npriorities above 2^31 rejected" `Quick
              test_key_range;
          ] );
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
            Alcotest.test_case "mutual exclusion, 6 domains" `Quick
              test_hlock_mutual_exclusion;
            Alcotest.test_case "forced parking" `Quick
              test_hlock_forced_parking;
            Alcotest.test_case "try_lock" `Quick test_hlock_try_lock;
            Alcotest.test_case "contended flag" `Quick
              test_hlock_contended_flag;
            Alcotest.test_case "shared parking bucket" `Quick
              test_hlock_shared_bucket;
            Alcotest.test_case "queue lock names" `Quick
              test_hlock_queue_names;
          ] );
        ( "padded",
          [
            Alcotest.test_case "two-domain atomic increments" `Quick
              test_padded_atomic;
          ] );
        qsuite "bin-pq-bitmap" [ prop_bin_bitmap_model; prop_bin_order ];
        ( "bin-pq-hold",
          [
            Alcotest.test_case "two-domain hold stress" `Quick
              test_bin_hold_stress;
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

(* Tests for the history recorder and the linearizability /
   quiescent-consistency checker, and application of the checker to the
   paper's consistency claims (Appendix B). *)

let check_verdict what expected got =
  let to_s = function
    | Pqcheck.Lincheck.Linearizable -> "linearizable"
    | Pqcheck.Lincheck.Not_linearizable -> "not-linearizable"
    | Pqcheck.Lincheck.Gave_up -> "gave-up"
  in
  Alcotest.(check string) what (to_s expected) (to_s got)

let ev proc op t0 t1 = { Pqcheck.History.proc; op; t0; t1 }
let ins ?(accepted = true) pri payload =
  Pqcheck.History.Insert { pri; payload; accepted }
let del r = Pqcheck.History.Delete_min r

(* ------------------------------------------------------------------ *)
(* crafted histories *)

let test_sequential_positive () =
  let h =
    [
      ev 0 (ins 5 1) 0 1;
      ev 0 (ins 3 2) 2 3;
      ev 0 (del (Some (3, 2))) 4 5;
      ev 0 (del (Some (5, 1))) 6 7;
      ev 0 (del None) 8 9;
    ]
  in
  check_verdict "sequential in-order" Pqcheck.Lincheck.Linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_delete_after_insert_none_rejected () =
  (* insert completed before the delete began, yet the delete saw empty *)
  let h = [ ev 0 (ins 5 1) 0 1; ev 1 (del None) 2 3 ] in
  check_verdict "lost element" Pqcheck.Lincheck.Not_linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_overlapping_delete_none_ok () =
  (* the delete overlaps the insert: ordering the delete first is legal *)
  let h = [ ev 0 (ins 5 1) 1 4; ev 1 (del None) 0 2 ] in
  check_verdict "overlap allows None" Pqcheck.Lincheck.Linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_non_minimal_delete_rejected () =
  let h =
    [
      ev 0 (ins 5 1) 0 1;
      ev 0 (ins 3 2) 2 3;
      ev 1 (del (Some (5, 1))) 4 5;
    ]
  in
  check_verdict "returned non-minimum" Pqcheck.Lincheck.Not_linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_phantom_delete_rejected () =
  let h = [ ev 0 (del (Some (2, 9))) 0 1 ] in
  check_verdict "element never inserted" Pqcheck.Lincheck.Not_linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_equal_priority_payloads_free () =
  (* two elements of equal priority may come out in either order *)
  let h =
    [
      ev 0 (ins 4 1) 0 1;
      ev 0 (ins 4 2) 2 3;
      ev 1 (del (Some (4, 2))) 4 5;
      ev 1 (del (Some (4, 1))) 6 7;
    ]
  in
  check_verdict "bag within a priority" Pqcheck.Lincheck.Linearizable
    (Pqcheck.Lincheck.linearizable h)

let test_qc_weaker_than_linearizability () =
  (* ins(3) completes strictly before the delete starts, so returning the
     older 5 is not linearizable; but a long-running overlapping insert
     removes every quiescent point, making it quiescently consistent *)
  let h =
    [
      ev 0 (ins 5 1) 0 1;
      ev 2 (ins 9 3) 0 12;
      ev 1 (ins 3 2) 1 2;
      ev 3 (del (Some (5, 1))) 5 10;
    ]
  in
  check_verdict "not linearizable" Pqcheck.Lincheck.Not_linearizable
    (Pqcheck.Lincheck.linearizable h);
  Alcotest.(check bool) "but quiescently consistent" true
    (Pqcheck.Lincheck.quiescently_consistent h)

let test_qc_rejects_cross_quiescence () =
  (* with a quiescent gap between the insert and the delete, even
     quiescent consistency forbids losing the element *)
  let h = [ ev 0 (ins 5 1) 0 1; ev 1 (del None) 10 11 ] in
  Alcotest.(check bool) "quiescent point enforced" false
    (Pqcheck.Lincheck.quiescently_consistent h)

let test_repeated_element () =
  (* the queue is a multiset: a second insert of the same (priority,
     payload) makes a second copy, which a second delete may return *)
  let h =
    [
      ev 0 (ins 3 7) 0 1;
      ev 0 (ins 3 7) 2 3;
      ev 0 (del (Some (3, 7))) 4 5;
      ev 0 (del (Some (3, 7))) 6 7;
    ]
  in
  check_verdict "both copies linearizable" Pqcheck.Lincheck.Linearizable
    (Pqcheck.Lincheck.linearizable h);
  Alcotest.(check bool) "both copies quiescently consistent" true
    (Pqcheck.Lincheck.quiescently_consistent h);
  (* but a third delete of it finds no copy left *)
  let h3 = h @ [ ev 0 (del (Some (3, 7))) 8 9 ] in
  check_verdict "no third copy" Pqcheck.Lincheck.Not_linearizable
    (Pqcheck.Lincheck.linearizable h3);
  Alcotest.(check bool) "no third copy, even quiescently" false
    (Pqcheck.Lincheck.quiescently_consistent h3)

let test_empty_history () =
  check_verdict "empty" Pqcheck.Lincheck.Linearizable
    (Pqcheck.Lincheck.linearizable [])

(* ------------------------------------------------------------------ *)
(* properties of the checker itself: histories generated by running a
   correct sequential model with arbitrary (non-overlapping) timestamps
   must verify; corrupting one delete's result must refute *)

let gen_legal_history =
  QCheck.Gen.(
    list_size (int_range 1 18) (pair (int_bound 5) bool) >|= fun script ->
    let state = ref [] and payload = ref 0 and t = ref 0 and acc = ref [] in
    List.iter
      (fun (pri, is_insert) ->
        let t0 = !t in
        let t1 = !t + 1 in
        t := !t + 2;
        if is_insert then begin
          incr payload;
          state := List.merge compare [ (pri, !payload) ] !state;
          acc :=
            {
              Pqcheck.History.proc = 0;
              op = ins pri !payload;
              t0;
              t1;
            }
            :: !acc
        end
        else begin
          let r =
            match !state with
            | [] -> None
            | hd :: tl ->
                state := tl;
                Some hd
          in
          acc := { Pqcheck.History.proc = 0; op = del r; t0; t1 } :: !acc
        end)
      script;
    List.rev !acc)

let prop_legal_histories_verify =
  QCheck.Test.make ~name:"model-generated histories are linearizable"
    ~count:200 (QCheck.make gen_legal_history) (fun h ->
      Pqcheck.Lincheck.linearizable h = Pqcheck.Lincheck.Linearizable)

let prop_corrupted_histories_refuted =
  QCheck.Test.make ~name:"corrupting a successful delete refutes" ~count:200
    (QCheck.make gen_legal_history) (fun h ->
      (* bump the payload of the first successful delete: that element was
         never inserted, so the history must be rejected *)
      let corrupted = ref false in
      let h' =
        List.map
          (fun e ->
            match e.Pqcheck.History.op with
            | Pqcheck.History.Delete_min (Some (p, v)) when not !corrupted ->
                corrupted := true;
                { e with op = del (Some (p, v + 1_000_000)) }
            | _ -> e)
          h
      in
      QCheck.assume !corrupted;
      Pqcheck.Lincheck.linearizable h' = Pqcheck.Lincheck.Not_linearizable)

(* small arbitrary histories, for comparison with the brute-force
   reference: intervals overlap, so an epoch holds several operations;
   three priorities and two payloads, so priorities tie and elements
   repeat; some inserts are rejected; a delete returns [None] or any
   element, so it can find a non-empty queue empty or return an element
   before its insert's epoch *)
let gen_small_history =
  QCheck.Gen.(
    let elem = pair (int_bound 2) (int_bound 1) in
    let op =
      frequency
        [
          ( 4,
            map2
              (fun (pri, payload) accepted -> ins ~accepted pri payload)
              elem
              (map (fun k -> k > 0) (int_bound 4)) );
          (1, return (del None));
          (3, map (fun x -> del (Some x)) elem);
        ]
    in
    let event proc =
      map3 (fun op t0 len -> ev proc op t0 (t0 + len)) op (int_bound 12)
        (int_bound 4)
    in
    int_range 1 8 >>= fun n -> flatten_l (List.init n event))

let arb_small_history =
  QCheck.make
    ~print:(Format.asprintf "%a" Pqcheck.History.pp)
    gen_small_history

let prop_qc_matches_reference =
  QCheck.Test.make
    ~name:"per-epoch QC decision = brute force over epoch orders"
    ~count:3000 arb_small_history (fun h ->
      Pqcheck.Lincheck.quiescently_consistent h
      = Brute.legal ~precedes:(Brute.quiescent h) h)

let prop_lin_matches_reference =
  QCheck.Test.make
    ~name:"linearizability search = brute force over real-time orders"
    ~count:3000 arb_small_history (fun h ->
      Pqcheck.Lincheck.linearizable h = Pqcheck.Lincheck.Linearizable
      = Brute.legal ~precedes:Brute.real_time h)

(* ------------------------------------------------------------------ *)
(* the paper's claims, on recorded histories *)

let recorded_claim ~expect_lin queue () =
  for seed = 1 to 8 do
    let h =
      Pqcheck.History.record ~queue ~nprocs:5 ~npriorities:8 ~ops_per_proc:7
        ~seed ()
    in
    if expect_lin then
      check_verdict
        (Printf.sprintf "%s history (seed %d) linearizable" queue seed)
        Pqcheck.Lincheck.Linearizable
        (Pqcheck.Lincheck.linearizable h)
    else
      (* quiescently consistent queues may or may not produce linearizable
         histories; the QC check must never refute *)
      Alcotest.(check bool)
        (Printf.sprintf "%s history (seed %d) quiescently consistent" queue
           seed)
        true
        (Pqcheck.Lincheck.quiescently_consistent h)
  done

(* The paper calls SimpleLinear and SkipList linearizable.  The scan-based
   delete-min makes that false: a delete can pass the low bins, then miss
   an element inserted there while it scans higher bins that were filled
   even later.  Random histories refute the claim within a few seeds —
   while quiescent consistency always survives. *)
let scan_queues_not_linearizable queue () =
  let refuted = ref false in
  for seed = 1 to 10 do
    let h =
      Pqcheck.History.record ~queue ~nprocs:5 ~npriorities:8 ~ops_per_proc:7
        ~seed ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s (seed %d): quiescent consistency holds" queue seed)
      true
      (Pqcheck.Lincheck.quiescently_consistent h);
    if not !refuted then
      match Pqcheck.Lincheck.linearizable ~max_states:200_000 h with
      | Pqcheck.Lincheck.Not_linearizable -> refuted := true
      | Pqcheck.Lincheck.Linearizable | Pqcheck.Lincheck.Gave_up -> ()
  done;
  Alcotest.(check bool)
    (queue ^ ": some history refutes the paper's linearizability claim")
    true !refuted

let () =
  Alcotest.run "pqcheck"
    [
      ( "crafted",
        [
          Alcotest.test_case "sequential positive" `Quick
            test_sequential_positive;
          Alcotest.test_case "lost element rejected" `Quick
            test_delete_after_insert_none_rejected;
          Alcotest.test_case "overlapping None ok" `Quick
            test_overlapping_delete_none_ok;
          Alcotest.test_case "non-minimal rejected" `Quick
            test_non_minimal_delete_rejected;
          Alcotest.test_case "phantom rejected" `Quick
            test_phantom_delete_rejected;
          Alcotest.test_case "equal priorities free" `Quick
            test_equal_priority_payloads_free;
          Alcotest.test_case "qc weaker than lin" `Quick
            test_qc_weaker_than_linearizability;
          Alcotest.test_case "qc not trivial" `Quick
            test_qc_rejects_cross_quiescence;
          Alcotest.test_case "empty history" `Quick test_empty_history;
          Alcotest.test_case "repeated element" `Quick test_repeated_element;
        ] );
      ( "checker-props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_legal_histories_verify;
            prop_corrupted_histories_refuted;
            prop_qc_matches_reference;
            prop_lin_matches_reference;
          ] );
      ( "claims-linearizable",
        [
          Alcotest.test_case "SingleLock" `Quick
            (recorded_claim ~expect_lin:true "SingleLock");
          Alcotest.test_case "HuntEtAl" `Quick
            (recorded_claim ~expect_lin:true "HuntEtAl");
        ] );
      ( "claims-refuted",
        [
          Alcotest.test_case "SimpleLinear scan not linearizable" `Quick
            (scan_queues_not_linearizable "SimpleLinear");
          Alcotest.test_case "SkipList scan not linearizable" `Quick
            (scan_queues_not_linearizable "SkipList");
        ] );
      ( "claims-quiescent",
        [
          Alcotest.test_case "SimpleTree" `Quick
            (recorded_claim ~expect_lin:false "SimpleTree");
          Alcotest.test_case "LinearFunnels" `Quick
            (recorded_claim ~expect_lin:false "LinearFunnels");
          Alcotest.test_case "FunnelTree" `Quick
            (recorded_claim ~expect_lin:false "FunnelTree");
          Alcotest.test_case "LinearFunnelsFifo" `Quick
            (recorded_claim ~expect_lin:false "LinearFunnelsFifo");
        ] );
    ]

(* Tests for the comparative fetch-and-increment substrates: diffracting
   trees, bitonic counting networks and software combining trees.  The
   key invariant for all of them is exactness: with N increments total,
   the returned values are exactly {0, ..., N-1}, each once. *)

open Pqsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type maker = Mem.t -> nprocs:int -> Pqcounters.Ctr_intf.t

let makers : (string * maker) list =
  [
    ("dtree", fun mem ~nprocs -> Pqcounters.Dtree.create mem ~nprocs);
    ( "bitonic4",
      fun mem ~nprocs ->
        ignore nprocs;
        Pqcounters.Bitonic.create mem ~width:4 );
    ( "bitonic8",
      fun mem ~nprocs ->
        ignore nprocs;
        Pqcounters.Bitonic.create mem ~width:8 );
    ("combtree", fun mem ~nprocs -> Pqcounters.Combtree.create mem ~nprocs ());
    ("reactive", fun mem ~nprocs -> Pqcounters.Reactive.create mem ~nprocs);
    ("cas", fun mem ~nprocs -> ignore nprocs; Pqcounters.Adapters.cas mem);
    ("mcs", Pqcounters.Adapters.mcs);
    ("funnel", Pqcounters.Adapters.funnel);
  ]

let exactness ~nprocs ~iters ~seed (name, maker) () =
  let rets = Array.make nprocs [] in
  let ctr, result =
    Sim.run ~nprocs ~seed
      ~setup:(fun mem -> maker mem ~nprocs)
      ~program:(fun c pid ->
        for _ = 1 to iters do
          rets.(pid) <- c.Pqcounters.Ctr_intf.inc () :: rets.(pid);
          Api.work (Api.rand 10)
        done)
      ()
  in
  let all = Array.to_list rets |> List.concat |> List.sort compare in
  let n = nprocs * iters in
  Alcotest.(check (list int))
    (name ^ ": values are exactly 0..n-1")
    (List.init n Fun.id) all;
  check_int
    (name ^ ": dispensed count agrees")
    n
    (ctr.Pqcounters.Ctr_intf.read_now result.Sim.mem)

let exactness_multi_seed m () =
  for seed = 60 to 64 do
    exactness ~nprocs:16 ~iters:12 ~seed m ()
  done

let determinism (name, maker) () =
  let run () =
    let _, r =
      Sim.run ~nprocs:8 ~seed:5
        ~setup:(fun mem -> maker mem ~nprocs:8)
        ~program:(fun c _ ->
          for _ = 1 to 10 do
            ignore (c.Pqcounters.Ctr_intf.inc ())
          done)
        ()
    in
    r.Sim.cycles
  in
  check_int (name ^ ": deterministic") (run ()) (run ())

let test_bitonic_stage_count () =
  (* bitonic[2^k] has k(k+1)/2 balancer stages *)
  check_int "width 2" 1 (Pqcounters.Bitonic.stages ~width:2);
  check_int "width 4" 3 (Pqcounters.Bitonic.stages ~width:4);
  check_int "width 8" 6 (Pqcounters.Bitonic.stages ~width:8);
  check_int "width 16" 10 (Pqcounters.Bitonic.stages ~width:16)

let test_bitonic_bad_width () =
  let m = Mem.create (Machine.make ~nprocs:2 ()) in
  let raised =
    try
      ignore (Pqcounters.Bitonic.create m ~width:3);
      false
    with Invalid_argument _ -> true
  in
  check_bool "width 3 rejected" true raised

let test_dtree_depth_default_positive () =
  let _ =
    Sim.run ~nprocs:64
      ~setup:(fun mem -> Pqcounters.Dtree.create mem ~nprocs:64)
      ~program:(fun c _ -> ignore (c.Pqcounters.Ctr_intf.inc ()))
      ()
  in
  ()

let test_combtree_combining_happens () =
  (* with many processors arriving together and a wide window, the
     central word must receive far fewer CAS applications than there are
     increments; we can observe this through the memory update count
     being well below the serial case *)
  let run ~wait =
    let _, r =
      Sim.run ~nprocs:32 ~seed:3
        ~setup:(fun mem -> Pqcounters.Combtree.create mem ~nprocs:32 ~wait ())
        ~program:(fun c _ ->
          for _ = 1 to 10 do
            ignore (c.Pqcounters.Ctr_intf.inc ())
          done)
        ()
    in
    r.Sim.cycles
  in
  (* a zero window degrades to a serial chain of CAS at the root, which
     must be slower than genuine combining *)
  check_bool "combining window pays off" true (run ~wait:32 < run ~wait:0)

let test_reactive_switches_modes () =
  (* heavy load must drive the counter into combining-tree mode; a lone
     processor must keep (or return) it to lock mode *)
  let end_mode nprocs iters =
    let c, result =
      Sim.run ~nprocs ~seed:7
        ~setup:(fun mem -> Pqcounters.Reactive.create mem ~nprocs)
        ~program:(fun c _ ->
          for _ = 1 to iters do
            ignore (c.Pqcounters.Ctr_intf.inc ());
            Api.work 5
          done)
        ()
    in
    Pqcounters.Reactive.mode_now result.Sim.mem c
  in
  check_int "64 procs end in tree mode" 1 (end_mode 64 30);
  check_int "1 proc stays in lock mode" 0 (end_mode 1 30)

let test_scaling_shapes () =
  (* qualitative: at 64 processors all distributed counters must beat the
     bare CAS loop *)
  let latency maker =
    let nprocs = 64 in
    let _, r =
      Sim.run ~nprocs ~seed:9
        ~setup:(fun mem -> maker mem ~nprocs)
        ~program:(fun c _ ->
          for _ = 1 to 15 do
            Api.work 10;
            Api.timed "op" (fun () -> ignore (c.Pqcounters.Ctr_intf.inc ()))
          done)
        ()
    in
    Stats.mean r.Sim.stats "op"
  in
  let cas = latency (fun mem ~nprocs -> ignore nprocs; Pqcounters.Adapters.cas mem) in
  List.iter
    (fun (name, maker) ->
      let l = latency maker in
      check_bool
        (Printf.sprintf "%s (%.0f) beats bare cas (%.0f) at 64 procs" name l
           cas)
        true (l < cas))
    [
      ("dtree", fun mem ~nprocs -> Pqcounters.Dtree.create mem ~nprocs);
      ( "bitonic8",
        fun mem ~nprocs ->
          ignore nprocs;
          Pqcounters.Bitonic.create mem ~width:8 );
      ("funnel", Pqcounters.Adapters.funnel);
    ]

let () =
  let per_maker m =
    ( fst m,
      [
        Alcotest.test_case "exactness 16p" `Quick
          (exactness ~nprocs:16 ~iters:12 ~seed:1 m);
        Alcotest.test_case "exactness 48p" `Quick
          (exactness ~nprocs:48 ~iters:6 ~seed:2 m);
        Alcotest.test_case "exactness x5 seeds" `Slow (exactness_multi_seed m);
        Alcotest.test_case "deterministic" `Quick (determinism m);
      ] )
  in
  Alcotest.run "pqcounters"
    (List.map per_maker makers
    @ [
        ( "construction",
          [
            Alcotest.test_case "bitonic stages" `Quick test_bitonic_stage_count;
            Alcotest.test_case "bitonic bad width" `Quick
              test_bitonic_bad_width;
            Alcotest.test_case "dtree default depth" `Quick
              test_dtree_depth_default_positive;
          ] );
        ( "behaviour",
          [
            Alcotest.test_case "combining pays off" `Quick
              test_combtree_combining_happens;
            Alcotest.test_case "reactive switches modes" `Quick
              test_reactive_switches_modes;
            Alcotest.test_case "scaling shapes" `Slow test_scaling_shapes;
          ] );
      ])

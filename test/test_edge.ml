(* Edge-of-the-envelope configurations: degenerate priority ranges,
   single processors, the full 512-priority range, and adversarial
   workload mixes.  Everything here runs at small op counts — the point
   is coverage of corners the main suites do not reach. *)

open Pqsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_queues = Pqcore.Registry.names

let params ~nprocs ~npriorities =
  { (Pqcore.Pq_intf.default_params ~nprocs ~npriorities) with capacity = 256 }

(* a queue with one priority degenerates to a bag; everything must still
   conserve elements *)
let single_priority name () =
  let inserted = ref 0 and deleted = ref 0 in
  let q, result =
    Sim.run ~nprocs:8 ~seed:31
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (params ~nprocs:8 ~npriorities:1))
      ~program:(fun q _ ->
        for i = 1 to 12 do
          if Api.flip () then begin
            if q.Pqcore.Pq_intf.insert ~pri:0 ~payload:i then incr inserted
          end
          else
            match q.Pqcore.Pq_intf.delete_min () with
            | Some (0, _) -> incr deleted
            | Some (p, _) -> Alcotest.failf "priority %d out of range" p
            | None -> ()
        done)
      ()
  in
  check_int "conservation"
    (!inserted - !deleted)
    (List.length (q.Pqcore.Pq_intf.drain_now result.Sim.mem))

(* one processor exercising the full 512-priority range *)
let wide_range name () =
  let _ =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (params ~nprocs:1 ~npriorities:512))
      ~program:(fun q _ ->
        assert (q.Pqcore.Pq_intf.insert ~pri:511 ~payload:1);
        assert (q.Pqcore.Pq_intf.insert ~pri:0 ~payload:2);
        assert (q.Pqcore.Pq_intf.insert ~pri:256 ~payload:3);
        (match q.Pqcore.Pq_intf.delete_min () with
        | Some (0, 2) -> ()
        | _ -> assert false);
        (match q.Pqcore.Pq_intf.delete_min () with
        | Some (256, 3) -> ()
        | _ -> assert false);
        (match q.Pqcore.Pq_intf.delete_min () with
        | Some (511, 1) -> ()
        | _ -> assert false);
        assert (q.Pqcore.Pq_intf.delete_min () = None))
      ()
  in
  ()

(* all processors fighting over the extremes of the range *)
let extremes_only name () =
  let inserted = ref 0 and deleted = ref 0 in
  let q, result =
    Sim.run ~nprocs:12 ~seed:77
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (params ~nprocs:12 ~npriorities:64))
      ~program:(fun q _ ->
        for i = 1 to 10 do
          let pri = if Api.flip () then 0 else 63 in
          if Api.flip () then begin
            if q.Pqcore.Pq_intf.insert ~pri ~payload:i then incr inserted
          end
          else
            match q.Pqcore.Pq_intf.delete_min () with
            | Some _ -> incr deleted
            | None -> ()
        done)
      ()
  in
  check_int "conservation"
    (!inserted - !deleted)
    (List.length (q.Pqcore.Pq_intf.drain_now result.Sim.mem))

(* insert-only then delete-only, pure phases, no barrier: deletions start
   while stragglers still insert *)
let burst name () =
  let q, result =
    Sim.run ~nprocs:10 ~seed:13
      ~setup:(fun mem ->
        Pqcore.Registry.create name mem (params ~nprocs:10 ~npriorities:16))
      ~program:(fun q pid ->
        if pid < 5 then
          for i = 1 to 16 do
            ignore (q.Pqcore.Pq_intf.insert ~pri:(Api.rand 16) ~payload:i)
          done
        else
          for _ = 1 to 16 do
            ignore (q.Pqcore.Pq_intf.delete_min ())
          done)
      ()
  in
  match q.Pqcore.Pq_intf.check_now result.Sim.mem with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* machine edges *)
let test_one_processor_machine () =
  let m = Machine.make ~nprocs:1 () in
  check_int "width 1" 1 m.Machine.mesh_width;
  let _ =
    Sim.run ~machine:m ~nprocs:1
      ~setup:(fun mem -> Mem.alloc mem 1)
      ~program:(fun a _ -> Api.write a 1)
      ()
  in
  ()

let test_zero_ops_program () =
  let _, result =
    Sim.run ~nprocs:16 ~setup:(fun _ -> ()) ~program:(fun () _ -> ()) ()
  in
  check_int "no cycles consumed" 0 result.Sim.cycles

let test_mem_grows_transparently () =
  let m = Mem.create (Machine.make ~nprocs:2 ()) in
  let a = Mem.alloc m 100_000 in
  Mem.poke m (a + 99_999) 42;
  check_int "far write" 42 (Mem.peek m (a + 99_999))

let test_hot_lines_profile () =
  let shared, result =
    Sim.run ~nprocs:16
      ~setup:(fun mem -> Mem.alloc mem 2)
      ~program:(fun base pid ->
        for _ = 1 to 20 do
          (* everyone hammers word 0; word 1 belongs to pid 0 alone *)
          ignore (Api.faa base 1);
          if pid = 0 then Api.write (base + 1) pid
        done)
      ()
  in
  match Mem.hot_lines result.Sim.mem 1 with
  | [ (addr, wait) ] ->
      check_int "hottest is the shared word" shared addr;
      check_bool "nonzero wait" true (wait > 0)
  | _ -> Alcotest.fail "expected one hot line"

let per_queue name =
  ( name,
    [
      Alcotest.test_case "single priority" `Quick (single_priority name);
      Alcotest.test_case "512-priority range" `Quick (wide_range name);
      Alcotest.test_case "extremes only" `Quick (extremes_only name);
      Alcotest.test_case "producer/consumer burst" `Quick (burst name);
    ] )

let () =
  Alcotest.run "pqedge"
    (List.map per_queue all_queues
    @ [
        ( "machine",
          [
            Alcotest.test_case "one-processor machine" `Quick
              test_one_processor_machine;
            Alcotest.test_case "zero-ops program" `Quick test_zero_ops_program;
            Alcotest.test_case "memory growth" `Quick
              test_mem_grows_transparently;
            Alcotest.test_case "hot-line profile" `Quick test_hot_lines_profile;
          ] );
      ])

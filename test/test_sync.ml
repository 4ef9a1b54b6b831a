(* Tests for locks over the simulated machine: mutual exclusion, progress,
   fairness and the non-blocking try paths. *)

open Pqsim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A critical-section counter bumped with plain read/write: if mutual
   exclusion is violated, increments get lost. *)
let hammer ~nprocs ~iters ~make_lock ~acquire ~release =
  let (_, data), result =
    Sim.run ~nprocs
      ~setup:(fun mem ->
        let l = make_lock mem in
        let data = Mem.alloc mem 1 in
        (l, data))
      ~program:(fun (l, data) _pid ->
        for _ = 1 to iters do
          acquire l;
          let v = Api.read data in
          Api.work 2;
          Api.write data (v + 1);
          release l
        done)
      ()
  in
  Mem.peek result.mem data

let test_tas_mutual_exclusion () =
  let total =
    hammer ~nprocs:12 ~iters:40 ~make_lock:Pqsync.Tas.create
      ~acquire:Pqsync.Tas.acquire ~release:Pqsync.Tas.release
  in
  check_int "no lost updates" (12 * 40) total

let test_mcs_mutual_exclusion () =
  let total =
    hammer ~nprocs:12 ~iters:40
      ~make_lock:(fun mem -> Pqsync.Mcs.create mem ~nprocs:12)
      ~acquire:Pqsync.Mcs.acquire ~release:Pqsync.Mcs.release
  in
  check_int "no lost updates" (12 * 40) total

let test_mcs_mutual_exclusion_high_concurrency () =
  let total =
    hammer ~nprocs:64 ~iters:10
      ~make_lock:(fun mem -> Pqsync.Mcs.create mem ~nprocs:64)
      ~acquire:Pqsync.Mcs.acquire ~release:Pqsync.Mcs.release
  in
  check_int "no lost updates" (64 * 10) total

let test_tas_try_acquire () =
  let (_, out), result =
    Sim.run ~nprocs:2
      ~setup:(fun mem ->
        let l = Pqsync.Tas.create mem in
        let out = Mem.alloc mem 2 in
        (l, out))
      ~program:(fun (l, out) pid ->
        if pid = 0 then begin
          Pqsync.Tas.acquire l;
          Api.write (out + 0) 1;
          Api.work 500;
          Pqsync.Tas.release l
        end
        else begin
          (* wait until pid 0 certainly holds the lock *)
          ignore (Api.await (out + 0) ~until:(fun v -> v = 1));
          let got = Pqsync.Tas.try_acquire l in
          Api.write (out + 1) (if got then 1 else 2)
        end)
      ()
  in
  (* out+1 must record a failed try (value 2) *)
  check_int "try_acquire fails when held" 2 (Mem.peek result.Sim.mem (out + 1))

let test_mcs_try_acquire_when_free () =
  let (_, data), result =
    Sim.run ~nprocs:1
      ~setup:(fun mem ->
        (Pqsync.Mcs.create mem ~nprocs:1, Mem.alloc mem 1))
      ~program:(fun (l, data) _ ->
        if Pqsync.Mcs.try_acquire l then begin
          Api.write data 1;
          Pqsync.Mcs.release l
        end)
      ()
  in
  check_int "try succeeded" 1 (Mem.peek result.mem data)

let test_mcs_fifo_fairness () =
  (* once all waiters are queued, MCS grants in queue order; with staggered
     arrivals the order of critical sections must match arrival order *)
  let nprocs = 8 in
  let (_, slots, _idx), result =
    Sim.run ~nprocs
      ~setup:(fun mem ->
        let l = Pqsync.Mcs.create mem ~nprocs in
        let slots = Mem.alloc mem nprocs in
        let idx = Mem.alloc mem 1 in
        (l, slots, idx))
      ~program:(fun (l, slots, idx) pid ->
        (* stagger arrivals far enough apart to enqueue in pid order, while
           pid 0 holds the lock long enough that everyone queues up *)
        Api.work (100 * pid);
        Pqsync.Mcs.acquire l;
        if pid = 0 then Api.work 5000;
        let i = Api.faa idx 1 in
        Api.write (slots + i) pid;
        Pqsync.Mcs.release l)
      ()
  in
  let mem = result.Sim.mem in
  for i = 0 to nprocs - 1 do
    check_int (Printf.sprintf "slot %d" i) i (Mem.peek mem (slots + i))
  done

let test_lock_contention_queue_wait_grows () =
  let wait nprocs =
    let _, result =
      Sim.run ~nprocs
        ~setup:(fun mem -> Pqsync.Tas.create mem)
        ~program:(fun l _ ->
          for _ = 1 to 20 do
            Pqsync.Tas.acquire l;
            Api.work 5;
            Pqsync.Tas.release l
          done)
        ()
    in
    result.Sim.cycles
  in
  check_bool "more processors, longer run" true (wait 16 > wait 2)

let test_backoff_widens_then_resets () =
  let _, result =
    Sim.run ~nprocs:1
      ~setup:(fun _ -> ())
      ~program:(fun () _ ->
        let w = Pqsync.Backoff.pause Pqsync.Backoff.first in
        check_int "doubles" 8 w;
        check_int "widens" 16 (Pqsync.Backoff.pause w);
        check_int "capped" 512 (Pqsync.Backoff.pause 512);
        (* a fresh retry loop starts over from [first] *)
        check_int "restarts" 8 (Pqsync.Backoff.pause Pqsync.Backoff.first))
      ()
  in
  check_bool "some local work happened" true (result.Sim.cycles > 0)

let () =
  Alcotest.run "pqsync"
    [
      ( "tas",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_tas_mutual_exclusion;
          Alcotest.test_case "try_acquire fails when held" `Quick
            test_tas_try_acquire;
          Alcotest.test_case "contention grows runtime" `Quick
            test_lock_contention_queue_wait_grows;
        ] );
      ( "mcs",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mcs_mutual_exclusion;
          Alcotest.test_case "mutual exclusion x64" `Quick
            test_mcs_mutual_exclusion_high_concurrency;
          Alcotest.test_case "try_acquire when free" `Quick
            test_mcs_try_acquire_when_free;
          Alcotest.test_case "fifo fairness" `Quick test_mcs_fifo_fairness;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "widen and reset" `Quick
            test_backoff_widens_then_resets;
        ] );
    ]

(* Tests for the pqsim simulator substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Pqsim.Rng.make 7 and b = Pqsim.Rng.make 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Pqsim.Rng.next a) (Pqsim.Rng.next b)
  done

let test_rng_split_independent () =
  let m = Pqsim.Rng.make 7 in
  let a = Pqsim.Rng.split m 0 and b = Pqsim.Rng.split m 1 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Pqsim.Rng.next a = Pqsim.Rng.next b then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Pqsim.Rng.make 3 in
  for _ = 1 to 1000 do
    let v = Pqsim.Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_known_answers () =
  (* splitmix64 reference vectors for seed 0 (mix 0 = 0, so [make 0]
     reproduces the published stream exactly).  Pins the generator
     against silent drift: every simulation seed derives from it. *)
  let r = Pqsim.Rng.make 0 in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "splitmix64(0) stream" expected
        (Pqsim.Rng.next64 r))
    [
      0xE220A8397B1DCDAFL;
      0x6E789E6AA1B965F4L;
      0x06C45D188009454FL;
      0xF88BB8A8724C81ECL;
      0x1B39896A51A8749BL;
    ]

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_hops () =
  let m = Pqsim.Machine.make ~nprocs:16 () in
  check_int "self distance" 0 (Pqsim.Machine.hops m ~proc:0 ~line:0);
  check_bool "symmetric-ish positive" true
    (Pqsim.Machine.hops m ~proc:0 ~line:15 > 0)

let test_machine_width () =
  let m = Pqsim.Machine.make ~nprocs:256 () in
  check_int "mesh width" 16 m.Pqsim.Machine.mesh_width

(* ------------------------------------------------------------------ *)
(* Machine topology properties (socket / NUMA knobs).

   [hops] is a metric on the mesh, [socket_of] a partition of the
   processor range, and the default configuration (sockets = 1,
   remote_hop_cost = hop_cost) must be bit-identical to the pre-socket
   flat mesh — checked against an independent reimplementation of the
   original distance. *)

(* the flat-mesh distance as it was before sockets existed, kept as the
   reference the default configuration must reproduce *)
let reference_mesh_distance ~nprocs a b =
  let rec width w = if w * w >= nprocs then w else width (w + 1) in
  let w = width 1 in
  let coords i =
    let i = i mod (w * w) in
    (i mod w, i / w)
  in
  let ax, ay = coords a and bx, by = coords b in
  abs (ax - bx) + abs (by - ay)

(* (nprocs, raw indices) — indices are reduced mod nprocs inside each
   property so shrinking stays meaningful *)
let topo_gen =
  QCheck.(
    pair (int_range 1 300) (triple (int_bound 10_000) (int_bound 10_000) (int_bound 10_000)))

let test_machine_hops_symmetric =
  QCheck.Test.make ~name:"hops is symmetric" ~count:300 topo_gen
    (fun (nprocs, (a, b, _)) ->
      (* default mem_modules = nprocs, so a line below nprocs is homed
         at the like-numbered processor's node and the two directions
         measure the same pair of grid points *)
      let m = Pqsim.Machine.make ~nprocs () in
      let a = a mod nprocs and b = b mod nprocs in
      Pqsim.Machine.hops m ~proc:a ~line:b
      = Pqsim.Machine.hops m ~proc:b ~line:a)

let test_machine_hops_triangle =
  QCheck.Test.make ~name:"hops satisfies the triangle inequality" ~count:300
    topo_gen (fun (nprocs, (a, b, c)) ->
      let m = Pqsim.Machine.make ~nprocs () in
      let a = a mod nprocs and b = b mod nprocs and c = c mod nprocs in
      let d x y = Pqsim.Machine.hops m ~proc:x ~line:y in
      d a c <= d a b + d b c && d a a = 0)

let test_machine_default_is_flat_mesh =
  QCheck.Test.make
    ~name:"default config is bit-identical to the pre-socket flat mesh"
    ~count:300 topo_gen (fun (nprocs, (p, l, _)) ->
      let m = Pqsim.Machine.make ~nprocs () in
      let p = p mod nprocs in
      Pqsim.Machine.hops m ~proc:p ~line:l
      = reference_mesh_distance ~nprocs p (l mod nprocs)
      && Pqsim.Machine.socket_of m p = 0
      && Pqsim.Machine.same_socket m ~proc:p ~line:l
      && Pqsim.Machine.hop_cost_of m ~proc:p ~line:l
         = m.Pqsim.Machine.hop_cost)

let test_machine_socket_partition =
  QCheck.Test.make
    ~name:"socket_of is a total, onto, contiguous, near-equal partition"
    ~count:300
    QCheck.(pair (int_range 1 300) (int_bound 10_000))
    (fun (nprocs, s) ->
      let sockets = 1 + (s mod nprocs) in
      let m = Pqsim.Machine.make ~nprocs ~sockets () in
      let socks =
        List.init nprocs (fun i -> Pqsim.Machine.socket_of m i)
      in
      let in_range = List.for_all (fun s -> s >= 0 && s < sockets) socks in
      let monotone =
        List.for_all2 (fun a b -> a <= b)
          (List.filteri (fun i _ -> i < nprocs - 1) socks)
          (List.tl socks)
      in
      let sizes = Array.make sockets 0 in
      List.iter (fun s -> sizes.(s) <- sizes.(s) + 1) socks;
      let onto = Array.for_all (fun n -> n > 0) sizes in
      let near_equal =
        let mn = Array.fold_left min max_int sizes
        and mx = Array.fold_left max 0 sizes in
        mx - mn <= 1
      in
      in_range && monotone && onto && near_equal)

let test_machine_hop_cost_split =
  QCheck.Test.make
    ~name:"hop_cost_of pays remote_hop_cost exactly across sockets"
    ~count:300 topo_gen (fun (nprocs, (p, l, s)) ->
      let sockets = 1 + (s mod nprocs) in
      let m =
        Pqsim.Machine.make ~nprocs ~sockets ~hop_cost:1 ~remote_hop_cost:7 ()
      in
      let p = p mod nprocs in
      let expected =
        if Pqsim.Machine.same_socket m ~proc:p ~line:l then 1 else 7
      in
      Pqsim.Machine.hop_cost_of m ~proc:p ~line:l = expected)

(* ------------------------------------------------------------------ *)
(* Evq *)

let test_evq_order () =
  let q = Pqsim.Evq.create () in
  let out = ref [] in
  Pqsim.Evq.push q ~time:5 (fun () -> out := 5 :: !out);
  Pqsim.Evq.push q ~time:1 (fun () -> out := 1 :: !out);
  Pqsim.Evq.push q ~time:3 (fun () -> out := 3 :: !out);
  let rec drain () =
    match Pqsim.Evq.pop q with
    | None -> ()
    | Some e ->
        e.Pqsim.Evq.run ();
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !out)

let test_evq_fifo_ties () =
  let q = Pqsim.Evq.create () in
  let out = ref [] in
  for i = 0 to 9 do
    Pqsim.Evq.push q ~time:7 (fun () -> out := i :: !out)
  done;
  let rec drain () =
    match Pqsim.Evq.pop q with
    | None -> ()
    | Some e ->
        e.Pqsim.Evq.run ();
        drain ()
  in
  drain ();
  Alcotest.(check (list int))
    "fifo on equal time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_evq_random_order =
  QCheck.Test.make ~name:"evq pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqsim.Evq.create () in
      List.iter (fun t -> Pqsim.Evq.push q ~time:t ignore) times;
      let rec drain last =
        match Pqsim.Evq.pop q with
        | None -> true
        | Some e ->
            let t = e.Pqsim.Evq.time in
            t >= last && drain t
      in
      drain min_int)

let test_evq_model =
  (* the non-allocating pop_exn/drain path (what Sim.run uses) against a
     reference sorted-list model under interleaved pushes and pops; the
     total order is (time, weight, seq) ascending, seq = push order *)
  QCheck.Test.make ~name:"evq pop_exn/drain matches sorted-list model"
    ~count:300
    QCheck.(list (pair bool (pair (int_bound 50) (int_bound 3))))
    (fun script ->
      let q = Pqsim.Evq.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_pop, (time, weight)) ->
          if is_pop then
            match (!model, Pqsim.Evq.is_empty q) with
            | [], true -> (
                match Pqsim.Evq.pop_exn q with
                | _ -> ok := false
                | exception Pqsim.Evq.Empty -> ())
            | [], false | _ :: _, true -> ok := false
            | m :: rest, false ->
                model := rest;
                let e = Pqsim.Evq.pop_exn q in
                if (e.Pqsim.Evq.time, e.Pqsim.Evq.weight, e.Pqsim.Evq.seq) <> m
                then ok := false
          else begin
            Pqsim.Evq.push q ~time ~weight ignore;
            model := List.merge compare !model [ (time, weight, !seq) ];
            incr seq
          end)
        script;
      let rest = ref [] in
      Pqsim.Evq.drain q (fun e ->
          rest := (e.Pqsim.Evq.time, e.Pqsim.Evq.weight, e.Pqsim.Evq.seq) :: !rest);
      !ok && List.rev !rest = !model)

let test_evq_total_stable_order =
  (* the engine's determinism rests on this total order: (time, weight)
     ascending, push order breaking exact ties *)
  QCheck.Test.make ~name:"evq order is total and stable" ~count:200
    QCheck.(list (pair (int_bound 50) (int_bound 3)))
    (fun events ->
      let q = Pqsim.Evq.create () in
      let out = ref [] in
      List.iteri
        (fun seq (time, weight) ->
          Pqsim.Evq.push q ~time ~weight (fun () ->
              out := (time, weight, seq) :: !out))
        events;
      let rec drain () =
        match Pqsim.Evq.pop q with
        | None -> ()
        | Some e ->
            e.Pqsim.Evq.run ();
            drain ()
      in
      drain ();
      let popped = List.rev !out in
      List.length popped = List.length events
      && popped = List.sort compare popped)

(* the original binary-heap Evq, kept verbatim as the reference model
   for the ladder queue: same (time, weight, seq) total order, seq
   assigned in push order *)
module Heap_ref = struct
  type event = { time : int; weight : int; seq : int }

  type t = {
    mutable heap : event array;
    mutable size : int;
    mutable next_seq : int;
  }

  let dummy = { time = 0; weight = 0; seq = 0 }
  let create () = { heap = Array.make 256 dummy; size = 0; next_seq = 0 }
  let is_empty t = t.size = 0

  let before a b =
    a.time < b.time
    || (a.time = b.time
       && (a.weight < b.weight || (a.weight = b.weight && a.seq < b.seq)))

  let grow t =
    let heap = Array.make (2 * Array.length t.heap) dummy in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap

  let push t ~time ~weight =
    if t.size = Array.length t.heap then grow t;
    let e = { time; weight; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    let rec up i =
      if i = 0 then t.heap.(0) <- e
      else
        let parent = (i - 1) / 2 in
        if before e t.heap.(parent) then begin
          t.heap.(i) <- t.heap.(parent);
          up parent
        end
        else t.heap.(i) <- e
    in
    t.size <- t.size + 1;
    up (t.size - 1)

  let pop_exn t =
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    t.heap.(t.size) <- dummy;
    if t.size > 0 then begin
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest = ref i in
        if l < t.size && before t.heap.(l) last then smallest := l;
        if
          r < t.size
          && before t.heap.(r) (if !smallest = i then last else t.heap.(l))
        then smallest := r;
        if !smallest = i then t.heap.(i) <- last
        else begin
          t.heap.(i) <- t.heap.(!smallest);
          down !smallest
        end
      in
      down 0
    end;
    top
end

(* scripts that stress the ladder where it differs from a heap: times
   clustered at rung (window) boundaries so refills and wraparound
   trigger, adversarial same-time/same-weight batches, and occasional
   past-time pushes (the engine never issues these; QCheck does) *)
let ladder_script_gen =
  QCheck.Gen.(
    let rung = 4096 in
    let time_gen base =
      frequency
        [
          (4, map (fun d -> base + d) (int_bound 200));
          (* same-cycle batches *)
          (2, return (base + 100));
          (* just below / at / above a rung boundary *)
          (2, map (fun d -> ((base / rung) + 1) * rung + d - 2) (int_bound 4));
          (* far future: next rung and far beyond the window *)
          (1, map (fun d -> base + rung + d) (int_bound 200));
          (1, map (fun d -> base + (3 * rung) + d) (int_bound 10_000));
          (* the past (clamped to the cursor by the ladder) *)
          (1, map (fun d -> max 0 (base - d)) (int_bound 5000));
        ]
    in
    let op base =
      frequency
        [
          ( 3,
            map2
              (fun t w -> `Push (t, w))
              (time_gen base)
              (frequency [ (3, return 0); (1, int_bound 3) ]) );
          (2, return `Pop);
          (1, return `Drain_some);
        ]
    in
    sized (fun n ->
        let n = min n 400 in
        let rec go i base acc =
          if i = 0 then return (List.rev acc)
          else
            op base >>= fun o ->
            let base =
              match o with `Push (t, _) -> max base (t / 2) | _ -> base + 37
            in
            go (i - 1) base (o :: acc)
        in
        go n 0 []))

let ladder_script_arb =
  QCheck.make ~print:(fun script ->
      String.concat ";"
        (List.map
           (function
             | `Push (t, w) -> Printf.sprintf "push %d w%d" t w
             | `Pop -> "pop"
             | `Drain_some -> "drain3")
           script))
    ladder_script_gen

let test_evq_ladder_vs_heap =
  QCheck.Test.make ~name:"evq ladder matches old binary heap" ~count:400
    ladder_script_arb (fun script ->
      let q = Pqsim.Evq.create () in
      let h = Heap_ref.create () in
      let ok = ref true in
      let pop_both () =
        match Pqsim.Evq.is_empty q, Heap_ref.is_empty h with
        | true, true -> ()
        | false, false ->
            let e = Pqsim.Evq.pop_exn q in
            let m = Heap_ref.pop_exn h in
            if
              (e.Pqsim.Evq.time, e.Pqsim.Evq.weight, e.Pqsim.Evq.seq)
              <> (m.Heap_ref.time, m.Heap_ref.weight, m.Heap_ref.seq)
            then ok := false
        | _ -> ok := false
      in
      List.iter
        (function
          | `Push (time, weight) ->
              Pqsim.Evq.push q ~time ~weight ignore;
              Heap_ref.push h ~time ~weight
          | `Pop -> pop_both ()
          | `Drain_some ->
              for _ = 1 to 3 do
                pop_both ()
              done)
        script;
      while not (Pqsim.Evq.is_empty q && Heap_ref.is_empty h) do
        pop_both ()
      done;
      !ok)

let test_evq_rung_rollover () =
  (* deterministic epoch-rollover case: events straddling several
     multiples of the 4096-tick rung, plus far-future outliers that must
     migrate from the backing heap into later windows *)
  let q = Pqsim.Evq.create () in
  let times =
    [ 4095; 4096; 4097; 0; 1; 8191; 8192; 8193; 123_456; 12_288; 4095; 2 ]
  in
  List.iter (fun time -> Pqsim.Evq.push q ~time ignore) times;
  let out = ref [] in
  Pqsim.Evq.drain q (fun e -> out := e.Pqsim.Evq.time :: !out);
  Alcotest.(check (list int))
    "rollover order" (List.sort compare times) (List.rev !out)

let test_evq_seq_monotone_recycle () =
  (* regression: arena recycling must not disturb [next_seq] — a record
     reused from the freelist still gets a fresh, strictly larger seq,
     so same-(time, weight) batches pushed after heavy recycling still
     pop in push order *)
  let q = Pqsim.Evq.create () in
  let last_seq = ref (-1) in
  let ok = ref true in
  for round = 0 to 99 do
    for _ = 0 to 9 do
      (* same time, same weight: only seq orders these *)
      Pqsim.Evq.push q ~time:(round * 17) ignore
    done;
    for _ = 0 to 9 do
      let e = Pqsim.Evq.pop_exn q in
      if e.Pqsim.Evq.seq <= !last_seq then ok := false;
      last_seq := e.Pqsim.Evq.seq
    done
  done;
  Alcotest.(check bool) "seq strictly increases across recycling" true !ok;
  Alcotest.(check int) "all events popped" 0 (Pqsim.Evq.length q);
  Alcotest.(check int) "pop counter" 1000 (Pqsim.Evq.pops q)

(* ------------------------------------------------------------------ *)
(* Mem (host-side behaviour) *)

let mk_mem nprocs = Pqsim.Mem.create (Pqsim.Machine.make ~nprocs ())

let test_mem_alloc_disjoint () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 10 and b = Pqsim.Mem.alloc m 10 in
  check_bool "null excluded" true (a > 0);
  check_bool "disjoint" true (b >= a + 10)

let test_mem_read_write () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1 = Pqsim.Mem.write m ~proc:0 ~now:0 a 42 in
  let t2, v = Pqsim.Mem.read m ~proc:1 ~now:t1 a in
  check_int "value" 42 v;
  check_bool "time advances" true (t2 > t1)

let test_mem_cache_hit_cheaper () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1, _ = Pqsim.Mem.read m ~proc:0 ~now:0 a in
  let t2, _ = Pqsim.Mem.read m ~proc:0 ~now:t1 a in
  check_bool "second read cheaper" true (t2 - t1 < t1)

let test_mem_write_invalidates () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1, _ = Pqsim.Mem.read m ~proc:0 ~now:0 a in
  let hit_cost =
    let t2, _ = Pqsim.Mem.read m ~proc:0 ~now:t1 a in
    t2 - t1
  in
  let t3 = Pqsim.Mem.write m ~proc:1 ~now:0 a 5 in
  let t4, v = Pqsim.Mem.read m ~proc:0 ~now:t3 a in
  check_int "sees new value" 5 v;
  check_bool "invalidated: read is a miss" true (t4 - t3 > hit_cost)

let test_mem_contention_serializes () =
  let m = mk_mem 16 in
  let a = Pqsim.Mem.alloc m 1 in
  (* many atomics issued at the same cycle must finish at distinct,
     increasing times *)
  let times =
    List.init 8 (fun p ->
        let t, _ = Pqsim.Mem.faa m ~proc:p ~now:0 a 1 in
        t)
  in
  let sorted = List.sort_uniq compare times in
  check_int "distinct completion times" 8 (List.length sorted);
  check_int "all increments applied" 8 (Pqsim.Mem.peek m a)

let test_mem_cas_semantics () =
  let m = mk_mem 2 in
  let a = Pqsim.Mem.alloc m 1 in
  Pqsim.Mem.poke m a 10;
  let _, ok1 = Pqsim.Mem.cas m ~proc:0 ~now:0 a ~expected:10 ~desired:11 in
  let _, ok2 = Pqsim.Mem.cas m ~proc:0 ~now:0 a ~expected:10 ~desired:12 in
  check_bool "first cas wins" true ok1;
  check_bool "second cas fails" false ok2;
  check_int "final value" 11 (Pqsim.Mem.peek m a)

let test_mem_swap () =
  let m = mk_mem 2 in
  let a = Pqsim.Mem.alloc m 1 in
  Pqsim.Mem.poke m a 3;
  let _, old = Pqsim.Mem.swap m ~proc:0 ~now:0 a 9 in
  check_int "old" 3 old;
  check_int "new" 9 (Pqsim.Mem.peek m a)

(* ------------------------------------------------------------------ *)
(* Sim engine *)

let test_sim_counter_race () =
  (* n processors each fetch-and-add 100 times: total must be exact *)
  let nprocs = 16 in
  let counter, result =
    Pqsim.Sim.run ~nprocs
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
      ~program:(fun counter _pid ->
        for _ = 1 to 100 do
          ignore (Pqsim.Api.faa counter 1)
        done)
      ()
  in
  check_int "exact count" (nprocs * 100) (Pqsim.Mem.peek result.mem counter)

let test_sim_cas_lock_mutual_exclusion () =
  (* naive CAS spin lock protecting a non-atomic counter: increments via
     read+write inside the lock must not be lost *)
  let nprocs = 8 and iters = 50 in
  let (lock, data), result =
    Pqsim.Sim.run ~nprocs
      ~setup:(fun mem -> (Pqsim.Mem.alloc mem 1, Pqsim.Mem.alloc mem 1))
      ~program:(fun (lock, data) _pid ->
        for _ = 1 to iters do
          let rec acquire () =
            if not (Pqsim.Api.cas lock ~expected:0 ~desired:1) then begin
              ignore (Pqsim.Api.wait_change lock 1);
              acquire ()
            end
          in
          acquire ();
          let v = Pqsim.Api.read data in
          Pqsim.Api.work 3;
          Pqsim.Api.write data (v + 1);
          Pqsim.Api.write lock 0
        done)
      ()
  in
  ignore lock;
  check_int "no lost updates" (nprocs * iters) (Pqsim.Mem.peek result.mem data)

let test_sim_deterministic () =
  let run () =
    let _, r =
      Pqsim.Sim.run ~nprocs:8 ~seed:99
        ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
        ~program:(fun c _ ->
          for _ = 1 to 50 do
            Pqsim.Api.work (Pqsim.Api.rand 10);
            ignore (Pqsim.Api.faa c 1)
          done)
        ()
    in
    r.cycles
  in
  check_int "same cycles for same seed" (run ()) (run ())

let test_sim_seed_changes_schedule () =
  let run seed =
    let _, r =
      Pqsim.Sim.run ~nprocs:8 ~seed
        ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
        ~program:(fun c _ ->
          for _ = 1 to 50 do
            Pqsim.Api.work (Pqsim.Api.rand 50);
            ignore (Pqsim.Api.faa c 1)
          done)
        ()
    in
    r.cycles
  in
  check_bool "different seeds differ" true (run 1 <> run 2)

let test_sim_wait_change_wakes () =
  let _, result =
    Pqsim.Sim.run ~nprocs:2
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
      ~program:(fun flag pid ->
        if pid = 0 then begin
          Pqsim.Api.work 500;
          Pqsim.Api.write flag 1
        end
        else begin
          let v = Pqsim.Api.wait_change flag 0 in
          assert (v = 1)
        end)
      ()
  in
  check_bool "finished after signal" true (result.cycles >= 500)

let test_sim_deadlock_detected () =
  let raised =
    try
      ignore
        (Pqsim.Sim.run ~nprocs:1
           ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
           ~program:(fun flag _ -> ignore (Pqsim.Api.wait_change flag 0))
           ());
      false
    with Pqsim.Sim.Deadlock _ -> true
  in
  check_bool "deadlock raised" true raised

let test_sim_work_accumulates () =
  let _, result =
    Pqsim.Sim.run ~nprocs:1
      ~setup:(fun _ -> ())
      ~program:(fun () _ ->
        for _ = 1 to 10 do
          Pqsim.Api.work 7
        done)
      ()
  in
  check_int "10 * 7 cycles" 70 result.cycles

let test_sim_stats_recorded () =
  let _, result =
    Pqsim.Sim.run ~nprocs:4
      ~setup:(fun _ -> ())
      ~program:(fun () _ ->
        Pqsim.Api.timed "op" (fun () -> Pqsim.Api.work 10))
      ()
  in
  check_int "4 samples" 4 (Pqsim.Stats.count result.stats "op");
  Alcotest.(check (float 0.01)) "mean is 10" 10.0
    (Pqsim.Stats.mean result.stats "op")

let test_sim_hot_line_slower_than_spread () =
  (* contention sanity: 64 procs hammering one word must take longer than
     64 procs each hammering a private word *)
  let run shared =
    let _, r =
      Pqsim.Sim.run ~nprocs:64
        ~setup:(fun mem -> Pqsim.Mem.alloc mem 64)
        ~program:(fun base pid ->
          let addr = if shared then base else base + pid in
          for _ = 1 to 50 do
            ignore (Pqsim.Api.faa addr 1)
          done)
        ()
    in
    r.cycles
  in
  check_bool "hot spot is slower" true (run true > 2 * run false)

(* ------------------------------------------------------------------ *)
(* Direct-call queries: the running processor's context slot *)

let raises_unhandled f =
  match f () with _ -> false | exception Effect.Unhandled _ -> true

let test_queries_outside_run () =
  let outside what =
    check_bool (what ^ ": now") true (raises_unhandled Pqsim.Api.now);
    check_bool (what ^ ": self") true (raises_unhandled Pqsim.Api.self);
    check_bool (what ^ ": rand") true
      (raises_unhandled (fun () -> Pqsim.Api.rand 4))
  in
  outside "before any run";
  ignore
    (Pqsim.Sim.run ~nprocs:2
       ~setup:(fun _ -> ())
       ~program:(fun () _ -> Pqsim.Api.work (1 + Pqsim.Api.rand 9))
       ());
  outside "after a run";
  (try
     ignore
       (Pqsim.Sim.run ~nprocs:1
          ~setup:(fun mem -> Pqsim.Mem.alloc mem 1)
          ~program:(fun a _ -> ignore (Pqsim.Api.wait_change a 0))
          ())
   with Pqsim.Sim.Deadlock _ -> ());
  outside "after a run that raised"

(* Each processor logs (self, now, a fresh draw) three times; with [nest]
   a whole inner simulation runs inside one processor's step between
   draws.  The inner run must hand back the outer processor's identity,
   clock and random stream exactly as it found them. *)
let outer_log ~nest =
  let log = Array.make 4 [] in
  ignore
    (Pqsim.Sim.run ~nprocs:4 ~seed:21
       ~setup:(fun _ -> ())
       ~program:(fun () pid ->
         for i = 1 to 3 do
           Pqsim.Api.work (1 + Pqsim.Api.rand 10);
           if nest && pid = i then begin
             let _, inner =
               Pqsim.Sim.run ~nprocs:3 ~seed:5
                 ~setup:(fun _ -> ())
                 ~program:(fun () q ->
                   Pqsim.Api.work (100 * (q + 1) + Pqsim.Api.rand 7))
                 ()
             in
             assert (inner.Pqsim.Sim.cycles >= 300)
           end;
           log.(pid) <-
             (Pqsim.Api.self (), Pqsim.Api.now (), Pqsim.Api.rand 1000)
             :: log.(pid)
         done)
       ());
  log

let test_nested_run_restores_context () =
  let flat = outer_log ~nest:false and nested = outer_log ~nest:true in
  Array.iteri
    (fun pid entries ->
      List.iter (fun (s, _, _) -> check_int "self after nesting" pid s) entries)
    nested;
  check_bool "clocks and draws unchanged by the inner runs" true
    (flat = nested)

let test_pool_jobs_identical () =
  let points =
    [ ("FunnelTree", 16, 1); ("LinearFunnels", 16, 2); ("SimpleTree", 8, 3);
      ("FunnelTree", 32, 4); ("SimpleLinear", 16, 5) ]
  in
  let run (queue, nprocs, seed) =
    let r =
      Pqbenchlib.Workload.run
        {
          (Pqbenchlib.Workload.spec ~queue ~nprocs ~npriorities:16) with
          seed;
          ops_per_proc = 20;
        }
    in
    (r.cycles, r.latency_all, r.empty_deletes)
  in
  check_bool "--jobs 4 = --jobs 1" true
    (Pqbenchlib.Pool.map ~jobs:1 run points
    = Pqbenchlib.Pool.map ~jobs:4 run points)

(* the probe's annotation stream for one probed run: every Mark and Span
   from the sink and every note, with processor and timestamp *)
let annotation_digest queue =
  let buf = Buffer.create 4096 in
  let sink =
    {
      Pqsim.Probe.emit =
        (fun ~proc ~time ev ->
          match ev with
          | Pqsim.Probe.Mark { name; arg } ->
              Printf.bprintf buf "M %d %d %s %d\n" proc time name arg
          | Pqsim.Probe.Span { name; start } ->
              Printf.bprintf buf "S %d %d %s %d\n" proc time name start
          | _ -> ());
    }
  in
  let notes =
    {
      Pqsim.Probe.note =
        (fun ~proc ~time ~tag ~a ~b ->
          Printf.bprintf buf "N %d %d %d %d %d\n" proc time tag a b);
    }
  in
  let probe =
    Pqsim.Probe.make ~sink ~notes ~metrics:(Pqsim.Stats.create ()) ()
  in
  ignore
    (Pqbenchlib.Workload.run ~probe
       {
         (Pqbenchlib.Workload.spec ~queue ~nprocs:16 ~npriorities:8) with
         seed = 3;
       });
  Pqtrace.Sha256.digest_string (Buffer.contents buf)

(* digests of the streams the effect-based queries produced, recorded
   with the engine that performed them *)
let test_annotation_stream_pinned () =
  List.iter
    (fun (queue, want) ->
      Alcotest.(check string) queue want (annotation_digest queue))
    [
      ("FunnelTree",
       "487c09b84fb748fef41ad706257e1d0fad8b948a71c05ec87713a3d2f889b6aa");
      ("LinearFunnelsHybrid",
       "bb2e349e0cb03759df08163bb23f69037613295e07b3de8bdd6fbdffbb35d9bb");
      ("SimpleTree",
       "036d4829fbf0df0412b5cc158f553b1137044a375871682c2c05f3976be18c61");
    ]

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Pqsim.Stats.create () in
  List.iter (Pqsim.Stats.record s "x") [ 1; 2; 3; 4; 5 ];
  match Pqsim.Stats.summary s "x" with
  | None -> Alcotest.fail "expected summary"
  | Some sum ->
      check_int "count" 5 sum.count;
      check_int "min" 1 sum.min;
      check_int "max" 5 sum.max;
      check_int "p50" 3 sum.p50

let test_stats_merge_mean () =
  let s = Pqsim.Stats.create () in
  Pqsim.Stats.record s "a" 10;
  Pqsim.Stats.record s "b" 20;
  Alcotest.(check (float 0.01)) "merge" 15.0
    (Pqsim.Stats.merge_mean s [ "a"; "b" ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pqsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "splitmix64 known answers" `Quick
            test_rng_known_answers;
        ] );
      ( "machine",
        [
          Alcotest.test_case "hops" `Quick test_machine_hops;
          Alcotest.test_case "mesh width" `Quick test_machine_width;
        ] );
      qsuite "machine-props"
        [
          test_machine_hops_symmetric;
          test_machine_hops_triangle;
          test_machine_default_is_flat_mesh;
          test_machine_socket_partition;
          test_machine_hop_cost_split;
        ];
      ( "evq",
        [
          Alcotest.test_case "time order" `Quick test_evq_order;
          Alcotest.test_case "fifo ties" `Quick test_evq_fifo_ties;
          Alcotest.test_case "rung rollover" `Quick test_evq_rung_rollover;
          Alcotest.test_case "seq monotone across recycling" `Quick
            test_evq_seq_monotone_recycle;
        ] );
      qsuite "evq-props"
        [
          test_evq_random_order;
          test_evq_total_stable_order;
          test_evq_model;
          test_evq_ladder_vs_heap;
        ];
      ( "mem",
        [
          Alcotest.test_case "alloc disjoint" `Quick test_mem_alloc_disjoint;
          Alcotest.test_case "read write" `Quick test_mem_read_write;
          Alcotest.test_case "cache hit cheaper" `Quick
            test_mem_cache_hit_cheaper;
          Alcotest.test_case "write invalidates" `Quick
            test_mem_write_invalidates;
          Alcotest.test_case "contention serializes" `Quick
            test_mem_contention_serializes;
          Alcotest.test_case "cas semantics" `Quick test_mem_cas_semantics;
          Alcotest.test_case "swap" `Quick test_mem_swap;
        ] );
      ( "sim",
        [
          Alcotest.test_case "counter race exact" `Quick test_sim_counter_race;
          Alcotest.test_case "cas lock mutual exclusion" `Quick
            test_sim_cas_lock_mutual_exclusion;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "seed changes schedule" `Quick
            test_sim_seed_changes_schedule;
          Alcotest.test_case "wait_change wakes" `Quick
            test_sim_wait_change_wakes;
          Alcotest.test_case "deadlock detected" `Quick
            test_sim_deadlock_detected;
          Alcotest.test_case "work accumulates" `Quick test_sim_work_accumulates;
          Alcotest.test_case "stats recorded" `Quick test_sim_stats_recorded;
          Alcotest.test_case "hot line slower" `Quick
            test_sim_hot_line_slower_than_spread;
        ] );
      ( "context",
        [
          Alcotest.test_case "queries outside a run are unhandled" `Quick
            test_queries_outside_run;
          Alcotest.test_case "nested run restores the outer context" `Quick
            test_nested_run_restores_context;
          Alcotest.test_case "pool jobs 4 = jobs 1" `Quick
            test_pool_jobs_identical;
          Alcotest.test_case "annotation stream pinned" `Quick
            test_annotation_stream_pinned;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "merge mean" `Quick test_stats_merge_mean;
        ] );
    ]

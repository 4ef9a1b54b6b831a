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

(* events are keyed by processor: each test gives every pending event
   its own pid *)
let evq_push q ?(kind = Pqsim.Evq.Resume) ?(weight = 0) ?(v = 0) ~pid time =
  Pqsim.Evq.push q ~kind ~time ~weight ~pid ~v

(* pop every pending event, in order, as (time, weight, seq, pid) *)
let evq_drain q =
  let rec go acc =
    if Pqsim.Evq.is_empty q then List.rev acc
    else
      let e = Pqsim.Evq.pop_exn q in
      go Pqsim.Evq.((e.time, e.weight, e.seq, e.pid) :: acc)
  in
  go []

let test_evq_order () =
  let q = Pqsim.Evq.create () in
  evq_push q ~pid:0 5;
  evq_push q ~pid:1 1;
  evq_push q ~pid:2 3;
  check_bool "reset refuses a queue with events pending" true
    (match Pqsim.Evq.reset q with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (list int))
    "time order" [ 1; 2; 0 ]
    (List.map (fun (_, _, _, pid) -> pid) (evq_drain q))

let test_evq_fifo_ties () =
  let q = Pqsim.Evq.create () in
  for pid = 0 to 9 do
    evq_push q ~pid 7
  done;
  Alcotest.(check (list int))
    "fifo on equal time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, _, pid) -> pid) (evq_drain q))

let test_evq_one_pending_per_pid () =
  (* the engine keeps at most one pending event per processor; the
     queue enforces it *)
  let q = Pqsim.Evq.create () in
  let raises f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  evq_push q ~pid:3 10;
  check_bool "second pending event for a pid raises" true
    (raises (fun () -> evq_push q ~kind:Pqsim.Evq.Check ~pid:3 20));
  check_bool "negative pid raises" true (raises (fun () -> evq_push q ~pid:(-1) 5));
  Alcotest.(check (list (pair int int)))
    "the refused pushes left the first event alone" [ (10, 3) ]
    (List.map (fun (t, _, _, pid) -> (t, pid)) (evq_drain q));
  evq_push q ~pid:3 30;
  Alcotest.(check (list (pair int int)))
    "a popped pid takes its next event" [ (30, 3) ]
    (List.map (fun (t, _, _, pid) -> (t, pid)) (evq_drain q))

let test_evq_random_order =
  QCheck.Test.make ~name:"evq pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqsim.Evq.create () in
      List.iteri (fun pid t -> evq_push q ~pid t) times;
      let rec sorted last = function
        | [] -> true
        | (t, _, _, _) :: rest -> t >= last && sorted t rest
      in
      let popped = evq_drain q in
      List.length popped = List.length times && sorted min_int popped)

let test_evq_model =
  (* the non-allocating pop_exn path (what Sim.run uses) against a
     reference sorted-list model under interleaved pushes and pops; the
     total order is (time, weight, seq) ascending, seq = push order.
     Each push takes a fresh pid, so it must come back with its event *)
  QCheck.Test.make ~name:"evq pop_exn matches sorted-list model"
    ~count:300
    QCheck.(list (pair bool (pair (int_bound 50) (int_bound 3))))
    (fun script ->
      let q = Pqsim.Evq.create () in
      (* the same script twice on one queue, reset in between: a reset
         queue must behave like a fresh one, seq restarting at 0 *)
      let pass () =
        let model = ref [] in
        let seq = ref 0 in
        let ok = ref true in
        List.iter
          (fun (is_pop, (time, weight)) ->
            if is_pop then begin
              match (!model, Pqsim.Evq.is_empty q) with
              | [], true -> (
                  match Pqsim.Evq.pop_exn q with
                  | _ -> ok := false
                  | exception Pqsim.Evq.Empty -> ())
              | [], false | _ :: _, true -> ok := false
              | m :: rest, false ->
                  model := rest;
                  let e = Pqsim.Evq.pop_exn q in
                  if Pqsim.Evq.(e.time, e.weight, e.seq, e.pid) <> m then
                    ok := false
            end
            else begin
              evq_push q ~weight ~pid:!seq time;
              model := List.merge compare !model [ (time, weight, !seq, !seq) ];
              incr seq
            end)
          script;
        !ok && evq_drain q = !model
      in
      pass ()
      &&
      (Pqsim.Evq.reset q;
       Pqsim.Evq.pops q = 0 && pass ()))

let test_evq_total_stable_order =
  (* the engine's determinism rests on this total order: (time, weight)
     ascending, push order breaking exact ties *)
  QCheck.Test.make ~name:"evq order is total and stable" ~count:200
    QCheck.(list (pair (int_bound 50) (int_bound 3)))
    (fun events ->
      let q = Pqsim.Evq.create () in
      List.iteri (fun pid (time, weight) -> evq_push q ~weight ~pid time) events;
      let popped = List.map (fun (t, w, _, pid) -> (t, w, pid)) (evq_drain q) in
      List.length popped = List.length events
      && popped = List.sort compare popped)

(* the original binary-heap Evq, kept as the reference model for the
   ladder queue: same (time, weight, seq) total order, seq assigned in
   push order; an event carries its pid and value as payload *)
module Heap_ref = struct
  type event = { time : int; weight : int; seq : int; pid : int; v : int }

  type t = {
    mutable heap : event array;
    mutable size : int;
    mutable next_seq : int;
  }

  let dummy = { time = 0; weight = 0; seq = 0; pid = -1; v = 0 }
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

  let push t ~time ~weight ~pid ~v =
    if t.size = Array.length t.heap then grow t;
    let e = { time; weight; seq = t.next_seq; pid; v } in
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
  (* the engine's shape of stream: at most one pending event per pid, a
     popped pid pushing again soon after (pids recycle LIFO, as a
     processor rescheduling itself does), checks and resumes mixed *)
  QCheck.Test.make ~name:"evq ladder matches old binary heap" ~count:400
    ladder_script_arb (fun script ->
      let q = Pqsim.Evq.create () in
      let h = Heap_ref.create () in
      let free = ref (List.init 48 Fun.id) in
      let ok = ref true in
      let pop_both () =
        match Pqsim.Evq.is_empty q, Heap_ref.is_empty h with
        | true, true -> ()
        | false, false ->
            let e = Pqsim.Evq.pop_exn q in
            let m = Heap_ref.pop_exn h in
            let kind =
              if m.Heap_ref.v land 1 = 0 then Pqsim.Evq.Resume
              else Pqsim.Evq.Check
            in
            if
              Pqsim.Evq.(e.time, e.weight, e.seq, e.pid, e.v, e.kind)
              <> Heap_ref.(m.time, m.weight, m.seq, m.pid, m.v, kind)
            then ok := false;
            free := e.Pqsim.Evq.pid :: !free
        | _ -> ok := false
      in
      List.iter
        (function
          | `Push (time, weight) ->
              if !free = [] then pop_both ();
              (match !free with
              | pid :: rest ->
                  free := rest;
                  let v = time + weight in
                  let kind =
                    if v land 1 = 0 then Pqsim.Evq.Resume else Pqsim.Evq.Check
                  in
                  evq_push q ~kind ~weight ~v ~pid time;
                  Heap_ref.push h ~time ~weight ~pid ~v
              | [] -> ok := false)
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
  List.iteri (fun pid time -> evq_push q ~pid time) times;
  Alcotest.(check (list int))
    "rollover order" (List.sort compare times)
    (List.map (fun (t, _, _, _) -> t) (evq_drain q))

let test_evq_seq_monotone_recycle () =
  (* regression: slot reuse must not disturb [next_seq] — a pid that
     pushes again after its pop still gets a fresh, strictly larger seq,
     so same-(time, weight) batches pushed after heavy reuse still pop
     in push order *)
  let q = Pqsim.Evq.create () in
  let last_seq = ref (-1) in
  let ok = ref true in
  for round = 0 to 99 do
    for i = 0 to 9 do
      (* same time, same weight: only seq orders these; the pids go in
         a different order each round *)
      evq_push q ~pid:((i + (3 * round)) mod 10) (round * 17)
    done;
    for i = 0 to 9 do
      let e = Pqsim.Evq.pop_exn q in
      if e.Pqsim.Evq.seq <= !last_seq then ok := false;
      if e.Pqsim.Evq.pid <> (i + (3 * round)) mod 10 then ok := false;
      last_seq := e.Pqsim.Evq.seq
    done
  done;
  Alcotest.(check bool) "seq strictly increases across slot reuse" true !ok;
  check_bool "all events popped" true (Pqsim.Evq.is_empty q);
  Alcotest.(check int) "pop counter" 1000 (Pqsim.Evq.pops q)

let test_evq_arena_growth =
  (* the slot arrays start small and grow to cover the highest pid:
     scripts that keep dozens of events pending, check events and resume
     events mixed, must pop exactly as the sorted-list model says — key,
     pid, kind and value — across every growth *)
  QCheck.Test.make ~name:"evq slot growth, checks and resumes mixed"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(int_range 0 400)
        (triple (int_bound 3) (int_bound 200) (int_bound 3)))
    (fun script ->
      (* forty pushes first: the slots must have grown before the script *)
      let script = List.init 40 (fun i -> (1 + (i mod 2), 5 * i, i mod 3)) @ script in
      let q = Pqsim.Evq.create () in
      let model = ref [] and seq = ref 0 and ok = ref true in
      (* each push takes the lowest pid with no pending event *)
      let busy = Array.make 1000 false in
      let rec free_pid p = if busy.(p) then free_pid (p + 1) else p in
      let pending = ref 0 and peak = ref 0 in
      let check_pop () =
        match !model with
        | [] -> ok := !ok && Pqsim.Evq.is_empty q
        | (key, payload) :: rest ->
            model := rest;
            decr pending;
            let e = Pqsim.Evq.pop_exn q in
            busy.(e.Pqsim.Evq.pid) <- false;
            ok :=
              !ok
              && Pqsim.Evq.((e.time, e.weight, e.seq), (e.pid, e.kind, e.v))
                 = (key, payload)
      in
      List.iter
        (fun (op, time, weight) ->
          if op = 0 then check_pop ()
          else begin
            let pid = free_pid 0 in
            busy.(pid) <- true;
            let kind, weight, v =
              if op = 1 then (Pqsim.Evq.Check, weight, 0)
              else (Pqsim.Evq.Resume, 0, time * 7)
            in
            evq_push q ~kind ~weight ~v ~pid time;
            model := List.merge compare !model [ ((time, weight, !seq), (pid, kind, v)) ];
            incr seq;
            incr pending;
            peak := max !peak !pending
          end)
        script;
      while !model <> [] do
        check_pop ()
      done;
      !ok && Pqsim.Evq.is_empty q && !peak >= 40)

(* ------------------------------------------------------------------ *)
(* Mem (host-side behaviour) *)

let mk_mem nprocs = Pqsim.Mem.create (Pqsim.Machine.make ~nprocs ())

let test_mem_miss_latency_table =
  (* Mem prices a miss from per-run coordinate tables; it must agree
     with the Machine functions it tabulates, on multi-socket machines
     with power-of-two and other module counts and degraded nodes *)
  QCheck.Test.make ~name:"miss latency = node factor x (base + hop cost x hops)"
    ~count:200
    QCheck.(
      pair
        (quad (int_range 1 80) (int_bound 1000) (int_range 1 70) bool)
        (quad (int_bound 5) (int_bound 9) (int_bound 30)
           (list_of_size Gen.(int_bound 4) (pair (int_bound 100) (int_range 1 4)))))
    (fun ((nprocs, s, modules, pow2), (hop, remote, base, degraded)) ->
      let sockets = 1 + (s mod nprocs) in
      let mem_modules =
        if pow2 then 1 lsl (modules mod 7) else modules
      in
      let m =
        Pqsim.Machine.make ~nprocs ~sockets ~mem_modules ~hop_cost:hop
          ~remote_hop_cost:remote ~miss_base:base ()
      in
      let mem = Pqsim.Mem.create m in
      let factor = Array.make mem_modules 1 in
      List.iter
        (fun (node, f) ->
          Pqsim.Mem.degrade_node mem ~node ~factor:f;
          factor.(node mod mem_modules) <- f)
        degraded;
      let ok = ref true in
      for proc = 0 to nprocs - 1 do
        for line = 0 to 2 * mem_modules do
          let expected =
            factor.(Pqsim.Machine.home_module m line)
            * (base
              + Pqsim.Machine.hop_cost_of m ~proc ~line
                * Pqsim.Machine.hops m ~proc ~line)
          in
          if Pqsim.Mem.miss_latency mem ~proc ~addr:line <> expected then
            ok := false
        done
      done;
      !ok)

let test_mem_hot_lines_top_k =
  (* [hot_lines] keeps only the k hottest lines while it scans; it must
     list exactly what a stable sort of every waited line by wait, cut to
     k, lists: hottest first, equal waits by ascending address *)
  QCheck.Test.make ~name:"hot_lines = first k of the sorted wait table"
    ~count:300
    QCheck.(
      pair (int_range (-1) 40)
        (list_of_size Gen.(int_bound 80)
           (triple (int_bound 3) (int_bound 40) (int_bound 6))))
    (fun (k, writes) ->
      let mem = mk_mem 4 in
      let base = Pqsim.Mem.alloc mem 32 in
      (* writes that meet on a line at overlapping times queue behind each
         other: a random wait table, rich in ties *)
      List.iter
        (fun (proc, l, now) ->
          ignore (Pqsim.Mem.write mem ~proc ~now (base + (l mod 32)) 1))
        writes;
      let waited =
        List.init (Pqsim.Mem.words_allocated mem) (fun a ->
            (a, Pqsim.Mem.line_wait mem a))
        |> List.filter (fun (_, w) -> w > 0)
      in
      let sorted =
        List.stable_sort (fun (_, a) (_, b) -> compare b a) waited
        |> List.filteri (fun i _ -> i < k)
      in
      Pqsim.Mem.hot_lines mem k = sorted)

let test_mem_alloc_disjoint () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 10 and b = Pqsim.Mem.alloc m 10 in
  check_bool "null excluded" true (a > 0);
  check_bool "disjoint" true (b >= a + 10)

let test_mem_read_write () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1 = Pqsim.Mem.write m ~proc:0 ~now:0 a 42 in
  let t2 = Pqsim.Mem.read_t m ~proc:1 ~now:t1 a in
  check_int "value" 42 (Pqsim.Mem.out m);
  check_bool "time advances" true (t2 > t1)

let test_mem_cache_hit_cheaper () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1 = Pqsim.Mem.read_t m ~proc:0 ~now:0 a in
  let t2 = Pqsim.Mem.read_t m ~proc:0 ~now:t1 a in
  check_bool "second read cheaper" true (t2 - t1 < t1)

let test_mem_write_invalidates () =
  let m = mk_mem 4 in
  let a = Pqsim.Mem.alloc m 1 in
  let t1 = Pqsim.Mem.read_t m ~proc:0 ~now:0 a in
  let hit_cost = Pqsim.Mem.read_t m ~proc:0 ~now:t1 a - t1 in
  let t3 = Pqsim.Mem.write m ~proc:1 ~now:0 a 5 in
  let t4 = Pqsim.Mem.read_t m ~proc:0 ~now:t3 a in
  check_int "sees new value" 5 (Pqsim.Mem.out m);
  check_bool "invalidated: read is a miss" true (t4 - t3 > hit_cost)

let test_mem_contention_serializes () =
  let m = mk_mem 16 in
  let a = Pqsim.Mem.alloc m 1 in
  (* many atomics issued at the same cycle must finish at distinct,
     increasing times *)
  let times =
    List.init 8 (fun p -> Pqsim.Mem.faa_t m ~proc:p ~now:0 a 1)
  in
  let sorted = List.sort_uniq compare times in
  check_int "distinct completion times" 8 (List.length sorted);
  check_int "all increments applied" 8 (Pqsim.Mem.peek m a)

let test_mem_cas_semantics () =
  let m = mk_mem 2 in
  let a = Pqsim.Mem.alloc m 1 in
  Pqsim.Mem.poke m a 10;
  let cas ~desired =
    ignore (Pqsim.Mem.cas_t m ~proc:0 ~now:0 a ~expected:10 ~desired);
    Pqsim.Mem.out m = 1
  in
  check_bool "first cas wins" true (cas ~desired:11);
  check_bool "second cas fails" false (cas ~desired:12);
  check_int "final value" 11 (Pqsim.Mem.peek m a)

let test_mem_swap () =
  let m = mk_mem 2 in
  let a = Pqsim.Mem.alloc m 1 in
  Pqsim.Mem.poke m a 3;
  ignore (Pqsim.Mem.swap_t m ~proc:0 ~now:0 a 9);
  check_int "old" 3 (Pqsim.Mem.out m);
  check_int "new" 9 (Pqsim.Mem.peek m a)

(* Reservation reuse.  A memory's tables go back to the registry when the
   GC finds it dead, and the next [create] takes them: every line the
   dead memory dirtied must read as fresh. *)

let drain_free_reservations machine =
  Gc.full_major ();
  let keep = ref [] in
  while Pqsim.Mem.pooled () > 0 do
    keep := Pqsim.Mem.create machine :: !keep
  done;
  !keep

let test_mem_reuse_reads_fresh () =
  (* 70 processors: a reader set that spills needs a two-word mask block *)
  let nprocs = 70 in
  let machine = Pqsim.Machine.make ~nprocs () in
  let lines = [ 1; 2; 63; 4_096; 77_777; 200_001 ] in
  let keep = drain_free_reservations machine in
  (let m = Pqsim.Mem.create machine in
   Pqsim.Mem.set_probing m true;
   Pqsim.Mem.set_waker m (fun _ _ -> ());
   List.iter
     (fun a ->
       Pqsim.Mem.poke m a 5;
       ignore (Pqsim.Mem.read_t m ~proc:0 ~now:0 a);
       ignore (Pqsim.Mem.read_t m ~proc:65 ~now:0 a);
       ignore (Pqsim.Mem.faa_t m ~proc:1 ~now:0 a 1);
       ignore (Pqsim.Mem.faa_t m ~proc:2 ~now:0 a 1);
       ignore (Pqsim.Mem.read_t m ~proc:3 ~now:0 a);
       ignore (Pqsim.Mem.read_t m ~proc:66 ~now:0 a);
       Pqsim.Mem.watch m ~addr:a ~pid:4;
       Pqsim.Mem.declare_sync m ~addr:a ~len:1;
       check_bool "dirty: queued" true (Pqsim.Mem.line_wait m a > 0);
       check_bool "dirty: last writer" true (Pqsim.Mem.last_writer m a = Some 2);
       check_bool "dirty: traffic" true (Pqsim.Mem.line_traffic m a > 0))
     lines;
   (* a swap, a CAS and a write on lines of their own *)
   ignore (Pqsim.Mem.swap_t m ~proc:5 ~now:0 250_001 9);
   ignore (Pqsim.Mem.cas_t m ~proc:5 ~now:0 250_002 ~expected:0 ~desired:9);
   ignore (Pqsim.Mem.write m ~proc:5 ~now:0 250_003 9));
  Gc.full_major ();
  check_int "the dead memory's reservation is free" 1 (Pqsim.Mem.pooled ());
  let m = Pqsim.Mem.create machine in
  check_int "and the new memory took it" 0 (Pqsim.Mem.pooled ());
  Pqsim.Mem.set_probing m true;
  let woke = ref 0 in
  Pqsim.Mem.set_waker m (fun _ _ -> incr woke);
  List.iter
    (fun a ->
      check_int "value" 0 (Pqsim.Mem.peek m a);
      check_bool "no last writer" true (Pqsim.Mem.last_writer m a = None);
      check_int "no wait" 0 (Pqsim.Mem.line_wait m a);
      check_int "no traffic" 0 (Pqsim.Mem.line_traffic m a);
      check_int "no invalidations" 0 (Pqsim.Mem.line_invalidations m a);
      check_bool "not a sync line" false (Pqsim.Mem.is_sync m a);
      for proc = 0 to nprocs - 1 do
        let before = Pqsim.Mem.misses m in
        ignore (Pqsim.Mem.read_t m ~proc ~now:0 a);
        check_int "first read misses" (before + 1) (Pqsim.Mem.misses m)
      done;
      ignore (Pqsim.Mem.write m ~proc:0 ~now:0 a 1);
      check_int "a write wakes nobody" 0 !woke)
    lines;
  List.iter
    (fun a -> check_int "value" 0 (Pqsim.Mem.peek m a))
    [ 250_001; 250_002; 250_003 ];
  (* a memory that wrote past 2^18 lines is not kept for reuse *)
  (let big = Pqsim.Mem.create machine in
   Pqsim.Mem.poke big (1 lsl 18) 1);
  Gc.full_major ();
  check_int "past 2^18 lines: unmapped, not kept" 0 (Pqsim.Mem.pooled ());
  ignore (Sys.opaque_identity (m, keep))

(* A funnel run ends with reader-mask blocks still in use; a run that
   reuses its reservation must find the block pool as a fresh one has
   it.  B runs once on the reservation of a dead run A, and once on a
   fresh reservation while A's memory is alive. *)
let test_mem_reuse_after_sharing () =
  let run queue =
    Pqbenchlib.Workload.run
      (Pqbenchlib.Workload.spec ~queue ~nprocs:64 ~npriorities:16)
  in
  let observed (r : Pqbenchlib.Workload.result) =
    let m = r.mem in
    Pqsim.Mem.
      [ r.cycles; hits m; misses m; updates m; queue_wait m; r.queue_wait ]
  in
  let keep = drain_free_reservations (Pqsim.Machine.make ~nprocs:64 ()) in
  let a = run "LinearFunnels" in
  let fresh = run "FunnelTree" in
  let fresh_obs = observed fresh in
  ignore (Sys.opaque_identity a);
  Gc.full_major ();
  check_int "A's reservation is the one free" 1 (Pqsim.Mem.pooled ());
  let reused = run "FunnelTree" in
  check_int "and B took it" 0 (Pqsim.Mem.pooled ());
  Alcotest.(check (list int))
    "cycles, hits, misses, updates, queue_wait" fresh_obs (observed reused);
  ignore (Sys.opaque_identity (keep, fresh, reused))

let test_mem_past_reservation () =
  (* every access path names the line and the reservation past the
     bound, instead of Bigarray's bare index error *)
  let m = mk_mem 2 in
  let far = 1 lsl 40 in
  let descriptive what f =
    match f () with
    | _ -> Alcotest.failf "%s past the reservation did not raise" what
    | exception Invalid_argument msg ->
        let mentions s =
          try
            ignore (Str.search_forward (Str.regexp_string s) msg 0);
            true
          with Not_found -> false
        in
        check_bool (what ^ ": " ^ msg) true
          (mentions (string_of_int far) && mentions "reservation")
  in
  descriptive "read" (fun () -> ignore (Pqsim.Mem.read_t m ~proc:0 ~now:0 far));
  descriptive "write" (fun () -> ignore (Pqsim.Mem.write m ~proc:0 ~now:0 far 1));
  descriptive "swap" (fun () -> ignore (Pqsim.Mem.swap_t m ~proc:0 ~now:0 far 1));
  descriptive "cas" (fun () ->
      ignore (Pqsim.Mem.cas_t m ~proc:0 ~now:0 far ~expected:0 ~desired:1));
  descriptive "faa" (fun () -> ignore (Pqsim.Mem.faa_t m ~proc:0 ~now:0 far 1));
  descriptive "watch" (fun () -> Pqsim.Mem.watch m ~addr:far ~pid:0);
  descriptive "poke" (fun () -> Pqsim.Mem.poke m far 1);
  descriptive "peek" (fun () -> ignore (Pqsim.Mem.peek m far));
  descriptive "declare_sync" (fun () -> Pqsim.Mem.declare_sync m ~addr:far ~len:1);
  descriptive "alloc" (fun () ->
      ignore (Pqsim.Mem.alloc m (far + 1 - Pqsim.Mem.words_allocated m)))

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

(* ------------------------------------------------------------------ *)
(* Warm engine: a run reuses its domain's spare event queue and a dead
   memory's reservation; nothing it finds there may show. *)

let test_warm_equals_cold () =
  let run queue =
    let r =
      Pqbenchlib.Workload.run
        {
          (Pqbenchlib.Workload.spec ~queue ~nprocs:16 ~npriorities:16) with
          seed = 11;
          ops_per_proc = 12;
        }
    in
    (r.cycles, r.latency_all, r.queue_wait, Pqsim.Mem.hot_lines r.mem 5)
  in
  List.iter
    (fun (a, b) ->
      let first = run a in
      Gc.full_major ();
      ignore (run b);
      Gc.full_major ();
      check_bool (a ^ " after " ^ b) true (run a = first))
    [ ("SimpleTree", "FunnelTree"); ("SkipList", "LinearFunnels");
      ("MultiQueue", "SingleLock") ]

let small_run () =
  let _, r =
    Pqsim.Sim.run ~nprocs:4 ~seed:3
      ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
      ~program:(fun a pid ->
        for _ = 1 to 5 do
          ignore (Pqsim.Api.faa (a + (pid mod 2)) 1);
          Pqsim.Api.work (Pqsim.Api.rand 5)
        done)
      ()
  in
  (r.cycles, r.events, r.hits, r.misses, r.updates, r.queue_wait)

let test_run_after_raise () =
  (* the cold reference: no spare queue, fresh pages *)
  (Pqsim.Sim.args ()).spare <- [];
  let cold = small_run () in
  (* a deadlock leaves a parked watcher in its memory; a cycle limit
     leaves events in its queue *)
  (try
     ignore
       (Pqsim.Sim.run ~nprocs:1
          ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
          ~program:(fun a _ -> ignore (Pqsim.Api.wait_change (a + 1) 0))
          ())
   with Pqsim.Sim.Deadlock _ -> ());
  Gc.full_major ();
  check_bool "after Deadlock" true (small_run () = cold);
  (try
     ignore
       (Pqsim.Sim.run ~nprocs:4 ~max_cycles:40
          ~setup:(fun mem -> Pqsim.Mem.alloc mem 2)
          ~program:(fun a _ ->
            for _ = 1 to 20 do
              ignore (Pqsim.Api.faa a 1)
            done)
          ())
   with Pqsim.Sim.Cycle_limit _ -> ());
  Gc.full_major ();
  check_bool "after Cycle_limit" true (small_run () = cold)

let test_nested_run_own_queue () =
  (Pqsim.Sim.args ()).spare <- [];
  ignore (outer_log ~nest:true);
  match (Pqsim.Sim.args ()).spare with
  | [ outer; inner ] ->
      check_bool "the inner runs used a queue of their own" true (outer != inner)
  | l -> Alcotest.failf "%d spare queues after a nested run, expected 2" (List.length l)

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

(* a spawn that grants [k] domains, then fails as Domain.spawn does at
   the runtime's domain cap: the map must stop spawning, join every
   helper it was granted and still return every result in item order *)
let test_pool_domain_cap () =
  let items = List.init 50 Fun.id in
  List.iter
    (fun k ->
      let calls = ref 0 and started = ref 0 and joined = Atomic.make 0 in
      let spawn worker =
        incr calls;
        if !started >= k then failwith "failed to allocate domain";
        incr started;
        let d = Domain.spawn worker in
        fun () ->
          Domain.join d;
          Atomic.incr joined
      in
      let got =
        Pqbenchlib.Pool.map_with ~spawn ~jobs:200 (fun i -> i * i) items
      in
      let what = Printf.sprintf "granted %d: " k in
      check_bool (what ^ "results in item order") true
        (got = List.map (fun i -> i * i) items);
      check_int (what ^ "no spawn after the failed one") (k + 1) !calls;
      check_int (what ^ "every helper joined") k (Atomic.get joined))
    [ 0; 2 ]

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
  Sha256.digest_string (Buffer.contents buf)

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

(* Samples are stored in chunks; every query must read as if they were
   one sorted list, for counts on both sides of a chunk edge *)
let test_stats_chunked_model =
  let gen =
    QCheck.Gen.(
      oneofl [ 63; 64; 255; 256; 257; 513; 5_000 ] >>= fun n ->
      pair (list_repeat n (int_range (-3) 70_000)) (float_bound_inclusive 1.0))
  in
  let print (l, p) = Printf.sprintf "%d samples, p = %g" (List.length l) p in
  QCheck.Test.make ~name:"chunked samples = sorted-list model" ~count:40
    (QCheck.make ~print gen) (fun (samples, p) ->
      let s = Pqsim.Stats.create () in
      List.iter (Pqsim.Stats.record s "k") samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let at p = sorted.(int_of_float (p *. float_of_int (n - 1))) in
      let bucket v =
        let rec up b = if b >= v then b else up ((2 * b) + 1) in
        if v <= 0 then 0 else up 1
      in
      let histogram =
        List.fold_left
          (fun acc v ->
            let b = bucket v in
            match List.assoc_opt b acc with
            | Some c -> (b, c + 1) :: List.remove_assoc b acc
            | None -> (b, 1) :: acc)
          [] samples
        |> List.sort compare
      in
      let sum = List.fold_left ( + ) 0 samples in
      Pqsim.Stats.percentile s "k" p = at p
      && Pqsim.Stats.summary s "k"
         = Some
             {
               Pqsim.Stats.key = "k";
               count = n;
               mean = float_of_int sum /. float_of_int n;
               min = sorted.(0);
               max = sorted.(n - 1);
               p50 = at 0.5;
               p95 = at 0.95;
               p99 = at 0.99;
             }
      && Pqsim.Stats.histogram s "k" = histogram)

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
          Alcotest.test_case "one pending event per pid" `Quick
            test_evq_one_pending_per_pid;
        ] );
      qsuite "evq-props"
        [
          test_evq_random_order;
          test_evq_total_stable_order;
          test_evq_model;
          test_evq_ladder_vs_heap;
          test_evq_arena_growth;
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
          Alcotest.test_case "reused reservation reads fresh" `Quick
            test_mem_reuse_reads_fresh;
          Alcotest.test_case "reused reservation after a sharing-heavy run"
            `Quick test_mem_reuse_after_sharing;
          Alcotest.test_case "past the reservation" `Quick
            test_mem_past_reservation;
        ] );
      qsuite "mem-props"
        [ test_mem_miss_latency_table; test_mem_hot_lines_top_k ];
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
          Alcotest.test_case "pool runs with the domains granted" `Quick
            test_pool_domain_cap;
          Alcotest.test_case "annotation stream pinned" `Quick
            test_annotation_stream_pinned;
          Alcotest.test_case "nested run takes its own queue" `Quick
            test_nested_run_own_queue;
          Alcotest.test_case "warm run = cold run" `Quick test_warm_equals_cold;
          Alcotest.test_case "run after a raise = cold run" `Quick
            test_run_after_raise;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "merge mean" `Quick test_stats_merge_mean;
        ] );
      qsuite "stats-props" [ test_stats_chunked_model ];
    ]

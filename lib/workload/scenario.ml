open Pqsim

type phase =
  | Mixed of { ops : int; bias : int }
  | Produce of { ops : int; skew : float }
  | Drain of { ops : int }
  | Hold of { ops : int; lag : int }
  | Idle of { cycles : int }
  | Trickle of { ops : int; bias : int; skew : float; gap : int }

type role = nprocs:int -> pid:int -> ops_per_proc:int -> phase list

type shape =
  | Phased of role
  | Sssp of { nodes : int }

type t = { name : string; descr : string; prefill_per_proc : int; shape : shape }

let name t = t.name
let descr t = t.descr
let sim_only t = match t.shape with Sssp _ -> true | Phased _ -> false

(* ---- built-in scenarios ---------------------------------------- *)

let coinflip =
  {
    name = "coinflip";
    descr = "the paper's benchmark: 50/50 insert/delete_min, uniform priorities";
    prefill_per_proc = 0;
    shape =
      Phased
        (fun ~nprocs:_ ~pid:_ ~ops_per_proc ->
          [ Mixed { ops = ops_per_proc; bias = 50 } ]);
  }

let hold =
  {
    name = "hold";
    descr =
      "DES hold model: delete_min then reinsert at popped priority + random lag";
    prefill_per_proc = 4;
    shape =
      Phased
        (fun ~nprocs:_ ~pid:_ ~ops_per_proc ->
          [ Hold { ops = ops_per_proc; lag = 6 } ]);
  }

let burst =
  {
    name = "burst";
    descr =
      "bursty producers (Zipf-skewed priorities) vs delete-heavy consumers, \
       ending in a drain storm";
    prefill_per_proc = 0;
    shape =
      Phased
        (fun ~nprocs ~pid ~ops_per_proc ->
          let producers = max 1 (nprocs / 2) in
          if pid < producers then
            [
              Produce { ops = 3 * ops_per_proc / 4; skew = 1.1 };
              Drain { ops = ops_per_proc / 4 };
            ]
          else
            [
              Mixed { ops = ops_per_proc / 2; bias = 30 };
              Drain { ops = (ops_per_proc + 1) / 2 };
            ]);
  }

let sssp ?(nodes = 24) () =
  {
    name = "sssp";
    descr =
      Printf.sprintf
        "concurrent Dijkstra over a seeded random graph (%d nodes, ~degree \
         %d); safety = distances equal the sequential reference"
        nodes Graph.degree;
    prefill_per_proc = 0;
    shape = Sssp { nodes };
  }

(* out-of-catalogue construction: subsystems (pqadapt's phase-shifted
   workload) compose their own phased scenarios without widening [all] —
   and thus without widening the chaos matrix or its golden outputs *)
let phased ~name ~descr role =
  { name; descr; prefill_per_proc = 0; shape = Phased role }

let all = [ coinflip; hold; burst; sssp () ]
let names = List.sort compare (List.map name all)

let of_string s =
  match List.find_opt (fun t -> t.name = s) all with
  | Some t -> t
  | None ->
      invalid_arg
        (Printf.sprintf "Scenario.of_string: unknown scenario %S (known: %s)" s
           (String.concat ", " names))

(* ---- sizing ----------------------------------------------------- *)

let insert_count = function
  | Mixed { ops; _ } | Produce { ops; _ } | Hold { ops; _ }
  | Trickle { ops; _ } ->
      ops
  | Drain _ | Idle _ -> 0

let op_count = function
  | Mixed { ops; _ } | Produce { ops; _ } | Drain { ops } | Trickle { ops; _ }
    ->
      ops
  | Hold { ops; _ } -> 2 * ops
  | Idle _ -> 0

let sum_phases f phases = List.fold_left (fun a p -> a + f p) 0 phases

let npriorities_for t ~default =
  match t.shape with
  | Phased _ -> default
  | Sssp { nodes } ->
      (* every inserted key is a simple-path length *)
      ((nodes - 1) * Graph.max_weight) + 1

let capacity_for t ~nprocs ~ops_per_proc =
  match t.shape with
  | Phased role ->
      let total = ref (nprocs * t.prefill_per_proc) in
      for pid = 0 to nprocs - 1 do
        total :=
          !total + sum_phases insert_count (role ~nprocs ~pid ~ops_per_proc)
      done;
      !total + 1
  | Sssp { nodes } -> (nodes * Graph.degree * 4) + (4 * nprocs) + 64

let ops_bound_for t ~nprocs ~ops_per_proc =
  match t.shape with
  | Phased role ->
      let m = ref 0 in
      for pid = 0 to nprocs - 1 do
        m := max !m (sum_phases op_count (role ~nprocs ~pid ~ops_per_proc))
      done;
      !m + t.prefill_per_proc + 2
  | Sssp { nodes } -> (nodes * Graph.degree * 8) + 64

let total_ops t ~nprocs ~ops_per_proc =
  match t.shape with
  | Phased role ->
      let total = ref (nprocs * t.prefill_per_proc) in
      for pid = 0 to nprocs - 1 do
        total := !total + sum_phases op_count (role ~nprocs ~pid ~ops_per_proc)
      done;
      !total
  | Sssp { nodes } -> nodes * Graph.degree * 2

(* ---- the generic interpreter (sim- and host-runnable) ----------- *)

type ops = {
  insert : pri:int -> payload:int -> bool;
  delete_min : unit -> (int * int) option;
}

type ctx = {
  pid : int;
  nprocs : int;
  npriorities : int;
  rand : int -> int;
  work : int -> unit;
}

let fresh_payload ctx seq =
  let v = ctx.pid + (ctx.nprocs * !seq) in
  incr seq;
  v

(* local-work cycles before each access, as in the paper's benchmark *)
let local_work = 20

let run_phases ctx ops ~seq phases =
  let insert ~pri = ignore (ops.insert ~pri ~payload:(fresh_payload ctx seq)) in
  List.iter
    (fun ph ->
      match ph with
      | Mixed { ops = n; bias } ->
          for _ = 1 to n do
            ctx.work local_work;
            if ctx.rand 100 < bias then insert ~pri:(ctx.rand ctx.npriorities)
            else ignore (ops.delete_min ())
          done
      | Produce { ops = n; skew } ->
          let z = Zipf.make ~n:ctx.npriorities ~s:skew in
          for _ = 1 to n do
            ctx.work local_work;
            insert ~pri:(Zipf.sample z ~draw:ctx.rand)
          done
      | Drain { ops = n } ->
          for _ = 1 to n do
            ctx.work local_work;
            ignore (ops.delete_min ())
          done
      | Hold { ops = n; lag } ->
          let lag = max 1 (min lag (ctx.npriorities - 1)) in
          for _ = 1 to n do
            ctx.work local_work;
            (match ops.delete_min () with
            | Some (p, _) ->
                insert ~pri:((p + 1 + ctx.rand lag) mod ctx.npriorities)
            | None -> insert ~pri:(ctx.rand ctx.npriorities))
          done
      | Trickle { ops = n; bias; skew; gap } ->
          (* low-rate skewed traffic: each access preceded by gap ± 25%
             extra local cycles (jittered, or processors that entered the
             phase together stay phase-locked and their accesses arrive
             in synchronized volleys), priorities Zipf-skewed (skew <= 0
             = uniform) *)
          let z = if skew > 0. then Some (Zipf.make ~n:ctx.npriorities ~s:skew) else None in
          let pri () =
            match z with
            | Some z -> Zipf.sample z ~draw:ctx.rand
            | None -> ctx.rand ctx.npriorities
          in
          for _ = 1 to n do
            let jitter = if gap >= 4 then ctx.rand (gap / 2) - (gap / 4) else 0 in
            ctx.work (local_work + gap + jitter);
            if ctx.rand 100 < bias then insert ~pri:(pri ())
            else ignore (ops.delete_min ())
          done
      | Idle { cycles } -> ctx.work cycles)
    phases

let phases_of t ~nprocs ~pid ~ops_per_proc =
  match t.shape with
  | Phased role -> role ~nprocs ~pid ~ops_per_proc
  | Sssp _ -> invalid_arg "Scenario.phases_of: not a phased scenario"

let prefill_per_proc t = t.prefill_per_proc

(* ---- simulator runner ------------------------------------------- *)

type outcome = {
  cycles : int;
  leftover : (int * int) list;
  aborted : exn option;
  check : (unit, string) result;
  monitor : Pqcheck.Monitor.report;
  stats : Stats.t;
  mem : Mem.t option;
}

let sssp_inf = max_int / 4

let params_of t ~nprocs ~npriorities ~ops_per_proc ~seed :
    Pqcore.Pq_intf.params =
  {
    nprocs;
    npriorities;
    capacity = capacity_for t ~nprocs ~ops_per_proc;
    seed = seed lxor 0x51ee9;
    ops_per_proc = ops_bound_for t ~nprocs ~ops_per_proc;
    funnel_config = None;
    funnel_cutoff = 4;
  }

let phase_key i = "phase" ^ string_of_int i

(* the caller's probe with [monitor] folding the op notes too; its
   sink and metrics are kept *)
let with_monitor monitor probe =
  let mine = Pqcheck.Monitor.notes monitor in
  let p = match probe with Some p -> p | None -> Probe.make () in
  let notes =
    match p.Probe.notes with
    | None -> mine
    | Some theirs ->
        {
          Probe.note =
            (fun ~proc ~time ~tag ~a ~b ->
              theirs.note ~proc ~time ~tag ~a ~b;
              mine.note ~proc ~time ~tag ~a ~b);
        }
  in
  { p with notes = Some notes }

let run_sim ?probe ?policy ?watchdog ?(degrade = fun (_ : Mem.t) -> ())
    ?create ?(phase_timing = false) ~queue ~nprocs ~npriorities ~ops_per_proc
    ~seed t =
  let npriorities = npriorities_for t ~default:npriorities in
  let params = params_of t ~nprocs ~npriorities ~ops_per_proc ~seed in
  let create =
    match create with
    | Some f -> f
    | None -> fun mem params -> Pqcore.Registry.create queue mem params
  in
  let monitor = Pqcheck.Monitor.create ~npriorities ~nprocs in
  let captured = ref None in
  let sssp_state = ref None in
  let graph =
    match t.shape with
    | Phased _ -> None
    | Sssp { nodes } -> Some (Graph.generate ~seed:(seed lxor 0x6e0) ~nodes)
  in
  (* every queue access goes through this wrapper, which streams the op
     notes the monitor folds online.  [progress_on_empty] distinguishes
     phased scenarios (an empty delete is a completed operation) from
     SSSP (spinning on an empty queue awaiting outstanding work must not
     feed the watchdog, or a crashed worker spins the run forever) *)
  let noted_ops ~progress_on_empty (q : Pqcore.Pq_intf.t) =
    let insert ~pri ~payload =
      Api.note Pqcheck.Monitor.Tag.ins_invoke pri payload;
      let ok = q.Pqcore.Pq_intf.insert ~pri ~payload in
      Api.note
        (if ok then Pqcheck.Monitor.Tag.ins_ok
         else Pqcheck.Monitor.Tag.ins_reject)
        pri payload;
      Api.progress ();
      ok
    in
    let delete_min () =
      Api.note Pqcheck.Monitor.Tag.del_invoke 0 0;
      match q.Pqcore.Pq_intf.delete_min () with
      | Some (pri, payload) as r ->
          Api.note Pqcheck.Monitor.Tag.del_some pri payload;
          Api.progress ();
          r
      | None ->
          Api.note Pqcheck.Monitor.Tag.del_none 0 0;
          if progress_on_empty then Api.progress ();
          None
    in
    { insert; delete_min }
  in
  let program (q, barrier) pid =
    match t.shape with
    | Phased role ->
        let ops = noted_ops ~progress_on_empty:true q in
        let seq = ref 0 in
        let ctx =
          { pid; nprocs; npriorities; rand = Api.rand; work = Api.work }
        in
        if t.prefill_per_proc > 0 then begin
          for _ = 1 to t.prefill_per_proc do
            ignore
              (ops.insert ~pri:(Api.rand npriorities)
                 ~payload:(fresh_payload ctx seq))
          done;
          Pqsync.Barrier.wait barrier
        end;
        let phases = role ~nprocs ~pid ~ops_per_proc in
        if phase_timing then
          (* per-phase latency series: wrap each phase's accesses in a
             timed span keyed by phase index.  Record-only — adds no
             simulated cost, so timed and untimed runs are cycle-
             identical. *)
          List.iteri
            (fun i ph ->
              let key = phase_key i in
              let tops =
                {
                  insert =
                    (fun ~pri ~payload ->
                      Api.timed key (fun () -> ops.insert ~pri ~payload));
                  delete_min =
                    (fun () -> Api.timed key (fun () -> ops.delete_min ()));
                }
              in
              run_phases ctx tops ~seq [ ph ])
            phases
        else run_phases ctx ops ~seq phases
    | Sssp _ ->
        let ops = noted_ops ~progress_on_empty:false q in
        let g, dist, outstanding =
          match !sssp_state with Some s -> s | None -> assert false
        in
        let rec insert_retry ~pri ~payload tries =
          if not (ops.insert ~pri ~payload) then begin
            if tries > 64 then
              failwith "sssp: queue rejected insert repeatedly (capacity)";
            Api.work 50;
            insert_retry ~pri ~payload (tries + 1)
          end
        in
        if pid = 0 then begin
          ignore (Api.faa outstanding 1);
          insert_retry ~pri:0 ~payload:0 0
        end;
        let rec loop () =
          match ops.delete_min () with
          | Some (d, u) ->
              let du = Api.read (dist + u) in
              if d <= du then begin
                Api.note Pqcheck.Monitor.Tag.settle u d;
                Array.iter
                  (fun (v, w) ->
                    let nd = d + w in
                    let rec relax () =
                      let cur = Api.read (dist + v) in
                      if nd < cur then
                        if Api.cas (dist + v) ~expected:cur ~desired:nd then begin
                          ignore (Api.faa outstanding 1);
                          insert_retry ~pri:nd ~payload:v 0
                        end
                        else relax ()
                    in
                    relax ())
                  (Graph.edges g u)
              end;
              ignore (Api.faa outstanding (-1));
              loop ()
          | None ->
              if Api.read outstanding > 0 then begin
                Api.work 40;
                loop ()
              end
        in
        loop ()
  in
  let run () =
    Sim.run ~probe:(with_monitor monitor probe) ?policy ?watchdog ~nprocs ~seed
      ~setup:(fun mem ->
        degrade mem;
        let q = create mem params in
        captured := Some (q, mem);
        let barrier = Pqsync.Barrier.create mem ~nprocs in
        (match graph with
        | None -> ()
        | Some g ->
            let n = Graph.nodes g in
            let dist = Mem.alloc mem n in
            for i = 1 to n - 1 do
              Mem.poke mem (dist + i) sssp_inf
            done;
            Mem.poke mem dist 0;
            Mem.label mem ~addr:dist ~len:n (Root "sssp.dist");
            let outstanding = Mem.alloc mem 1 in
            Mem.label mem ~addr:outstanding ~len:1 (Root "sssp.todo");
            sssp_state := Some (g, dist, outstanding));
        (q, barrier))
      ~program ()
  in
  let aborted, cycles, faulted, stats =
    match run () with
    | _, r -> (None, r.Sim.cycles, r.Sim.faulted, r.Sim.stats)
    | exception
        ((Sim.Progress_failure _ | Sim.Deadlock _ | Sim.Cycle_limit _
         | Sim.Spin_limit _ | Failure _) as e) ->
        (Some e, 0, [], Stats.create ())
  in
  let leftover =
    match !captured with
    | Some (q, mem) -> q.Pqcore.Pq_intf.drain_now mem
    | None -> []
  in
  let monitor =
    Pqcheck.Monitor.finalize
      ~slack_per_dangling:(Pqcore.Multi_queue.slack_per_dangling queue)
      monitor ~leftover
  in
  let check =
    if aborted <> None then Ok ()
    else
      let structural =
        match !captured with
        | Some (q, mem) when faulted = [] -> q.Pqcore.Pq_intf.check_now mem
        | _ -> Ok ()
      in
      let distances () =
        match (!sssp_state, !captured) with
        | Some (g, dist, _), Some (_, mem) when faulted = [] ->
            let reference = Graph.dijkstra g ~src:0 in
            let bad = ref None in
            for u = Graph.nodes g - 1 downto 0 do
              let got = Mem.peek mem (dist + u) in
              if got <> reference.(u) then bad := Some (u, got, reference.(u))
            done;
            (match !bad with
            | None -> Ok ()
            | Some (u, got, want) ->
                Error
                  (Printf.sprintf "sssp: wrong distance at node %d (got %d, want %d)"
                     u got want))
        | _ -> Ok ()
      in
      Result.bind structural (fun () ->
          Result.bind monitor.conservation distances)
  in
  {
    cycles;
    leftover;
    aborted;
    check;
    monitor;
    stats;
    mem = Option.map snd !captured;
  }

(* Phased scenarios on the host (real multicore) queues: the same
   Scenario phase interpreter driven by real domains over hardware
   atomics, with an exact multiset conservation check — every inserted
   (priority, payload) pair comes back out of delete_min or the final
   drain, no losses, no duplicates, no phantoms.

   Host runs are not deterministic (real interleavings), but the op
   streams each domain issues are: the per-domain RNG is seeded from
   (seed, pid), so the multiset of attempted operations is fixed and
   only their interleaving varies — exactly what conservation is
   insensitive to. *)

module Scenario = Pqbenchlib.Scenario

let queues : (string * (module Hostpq.Host_intf.S)) list =
  [
    ("HostBinPQ", (module Hostpq.Bin_pq));
    ("HostLockedHeap", (module Hostpq.Locked_heap));
    ("HostTreePQ", (module Hostpq.Tree_pq));
    ("HostMultiPQ", (module Hostpq.Multi_pq));
  ]

let queue_names = List.map fst queues

let queue_of_string name =
  match List.assoc_opt name queues with
  | Some q -> q
  | None ->
      invalid_arg
        (Printf.sprintf "Host.queue_of_string: unknown host queue %S (%s)"
           name
           (String.concat "|" queue_names))

type outcome = {
  queue : string;
  scenario : string;
  inserts : int;
  deletes : int;
  empties : int;
  leftover : int;
  conserved : (unit, string) result;
}

(* one domain's tallies; merged after join *)
type tally = {
  mutable ins : int;
  mutable del : int;
  mutable emp : int;
  seen : (int * int, int) Hashtbl.t;  (* +1 inserted, -1 removed *)
}

let bump tbl key d =
  let v = (try Hashtbl.find tbl key with Not_found -> 0) + d in
  if v = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key v

let soak ~queue ~scenario:scn ~nprocs ~npriorities ~ops_per_proc ~seed =
  if Scenario.sim_only scn then
    invalid_arg "Host.soak: scenario needs simulated memory";
  let (module Q : Hostpq.Host_intf.S) = queue_of_string queue in
  let q = Q.create ~npriorities () in
  let barrier = Atomic.make nprocs in
  let worker pid =
    let tally = { ins = 0; del = 0; emp = 0; seen = Hashtbl.create 64 } in
    let rng = Pqsim.Rng.make (seed lxor (0x1057 + pid)) in
    let ctx =
      {
        Scenario.pid;
        nprocs;
        npriorities;
        rand = (fun n -> Pqsim.Rng.int rng n);
        work = (fun n -> ignore (Sys.opaque_identity (Domain.cpu_relax (), n)));
      }
    in
    let ops =
      {
        Scenario.insert =
          (fun ~pri ~payload ->
            Q.insert q ~pri payload;
            tally.ins <- tally.ins + 1;
            bump tally.seen (pri, payload) 1;
            true);
        delete_min =
          (fun () ->
            match Q.delete_min q with
            | Some (pri, payload) ->
                tally.del <- tally.del + 1;
                bump tally.seen (pri, payload) (-1);
                Some (pri, payload)
            | None ->
                tally.emp <- tally.emp + 1;
                None);
      }
    in
    let seq = ref 0 in
    for _ = 1 to Scenario.prefill_per_proc scn do
      ignore
        (ops.Scenario.insert
           ~pri:(ctx.Scenario.rand npriorities)
           ~payload:(pid + (nprocs * !seq)));
      incr seq
    done;
    Atomic.decr barrier;
    while Atomic.get barrier > 0 do
      Domain.cpu_relax ()
    done;
    Scenario.run_phases ctx ops ~seq
      (Scenario.phases_of scn ~nprocs ~pid ~ops_per_proc);
    tally
  in
  let doms =
    List.init (nprocs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  (* run worker 0 before joining: argument order alone would evaluate
     the joins first and deadlock the barrier *)
  let t0 = worker 0 in
  let tallies = t0 :: List.map Domain.join doms in
  let merged = Hashtbl.create 256 in
  List.iter
    (fun t -> Hashtbl.iter (fun k d -> bump merged k d) t.seen)
    tallies;
  let leftover = ref 0 in
  let rec drain () =
    match Q.delete_min q with
    | Some (pri, payload) ->
        incr leftover;
        bump merged (pri, payload) (-1);
        drain ()
    | None -> ()
  in
  drain ();
  let missing = ref 0 and extra = ref 0 in
  Hashtbl.iter
    (fun _ d -> if d > 0 then missing := !missing + d else extra := !extra - d)
    merged;
  let conserved =
    if !missing = 0 && !extra = 0 then Ok ()
    else
      Error
        (Printf.sprintf "conservation: %d lost, %d duplicated/phantom"
           !missing !extra)
  in
  {
    queue;
    scenario = Scenario.name scn;
    inserts = List.fold_left (fun a t -> a + t.ins) 0 tallies;
    deletes = List.fold_left (fun a t -> a + t.del) 0 tallies;
    empties = List.fold_left (fun a t -> a + t.emp) 0 tallies;
    leftover = !leftover;
    conserved;
  }

let run ppf (cfg : Driver.config) =
  let scenarios =
    List.filter_map
      (fun name ->
        let scn = Driver.scenario_of cfg name in
        if Scenario.sim_only scn then None else Some (name, scn))
      cfg.scenarios
  in
  Format.fprintf ppf "@[<v>host soaks (%d domains):@," cfg.nprocs;
  let failures =
    List.concat_map
      (fun (queue, _) ->
        List.concat_map
          (fun (name, scenario) ->
            List.filter_map
              (fun seed ->
                let o =
                  soak ~queue ~scenario ~nprocs:cfg.nprocs
                    ~npriorities:cfg.npriorities
                    ~ops_per_proc:(cfg.ops_per_proc * cfg.soak) ~seed
                in
                let verdict =
                  if Result.is_ok o.conserved then "conserved" else "VIOLATED"
                in
                (* the counts depend on how the domains interleaved *)
                if cfg.verbose then
                  Format.fprintf ppf
                    "%-16s %-9s seed=%-4d ins=%-6d del=%-6d left=%-5d %s@,"
                    queue name seed o.inserts o.deletes o.leftover verdict
                else
                  Format.fprintf ppf "%-16s %-9s seed=%-4d %s@," queue name
                    seed verdict;
                match o.conserved with
                | Ok () -> None
                | Error e ->
                    Some (Printf.sprintf "%s/%s seed %d: %s" queue name seed e))
              cfg.seeds)
          scenarios)
      queues
  in
  Format.fprintf ppf "@]@.";
  failures

module Scenario = Pqbenchlib.Scenario
module Monitor = Pqcheck.Monitor
module Policy = Pqexplore.Policy

(* The matrix.  Seed-major cell order (per seed: default, random, pct)
   fixes which witness Lockdep.merge keeps. *)

let queues = Pqcore.Registry.names @ [ "Adaptive" ]
let nprocs = 16
let npriorities = 16
let ops_per_proc = 40
let seeds = [ 42; 1; 7 ]

let schedules = Policy.[ Default; Random; Pct ]

type cell = { queue : string; schedule : Policy.name; seed : int }

let cells =
  List.concat_map
    (fun queue ->
      List.concat_map
        (fun seed ->
          List.map (fun schedule -> { queue; schedule; seed }) schedules)
        seeds)
    queues

let label c = Printf.sprintf "%s/s%d" (Policy.string_of_name c.schedule) c.seed

let run_sim ?probe c =
  let create =
    (* the meta-queue is not in the registry; build it over the same
       memory via run_sim's construction hook, label unchanged *)
    if String.equal c.queue "Adaptive" then
      Some
        (fun mem params ->
          fst (Pqadapt.Meta.create Pqadapt.Meta.default mem params))
    else None
  in
  Scenario.run_sim ?probe
    ?policy:(Policy.named c.schedule ~seed:c.seed ~nprocs)
    ?create ~queue:c.queue ~nprocs ~npriorities ~ops_per_proc ~seed:c.seed
    Scenario.coinflip

(* ------------------------------------------------------------------ *)
(* One cell, one probe, every analyzer.                                *)

type observed = {
  cell : cell;
  cycles : int;
  events : int;
  races : Races.race list;
  locks : Lockdep.analysis;
  monitor : Monitor.report;
  aborted : string option;
  check : (unit, string) result;
}

let run_cell cell =
  let races = Races.observer () and locks = Lockdep.observer () in
  let probe =
    Pqsim.Probe.make ~sink:(Races.sink races)
      ~notes:{ note = Lockdep.feed locks }
      ()
  in
  let o = run_sim ~probe cell in
  let aborted = Option.map Printexc.to_string o.aborted in
  {
    cell;
    cycles = o.cycles;
    events = Races.events races;
    races =
      (match o.mem with Some mem -> Races.analyze ~mem races | None -> []);
    (* an aborted run ends mid-flight: leftover holds are the abort's
       symptom, not a leak — judge quiescence only on completed runs *)
    locks =
      Lockdep.analyze ~sched:(label cell)
        ?label:(Option.map Pqsim.Mem.name_of o.mem)
        ~quiescent:(aborted = None) locks;
    monitor = o.monitor;
    aborted;
    check = o.check;
  }

(* ------------------------------------------------------------------ *)
(* Per-queue merge and the exit rule.                                  *)

type report = {
  queue : string;
  cells : int;
  events : int;
  races : Races.race list;
  locks : Lockdep.analysis;
  aborted : (string * string) list;
  failed_checks : (string * string) list;
  bound : int;
  worst_rank : int;
  worst_cell : string;
  worst_delay : int;
}

(* addresses may differ between seeds, so races merge by what they
   mean: the line's label and the two access directions *)
let race_key (r : Races.race) =
  (r.label, Races.dir_of r.first.kind, Races.dir_of r.second.kind)

let merge_races observed =
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (o : observed) ->
      List.iter
        (fun (r : Races.race) ->
          let k = race_key r in
          match Hashtbl.find_opt merged k with
          | Some (r0 : Races.race) ->
              Hashtbl.replace merged k { r0 with count = r0.count + r.count }
          | None -> Hashtbl.add merged k r)
        o.races)
    observed;
  Hashtbl.fold (fun _ r acc -> r :: acc) merged []
  |> List.sort (fun a b -> compare (race_key a) (race_key b))

let merge queue observed =
  let per_cell f =
    List.concat_map
      (fun (o : observed) ->
        List.map (fun msg -> (label o.cell, msg)) (f o))
      observed
  in
  let worst =
    List.fold_left
      (fun (w, _ as acc) (o : observed) ->
        if o.monitor.rank.max_rank > w then
          (o.monitor.rank.max_rank, label o.cell)
        else acc)
      (0, match observed with o :: _ -> label o.cell | [] -> "-")
      observed
  in
  {
    queue;
    cells = List.length observed;
    events = List.fold_left (fun n (o : observed) -> n + o.events) 0 observed;
    races = merge_races observed;
    locks = Lockdep.merge (List.map (fun (o : observed) -> o.locks) observed);
    aborted = per_cell (fun o -> Option.to_list o.aborted);
    failed_checks =
      (* an aborted run is already a finding; its checks are moot *)
      per_cell (fun o ->
          match o.check with
          | Error msg when o.aborted = None -> [ msg ]
          | _ -> []);
    bound =
      Option.value ~default:0
        (Pqcore.Multi_queue.rank_bound_for queue ~nprocs);
    worst_rank = fst worst;
    worst_cell = snd worst;
    worst_delay =
      List.fold_left
        (fun m (o : observed) -> max m o.monitor.rank.max_delay)
        0 observed;
  }

let cycles r = Lockdep.cycles r.locks

let findings r =
  List.map
    (fun (race : Races.race) ->
      Printf.sprintf "race %s %s/%s"
        (Option.value race.label ~default:"<unlabelled>")
        (Races.dir_name (Races.dir_of race.first.kind))
        (Races.dir_name (Races.dir_of race.second.kind)))
    r.races
  @ List.map (fun c -> "lock " ^ Lockdep.signature (Cycle c)) (cycles r)
  @ List.map (fun d -> "lock " ^ Lockdep.signature (Discipline d)) r.locks.disc
  @ List.map (fun (c, e) -> Printf.sprintf "aborted %s: %s" c e) r.aborted
  @ List.map (fun (c, e) -> Printf.sprintf "check %s: %s" c e) r.failed_checks
  @
  if r.worst_rank > r.bound then
    [
      Printf.sprintf "rank %d over bound %d at %s" r.worst_rank r.bound
        r.worst_cell;
    ]
  else []

let run ~jobs =
  let observed = Pqbenchlib.Pool.map ~jobs run_cell cells in
  List.map
    (fun q ->
      merge q (List.filter (fun (o : observed) -> o.cell.queue = q) observed))
    queues

(* ------------------------------------------------------------------ *)
(* Report.                                                             *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>== %s: %d cells, %d events, %d lock events (%d try-fails) ==@,"
    r.queue r.cells r.events r.locks.events_seen r.locks.try_fails;
  Format.fprintf ppf
    "races %d; locks %d, order edges %d, cycles %d, discipline %d; worst \
     rank %d at %s (bound %d), worst delay %d@,"
    (List.length r.races)
    (List.length r.locks.locks)
    (List.length r.locks.edges)
    (List.length (cycles r))
    (List.length r.locks.disc)
    r.worst_rank r.worst_cell r.bound r.worst_delay;
  List.iter (Format.fprintf ppf "  %a@," Lockdep.pp_edge) r.locks.edges;
  List.iter (Format.fprintf ppf "  %a@," Races.pp_race) r.races;
  List.iter (fun f -> Format.fprintf ppf "FINDING %s@," f) (findings r);
  Format.fprintf ppf "@]"

let pp ppf reports =
  List.iter (Format.fprintf ppf "%a@." pp_report) reports;
  Format.fprintf ppf "@[<v>%-22s %8s %6s %6s %6s %6s %5s %7s %6s %5s %6s %8s@,"
    "queue" "events" "races" "locks" "edges" "cycles" "disc" "aborted" "bound"
    "rank" "delay" "verdict";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %8d %6d %6d %6d %6d %5d %7d %6d %5d %6d %8s@,"
        r.queue r.events (List.length r.races)
        (List.length r.locks.locks)
        (List.length r.locks.edges)
        (List.length (cycles r))
        (List.length r.locks.disc)
        (List.length r.aborted) r.bound r.worst_rank r.worst_delay
        (if findings r = [] then "pass" else "FAIL"))
    reports;
  Format.fprintf ppf "@]@."

let to_json reports =
  let open Pqtrace.Json in
  let row r =
    let f = findings r in
    let counts =
      [
        ("cells", r.cells);
        ("events", r.events);
        ("races", List.length r.races);
        ("lock_events", r.locks.events_seen);
        ("try_fails", r.locks.try_fails);
        ("locks", List.length r.locks.locks);
        ("edges", List.length r.locks.edges);
        ("cycles", List.length (cycles r));
        ("discipline", List.length r.locks.disc);
        ("aborted", List.length r.aborted);
        ("failed_checks", List.length r.failed_checks);
        ("bound", r.bound);
        ("worst_rank", r.worst_rank);
        ("worst_delay", r.worst_delay);
      ]
    in
    Obj
      [
        ("queue", String r.queue);
        ("pass", Bool (f = []));
        ("findings", List (List.map (fun s -> String s) f));
        ("counts", Obj (List.map (fun (k, n) -> (k, Int n)) counts));
      ]
  in
  Obj
    [
      ("nprocs", Int nprocs);
      ("npriorities", Int npriorities);
      ("ops_per_proc", Int ops_per_proc);
      ( "schedules",
        List (List.map (fun s -> String (Policy.string_of_name s)) schedules) );
      ("seeds", List (List.map (fun s -> Int s) seeds));
      ("pass", Bool (List.for_all (fun r -> findings r = []) reports));
      ("queues", List (List.map row reports));
    ]

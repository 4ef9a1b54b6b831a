module Scenario = Pqbenchlib.Scenario
module Driver = Pqchaos.Driver
module Policy = Pqexplore.Policy

(* The chaos driver runs each (queue, seed) group in [scheds] order,
   default first; that order fixes which witness Lockdep.merge keeps. *)
let config =
  {
    Driver.default with
    queues = Pqcore.Registry.names @ [ "Adaptive" ];
    scenarios = [ Scenario.name Scenario.coinflip ];
    plans = [ None ];
    scheds = Policy.[ Default; Random; Pct ];
    seeds = [ 42; 1; 7 ];
    nprocs = 16;
    npriorities = 16;
    ops_per_proc = 40;
  }

let label (c : Driver.cell) = Printf.sprintf "%s/s%d" c.sched c.seed

(* ------------------------------------------------------------------ *)
(* One probe per run, every analyzer.                                  *)

type observed = {
  events : int;
  races : Races.race list;
  locks : Lockdep.analysis;
  delay : int;
}

let probe () =
  let races = Races.observer () and locks = Lockdep.observer () in
  let probe =
    Pqsim.Probe.make ~sink:(Races.sink races)
      ~notes:{ note = Lockdep.feed locks }
      ()
  in
  let finish cell (o : Scenario.outcome) =
    {
      events = Races.events races;
      races =
        (match o.mem with Some mem -> Races.analyze ~mem races | None -> []);
      (* an aborted run ends mid-flight: leftover holds are the abort's
         symptom, not a leak — judge quiescence only on completed runs *)
      locks =
        Lockdep.analyze ~sched:(label cell)
          ?label:(Option.map Pqsim.Mem.name_of o.mem)
          ~quiescent:(o.aborted = None) locks;
      delay = o.monitor.rank.max_delay;
    }
  in
  (probe, finish)

(* ------------------------------------------------------------------ *)
(* Per-queue merge and the exit rule.                                  *)

type report = {
  queue : string;
  cells : Driver.cell list;
  events : int;
  races : Races.race list;
  locks : Lockdep.analysis;
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

let merge queue runs =
  let cells = List.map fst runs and observed = List.filter_map snd runs in
  let worst =
    List.fold_left
      (fun (w, _ as acc) (c : Driver.cell) ->
        if c.worst_rank > w then (c.worst_rank, label c) else acc)
      (0, match cells with c :: _ -> label c | [] -> "-")
      cells
  in
  {
    queue;
    cells;
    events = List.fold_left (fun n (o : observed) -> n + o.events) 0 observed;
    races = merge_races observed;
    locks = Lockdep.merge (List.map (fun (o : observed) -> o.locks) observed);
    (* the queue's own bound: a dangling op widens only its cell's *)
    bound =
      List.fold_left (fun b (c : Driver.cell) -> min b c.bound) max_int cells;
    worst_rank = fst worst;
    worst_cell = snd worst;
    worst_delay =
      List.fold_left (fun m (o : observed) -> max m o.delay) 0 observed;
  }

let cycles r = Lockdep.cycles r.locks

let count p r =
  List.length (List.filter (fun (c : Driver.cell) -> p c.verdict) r.cells)

let blocked = count (function Driver.Blocked _ -> true | _ -> false)
let unsafe = count (function Driver.Safety_violation _ -> true | _ -> false)

(* the audit's own findings, then the chaos gate's verdict on its cells:
   aborted, failed check, rank over bound *)
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
  @ Driver.gate r.cells

let run ~jobs cfg =
  let runs = Driver.observe ~jobs cfg probe in
  List.map
    (fun q ->
      merge q (List.filter (fun ((c : Driver.cell), _) -> c.queue = q) runs))
    cfg.queues

(* ------------------------------------------------------------------ *)
(* Report.                                                             *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>== %s: %d cells, %d events, %d lock events (%d try-fails) ==@,"
    r.queue (List.length r.cells) r.events r.locks.events_seen
    r.locks.try_fails;
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
        (blocked r) r.bound r.worst_rank r.worst_delay
        (if findings r = [] then "pass" else "FAIL"))
    reports;
  Format.fprintf ppf "@]@."

let to_json cfg reports =
  let open Pqtrace.Json in
  let row r =
    let f = findings r in
    let counts =
      [
        ("cells", List.length r.cells);
        ("events", r.events);
        ("races", List.length r.races);
        ("lock_events", r.locks.events_seen);
        ("try_fails", r.locks.try_fails);
        ("locks", List.length r.locks.locks);
        ("edges", List.length r.locks.edges);
        ("cycles", List.length (cycles r));
        ("discipline", List.length r.locks.disc);
        ("aborted", blocked r);
        ("failed_checks", unsafe r);
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
      ("nprocs", Int cfg.Driver.nprocs);
      ("npriorities", Int cfg.npriorities);
      ("ops_per_proc", Int cfg.ops_per_proc);
      ( "schedules",
        List (List.map (fun s -> String (Policy.string_of_name s)) cfg.scheds)
      );
      ("seeds", List (List.map (fun s -> Int s) cfg.seeds));
      ("pass", Bool (List.for_all (fun r -> findings r = []) reports));
      ("queues", List (List.map row reports));
    ]

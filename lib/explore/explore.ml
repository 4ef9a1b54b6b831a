open Pqsim

type policy_kind =
  | Named of Policy.name
  | Dfs of { horizon : int; branching : int; quantum : int }

let default_dfs = Dfs { horizon = 6; branching = 2; quantum = 120 }

let policy_kind_name = function
  | Named n -> Policy.string_of_name n
  | Dfs _ -> "dfs"

let policy_kind_of_string s =
  let kinds = [ Named Policy.Random; Named Policy.Pct; default_dfs ] in
  match List.find_opt (fun k -> policy_kind_name k = s) kinds with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown policy %S (%s)" s
           (String.concat "|" (List.map policy_kind_name kinds)))

type witness = {
  kind : [ `Lin | `Qc ];
  original : Schedule.t;
  schedule : Schedule.t;
  history : Pqcheck.History.t;
  shrink_runs : int;
}

type report = {
  queue : string;
  policy : string;
  budget : int;
  runs : int;
  lin_violations : int;
  qc_violations : int;
  gave_up : int;
  level : Verdict.level;
  lin_witness : witness option;
  qc_witness : witness option;
}

(* violation predicates for the shrinker: one simulator run + the check
   that decides the condition, as in {!Verdict.classify} *)
let violates cfg kind (s : Schedule.t) =
  let h =
    Driver.history cfg ~policy:(Schedule.replay s) ~seed:s.Schedule.seed
  in
  match kind with
  | `Lin ->
      Verdict.lin_violated
        (Verdict.classify ~max_states:cfg.Driver.max_states h)
  | `Qc -> not (Pqcheck.Lincheck.quiescently_consistent h)

let make_witness cfg kind original =
  let schedule, shrink_runs =
    Shrink.shrink ~violates:(violates cfg kind) original
  in
  let history =
    Driver.history cfg ~policy:(Schedule.replay schedule)
      ~seed:schedule.Schedule.seed
  in
  { kind; original; schedule; history; shrink_runs }

(* the i-th DFS delay vector: digits of i in base [branching], least
   significant digit at step 0 — an odometer over the bounded space *)
let dfs_schedule ~seed ~horizon ~branching ~quantum i =
  let decisions =
    Array.init horizon (fun _ -> Sched.continue_)
  in
  let rec fill step rest =
    if step < horizon && rest > 0 then begin
      decisions.(step) <-
        { Sched.delay = rest mod branching * quantum; weight = 0 };
      fill (step + 1) (rest / branching)
    end
  in
  fill 0 i;
  { Schedule.seed; decisions }

let dfs_space ~horizon ~branching ~budget =
  (* branching^horizon, saturating at budget *)
  let rec go acc i =
    if i >= horizon || acc >= budget then acc else go (acc * branching) (i + 1)
  in
  min budget (go 1 0)

let run ?cfg ?(seed = 1) ~queue ~policy ~budget () =
  let cfg = match cfg with Some c -> c | None -> Driver.config queue in
  let total =
    match policy with
    | Dfs { horizon; branching; _ } -> dfs_space ~horizon ~branching ~budget
    | Named _ -> budget
  in
  let runs = ref 0 in
  let lin_violations = ref 0 in
  let qc_violations = ref 0 in
  let gave_up = ref 0 in
  let lin_witness = ref None in
  let qc_witness = ref None in
  for i = 0 to total - 1 do
    let wseed = seed + i in
    let schedule_of_run, engine_policy =
      match policy with
      | Named n ->
          let rec_ =
            Policy.record ~seed:wseed
              (Option.value ~default:Sched.fifo
                 (Policy.named n ~seed:wseed ~nprocs:cfg.Driver.nprocs))
          in
          (rec_.Policy.schedule, rec_.Policy.policy)
      | Dfs { horizon; branching; quantum } ->
          let s = dfs_schedule ~seed ~horizon ~branching ~quantum i in
          ((fun () -> s), Schedule.replay s)
    in
    let wseed =
      match policy with Dfs _ -> seed | Named _ -> wseed
    in
    let h = Driver.history cfg ~policy:engine_policy ~seed:wseed in
    let v = Verdict.classify ~max_states:cfg.Driver.max_states h in
    incr runs;
    if v.Verdict.lin = Pqcheck.Lincheck.Gave_up then incr gave_up;
    if Verdict.lin_violated v then begin
      incr lin_violations;
      if !lin_witness = None then
        lin_witness :=
          Some (make_witness cfg `Lin (schedule_of_run ()))
    end;
    if Verdict.qc_violated v then begin
      incr qc_violations;
      if !qc_witness = None then
        qc_witness :=
          Some (make_witness cfg `Qc (schedule_of_run ()))
    end
  done;
  let level =
    if !qc_violations > 0 then Verdict.Inconsistent
    else if !lin_violations > 0 then Verdict.Quiescent
    else Verdict.Linearizable
  in
  {
    queue;
    policy = policy_kind_name policy;
    budget;
    runs = !runs;
    lin_violations = !lin_violations;
    qc_violations = !qc_violations;
    gave_up = !gave_up;
    level;
    lin_witness = !lin_witness;
    qc_witness = !qc_witness;
  }

let pp_witness ppf w =
  let what =
    match w.kind with
    | `Lin -> "linearizability"
    | `Qc -> "quiescent consistency"
  in
  Format.fprintf ppf
    "%s violation (schedule shrunk %d -> %d perturbations, %d shrink runs)@."
    what
    (Schedule.perturbations w.original)
    (Schedule.perturbations w.schedule)
    w.shrink_runs;
  Format.fprintf ppf "  schedule: %a@." Schedule.pp w.schedule;
  Format.fprintf ppf "  history:@.";
  Pqcheck.History.pp ppf w.history

let pp_report ppf r =
  Format.fprintf ppf "%s  policy=%s  budget=%d  runs=%d@." r.queue r.policy
    r.budget r.runs;
  Format.fprintf ppf
    "  linearizability violations: %d   quiescent violations: %d   \
     inconclusive: %d@."
    r.lin_violations r.qc_violations r.gave_up;
  Format.fprintf ppf "  verdict: %a%s@." Verdict.pp_level r.level
    (match r.level with
    | Verdict.Linearizable -> " (no violation within budget)"
    | Verdict.Quiescent | Verdict.Inconsistent -> "");
  Option.iter (pp_witness ppf) r.lin_witness;
  Option.iter (pp_witness ppf) r.qc_witness

let report ~cfg ~seed ~policy ~budget queues =
  let reports =
    List.map
      (fun queue -> run ~cfg:(cfg queue) ~seed ~queue ~policy ~budget ())
      queues
  in
  ( String.concat "" (List.map (Format.asprintf "%a@." pp_report) reports),
    List.filter_map
      (fun r -> if r.level = Verdict.Inconsistent then Some r.queue else None)
      reports )

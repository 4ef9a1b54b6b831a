let schema_version = 1

type series = { name : string; points : (int * float) list }

type figure = {
  id : string;
  title : string;
  xlabel : string;
  series : series list;
}

let chaos_verdicts = [ "healthy"; "degraded"; "blocked"; "safety-violation" ]

type t = {
  seed : int;
  scale : string;
  figures : figure list;
  metrics : (string * Json.t) list; (* free-form extras, e.g. per-queue derived metrics *)
  audit : Json.t option; (* races, lock order and rank (pqbench audit) *)
  chaos : Json.t option; (* chaos-matrix verdicts (pqbench chaos) *)
  adapt : Json.t option; (* adaptive meta-queue gate (pqbench adapt) *)
}

let paper = "shavit-zemach-podc99"

let make ?(metrics = []) ?audit ?chaos ?adapt ~seed ~scale figures =
  { seed; scale; figures; metrics; audit; chaos; adapt }

let series_to_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ( "points",
        Json.List
          (List.map
             (fun (x, y) ->
               Json.Obj [ ("x", Json.Int x); ("y", Json.Float y) ])
             s.points) );
    ]

let figure_to_json f =
  Json.Obj
    [
      ("id", Json.String f.id);
      ("title", Json.String f.title);
      ("xlabel", Json.String f.xlabel);
      ("series", Json.List (List.map series_to_json f.series));
    ]

let to_json t =
  let section key = Option.map (fun j -> (key, j)) in
  Json.Obj
    ([
       ("schema_version", Json.Int schema_version);
       ("paper", Json.String paper);
       ("seed", Json.Int t.seed);
       ("scale", Json.String t.scale);
       ("figures", Json.List (List.map figure_to_json t.figures));
     ]
    @ List.filter_map Fun.id
        [
          (if t.metrics = [] then None else Some ("metrics", Json.Obj t.metrics));
          section "audit" t.audit;
          section "chaos" t.chaos;
          section "adapt" t.adapt;
        ])

let to_string t = Json.to_string (to_json t)

(* {1 Validation} — structural checks mirroring schema/bench.schema.json.
   Hand-rolled because the toolchain ships no JSON-Schema engine; the
   schema file documents the same contract for external consumers. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let need ctx what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or mistyped %s" ctx what)

let v_string ctx key j =
  need ctx (Printf.sprintf "string field %S" key)
    (Option.bind (Json.member key j) Json.to_str)

let v_int ctx key j =
  need ctx (Printf.sprintf "integer field %S" key)
    (Option.bind (Json.member key j) Json.to_int)

let v_list ctx key j =
  need ctx (Printf.sprintf "array field %S" key)
    (Option.bind (Json.member key j) Json.to_list)

let rec all ctx f i = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f (Printf.sprintf "%s[%d]" ctx i) x in
      all ctx f (i + 1) rest

let validate_point ctx j =
  let* _ = v_int ctx "x" j in
  let* _ =
    need ctx "number field \"y\"" (Option.bind (Json.member "y" j) Json.to_float)
  in
  Ok ()

let validate_series ctx j =
  let* name = v_string ctx "name" j in
  let ctx = Printf.sprintf "%s(%s)" ctx name in
  let* points = v_list ctx "points" j in
  all (ctx ^ ".points") validate_point 0 points

let validate_figure ctx j =
  let* id = v_string ctx "id" j in
  let ctx = Printf.sprintf "%s(%s)" ctx id in
  let* _ = v_string ctx "title" j in
  let* _ = v_string ctx "xlabel" j in
  let* series = v_list ctx "series" j in
  if series = [] then Error (ctx ^ ": empty series list")
  else all (ctx ^ ".series") validate_series 0 series

let v_float ctx key j =
  need ctx
    (Printf.sprintf "number field %S" key)
    (Option.bind (Json.member key j) Json.to_float)

let v_bool ctx key j =
  match Json.member key j with
  | Some (Json.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "%s: missing or mistyped boolean field %S" ctx key)

(* the counts behind [Audit.findings]: a row passes iff these are all
   0 and its worst rank is within its bound *)
let audit_terms = [ "races"; "cycles"; "discipline"; "aborted"; "failed_checks" ]

let audit_pass ctx counts =
  let keys = "worst_rank" :: "bound" :: audit_terms in
  match
    List.map (fun k -> Option.bind (List.assoc_opt k counts) Json.to_int) keys
  with
  | Some worst :: Some bound :: terms when List.for_all Option.is_some terms ->
      Ok (worst <= bound && List.for_all (( = ) (Some 0)) terms)
  | _ ->
      Error
        (Printf.sprintf "%s: counts lack one of %s" ctx
           (String.concat ", " keys))

let validate_audit_row ctx j =
  let* queue = v_string ctx "queue" j in
  let ctx = Printf.sprintf "%s(%s)" ctx queue in
  let* pass = v_bool ctx "pass" j in
  let* findings = v_list ctx "findings" j in
  if not (List.for_all (fun f -> Json.to_str f <> None) findings) then
    Error (ctx ^ ": non-string finding")
  else if pass <> (findings = []) then
    Error (ctx ^ ": pass flag contradicts the recorded findings")
  else
    match Json.member "counts" j with
    | Some (Json.Obj counts) ->
        if
          not
            (List.for_all
               (fun (_, n) ->
                 match Json.to_int n with Some n -> n >= 0 | None -> false)
               counts)
        then Error (ctx ^ ": counts must be non-negative integers")
        else
          let* derived = audit_pass ctx counts in
          if pass = derived then Ok ()
          else Error (ctx ^ ": pass flag contradicts the recorded counts")
    | _ -> Error (ctx ^ ": missing or mistyped object field \"counts\"")

let validate_audit ctx j =
  let* nprocs = v_int ctx "nprocs" j in
  if nprocs < 1 then Error (ctx ^ ": nprocs must be >= 1")
  else
    let* _ = v_int ctx "npriorities" j in
    let* _ = v_int ctx "ops_per_proc" j in
    let* schedules = v_list ctx "schedules" j in
    let* seeds = v_list ctx "seeds" j in
    if schedules = [] || seeds = [] then
      Error (ctx ^ ": empty schedules or seeds list")
    else if
      not
        (List.for_all (fun s -> Json.to_str s <> None) schedules
        && List.for_all (fun s -> Json.to_int s <> None) seeds)
    then Error (ctx ^ ": mistyped schedule or seed")
    else
      let* pass = v_bool ctx "pass" j in
      let* rows = v_list ctx "queues" j in
      if rows = [] then Error (ctx ^ ": empty queues list")
      else
        let* () = all (ctx ^ ".queues") validate_audit_row 0 rows in
        let rows_pass =
          List.for_all (fun r -> Json.member "pass" r = Some (Json.Bool true)) rows
        in
        if pass = rows_pass then Ok ()
        else Error (ctx ^ ": pass flag contradicts the recorded rows")

let validate_chaos_cell ctx j =
  let* queue = v_string ctx "queue" j in
  let* scenario = v_string ctx "scenario" j in
  let ctx = Printf.sprintf "%s(%s/%s)" ctx queue scenario in
  let* _ = v_string ctx "plan" j in
  let* _ = v_string ctx "sched" j in
  let* _ = v_int ctx "seed" j in
  let* verdict = v_string ctx "verdict" j in
  if not (List.mem verdict chaos_verdicts) then
    Error
      (Printf.sprintf "%s: verdict %S not one of %s" ctx verdict
         (String.concat ", " chaos_verdicts))
  else
    let* _ = v_int ctx "cycles" j in
    let* _ = v_int ctx "ops" j in
    let* worst = v_int ctx "worst_rank" j in
    let* bound = v_int ctx "bound" j in
    let* _ = v_int ctx "dangling" j in
    (* a cell that passed as healthy or merely degraded must actually be
       inside its recorded bound *)
    if (verdict = "healthy" || verdict = "degraded") && worst > bound then
      Error (ctx ^ ": non-violating verdict contradicts worst_rank vs bound")
    else Ok ()

let validate_chaos ctx j =
  let* nprocs = v_int ctx "nprocs" j in
  if nprocs < 1 then Error (ctx ^ ": nprocs must be >= 1")
  else
    let* _ = v_int ctx "npriorities" j in
    let* _ = v_int ctx "ops_per_proc" j in
    let* safe = v_bool ctx "safe" j in
    let* cells = v_list ctx "cells" j in
    if cells = [] then Error (ctx ^ ": empty cells list")
    else
      let* () = all (ctx ^ ".cells") validate_chaos_cell 0 cells in
      let violated =
        List.exists
          (fun c ->
            Option.bind (Json.member "verdict" c) Json.to_str
            = Some "safety-violation")
          cells
      in
      if safe = not violated then Ok ()
      else Error (ctx ^ ": safe flag contradicts the recorded verdicts")

(* the adapt gate's two directions as stable strings (Classifier.regime
   names); also the only values [switches[].regime] may carry *)
let adapt_regimes = [ "light"; "heavy" ]

let validate_adapt_phase ctx j =
  let* phase = v_string ctx "phase" j in
  let ctx = Printf.sprintf "%s(%s)" ctx phase in
  let* _ = v_float ctx "adaptive" j in
  let* _ = v_string ctx "best_queue" j in
  let* best = v_float ctx "best" j in
  let* _ = v_string ctx "worst_queue" j in
  let* worst = v_float ctx "worst" j in
  if best > worst then Error (ctx ^ ": best static exceeds worst static")
  else Ok ()

let validate_adapt_switch ctx j =
  let* _ = v_int ctx "cycle" j in
  let* _ = v_string ctx "from" j in
  let* _ = v_string ctx "to" j in
  let* regime = v_string ctx "regime" j in
  if not (List.mem regime adapt_regimes) then
    Error
      (Printf.sprintf "%s: regime %S not one of %s" ctx regime
         (String.concat ", " adapt_regimes))
  else
    let* moved = v_int ctx "moved" j in
    if moved < 0 then Error (ctx ^ ": negative moved count") else Ok ()

let validate_adapt ctx j =
  let* nprocs = v_int ctx "nprocs" j in
  if nprocs < 1 then Error (ctx ^ ": nprocs must be >= 1")
  else
    let* _ = v_int ctx "npriorities" j in
    let* _ = v_int ctx "ops_per_phase" j in
    let* factor = v_float ctx "factor" j in
    if factor <= 0. then Error (ctx ^ ": factor must be positive")
    else
      let* _ = v_string ctx "light" j in
      let* _ = v_string ctx "heavy" j in
      let* _ = v_int ctx "windows" j in
      let* pass = v_bool ctx "pass" j in
      let* phases = v_list ctx "phases" j in
      if phases = [] then Error (ctx ^ ": empty phases list")
      else
        let* () = all (ctx ^ ".phases") validate_adapt_phase 0 phases in
        let* switches = v_list ctx "switches" j in
        let* () = all (ctx ^ ".switches") validate_adapt_switch 0 switches in
        (* the gate's own consistency: recompute the verdict from the
           recorded numbers (with a whisker of slack for float
           round-tripping) and compare with the recorded pass flag *)
        let num key p =
          Option.value ~default:nan
            (Option.bind (Json.member key p) Json.to_float)
        in
        let str key p =
          Option.value ~default:""
            (Option.bind (Json.member key p) Json.to_str)
        in
        let eps m = 1e-6 +. (1e-9 *. Float.abs m) in
        let phase_ok p =
          let a = num "adaptive" p and b = num "best" p and w = num "worst" p in
          a <= (factor *. b) +. eps b && a < w +. eps w
        in
        let dir r = List.exists (fun s -> str "regime" s = r) switches in
        let recomputed =
          List.for_all phase_ok phases && dir "heavy" && dir "light"
        in
        if pass && not recomputed then
          Error (ctx ^ ": pass flag contradicts the recorded phases/switches")
        else Ok ()

(* the top-level keys the schema defines; any other key (a section
   some older tool wrote, say) is rejected by name, not carried along *)
let sections =
  [ "schema_version"; "paper"; "seed"; "scale"; "figures"; "metrics";
    "audit"; "chaos"; "adapt" ]

(* every check here reads the first copy of a key, so a document that
   repeats one could carry a second copy no check has seen *)
let rec unique_keys ctx = function
  | Json.Obj kvs ->
      let rec go seen = function
        | [] -> Ok ()
        | (k, _) :: _ when List.mem k seen ->
            Error (Printf.sprintf "%s: repeated key %S" ctx k)
        | (k, v) :: rest ->
            let* () = unique_keys (ctx ^ "." ^ k) v in
            go (k :: seen) rest
      in
      go [] kvs
  | Json.List xs -> all ctx unique_keys 0 xs
  | _ -> Ok ()

let validate j =
  let ctx = "BENCH" in
  let* () = unique_keys ctx j in
  let* v = v_int ctx "schema_version" j in
  if v <> schema_version then
    Error
      (Printf.sprintf "%s: schema_version %d, this tool understands %d" ctx v
         schema_version)
  else
    let keys = match j with Json.Obj kvs -> List.map fst kvs | _ -> [] in
    let* () =
      match List.find_opt (fun k -> not (List.mem k sections)) keys with
      | Some k -> Error (Printf.sprintf "%s: unknown top-level section %S" ctx k)
      | None -> Ok ()
    in
    let* _ = v_string ctx "paper" j in
    let* _ = v_int ctx "seed" j in
    let* _ = v_string ctx "scale" j in
    let* figures = v_list ctx "figures" j in
    if figures = [] then Error (ctx ^ ": empty figures list")
    else
      let* () = all (ctx ^ ".figures") validate_figure 0 figures in
      let* () =
        match Json.member "audit" j with
        | None -> Ok ()
        | Some a -> validate_audit (ctx ^ ".audit") a
      in
      let* () =
        match Json.member "chaos" j with
        | None -> Ok ()
        | Some c -> validate_chaos (ctx ^ ".chaos") c
      in
      match Json.member "adapt" j with
      | None -> Ok ()
      | Some a -> validate_adapt (ctx ^ ".adapt") a

let validate_string s =
  match Json.of_string s with
  | Error msg -> Error ("not JSON: " ^ msg)
  | Ok j -> validate j

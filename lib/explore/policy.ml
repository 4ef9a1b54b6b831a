open Pqsim

type recording = { policy : Sched.t; schedule : unit -> Schedule.t }

let record ~seed (inner : Sched.t) =
  let rev_trace = ref [] in
  let policy info =
    let v = inner info in
    (* exploration policies never fault, but stay total: a pause records
       as its equivalent delay, a crash as no perturbation *)
    let d =
      match v with
      | Sched.Run d -> d
      | Sched.Pause n -> { Sched.delay = n; weight = 0 }
      | Sched.Stall_forever -> Sched.continue_
    in
    rev_trace := d :: !rev_trace;
    v
  in
  let schedule () =
    { Schedule.seed; decisions = Array.of_list (List.rev !rev_trace) }
  in
  { policy; schedule }

(* random: stall one step in [freq] for 1..[max_delay] cycles; weights
   0..[max_weight]-1 *)
let freq = 4
let max_delay = 300
let max_weight = 4

let random ~seed : Sched.t =
  let rng = Rng.make (seed lxor 0x5eed_f00d) in
  fun _info ->
    let weight = Rng.int rng max_weight in
    let delay =
      if Rng.int rng freq = 0 then 1 + Rng.int rng max_delay else 0
    in
    Sched.Run { Sched.delay; weight }

(* pct: [depth]-1 change points within the first [horizon] steps,
   [quantum] cycles of stall per rank *)
let depth = 3
let quantum = 50
let horizon = 256

let pct ~seed ~nprocs : Sched.t =
  if nprocs < 1 then invalid_arg "Policy.pct: nprocs must be >= 1";
  let rng = Rng.make (seed lxor 0x9c7_ca5e) in
  (* random permutation: prio.(p) is p's priority, higher runs sooner *)
  let prio = Array.init nprocs Fun.id in
  for i = nprocs - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = prio.(i) in
    prio.(i) <- prio.(j);
    prio.(j) <- t
  done;
  let change_points = Hashtbl.create 8 in
  for _ = 1 to depth - 1 do
    Hashtbl.replace change_points (Rng.int rng horizon) ()
  done;
  (* demotions push below every existing priority *)
  let next_low = ref (-1) in
  fun (info : Sched.info) ->
    if Hashtbl.mem change_points info.step then begin
      prio.(info.proc) <- !next_low;
      decr next_low
    end;
    let rank = ref 0 in
    for p = 0 to nprocs - 1 do
      if prio.(p) > prio.(info.proc) then incr rank
    done;
    Sched.Run { Sched.delay = quantum * !rank; weight = !rank }

type name = Default | Pct | Random

let names = [ Default; Pct; Random ]

let string_of_name = function
  | Default -> "default"
  | Pct -> "pct"
  | Random -> "random"

let name_of_string s =
  match List.find_opt (fun n -> string_of_name n = s) names with
  | Some n -> Ok n
  | None ->
      Error
        (Printf.sprintf "unknown schedule %S (%s)" s
           (String.concat "|" (List.map string_of_name names)))

let named name ~seed ~nprocs =
  match name with
  | Default -> None
  | Pct -> Some (pct ~seed ~nprocs)
  | Random -> Some (random ~seed)

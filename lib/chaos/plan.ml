open Pqsim

type t =
  | Crash_random
  | Crash_lock_holder
  | Pause_resume of { pause : int }
  | Slow_node of { node : int; factor : int }

let default_pause = 60_000
let default_slow_factor = 8

let all =
  [
    Crash_random;
    Crash_lock_holder;
    Pause_resume { pause = default_pause };
    Slow_node { node = 0; factor = default_slow_factor };
  ]

let name = function
  | Crash_random -> "crash-one"
  | Crash_lock_holder -> "crash-lock"
  | Pause_resume _ -> "pause"
  | Slow_node _ -> "slow-node"

let names = List.sort compare (List.map name all)

let of_string s =
  match List.find_opt (fun p -> name p = s) all with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown fault plan %S (known: %s)" s
           (String.concat ", " names))

(* a plan is finite when every injected fault ends by itself: a run that
   fails to terminate under one is an engine or algorithm bug, never an
   acceptable outcome *)
let finite = function
  | Crash_random | Crash_lock_holder -> false
  | Pause_resume _ | Slow_node _ -> true

type armed = { policy : Sched.t; victim : int option; trigger : string }

let is_atomic = function
  | Sched.Cas | Sched.Swap | Sched.Faa -> true
  | Sched.Read | Sched.Write | Sched.Work | Sched.Wait -> false

let arm plan ~seed ~nprocs =
  let rng = Rng.make (seed lxor 0xfa017) in
  match plan with
  | Crash_random ->
      let victim = Rng.int rng nprocs in
      let at = 1 + Rng.int rng 300 in
      let count = ref 0 in
      let policy info =
        if info.Sched.proc = victim then begin
          incr count;
          if !count = at then Sched.Stall_forever else Sched.run_
        end
        else Sched.run_
      in
      {
        policy;
        victim = Some victim;
        trigger = Printf.sprintf "p%d crashes at its decision #%d" victim at;
      }
  | Crash_lock_holder ->
      let victim = Rng.int rng nprocs in
      let at = 1 + Rng.int rng 8 in
      let count = ref 0 in
      let policy info =
        if info.Sched.proc = victim && is_atomic info.Sched.op then begin
          incr count;
          if !count = at then Sched.Stall_forever else Sched.run_
        end
        else Sched.run_
      in
      {
        policy;
        victim = Some victim;
        trigger =
          Printf.sprintf "p%d crashes completing its atomic op #%d" victim at;
      }
  | Pause_resume { pause } ->
      let victim = Rng.int rng nprocs in
      let at = 1 + Rng.int rng 150 in
      let count = ref 0 in
      let policy info =
        if info.Sched.proc = victim then begin
          incr count;
          if !count = at then Sched.Pause pause else Sched.run_
        end
        else Sched.run_
      in
      {
        policy;
        victim = Some victim;
        trigger =
          Printf.sprintf "p%d pauses %d cycles at its decision #%d" victim
            pause at;
      }
  | Slow_node { node; factor } ->
      {
        policy = Sched.fifo;
        victim = None;
        trigger = Printf.sprintf "module %d served %dx slower" node factor;
      }

let degrade plan mem =
  match plan with
  | Slow_node { node; factor } -> Mem.degrade_node mem ~node ~factor
  | Crash_random | Crash_lock_holder | Pause_resume _ -> ()

(* Work-stealing map over a fixed point list for embarrassingly parallel
   experiment sweeps.  Each point is an independent deterministic
   simulation (it owns its seeded RNGs and its memory), so the only job
   of the pool is to keep [jobs] domains busy and to hand the results
   back in point order — callers print tables from the returned list,
   which makes every table byte-identical regardless of job count. *)

let default_jobs () =
  match Sys.getenv_opt "PQBENCH_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
                | Some j when j >= 1 -> j
                | _ -> 1)
  | None -> 1

(* up to [k] helpers running [worker], each as the join of its spawn.
   The runtime caps live domains (128 in OCaml 5.1), and a spawn past
   the cap fails: the map then runs with the helpers it was granted. *)
let rec spawn_helpers ~spawn worker k =
  if k <= 0 then []
  else
    match spawn worker with
    | join -> join :: spawn_helpers ~spawn worker (k - 1)
    | exception Failure _ -> []

let map_with ~spawn ~jobs f items =
  if jobs <= 1 then List.map f items
  else
    match items with
    | [] -> []
    | _ ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        let out = Array.make n None in
        let err = Array.make n None in
        let next = Atomic.make 0 in
        let worker () =
          let continue_ = ref true in
          while !continue_ do
            let i = Atomic.fetch_and_add next 1 in
            if i >= n then continue_ := false
            else
              match f arr.(i) with
              | v -> out.(i) <- Some v
              | exception e ->
                  err.(i) <- Some (e, Printexc.get_raw_backtrace ())
          done
        in
        let helpers = spawn_helpers ~spawn worker (min (jobs - 1) (n - 1)) in
        worker ();
        List.iter (fun join -> join ()) helpers;
        (* deterministic failure: re-raise the first error in point
           order, whichever domain hit it *)
        Array.iter
          (function
            | Some (e, bt) -> Printexc.raise_with_backtrace e bt
            | None -> ())
          err;
        Array.to_list
          (Array.map
             (function Some v -> v | None -> assert false)
             out)

let domain worker =
  let d = Domain.spawn worker in
  fun () -> Domain.join d

let map ~jobs f items = map_with ~spawn:domain ~jobs f items

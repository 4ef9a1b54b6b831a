open Pqcheck

type stats = {
  deletes : int;
  empties : int;
  max_rank : int;
  mean_rank : float;
  p99_rank : int;
  max_delay : int;
  mean_delay : float;
  p99_delay : int;
  rank_hist : (int * int) list;
  delay_hist : (int * int) list;
}

(* host-side summary helpers *)

let percentile samples q =
  match samples with
  | [||] -> 0
  | s ->
      let s = Array.copy s in
      Array.sort compare s;
      let n = Array.length s in
      let i = min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1) in
      s.(max 0 i)

let histogram samples =
  let bucket v =
    if v <= 0 then 0
    else
      let rec go lo = if 2 * lo > v then lo else go (2 * lo) in
      go 1
  in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      let b = bucket v in
      Hashtbl.replace tbl b (1 + Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    samples;
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let summary samples =
  let n = Array.length samples in
  let mx = Array.fold_left max 0 samples in
  let mean =
    if n = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 samples) /. float_of_int n
  in
  (mx, mean, percentile samples 0.99)

(* Quiescent structure of the history: the merged busy intervals.  Two
   operations are certainly ordered only when a whole idle cycle
   separates them, so intervals closer than two cycles merge. *)
let busy_intervals (h : History.t) =
  let ivs =
    List.map (fun (e : History.event) -> (e.t0, e.t1)) h
    |> List.sort compare
  in
  match ivs with
  | [] -> [||]
  | (s0, e0) :: rest ->
      let merged, last =
        List.fold_left
          (fun (acc, (s, e)) (s', e') ->
            if s' <= e + 1 then (acc, (s, max e e'))
            else ((s, e) :: acc, (s', e')))
          ([], (s0, e0))
          rest
      in
      Array.of_list (List.rev (last :: merged))

(* the first quiescent instant at or after [a]: [a] itself when idle,
   else the cycle after the covering busy interval ends *)
let quiescent_after ivs a =
  let n = Array.length ivs in
  let rec go lo hi =
    (* smallest interval with end >= a *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if snd ivs.(mid) >= a then go lo mid else go (mid + 1) hi
  in
  let i = go 0 n in
  if i >= n then a
  else
    let s, e = ivs.(i) in
    if a < s then a else e + 1

(* a definitely-live element: insert responded at [born], its remover (if
   any) was invoked at [removed] *)
type elem = { pri : int; born : int; removed : int option }

let measure (h : History.t) =
  let ivs = busy_intervals h in
  (* [a] happens before [b] in every quiescently consistent order: some
     whole idle cycle lies between response [a] and invocation [b] *)
  let ordered a b = quiescent_after ivs a <= b in
  (* index removals by (pri, payload): payloads are unique per insert in
     the recorded workload, but keying on the pair keeps the oracle
     honest about bag semantics if that ever changes *)
  let removal = Hashtbl.create 64 in
  List.iter
    (fun (e : History.event) ->
      match e.op with
      | History.Delete_min (Some pv) ->
          (* first remover wins; a duplicate return is an element-loss
             bug for Lincheck, not this oracle *)
          if not (Hashtbl.mem removal pv) then Hashtbl.add removal pv e.t0
      | _ -> ())
    h;
  let births = Hashtbl.create 64 in
  let elems =
    List.filter_map
      (fun (e : History.event) ->
        match e.op with
        | History.Insert { pri; payload; accepted = true } ->
            Hashtbl.replace births (pri, payload) e.t1;
            Some
              {
                pri;
                born = e.t1;
                removed = Hashtbl.find_opt removal (pri, payload);
              }
        | _ -> None)
      h
  in
  (* [y] is certainly in the queue across a delete at [d0, d1]: its
     insert is ordered before the delete, and its removal (if any) is
     ordered after *)
  let live_across d0 d1 y =
    ordered y.born d0
    && match y.removed with None -> true | Some r -> ordered d1 r
  in
  let ranks = ref [] and empties = ref 0 in
  let delays = ref [] in
  let deletes = ref 0 in
  List.iter
    (fun (d : History.event) ->
      match d.op with
      | History.Delete_min ret ->
          incr deletes;
          let rank =
            match ret with
            | Some (p, _) ->
                List.length
                  (List.filter
                     (fun y -> y.pri < p && live_across d.t0 d.t1 y)
                     elems)
            | None ->
                incr empties;
                List.length (List.filter (live_across d.t0 d.t1) elems)
          in
          ranks := rank :: !ranks;
          (match ret with
          | Some ((p, _) as pv) ->
              (* how many earlier deletes certainly overtook this
                 element: ordered after its birth, ordered before this
                 delete (its remover), yet returning a strictly larger
                 priority *)
              Option.iter
                (fun born ->
                  let overtakes =
                    List.length
                      (List.filter
                         (fun (e : History.event) ->
                           match e.op with
                           | History.Delete_min (Some (p', _)) ->
                               p' > p && ordered born e.t0
                               && ordered e.t1 d.t0
                           | _ -> false)
                         h)
                  in
                  delays := overtakes :: !delays)
                (Hashtbl.find_opt births pv)
          | None -> ())
      | History.Insert _ -> ())
    h;
  let ranks = Array.of_list !ranks and delays = Array.of_list !delays in
  let max_rank, mean_rank, p99_rank = summary ranks in
  let max_delay, mean_delay, p99_delay = summary delays in
  {
    deletes = !deletes;
    empties = !empties;
    max_rank;
    mean_rank;
    p99_rank;
    max_delay;
    mean_delay;
    p99_delay;
    rank_hist = histogram ranks;
    delay_hist = histogram delays;
  }

let pp ppf s =
  let hist h =
    String.concat " "
      (List.map (fun (b, c) -> Printf.sprintf "%d:%d" b c) h)
  in
  Format.fprintf ppf
    "deletes %d (%d empty)  rank max %d mean %.3f p99 %d  delay max %d mean \
     %.3f p99 %d@.  rank hist  %s@.  delay hist %s@."
    s.deletes s.empties s.max_rank s.mean_rank s.p99_rank s.max_delay
    s.mean_delay s.p99_delay (hist s.rank_hist) (hist s.delay_hist)

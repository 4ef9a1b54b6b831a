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

(* the epoch of cycle [x]: the index of the first busy interval that
   ends at or after it, which for an operation's [t0] or [t1] is the
   interval holding the operation.  A response [a] is ordered before an
   invocation [b] (some whole idle cycle lies between them) exactly when
   [epoch a < epoch b]. *)
let epoch_of ivs x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if snd ivs.(mid) >= x then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length ivs)

(* counts over a fixed set of priorities, compressed to their ranks *)
module Fenwick = struct
  type t = { keys : int array; counts : int array }

  let create keys = { keys; counts = Array.make (Array.length keys + 1) 0 }

  (* how many keys are strictly below [p] *)
  let below t p =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.keys.(mid) < p then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length t.keys)

  let add t p d =
    let i = ref (below t p + 1) in
    while !i < Array.length t.counts do
      t.counts.(!i) <- t.counts.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* the count over the first [i] keys *)
  let prefix t i =
    let i = ref i and acc = ref 0 in
    while !i > 0 do
      acc := !acc + t.counts.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  let total t = prefix t (Array.length t.keys)

  (* the counts of priorities strictly below and strictly above [p] *)
  let count_below t p = prefix t (below t p)

  let count_above t p =
    let i = below t p in
    let at = if i < Array.length t.keys && t.keys.(i) = p then 1 else 0 in
    total t - prefix t (i + at)
end

(* An offline sweep over epochs in increasing order.  [updates] are
   (epoch, priority, delta), applied before any query of that epoch or a
   later one; [queries] are (epoch, f), and [f] reads the counts as they
   stand then. *)
let sweep keys updates queries =
  let fw = Fenwick.create keys in
  let updates = Array.of_list updates and queries = Array.of_list queries in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) updates;
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) queries;
  let u = ref 0 in
  Array.iter
    (fun (k, f) ->
      while
        !u < Array.length updates
        &&
        let e, _, _ = updates.(!u) in
        e <= k
      do
        let _, p, d = updates.(!u) in
        Fenwick.add fw p d;
        incr u
      done;
      f fw)
    queries

(* every delete's rank error, every returned element's delay, and the
   count of deletes that returned None *)
let samples_of (h : History.t) =
  let ivs = busy_intervals h in
  let epoch = epoch_of ivs in
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
          if not (Hashtbl.mem removal pv) then Hashtbl.add removal pv (epoch e.t0)
      | _ -> ())
    h;
  let births = Hashtbl.create 64 in
  let pris = ref [] in
  (* An accepted insert [y] is certainly in the queue across a delete in
     epoch [k] when its insert is ordered before the delete and its
     removal (if any) after: [born y < k < removed y].  It counts from
     epoch [born + 1] and stops counting at its remover's epoch. *)
  let lives =
    List.concat_map
      (fun (e : History.event) ->
        match e.op with
        | History.Insert { pri; payload; accepted = true } ->
            let born = epoch e.t1 in
            Hashtbl.replace births (pri, payload) born;
            pris := pri :: !pris;
            let from = born + 1 in
            (match Hashtbl.find_opt removal (pri, payload) with
            | None -> [ (from, pri, 1) ]
            | Some r when r > from -> [ (from, pri, 1); (r, pri, -1) ]
            | Some _ -> [])
        | _ -> [])
      h
  in
  List.iter
    (fun (e : History.event) ->
      match e.op with
      | History.Delete_min (Some (p, _)) -> pris := p :: !pris
      | _ -> ())
    h;
  let keys = Array.of_list (List.sort_uniq compare !pris) in
  let empties = ref 0 in
  let ranks = ref [] and delays = ref [] in
  (* for a delete returning [p], the live elements below [p]; for one
     returning None, all of them *)
  let rank_queries =
    List.filter_map
      (fun (d : History.event) ->
        match d.op with
        | History.Delete_min ret ->
            let count =
              match ret with
              | Some (p, _) -> fun fw -> Fenwick.count_below fw p
              | None ->
                  incr empties;
                  Fenwick.total
            in
            Some (epoch d.t0, fun fw -> ranks := count fw :: !ranks)
        | History.Insert _ -> None)
      h
  in
  sweep keys lives rank_queries;
  (* The delay of an element of priority [p] born in epoch [b] and
     removed by a delete in epoch [k]: the deletes in epochs strictly
     between [b] and [k] that returned a priority above [p], as the
     count before epoch [k] less the count before epoch [b + 1]. *)
  let answers =
    List.filter_map
      (fun (e : History.event) ->
        match e.op with
        | History.Delete_min (Some (p, _)) -> Some (epoch e.t0 + 1, p, 1)
        | _ -> None)
      h
  in
  let delay_queries =
    List.concat_map
      (fun (d : History.event) ->
        match d.op with
        | History.Delete_min (Some ((p, _) as pv)) -> (
            match Hashtbl.find_opt births pv with
            | None -> []
            | Some b ->
                let k = epoch d.t0 in
                if k <= b + 1 then [ (k, fun _ -> delays := 0 :: !delays) ]
                else
                  let before = ref 0 in
                  [
                    (b + 1, fun fw -> before := Fenwick.count_above fw p);
                    ( k,
                      fun fw ->
                        delays := (Fenwick.count_above fw p - !before) :: !delays
                    );
                  ])
        | _ -> [])
      h
  in
  sweep keys answers delay_queries;
  (Array.of_list !ranks, Array.of_list !delays, !empties)

let samples h =
  let ranks, delays, _ = samples_of h in
  let sorted a = List.sort compare (Array.to_list a) in
  (sorted ranks, sorted delays)

let measure h =
  let ranks, delays, empties = samples_of h in
  let max_rank, mean_rank, p99_rank = summary ranks in
  let max_delay, mean_delay, p99_delay = summary delays in
  {
    deletes = Array.length ranks;
    empties;
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

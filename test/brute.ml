open Pqcheck

(* the queue after [e], as a list of elements; [None] when [e] is illegal
   in it *)
let step queue (e : History.event) =
  match e.op with
  | History.Insert { accepted = false; _ } -> Some queue
  | History.Insert { pri; payload; accepted = true } ->
      Some ((pri, payload) :: queue)
  | History.Delete_min None -> if queue = [] then Some [] else None
  | History.Delete_min (Some ((pri, _) as x)) ->
      if List.mem x queue && List.for_all (fun (p, _) -> p >= pri) queue then
        let rec remove = function
          | [] -> []
          | y :: rest -> if y = x then rest else y :: remove rest
        in
        Some (remove queue)
      else None

let legal ~precedes h =
  let ops = Array.of_list h in
  let n = Array.length ops in
  let placed = Array.make n false in
  let all = List.init n Fun.id in
  (* [i] may go next: every operation that must precede it is placed *)
  let ready i =
    (not placed.(i))
    && List.for_all
         (fun j -> placed.(j) || j = i || not (precedes ops.(j) ops.(i)))
         all
  in
  let rec extend queue k =
    k = n
    || List.exists
         (fun i ->
           ready i
           &&
           match step queue ops.(i) with
           | None -> false
           | Some queue' ->
               placed.(i) <- true;
               let ok = extend queue' (k + 1) in
               placed.(i) <- false;
               ok)
         all
  in
  extend [] 0

let real_time (a : History.event) (b : History.event) = a.t1 < b.t0

let quiescent h (a : History.event) (b : History.event) =
  let covered k =
    List.exists (fun (c : History.event) -> c.t0 <= k && k < c.t1) h
  in
  let rec gap k = k < b.t0 && ((not (covered k)) || gap (k + 1)) in
  gap a.t1

let rank_samples h =
  let covered c =
    List.exists (fun (e : History.event) -> e.t0 <= c && c <= e.t1) h
  in
  let ordered a b =
    let rec idle c = c < b && ((not (covered c)) || idle (c + 1)) in
    idle (a + 1)
  in
  let deletes =
    List.filter_map
      (fun (e : History.event) ->
        match e.op with History.Delete_min r -> Some (e, r) | _ -> None)
      h
  in
  let remover pv =
    List.find_map
      (fun ((e : History.event), r) -> if r = Some pv then Some e.t0 else None)
      deletes
  in
  let inserts =
    List.filter_map
      (fun (e : History.event) ->
        match e.op with
        | History.Insert { pri; payload; accepted = true } ->
            Some (pri, payload, e.t1)
        | _ -> None)
      h
  in
  let rank ((d : History.event), r) =
    List.length
      (List.filter
         (fun (pri, payload, born) ->
           (match r with Some (p, _) -> pri < p | None -> true)
           && ordered born d.t0
           &&
           match remover (pri, payload) with
           | None -> true
           | Some t -> ordered d.t1 t)
         inserts)
  in
  let delay ((d : History.event), r) =
    match r with
    | None -> None
    | Some (p, payload) ->
        List.fold_left
          (fun last (pri, pl, born) ->
            if pri = p && pl = payload then Some born else last)
          None inserts
        |> Option.map (fun born ->
               List.length
                 (List.filter
                    (fun ((e : History.event), r') ->
                      match r' with
                      | Some (p', _) ->
                          p' > p && ordered born e.t0 && ordered e.t1 d.t0
                      | None -> false)
                    deletes))
  in
  ( List.sort compare (List.map rank deletes),
    List.sort compare (List.filter_map delay deletes) )

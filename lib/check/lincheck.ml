type verdict = Linearizable | Not_linearizable | Gave_up

exception Give_up

(* the queue's contents: a multiset of (priority, payload) elements, as a
   map from element to its number of copies *)
module Bag = Map.Make (struct
  type t = int * int

  let compare = compare
end)

let copies x bag = Option.value ~default:0 (Bag.find_opt x bag)

let add x k bag =
  let c = copies x bag + k in
  if c = 0 then Bag.remove x bag else Bag.add x c bag

(* Wing & Gong search: repeatedly pick an operation allowed to take effect
   next (one that no unlinearized operation must precede in real time),
   apply it to the sequential specification, and backtrack on failure.
   Because every operation's effect is fixed by the history (a delete
   removes exactly the element it returned), the specification state is a
   function of the set of linearized operations — so memoising that set
   prunes the search. *)

let linearizable ?(max_states = 2_000_000) (h : History.t) =
  let events = Array.of_list h in
  let n = Array.length events in
  if n = 0 then Linearizable
  else begin
    let npri =
      Array.fold_left
        (fun acc e ->
          match e.History.op with
          | History.Insert { pri; _ } -> max acc (pri + 1)
          | History.Delete_min (Some (pri, _)) -> max acc (pri + 1)
          | History.Delete_min None -> acc)
        1 events
    in
    (* spec state *)
    let present = ref Bag.empty in
    let by_pri = Array.make npri 0 in
    let min_pri () =
      let rec go i = if i >= npri then -1 else if by_pri.(i) > 0 then i else go (i + 1) in
      go 0
    in
    let legal e =
      match e.History.op with
      | History.Insert _ -> true
      | History.Delete_min None -> min_pri () = -1
      | History.Delete_min (Some (pri, payload)) ->
          copies (pri, payload) !present > 0 && min_pri () = pri
    in
    (* [shift 1 e] applies [e]'s effect to the state, [shift (-1) e]
       undoes it *)
    let shift sign e =
      let change (pri, payload) k =
        present := add (pri, payload) k !present;
        by_pri.(pri) <- by_pri.(pri) + k
      in
      match e.History.op with
      | History.Insert { pri; payload; accepted = true } ->
          change (pri, payload) sign
      | History.Delete_min (Some x) -> change x (-sign)
      | History.Insert { accepted = false; _ } | History.Delete_min None -> ()
    in
    let linearized = Array.make n false in
    let mask = Bytes.make ((n / 8) + 1 ) '\000' in
    let set_bit i v =
      let byte = Char.code (Bytes.get mask (i / 8)) in
      let bit = 1 lsl (i mod 8) in
      Bytes.set mask (i / 8)
        (Char.chr (if v then byte lor bit else byte land lnot bit))
    in
    let visited = Hashtbl.create 1024 in
    let states = ref 0 in
    let remaining = ref n in
    let rec dfs () =
      if !remaining = 0 then true
      else begin
        let key = Bytes.to_string mask in
        if Hashtbl.mem visited key then false
        else begin
          Hashtbl.add visited key ();
          incr states;
          if !states > max_states then raise Give_up;
          let ok = ref false in
          (* heuristic order: deletes first (they constrain the state most),
             then inserts; completeness is unaffected *)
          let order =
            let dels = ref [] and inss = ref [] in
            for j = n - 1 downto 0 do
              if not linearized.(j) then
                match events.(j).History.op with
                | History.Delete_min _ -> dels := j :: !dels
                | History.Insert _ -> inss := j :: !inss
            done;
            Array.of_list (!dels @ !inss)
          in
          let i = ref 0 in
          while (not !ok) && !i < Array.length order do
            let cand = order.(!i) in
            incr i;
            if not linearized.(cand) then begin
              (* allowed next iff no other unlinearized op responded
                 before it was invoked *)
              let blocked = ref false in
              for j = 0 to n - 1 do
                if
                  (not linearized.(j))
                  && j <> cand
                  && events.(j).History.t1 < events.(cand).History.t0
                then blocked := true
              done;
              if (not !blocked) && legal events.(cand) then begin
                shift 1 events.(cand);
                linearized.(cand) <- true;
                set_bit cand true;
                decr remaining;
                if dfs () then ok := true
                else begin
                  shift (-1) events.(cand);
                  linearized.(cand) <- false;
                  set_bit cand false;
                  incr remaining
                end
              end
            end
          done;
          !ok
        end
      end
    in
    try if dfs () then Linearizable else Not_linearizable
    with Give_up -> Gave_up
  end

(* Quiescent consistency, decided epoch by epoch.  Epochs are separated
   by quiescent points (instants covered by no operation); operations in
   different epochs take effect in epoch order, operations within one
   epoch in any order.  Every operation's effect is fixed by the history,
   so the multiset present at an epoch's start is fixed too: S at the
   first epoch is empty and the next epoch starts from S + I - D.  With
   I the epoch's accepted inserts, D the elements its deletes returned
   and Z its count of [None] deletes, the epoch has a legal order if and
   only if:

   (a) D is a sub-multiset of S + I;
   (b) no element of D has a priority above the lowest priority in
       R = S - D, the copies of S that the epoch does not delete;
   (c) if Z > 0, R is empty.

   Sufficient: delete the elements of D in ascending priority, taking
   each from S while S still holds a copy and otherwise inserting it
   from I just before its delete; then run the [None] deletes, then the
   remaining inserts.  Each delete then sees only R, elements of D not
   yet deleted, and its own element — none below its priority by (b)
   and the ascending order — and each [None] sees R, empty by (c).
   Necessary: (a) because a delete removes a present element; and every
   copy in R is present for the whole epoch, so no delete can return a
   priority above R's lowest, and no delete can find the queue empty. *)

(* the history's operations cut into epochs, in epoch order: sorted by
   invocation, an operation opens a new epoch when every earlier one
   responded before it was invoked *)
let epochs (h : History.t) =
  let sorted = List.sort (fun a b -> compare a.History.t0 b.History.t0) h in
  let rec go acc cur frontier = function
    | [] -> List.rev (if cur = [] then acc else cur :: acc)
    | e :: rest ->
        let frontier' = max frontier e.History.t1 in
        if cur <> [] && frontier < e.History.t0 then
          go (cur :: acc) [ e ] frontier' rest
        else go acc (e :: cur) frontier' rest
  in
  go [] [] min_int sorted

(* the multiset after epoch [ops] from [s], or [None] when the epoch has
   no legal order *)
let step s ops =
  let ins, del, nones =
    List.fold_left
      (fun (ins, del, nones) e ->
        match e.History.op with
        | History.Insert { pri; payload; accepted = true } ->
            (add (pri, payload) 1 ins, del, nones)
        | History.Insert { accepted = false; _ } -> (ins, del, nones)
        | History.Delete_min (Some x) -> (ins, add x 1 del, nones)
        | History.Delete_min None -> (ins, del, nones + 1))
      (Bag.empty, Bag.empty, 0) ops
  in
  let supplied = Bag.for_all (fun x d -> d <= copies x s + copies x ins) del in
  let highest = Bag.fold (fun (pri, _) _ acc -> max pri acc) del min_int in
  (* R's lowest element: the first of S, in ascending order, that the
     epoch does not delete every copy of *)
  let kept = Seq.find (fun (x, c) -> c > copies x del) (Bag.to_seq s) in
  let ordered =
    match kept with
    | None -> true
    | Some ((lowest, _), _) -> highest <= lowest && nones = 0
  in
  if supplied && ordered then
    Some
      (Bag.fold (fun x d acc -> add x (-d) acc) del
         (Bag.union (fun _ a b -> Some (a + b)) s ins))
  else None

let quiescently_consistent h =
  let rec go s = function
    | [] -> true
    | ops :: rest -> (
        match step s ops with Some s' -> go s' rest | None -> false)
  in
  go Bag.empty (epochs h)

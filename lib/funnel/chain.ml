open Pqsim

let value_of node = node
let next_of node = node + 1

let rec walk node j k =
  if j >= k then node
  else
    let nxt = Api.read (next_of node) in
    if nxt = 0 then node else walk nxt (j + 1) k

let rec advance c n =
  if c = 0 || n = 0 then c else advance (Api.read (next_of c)) (n - 1)

(* Homogeneous trees only combine equal sizes, so a tree that reached
   layer [d] has exactly [2^d] members: [cap] covers the deepest layer,
   and any one member's child list *)
let cap f = max (1 lsl (Engine.config f).Engine.levels) (Engine.max_children f)
let region f = Engine.max_children f
let scratch f ~cap = Api.scratch (region f + (2 * cap))

(* Pop-side consumption of a matched push member: read everything from the
   partner, pair the children, then (and only then) release the partner. *)
let consume_partner f ~cap ~nkids ~partner =
  let v = Api.read (value_of (Engine.opval_of f partner)) in
  let buf = scratch f ~cap and theirs = region f in
  if Engine.read_children f partner buf theirs <> nkids then
    invalid_arg "Chain: eliminated trees differ in shape";
  for i = 0 to nkids - 1 do
    Engine.set_result f (Engine.child f i) ~flag:Engine.flag_elim_match
      ~value:buf.(theirs + i)
  done;
  Engine.set_result f partner ~flag:Engine.flag_elim_done ~value:0;
  v

(* hand each child the sub-chain after the nodes its elder siblings take *)
let rec hand_down f ~nkids i chain =
  if i < nkids then begin
    let c = Engine.child f i in
    let csize = -Engine.sum_of f c in
    Engine.set_result f c ~flag:Engine.flag_count ~value:chain;
    hand_down f ~nkids (i + 1) (advance chain csize)
  end

let distribute_pop f ~cap ~found me ~flag ~value ~nkids =
  if flag = Engine.flag_elim_match then begin
    found.(me) <- true;
    consume_partner f ~cap ~nkids ~partner:value
  end
  else begin
    (* flag_count: [value] heads my sub-chain (0 = dry) *)
    found.(me) <- value <> 0;
    let v = if value <> 0 then Api.read (value_of value) else 0 in
    hand_down f ~nkids 0 (if value = 0 then 0 else advance value 1);
    v
  end

let distribute_push f ~flag ~nkids =
  if flag = Engine.flag_count then
    for i = 0 to nkids - 1 do
      Engine.set_result f (Engine.child f i) ~flag:Engine.flag_count ~value:0
    done;
  (* flag_elim_done: the matched pop tree handles our children *)
  0

let client f ~cap ~found ~push ~pop =
  {
    Engine.eliminate =
      (fun ~me ~partner ~sign ->
        (* the push root hands itself to the pop root, which extracts our
           tree's values and releases us *)
        if sign > 0 then
          Engine.set_result f partner ~flag:Engine.flag_elim_match ~value:me
        else
          Engine.set_result f me ~flag:Engine.flag_elim_match ~value:partner);
    try_central =
      (fun ~me ~sign ~sum -> if sign > 0 then push ~me ~sum else pop ~sum);
    distribute =
      (fun ~me ~sign ~flag ~value ~nkids ->
        if sign > 0 then distribute_push f ~flag ~nkids
        else distribute_pop f ~cap ~found me ~flag ~value ~nkids);
  }

open Pqsim

type t = {
  f : Engine.t;
  main : int;
  elim : bool;
  floor : int option;
  ceil : int option;
  client : Engine.client;
}

(* Elimination short-cut (Fig. 10 lines 12-17): pretend the increment tree
   lands just before the decrement tree, so the counter never moves.  With
   a floor the starting point is clamped so the decrement is the one that
   "succeeds" at the boundary. *)
let eliminate f ~main ~floor ~ceil ~me ~partner ~sign =
  let v = Api.read main in
  let v = match floor with Some b when v <= b -> b + 1 | Some _ | None -> v in
  let v = match ceil with Some b when v >= b -> b - 1 | Some _ | None -> v in
  let dec_result = v and inc_result = v - 1 in
  let mine = if sign < 0 then dec_result else inc_result in
  let theirs = if sign < 0 then inc_result else dec_result in
  Engine.set_result f partner ~flag:Engine.flag_elim ~value:theirs;
  Engine.set_result f me ~flag:Engine.flag_elim ~value:mine

(* Prefix-sum distribution (Fig. 10 lines 41-47): in the assumed
   serialization the root goes first, then each child subtree in combining
   order. *)
let rec hand_down f ~value ~nkids i total =
  if i < nkids then begin
    let c = Engine.child f i in
    (* read the child's subtree sum before releasing it *)
    let csum = Engine.sum_of f c in
    Engine.set_result f c ~flag:Engine.flag_count ~value:(value + total);
    hand_down f ~value ~nkids (i + 1) (total + csum)
  end

let distribute f ~sign ~flag ~value ~nkids =
  if flag = Engine.flag_elim then
    for i = 0 to nkids - 1 do
      Engine.set_result f (Engine.child f i) ~flag:Engine.flag_elim ~value
    done
  else hand_down f ~value ~nkids 0 sign;
  value

(* The paper's machine offers only swap and compare-and-swap, so even the
   unbounded counter applies its combined sum with a CAS (the engine
   retries on failure).  A bounded operation clamps its target at the
   bound on its side: increments at [ceil], decrements at [floor]. *)
let try_central ~main ~floor ~ceil ~sign ~sum =
  let v = Api.read main in
  match if sign > 0 then ceil else floor with
  | None ->
      if Api.cas main ~expected:v ~desired:(v + sum) then v else Engine.retry
  | Some b ->
      let s = v + sum in
      let target =
        if sign > 0 then if s > b then b else s else if s < b then b else s
      in
      if target = v then v (* nothing applies; no write needed *)
      else if Api.cas main ~expected:v ~desired:target then v
      else Engine.retry

let create ?name mem ~nprocs ?config ?(elim = true) ?floor ?ceil ~init () =
  let config =
    match config with Some c -> c | None -> Engine.default_config ~nprocs
  in
  let main = Mem.alloc mem 1 in
  (* read-then-CAS target, also read racily by the elimination shortcut *)
  Mem.declare_sync mem ~addr:main ~len:1;
  Mem.poke mem main init;
  (match name with
  | Some n -> Mem.label mem ~addr:main ~len:1 (Field (n, "central"))
  | None -> ());
  let f = Engine.create ?name mem ~nprocs ~config in
  let client =
    {
      Engine.eliminate =
        (fun ~me ~partner ~sign ->
          eliminate f ~main ~floor ~ceil ~me ~partner ~sign);
      try_central =
        (fun ~me:_ ~sign ~sum -> try_central ~main ~floor ~ceil ~sign ~sum);
      distribute =
        (fun ~me:_ ~sign ~flag ~value ~nkids ->
          distribute f ~sign ~flag ~value ~nkids);
    }
  in
  { f; main; elim; floor; ceil; client }

let get t = Api.read t.main
let peek mem t = Mem.peek mem t.main

let inc t =
  Engine.operate t.f t.client ~sign:1 ~opval:0 ~homogeneous:true
    ~allow_elim:t.elim

let dec t =
  Engine.operate t.f t.client ~sign:(-1) ~opval:0 ~homogeneous:true
    ~allow_elim:t.elim

(* unbounded additions commute, so their trees need not be homogeneous *)
let add t delta =
  if delta = 0 then Api.read t.main
  else begin
    if t.floor <> None || t.ceil <> None then
      invalid_arg "Fcounter.add: bounded counters need inc/dec";
    Engine.operate t.f t.client ~sign:delta ~opval:0 ~homogeneous:false
      ~allow_elim:false
  end

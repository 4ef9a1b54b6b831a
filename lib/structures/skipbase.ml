open Pqsim

let nil = -1

type node = {
  id : int; (* 0 = head, i+1 = priority i *)
  npri : int; (* priority; -1 for head *)
  level : int; (* levels this node occupies: fwd.(0 .. level-1) *)
  lock : Pqsync.Mcs.t;
  state : int; (* addr: 0 unthreaded / 1 threading / 2 threaded *)
  fwd : int; (* base addr of [level] forward words holding node ids *)
  nbin : Bin.t option; (* head has no bin *)
}

type t = { nodes : node array; head : node; max_level : int }

let fully_threaded = 2

let create ?name mem ~nprocs ~npriorities ~bin_cap ~seed =
  let rec levels_for n acc = if n <= 1 then acc else levels_for (n / 2) (acc + 1) in
  let max_level = max 2 (levels_for npriorities 1) in
  let rng = Rng.make (seed lxor 0x5caff01d) in
  (* [name.part[id]]: each part's prefix is built once, a node adds only
     its index *)
  let part p = Option.map (fun n -> Mem.Field (n, p)) name in
  let lock_part = part "node_lock" and state_part = part "state"
  and fwd_part = part "fwd" and bin_part = part "bin" in
  let sub part id =
    match part with Some p -> Some (Mem.Index (p, id)) | None -> None
  in
  let label part id ~addr ~len =
    match part with
    | Some p -> Mem.label mem ~addr ~len (Index (p, id))
    | None -> ()
  in
  let mk_node ~id ~npri ~level ~with_bin =
    let lock = Pqsync.Mcs.create ?name:(sub lock_part id) mem ~nprocs in
    let state = Mem.alloc mem 1 in
    let fwd = Mem.alloc mem level in
    label state_part id ~addr:state ~len:1;
    label fwd_part id ~addr:fwd ~len:level;
    (* forward pointers and the threading-state word are read optimistically
       (lock-free traversal, threaded test) and re-validated under locks *)
    Mem.declare_sync mem ~addr:state ~len:1;
    Mem.declare_sync mem ~addr:fwd ~len:level;
    for l = 0 to level - 1 do
      Mem.poke mem (fwd + l) nil
    done;
    let nbin =
      if with_bin then
        Some (Bin.create ?name:(sub bin_part npri) mem ~nprocs ~cap:bin_cap)
      else None
    in
    { id; npri; level; lock; state; fwd; nbin }
  in
  let head = mk_node ~id:0 ~npri:(-1) ~level:max_level ~with_bin:false in
  Mem.poke mem head.state fully_threaded;
  let nodes = Array.make (npriorities + 1) head in
  for i = 0 to npriorities - 1 do
    (* geometric level, fixed per pre-allocated node *)
    let rec pick l =
      if l >= max_level then max_level else if Rng.bool rng then pick (l + 1) else l
    in
    nodes.(i + 1) <- mk_node ~id:(i + 1) ~npri:i ~level:(pick 1) ~with_bin:true
  done;
  { nodes; head; max_level }

let node_of_pri t p = t.nodes.(p + 1)

let bin n =
  match n.nbin with
  | Some b -> b
  | None -> invalid_arg "Skipbase.bin: head node"

let none = -1

(* The walks below recurse at top level with every operand an argument,
   and answer priorities rather than [Some node], so threading and
   iterating allocate nothing. *)

(* Walk level [l] starting from [cur]: the returned node is the last one
   whose priority is below [p].  Node priorities are host constants; only
   forward pointers cost memory accesses. *)
let rec find_pred t ~l ~p cur =
  let s = Api.read (cur.fwd + l) in
  if s <> nil && t.nodes.(s).npri < p then find_pred t ~l ~p t.nodes.(s)
  else cur

(* descend from level [lvl] to level [l], approaching the predecessor of
   priority [p] cheaply *)
let rec descend t ~l ~p lvl from =
  let pred = find_pred t ~l:lvl ~p from in
  if lvl = l then pred else descend t ~l ~p (lvl - 1) pred

let rec link_level t node l =
  (* descend from the top to approach the predecessor cheaply, then take
     its lock and re-validate *)
  let pred = descend t ~l ~p:node.npri (t.max_level - 1) t.head in
  Pqsync.Mcs.acquire pred.lock;
  let valid_pred = pred.id = 0 || Api.read pred.state = fully_threaded in
  if not valid_pred then begin
    Pqsync.Mcs.release pred.lock;
    link_level t node l
  end
  else begin
    let succ = Api.read (pred.fwd + l) in
    if succ <> nil && t.nodes.(succ).npri < node.npri then begin
      (* someone linked a closer predecessor meanwhile *)
      Pqsync.Mcs.release pred.lock;
      link_level t node l
    end
    else begin
      Api.write (node.fwd + l) succ;
      Api.write (pred.fwd + l) node.id;
      Pqsync.Mcs.release pred.lock
    end
  end

let ensure_threaded t p =
  let node = node_of_pri t p in
  if Api.read node.state = 0 && Api.cas node.state ~expected:0 ~desired:1
  then begin
    for l = 0 to node.level - 1 do
      link_level t node l
    done;
    Api.write node.state fully_threaded
  end

(* a forward word's node id as a priority *)
let pri_of_id s = if s = nil then none else s - 1

let first t = pri_of_id (Api.read (t.head.fwd + 0))
let next t p = pri_of_id (Api.read ((node_of_pri t p).fwd + 0))

let unthread_first t =
  Pqsync.Mcs.acquire t.head.lock;
  let s = Api.read (t.head.fwd + 0) in
  if s = nil then begin
    Pqsync.Mcs.release t.head.lock;
    none
  end
  else begin
    let node = t.nodes.(s) in
    Pqsync.Mcs.acquire node.lock;
    if Api.read node.state <> fully_threaded then begin
      (* threading still in flight; let it finish *)
      Pqsync.Mcs.release node.lock;
      Pqsync.Mcs.release t.head.lock;
      none
    end
    else begin
      (* the minimum node's predecessor at each of its levels is the head *)
      for l = node.level - 1 downto 0 do
        if Api.read (t.head.fwd + l) = node.id then
          Api.write (t.head.fwd + l) (Api.read (node.fwd + l))
      done;
      Api.write node.state 0;
      Pqsync.Mcs.release node.lock;
      Pqsync.Mcs.release t.head.lock;
      node.npri
    end
  end

let threaded_now mem n = Mem.peek mem n.state = fully_threaded

let invariants_now mem t =
  let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f () in
  let level_list l =
    let rec walk acc id =
      if id = nil then List.rev acc
      else
        let n = t.nodes.(id) in
        walk (n :: acc) (Mem.peek mem (n.fwd + l))
    in
    walk [] (Mem.peek mem (t.head.fwd + l))
  in
  let check_sorted l =
    let rec go = function
      | a :: (b :: _ as rest) ->
          if a.npri >= b.npri then
            Error (Printf.sprintf "level %d not sorted at pri %d" l a.npri)
          else go rest
      | _ -> Ok ()
    in
    go (level_list l)
  in
  let rec all_sorted l =
    if l >= t.max_level then Ok ()
    else
      let* () = check_sorted l in
      all_sorted (l + 1)
  in
  let* () = all_sorted 0 in
  (* membership at level l implies membership at every lower level, and
     every level-0 member is fully threaded *)
  let member l id = List.exists (fun n -> n.id = id) (level_list l) in
  let check_node n =
    if n.id = 0 then Ok ()
    else
      let in0 = member 0 n.id in
      let st = Mem.peek mem n.state in
      if in0 && st <> fully_threaded then
        Error (Printf.sprintf "pri %d linked but state=%d" n.npri st)
      else
        let rec levels l =
          if l >= n.level then Ok ()
          else if member l n.id && not in0 then
            Error (Printf.sprintf "pri %d at level %d but not level 0" n.npri l)
          else levels (l + 1)
        in
        levels 1
  in
  Array.fold_left
    (fun acc n ->
      let* () = acc in
      check_node n)
    (Ok ()) t.nodes
  |> Result.map_error (fun e -> e)

open Pqsim

(* Node protocol (3 words per node):
     state:  0                  empty
             (carry lsl 2) | 1  a first climber deposited [carry] ops
             2                  combined; the waiter awaits its result
     result: base value handed back to the waiting climber
     flag:   set once [result] is valid (cleared by the waiter)
   Packing the deposit into the state word makes deposit/absorb/withdraw
   single CAS transitions. *)

let st_empty = 0
let st_combined = 2
let deposit carry = (carry lsl 2) lor 1
let is_deposit s = s land 3 = 1
let deposit_carry s = s asr 2

type node = { state : int; result : int; flag : int }

let create ?name mem ~nprocs ?(wait = 64) ?central ?solo () =
  let rec pow2 n = if n >= nprocs then n else pow2 (2 * n) in
  let nleaves = pow2 1 in
  let levels =
    let rec go v acc = if v <= 1 then acc else go (v / 2) (acc + 1) in
    go nleaves 0
  in
  (* internal nodes in heap order 1 .. nleaves-1 *)
  let nodes =
    Array.init nleaves (fun i ->
        let base = Mem.alloc mem 3 in
        (match name with
        | Some n ->
            Mem.label mem ~addr:base ~len:3 (Printf.sprintf "%s.node[%d]" n i)
        | None -> ());
        (* state carries the deposit/absorb CAS protocol; flag the
           result handshake; result itself is data ordered by them *)
        Mem.declare_sync mem ~addr:base ~len:1;
        Mem.declare_sync mem ~addr:(base + 2) ~len:1;
        { state = base; result = base + 1; flag = base + 2 })
  in
  let central =
    match central with Some c -> c | None -> Mem.alloc mem 1
  in
  Mem.declare_sync mem ~addr:central ~len:1;
  (match name with
  | Some n -> Mem.label mem ~addr:central ~len:1 (n ^ ".central")
  | None -> ());
  let cas_add addr d =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(v + d) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  let inc () =
    let me = Api.self () in
    Api.count "comb.ops" 1;
    (* climb from our leaf; [carry] is the ops we speak for, [combined]
       the nodes whose waiter we must serve on the way down *)
    let node = ref ((nleaves + (me mod nleaves)) / 2) in
    let carry = ref 1 in
    let combined = ref [] in
    let base = ref 0 in
    let absorbed = ref false in
    let saw_busy = ref false in
    (try
       for _level = 1 to levels do
         let n = nodes.(!node) in
         (* try a few times before passing a busy node by: a node whose
            previous pair is still in flight will free up shortly, and
            waiting there is what throttles traffic toward the root *)
         let rec attempt tries =
           let s = Api.read n.state in
           if
             s = st_empty
             && Api.cas n.state ~expected:st_empty ~desired:(deposit !carry)
           then begin
             (* first at this node: hold the door open for a partner *)
             Api.work wait;
             if Api.cas n.state ~expected:(deposit !carry) ~desired:st_empty
             then () (* nobody came: withdraw and keep climbing alone *)
             else begin
               (* a partner absorbed us: wait for our base value *)
               Api.count "comb.absorbed" 1;
               ignore (Api.await n.flag ~until:(fun v -> v = 1));
               base := Api.read n.result;
               Api.write n.flag 0;
               Api.write n.state st_empty;
               raise Exit
             end
           end
           else if
             is_deposit s && Api.cas n.state ~expected:s ~desired:st_combined
           then begin
             (* absorb the waiter's ops; we answer for them going down *)
             Api.count "comb.combine" (deposit_carry s);
             combined := (!node, !carry) :: !combined;
             carry := !carry + deposit_carry s
           end
           else begin
             saw_busy := true;
             if tries > 0 then begin
               Api.work (wait / 2);
               attempt (tries - 1)
             end
           end
         in
         attempt 3;
         node := !node / 2
       done;
       (* reached the top speaking for [carry] ops *)
       Api.count "comb.central" 1;
       base := cas_add central !carry
     with Exit -> ());
    (* load feedback for reactive callers: count consecutive operations
       that neither combined anyone nor were absorbed *)
    (match solo with
    | Some solo ->
        if !carry = 1 && !combined = [] && (not !absorbed) && not !saw_busy
        then solo.(me) <- solo.(me) + 1
        else solo.(me) <- 0
    | None -> ());
    (* distribute: the waiter absorbed when we carried [before] ops gets
       the slice starting right after those *)
    let my_value = !base in
    List.iter
      (fun (nid, before) ->
        let n = nodes.(nid) in
        Api.write n.result (!base + before);
        Api.write n.flag 1)
      !combined;
    my_value
  in
  let read_now mem = Mem.peek mem central in
  { Ctr_intf.name = "combtree"; inc; read_now }

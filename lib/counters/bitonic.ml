open Pqsim

(* ------------------------------------------------------------------ *)
(* Network construction.  A network over a list of wires is a list of
   stages (balancers that can fire in parallel) plus the output order of
   the wires — the order in which the step property holds. *)

let even l = List.filteri (fun i _ -> i mod 2 = 0) l
let odd l = List.filteri (fun i _ -> i mod 2 = 1) l

(* parallel composition of two stage lists *)
let beside l1 l2 =
  let rec go a b =
    match (a, b) with
    | [], [] -> []
    | x :: xs, [] -> x :: go xs []
    | [], y :: ys -> y :: go [] ys
    | x :: xs, y :: ys -> (x @ y) :: go xs ys
  in
  go l1 l2

(* Merger[2k]: merges two step-property sequences into one.  M1 takes the
   evens of the top sequence with the odds of the bottom, M2 the
   complement; a final rank of balancers knits their outputs together. *)
let rec merger top bot =
  match (top, bot) with
  | [ a ], [ b ] -> ([ [ (a, b) ] ], [ a; b ])
  | _ ->
      let l1, z1 = merger (even top) (odd bot) in
      let l2, z2 = merger (odd top) (even bot) in
      let final = List.map2 (fun a b -> (a, b)) z1 z2 in
      ( beside l1 l2 @ [ final ],
        List.concat (List.map2 (fun a b -> [ a; b ]) z1 z2) )

let rec network wires =
  match wires with
  | [ _ ] -> ([], wires)
  | _ ->
      let n = List.length wires in
      let top = List.filteri (fun i _ -> i < n / 2) wires in
      let bot = List.filteri (fun i _ -> i >= n / 2) wires in
      let lt, ot = network top in
      let lb, ob = network bot in
      let lm, om = merger ot ob in
      (beside lt lb @ lm, om)

let stages ~width =
  let layers, _ = network (List.init width Fun.id) in
  List.length layers

(* ------------------------------------------------------------------ *)

let create mem ~width =
  if width < 2 || width land (width - 1) <> 0 then
    invalid_arg "Bitonic.create: width must be a power of two >= 2";
  let layers, out_order = network (List.init width Fun.id) in
  (* per stage, map each wire to (toggle address, top wire, bottom wire) *)
  let stage_maps =
    List.map
      (fun balancers ->
        let map = Array.make width None in
        List.iter
          (fun (a, b) ->
            let toggle = Mem.alloc mem 1 in
            map.(a) <- Some (toggle, a, b);
            map.(b) <- Some (toggle, a, b))
          balancers;
        map)
      layers
  in
  (* counter per output rank: rank r dispenses r, r+width, ... *)
  let rank_of_wire = Array.make width 0 in
  List.iteri (fun rank wire -> rank_of_wire.(wire) <- rank) out_order;
  let wire_counters = Array.init width (fun _ -> Mem.alloc mem 1) in
  (* the machine has no fetch-and-add: balancers toggle with a CAS loop *)
  let toggle addr =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(1 - v) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  let cas_faa addr =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(v + 1) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  let inc () =
    let wire = ref (Api.rand width) in
    List.iter
      (fun map ->
        match map.(!wire) with
        | None -> ()
        | Some (t, top, bot) ->
            wire := if toggle t = 0 then top else bot)
      stage_maps;
    let rank = rank_of_wire.(!wire) in
    let k = cas_faa wire_counters.(rank) in
    rank + (width * k)
  in
  let read_now mem =
    Array.fold_left (fun acc a -> acc + Mem.peek mem a) 0 wire_counters
  in
  { Ctr_intf.name = Printf.sprintf "bitonic[%d]" width; inc; read_now }

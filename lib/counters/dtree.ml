open Pqsim

(* location-word states; >= 0 means "open to diffraction at node n" *)
let idle = -2
let locked = -1
let diffracted = -3

type node = { toggle : int; prism : int; prism_width : int }

(* prism pairing attempts per balancer, and cycles of waiting for a
   partner per attempt *)
let attempts = 2
let spin = 12

let create mem ~nprocs =
  let depth =
    let rec log2 v acc = if v <= 1 then acc else log2 (v / 2) (acc + 1) in
    max 1 (log2 nprocs 0 / 2)
  in
  let nleaves = 1 lsl depth in
  (* nodes in heap order 1 .. nleaves-1; prisms shrink with depth *)
  let nodes =
    Array.init nleaves (fun n ->
        let prism_width =
          if n = 0 then 1
          else
            let rec level v acc = if v <= 1 then acc else level (v / 2) (acc + 1) in
            max 1 (nprocs / (2 lsl level n 0))
        in
        let prism = Mem.alloc mem prism_width in
        for i = 0 to prism_width - 1 do
          Mem.poke mem (prism + i) (-1)
        done;
        { toggle = Mem.alloc mem 1; prism; prism_width })
  in
  let leaves = Array.init nleaves (fun _ -> Mem.alloc mem 1) in
  let locations = Mem.alloc mem nprocs in
  for p = 0 to nprocs - 1 do
    Mem.poke mem (locations + p) idle
  done;
  let loc pid = locations + pid in
  let cas_faa addr =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(v + 1) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  let toggle addr =
    let rec go window =
      let v = Api.read addr in
      if Api.cas addr ~expected:v ~desired:(1 - v) then v
      else go (Pqsync.Backoff.pause window)
    in
    go Pqsync.Backoff.first
  in
  (* Pass one balancer: returns the direction (0 = left, 1 = right).
     Either we diffract a partner (we go left, it goes right), we are
     diffracted ourselves, or we toggle. *)
  let pass n =
    let me = Api.self () in
    let node = nodes.(n) in
    Api.write (loc me) n;
    let exception Dir of int in
    try
      for _ = 1 to attempts do
        let slot = node.prism + Api.rand node.prism_width in
        let q = Api.swap slot me in
        if q >= 0 && q <> me then begin
          if Api.cas (loc me) ~expected:n ~desired:locked then begin
            if Api.cas (loc q) ~expected:n ~desired:diffracted then
              raise (Dir 0) (* diffracted [q] to the right, we go left *)
            else Api.write (loc me) n (* release ourselves, try again *)
          end
          else begin
            (* somebody committed to diffracting us *)
            ignore (Api.await (loc me) ~until:(fun v -> v = diffracted));
            raise (Dir 1)
          end
        end;
        Api.work spin;
        if Api.read (loc me) <> n then begin
          ignore (Api.await (loc me) ~until:(fun v -> v = diffracted));
          raise (Dir 1)
        end
      done;
      (* prism failed: close ourselves off, then take the toggle *)
      if Api.cas (loc me) ~expected:n ~desired:locked then
        raise (Dir (toggle node.toggle))
      else begin
        ignore (Api.await (loc me) ~until:(fun v -> v = diffracted));
        raise (Dir 1)
      end
    with Dir d -> d
  in
  let inc () =
    let n = ref 0 (* index into [nodes]: 0 is the root here *) in
    let leaf = ref 0 in
    for level = 0 to depth - 1 do
      let d = pass !n in
      leaf := (!leaf lsl 1) lor d;
      (* children of node n (0-based heap order) *)
      n := (2 * !n) + 1 + d;
      ignore level
    done;
    let k = cas_faa leaves.(!leaf) in
    !leaf + (nleaves * k)
  in
  let read_now mem =
    Array.fold_left (fun acc a -> acc + Mem.peek mem a) 0 leaves
  in
  { Ctr_intf.name = Printf.sprintf "dtree[%d]" depth; inc; read_now }

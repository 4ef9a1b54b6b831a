type t = { nodes : int; adj : (int * int) array array; nedges : int }

let degree = 3
let max_weight = 8
let nodes t = t.nodes
let nedges t = t.nedges
let edges t u = t.adj.(u)

let generate ~seed ~nodes =
  if nodes <= 0 then invalid_arg "Graph.generate: nodes must be >= 1";
  let rng = Pqsim.Rng.make (seed lxor 0x6eaf1) in
  let adj = Array.make nodes [] in
  let nedges = ref 0 in
  let add u v w =
    adj.(u) <- (v, w) :: adj.(u);
    adj.(v) <- (u, w) :: adj.(v);
    incr nedges
  in
  (* random recursive tree: node v attaches to a uniform earlier node,
     so the graph is connected (every node reaches node 0) by
     construction for every seed *)
  for v = 1 to nodes - 1 do
    let u = Pqsim.Rng.int rng v in
    add u v (1 + Pqsim.Rng.int rng max_weight)
  done;
  (* densify toward the average degree; parallel edges and
     the occasional rejected self-loop are harmless for SSSP *)
  let extra = max 0 ((nodes * degree / 2) - (nodes - 1)) in
  for _ = 1 to extra do
    let u = Pqsim.Rng.int rng nodes in
    let v = Pqsim.Rng.int rng nodes in
    if u <> v then add u v (1 + Pqsim.Rng.int rng max_weight)
  done;
  {
    nodes;
    adj = Array.map (fun l -> Array.of_list (List.rev l)) adj;
    nedges = !nedges;
  }

let max_path_length t = (t.nodes - 1) * max_weight

(* textbook Dijkstra over a sorted (dist, node) set — host-side
   reference answer, independent of any queue under test *)
module Frontier = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let dijkstra t ~src =
  if src < 0 || src >= t.nodes then invalid_arg "Graph.dijkstra: bad src";
  let dist = Array.make t.nodes max_int in
  dist.(src) <- 0;
  let frontier = ref (Frontier.singleton (0, src)) in
  while not (Frontier.is_empty !frontier) do
    let ((d, u) as e) = Frontier.min_elt !frontier in
    frontier := Frontier.remove e !frontier;
    if d = dist.(u) then
      Array.iter
        (fun (v, w) ->
          let nd = d + w in
          if nd < dist.(v) then begin
            if dist.(v) <> max_int then
              frontier := Frontier.remove (dist.(v), v) !frontier;
            dist.(v) <- nd;
            frontier := Frontier.add (nd, v) !frontier
          end)
        t.adj.(u)
  done;
  dist

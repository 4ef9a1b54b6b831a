(** Seeded random weighted graphs for the SSSP scenario, plus a
    host-side Dijkstra reference oracle.

    Generation is deterministic per seed and connected by construction:
    a random recursive tree is laid down first (node [v] attaches to a
    uniform earlier node), then extra edges densify the graph toward
    average degree {!degree}.  All weights are in [1 .. max_weight] —
    strictly positive, as Dijkstra requires. *)

type t

val degree : int
(** the target average degree: 3 *)

val max_weight : int
(** the inclusive weight cap: 8 *)

val generate : seed:int -> nodes:int -> t
(** [generate ~seed ~nodes] builds an undirected connected graph. *)

val nodes : t -> int
val nedges : t -> int

val edges : t -> int -> (int * int) array
(** [(neighbour, weight)] pairs of a node *)

val max_path_length : t -> int
(** [(nodes - 1) * max_weight]: an inclusive upper bound on any simple
    path length, hence on every distance the SSSP scenario can insert —
    sizes the bounded priority range a queue needs. *)

val dijkstra : t -> src:int -> int array
(** reference shortest distances from [src] (host-side, sequential);
    connected generation means no entry is ever [max_int] *)

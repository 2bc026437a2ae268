(** Shortest paths over attributed graphs.

    Used by the topology substrate to derive end-to-end overlay delays
    from router-level links (the synthetic PlanetLab trace measures
    site-to-site paths, not physical links). *)

open Netembed_graph

val hops_from : Graph.t -> Graph.node -> int array
(** BFS hop counts from the source; [max_int] marks unreachable nodes. *)

val dijkstra :
  Graph.t -> weight:(Graph.edge -> float) -> Graph.node -> float array * Graph.node array
(** [dijkstra g ~weight src] is [(dist, parent)]: the shortest-path
    distance from [src] to every node ([infinity] if unreachable) and
    the predecessor on such a path ([-1] for [src] and unreachable
    nodes).  @raise Invalid_argument on negative edge weights. *)

val shortest_path :
  Graph.t -> weight:(Graph.edge -> float) -> Graph.node -> Graph.node ->
  (float * Graph.node list) option
(** Distance and node sequence (inclusive of both endpoints), if a path
    exists. *)

val eccentricity : Graph.t -> Graph.node -> int
(** Maximum finite hop distance from the node. *)

val diameter_approx : Graph.t -> rng:Netembed_rng.Rng.t -> samples:int -> int
(** Lower bound on the hop diameter from double-sweep BFS over random
    start nodes.  0 for graphs with < 2 nodes. *)

(** Graph traversal and connectivity, for the tests: generated
    topologies and sampled query subgraphs (the paper samples "random
    connected subgraphs from the hosting network") must be connected. *)

module Graph = Netembed_graph.Graph

val bfs_order : Graph.t -> Graph.node -> Graph.node array
(** Nodes reachable from the start, in breadth-first order (following
    [succ] edges; for undirected graphs, the whole component). *)

val dfs_order : Graph.t -> Graph.node -> Graph.node array

val component_of : Graph.t -> Graph.node -> Graph.node array
(** Connected component of the node (undirected sense: directed graphs
    are traversed over [succ ∪ pred]). *)

val components : Graph.t -> Graph.node array array
(** Partition of all nodes into connected components (undirected
    sense), ordered by smallest member. *)

val is_connected : Graph.t -> bool
(** True for the empty graph. *)

val spanning_tree_edges : Graph.t -> Graph.node -> Graph.edge list
(** Edges of a BFS spanning tree of the component of the start node. *)

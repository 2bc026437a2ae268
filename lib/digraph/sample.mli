(** Random sampling over graphs — the query-generation primitives.

    The paper's PlanetLab experiments use "random connected subgraphs
    from the hosting network of size N nodes", with the number of edges
    varied per size (section VII-B). *)

val random_connected_nodes :
  Netembed_rng.Rng.t -> Graph.t -> int -> Graph.node array
(** [random_connected_nodes rng g n] grows a uniform random connected
    node set of size [n] by frontier expansion from a random seed.
    @raise Invalid_argument if no component of [g] has [n] nodes. *)

val random_connected_subgraph :
  Netembed_rng.Rng.t -> Graph.t -> n:int -> extra_edges:int ->
  Graph.t * Graph.node array
(** Sample [n] connected nodes; keep a random spanning tree of the
    induced subgraph plus [extra_edges] additional induced edges chosen
    uniformly (clamped to availability).  Returns the subgraph and the
    original node id of every subgraph node.  The result is connected by
    construction and is a subgraph of [g], so an embedding of it into
    [g] always exists. *)

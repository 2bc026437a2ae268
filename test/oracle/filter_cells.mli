(** The filter matrix F of the paper's section V-A by brute force, for
    the tests to compare {!Netembed_core.Filter.build} against.  It
    shares no code with the build's fill: every cell is decided from
    the definition, over every (host node, host node) pair.

    [v ∈ F\[a, r, b\]] iff [node_ok(a, r)], [node_ok(b, v)], and every
    query edge between [a] and [b] has a host edge between [r] and [v],
    in the edge's orientation, whose pair passes
    {!Netembed_core.Problem.edge_pair_ok}.  Only cells with [a <> b]
    are defined. *)

module Graph = Netembed_graph.Graph
module Bitset = Netembed_bitset.Bitset

type t

val build : Netembed_core.Problem.t -> t
(** Decides [node_ok] for every (query node, host node) pair, query
    node by query node, then evaluates every (query edge, host edge,
    orientation) pair whose endpoints pass [node_ok] — the pairs a
    build without the pre-filter evaluates, so both raise the
    interpreter's error on the same instances. *)

val cell : t -> a:Graph.node -> r:Graph.node -> b:Graph.node -> Bitset.t
(** [F\[a, r, b\]]; empty where [a] and [b] share no query edge. *)

val node_candidates : t -> Graph.node -> Bitset.t
(** Expression (1): [node_ok(q)] intersected, over every query
    neighbour [w] of [q], with the hosts [r] whose [F\[q, r, w\]] is not
    empty. *)

val blame : t -> Netembed_explain.Explain.Blame.t
(** One elimination per (query node, host) pair outside the node's
    candidates, recorded host by host in ascending order under the
    precedence degree filter, node constraint, then the first query
    neighbour (in {!Netembed_core.Problem.query_neighbours} order)
    whose cell is empty. *)

(** {1 Fixtures} *)

val tenant_problem :
  Netembed_rng.Rng.t -> host:Graph.t -> n:int -> Netembed_core.Problem.t
(** An [n]-node tenant request in the service benchmark's shape: a
    connected subgraph of [host] (with up to one extra edge) whose delay
    bands widen each sampled link's [avgDelay] by 10–40% either way,
    nodes demanding 20–50 [cpuMhz] under the node constraint
    [rSource.cpuMhz >= vSource.cpuMhz], and the edge constraint
    [avg_delay_within].  On a PlanetLab trace most of its cells hold
    two or more partners. *)

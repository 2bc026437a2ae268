(** Attributed graphs: the common representation of hosting and query
    networks (paper, section IV: [R = <V,E>], [Q = <V,E>] plus a
    characterization of nodes and links).

    Nodes and edges are dense integer handles ([0 .. count-1]), which the
    embedding algorithms exploit for array- and bitset-indexed state.
    Graphs are mutable during construction (generators add nodes and
    edges incrementally) and treated as immutable afterwards.

    Undirected graphs store each edge once; adjacency is maintained from
    both endpoints.  Self-loops are rejected; parallel edges are allowed
    (a hosting network may expose several measured links between two
    sites) but generators in this repository never produce them. *)

type kind = Directed | Undirected

type node = int
type edge = int
type t

(** {1 Construction} *)

val create : ?kind:kind -> ?name:string -> unit -> t
(** A fresh empty graph; [kind] defaults to [Undirected]. *)

val add_node : t -> Netembed_attr.Attrs.t -> node
(** Drops this graph's pair index (see {!edges_between}); copies that
    share it keep theirs. *)

val add_edge : t -> node -> node -> Netembed_attr.Attrs.t -> edge
(** Drops this graph's pair index, like {!add_node}.
    @raise Invalid_argument on self-loops or unknown endpoints. *)

val set_node_attrs : t -> node -> Netembed_attr.Attrs.t -> unit
val set_edge_attrs : t -> edge -> Netembed_attr.Attrs.t -> unit
val set_graph_attrs : t -> Netembed_attr.Attrs.t -> unit

(** {1 Inspection} *)

val kind : t -> kind
val name : t -> string
val node_count : t -> int
val edge_count : t -> int

val node_attrs : t -> node -> Netembed_attr.Attrs.t
val edge_attrs : t -> edge -> Netembed_attr.Attrs.t
val graph_attrs : t -> Netembed_attr.Attrs.t

val endpoints : t -> edge -> node * node
(** Source and target in insertion orientation (meaningful for directed
    graphs; arbitrary but stable for undirected ones). *)

val edge_source : t -> edge -> node
(** [fst (endpoints t e)] without allocating the pair — for per-pair
    hot paths (constraint evaluation resolves a residual's
    orientation on every evaluation). *)

val edge_target : t -> edge -> node
(** [snd (endpoints t e)] without allocating the pair — for loops that
    visit host edges by id (the filter build's walk over a plan's
    admissible edges). *)

val succ : t -> node -> (node * edge) list
(** Out-neighbours with the connecting edge.  For undirected graphs this
    is the full neighbourhood. *)

val pred : t -> node -> (node * edge) list
(** In-neighbours.  Equal to {!succ} for undirected graphs. *)

val degree : t -> node -> int
(** [List.length (succ t v)]; for undirected graphs, the ordinary
    degree. *)

val out_degree : t -> node -> int
val in_degree : t -> node -> int

val find_edge : t -> node -> node -> edge option
(** First edge from [u] to [v] ([u]–[v] in either stored orientation for
    undirected graphs): the lowest id in {!edges_between}. *)

val edges_between : t -> node -> node -> edge list
(** All edges from [u] to [v] ([u]–[v] in either stored orientation for
    undirected graphs), in ascending id order.  Served by the pair
    index, a CSR (compressed sparse row) table of each node's
    neighbours, sorted, with their edge ids: O(log degree) per lookup.
    The index is built in O(|V| + |E|) on the first lookup after a
    mutation ({!add_node}, {!add_edge}); attribute updates keep it. *)

val build_pair_index : t -> unit
(** Build the pair index now if it is not built.  After this, lookups
    only read immutable arrays, so the graph can be shared across
    domains; {!copy} hands the built index on. *)

val degrees : t -> int array
(** {!degree} of every node, indexed by node; {!in_degrees} likewise
    {!in_degree}.  Both are read from the pair index (built on demand,
    see {!build_pair_index}), so {!copy} shares them and they are
    never rebuilt per copy.  Owned by the index: read-only. *)

val in_degrees : t -> int array

val mem_edge : t -> node -> node -> bool

val iter_nodes : (node -> unit) -> t -> unit
val iter_edges : (edge -> node -> node -> unit) -> t -> unit
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (edge -> node -> node -> 'a -> 'a) -> t -> 'a -> 'a
val nodes : t -> node array
val edges : t -> (edge * node * node) array

(** {1 Derived graphs} *)

val copy : t -> t
(** A graph with the same nodes, edges and attributes, mutable
    independently of [t].  It shares [t]'s pair index if that is built
    (the topology is the same), so copies of a graph whose index was
    built once never build their own until they are mutated. *)

val induced_subgraph : t -> node array -> t * node array
(** [induced_subgraph g sel] is the subgraph on the nodes of [sel]
    (attributes shared) together with the array mapping new node ids to
    the original ids ([sel] itself, re-indexed).  Edges between selected
    nodes are all retained.
    @raise Invalid_argument if [sel] contains duplicates. *)

val spanning_subgraph : t -> node array -> edge array -> t * node array
(** Like {!induced_subgraph} but keeping only the listed edges (which
    must connect selected nodes). *)

val density : t -> float
(** [|E| / (|V| choose 2)] for undirected graphs, [|E| / (|V|·(|V|-1))]
    for directed ones; 0 for graphs with fewer than two nodes. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line ["name: N nodes, M edges (undirected)"] summary. *)

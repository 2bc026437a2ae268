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
val add_edge : t -> node -> node -> Netembed_attr.Attrs.t -> edge
(** @raise Invalid_argument on self-loops or unknown endpoints. *)

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
    undirected graphs). *)

val edges_between : t -> node -> node -> edge list
(** All edges from [u] to [v], via a lazily-built hash index (O(1)
    amortized; the index is rebuilt after any [add_edge]). *)

val mem_edge : t -> node -> node -> bool

val iter_nodes : (node -> unit) -> t -> unit
val iter_edges : (edge -> node -> node -> unit) -> t -> unit
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (edge -> node -> node -> 'a -> 'a) -> t -> 'a -> 'a
val nodes : t -> node array
val edges : t -> (edge * node * node) array

(** {1 Derived graphs} *)

val copy : t -> t

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

(** Link-to-path embedding — the paper's first follow-up: "allow
    many-to-one mappings between virtual and real nodes (e.g., by
    mapping a link in the query network to a path in the real
    network)".

    Realized as a reduction to the standard one-to-one problem: the
    hosting network is augmented with {e path edges} — one synthetic
    edge per host pair connected by a path of at most [max_hops] links,
    carrying aggregated attributes (delays add up along a path,
    bandwidth is the bottleneck minimum).  Standard NETEMBED search over
    the augmented host then implicitly maps query links onto host
    paths; {!embed_with_paths} translates a mapping's links back into
    the underlying path of real links.

    The reduction is sound and complete for constraints over the
    aggregated attributes: an embedding into the closure exists iff a
    link-to-path embedding with stretch <= [max_hops] exists. *)

open Netembed_graph
open Netembed_core

type closure

val closure : ?max_hops:int -> Graph.t -> closure
(** Build the [max_hops]-closure (default 2).  Aggregation per path:
    ["minDelay"], ["avgDelay"], ["maxDelay"] sum; ["bandwidth"] takes
    the minimum.  For each connected pair within the hop bound, the
    minimum-[avgDelay] path is retained.  Existing direct edges are
    kept as 1-hop paths.  O(|V|·b^h) construction; intended for sparse
    router-level hosts (BRITE, transit-stub), not dense overlays.

    @raise Invalid_argument if [max_hops < 1]. *)

val host : closure -> Graph.t
(** The augmented hosting network to run the ordinary engine against. *)

val path_of_edge : closure -> Graph.edge -> Graph.node list
(** Underlying host node sequence (length >= 2) of a closure edge. *)

val embed_with_paths :
  ?max_hops:int ->
  ?options:Engine.options ->
  Engine.algorithm ->
  host:Graph.t ->
  query:Graph.t ->
  Netembed_expr.Ast.t ->
  (Mapping.t * (Graph.edge * Graph.node list) list) option
(** One-call convenience: build the closure, embed, and give every
    query edge (in id order) its mapped host path. *)

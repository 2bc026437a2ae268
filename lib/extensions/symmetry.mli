(** Query-network symmetry: compact representation of equivalent
    embeddings.

    The paper credits Considine & Byers [16] with "us[ing] automorphism
    to represent multiple equivalent mappings efficiently using a
    single mapping", and notes that regular query topologies are the
    worst case precisely because "any permutation of a partial match is
    also a partial match".  This module provides that compaction as a
    post-processing stage: if [σ] is an attribute-preserving
    automorphism of the query network, then [m ∘ σ] is feasible exactly
    when [m] is, so the feasible set partitions into orbits and only
    one representative per orbit is informative.

    Soundness requires σ to preserve everything the constraint can
    observe: node attribute tables must be equal and every query edge
    must map to a query edge with an equal attribute table (orientation
    respected for directed queries, either orientation allowed for
    undirected ones). *)

open Netembed_graph
open Netembed_core

type t
(** A computed automorphism group (as an explicit element list). *)

val automorphisms : ?limit:int -> Graph.t -> t option
(** All attribute-preserving automorphisms of the graph, by
    backtracking search.  [None] if the group exceeds [limit] elements
    (default 10,000 — a clique of 8 already has 40,320), in which case
    callers should skip deduplication rather than pay the blow-up. *)

val size : t -> int
(** Group order (>= 1: the identity is always present). *)

val canonical : t -> Mapping.t -> Mapping.t
(** The lexicographically smallest element of the mapping's orbit
    [{ m ∘ σ }]; equal for two mappings iff they are equivalent. *)

val dedupe : t -> Mapping.t list -> Mapping.t list
(** Orbit representatives (canonical forms), in first-seen order.
    [List.length (dedupe g ms) * size g >= List.length ms] with
    equality when [ms] is a union of full orbits, e.g. the complete
    feasible set of an engine run. *)

val orbit_count : t -> Mapping.t list -> int
(** [List.length (dedupe g ms)] without building the list. *)

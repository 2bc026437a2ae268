(** The constraint filter matrix of ECF/RWB (paper, section V-A).

    During the first stage, "the constraint expression is applied to
    each possible pair of virtual and real edges", producing candidate
    mappings per edge.  The sparse 3-D matrix [F] has cells
    [(v, r, vs)] holding the candidate set for [vs] when [v] is mapped
    onto [r].

    Representation: one dense row per oriented query pair [(v,vs)]
    joined by a query edge, indexed by the host node [r]; each cell is
    a {!Netembed_bitset.Bitset.t} over the host-node universe, so a
    lookup is two array reads and the search core intersects cells in
    O(words) ({!Domain_store}).  Empty cells share one sentinel and
    one-partner cells share one set per partner.  The build sets each
    query edge's partner bits in a scratch matrix of host-node rows of
    words, then turns every non-empty row into its cell once: the
    shared singleton for one partner, otherwise one set of exactly the
    universe's size.  With parallel query edges between a pair, the
    cell holds the partners that satisfy all of them.  The negative filter F̄ of the paper is implicit:
    candidate sets are intersected, so anything absent from [F] is
    excluded (equivalent to subtracting the union of F̄ for undirected
    problems; for directed problems both lookup directions of each
    tested orientation are stored).

    The matrix also precomputes per-query-node candidate sets (the
    paper's expression (1), strengthened with the node-level filters of
    {!Problem.node_ok}) and the Lemma-1 search order [LS]: query nodes
    ascending by candidate count. *)

open Netembed_graph

type t

type ordering =
  | Connected_lemma1
      (** default: Lemma-1 seed, then greedy most-links-to-prefix *)
  | Lemma1  (** the paper's literal reading: ascending candidate count *)
  | Input_order  (** no reordering — the ablation baseline *)

val build :
  ?ordering:ordering ->
  ?prefilter:bool ->
  ?blame:Netembed_explain.Explain.Blame.t ->
  Problem.t ->
  t
(** [prefilter] (default [true]) short-circuits the per-pair constraint
    evaluations through {!Prefilter}: atoms extracted from each residual
    by {!Netembed_expr.Bounds} are decided by a word-parallel sweep over
    an unboxed host attribute column, so pairs a single attribute
    comparison already rejects (or, for fully-extracted constraints,
    accepts) never reach the evaluator, and a residual that restricts
    [rEdge] walks only the host edges it admits, reading the plan's
    admissible and clean edge sets a word at a time.  The node constraint
    takes the same path once per query node: specialized
    ({!Problem.node_residual}), its atoms swept over the host node
    columns, and only the hosts left undecided evaluated (per host, as
    without the pre-filter, when it has [rEdge] atoms).  The resulting
    matrix is identical either way — only the number of constraint
    evaluations changes, which is what the bench ablation reports.
    Per-query-node [node_ok] verdicts are precomputed once over the host
    universe instead of per incident host edge.

    [blame], when given, receives the (query node, host) pairs excluded
    from the node's expression-(1) candidate set, each attributed to the
    first filter stage that rejected it (degree filter, node constraint,
    then the first incident query edge with no compatible host edge).
    Each stage's hosts are classified with set operations and recorded
    as one {!Netembed_explain.Explain.Blame.record} per (query node,
    cause) with their count, in the order a host-by-host pass would
    first meet each cause, so the blame table is the one per-host
    recording would leave.  The attribution reads the build's own node
    verdicts, so it evaluates no constraint. *)

val universe : t -> int
(** Host-node universe size — the width of every cell bitset. *)

val cell_bits :
  t -> q_assigned:Graph.node -> r_assigned:Graph.node -> q_next:Graph.node ->
  Netembed_bitset.Bitset.t option
(** The cell [F[q_assigned, r_assigned, q_next]] as a bitset over the
    host universe, or [None] when no host edge qualifies.  The returned
    set is owned by the filter, may be shared with other cells, and must
    not be mutated — searchers copy it into {!Domain_store} scratch
    before intersecting. *)

val cell_bits_exn :
  t -> q_assigned:Graph.node -> r_assigned:Graph.node -> q_next:Graph.node ->
  Netembed_bitset.Bitset.t
(** Like {!cell_bits} but raising [Not_found] for a missing cell instead
    of boxing an option — the allocation-free lookup (two array reads)
    the search hot loop uses.  Same ownership rule: the returned set is
    read-only. *)

val node_candidates_bits : t -> Graph.node -> Netembed_bitset.Bitset.t
(** Host candidates for a query node irrespective of other assignments
    (expression (1) ∩ node filters).  Owned by the filter, read-only. *)

val order : t -> Graph.node array
(** The search order [LS].  Lemma 1 calls for ascending candidate
    count; since expression (2) can only prune a node through edges
    into the already-assigned prefix, the order is additionally kept
    connected: seed = fewest candidates, then greedily the node with
    most edges into the prefix (ties: fewest candidates, then highest
    degree), reseeding by candidate count across query components. *)

val cell_count : t -> int
(** Number of non-empty cells — the space-cost metric that motivates
    LNS. *)

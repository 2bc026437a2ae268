(** An embedding problem instance: hosting network, query network and
    constraint expression (paper, section IV).

    The constraint is evaluated per (query edge, hosting edge) pair with
    the six Table-I objects in scope.  An optional node constraint (an
    extension over the paper, which folds node conditions into the edge
    expression via [vSource]/[vTarget]) is evaluated per (query node,
    host node) pair with the node tables bound to both source slots:
    the filter build specializes it per query node
    ({!node_residual}) and evaluates only the hosts its pre-filter plan
    leaves undecided; LNS, [Verify] and the baselines evaluate it
    unspecialized ({!node_ok}).

    Every evaluation goes through the interpreter
    ({!Netembed_expr.Eval}).  The edge constraint is specialized once
    per (query edge, orientation) against the query-side attributes
    ({!Netembed_expr.Eval.specialize}); the residual is shared by the
    filter build, DFS, LNS and the parallel searchers. *)

open Netembed_graph

type compiled
(** The cached specialization state of a problem: the residual of each
    (query edge, orientation).  Opaque; obtained from
    {!compiled_residuals} and fed back to {!make} by the service's
    filter cache so a warm submit over the same query and constraint
    skips specialization entirely. *)

type t = private {
  host : Graph.t;
  query : Graph.t;
  edge_constraint : Netembed_expr.Ast.t;
  node_constraint : Netembed_expr.Ast.t option;
  degree_filter : bool;
      (** prune host candidates with degree < query degree (sound for
          one-to-one edge-preserving embeddings; on by default) *)
  host_degree : int array;  (** cached [Graph.degree host] per node *)
  query_degree : int array;
  host_in_degree : int array;
  query_in_degree : int array;
  residuals : Netembed_expr.Ast.t option array;
      (** lazy per-(query edge, orientation) specialized constraints *)
  evals : Netembed_telemetry.Telemetry.Counter.t;
      (** the shared constraint-evaluation counter: every
          constraint-expression evaluation against this problem — the
          filter build of ECF/RWB, the lazy edge checks of LNS and the
          node-constraint tests — increments it, so the engine reports
          one number for all three algorithms *)
}

val make :
  ?node_constraint:Netembed_expr.Ast.t ->
  ?degree_filter:bool ->
  ?compiled:compiled ->
  host:Graph.t ->
  query:Graph.t ->
  Netembed_expr.Ast.t ->
  t
(** [compiled], when given, must come from a problem over the same query
    graph and constraints (the service's cache keys guarantee this); a
    bundle of the wrong shape is ignored, not trusted.
    @raise Invalid_argument if the graphs' kinds differ or the query has
    more nodes than the host (no injective mapping can exist). *)

val edge_pair_ok :
  t -> qe:Graph.edge -> q_src:Graph.node -> q_dst:Graph.node ->
  he:Graph.edge -> r_src:Graph.node -> r_dst:Graph.node -> bool
(** Does mapping query edge [qe] (oriented [q_src]->[q_dst]) onto host
    edge [he] (oriented [r_src]->[r_dst]) satisfy the constraint?  The
    orientation of [he] as stored is irrelevant: the caller chooses
    which endpoint plays source. *)

val node_ok : t -> q:Graph.node -> r:Graph.node -> bool
(** Node-level acceptability: degree filter plus the node constraint. *)

val degree_ok : t -> q:Graph.node -> r:Graph.node -> bool
(** The degree-filter half of {!node_ok} alone (always [true] when the
    problem was built with [~degree_filter:false]).  Split out so the
    filter build can decide the node constraint through its pre-filter
    plan, and the explain path can attribute an elimination to the
    degree filter vs the node constraint. *)

val node_residual : t -> Graph.node -> Netembed_expr.Ast.t option
(** The node constraint specialized to query node [q] (its table bound
    to [vSource] and [vTarget], [vEdge] empty), or [None] without a
    node constraint.  Not cached: the filter build specializes once per
    query node and hands the residual to {!node_residual_ok}. *)

val node_residual_ok :
  t -> q:Graph.node -> r:Graph.node -> Netembed_expr.Ast.t -> bool
(** [node_residual_ok t ~q ~r c] evaluates [c] — {!node_residual}[ t q]
    or the node constraint itself — for query node [q] on host node [r],
    counting one constraint evaluation.  With [degree_ok], agrees with
    {!node_ok}. *)

val eval_counter : t -> Netembed_telemetry.Telemetry.Counter.t
(** The shared constraint-evaluation counter (see the [evals] field).
    Single-writer: concurrent searchers must not share one problem's
    lazy evaluation path (the parallel searchers only read prebuilt
    filter state, so this holds). *)

val constraint_evals : t -> int
(** [Counter.value (eval_counter t)] — cumulative over the problem's
    lifetime; the engine reports per-run deltas. *)

val compiled_residuals : t -> compiled
(** The problem's residual table, shared structure included — cache it
    alongside the filter and pass it to the next {!make} over the same
    query and constraint to skip specialization. *)

val specializations_total : unit -> int
(** Residuals specialized by this process so far: {!residual} cache
    misses, summed over every problem.  The value of the
    [netembed_expr_compiles_total] counter. *)

val residual :
  t -> Graph.edge -> q_src:Graph.node -> q_dst:Graph.node ->
  Netembed_expr.Ast.t
(** The edge constraint specialized to query edge [qe] in the given
    orientation, cached per (edge, orientation). *)

val residual_for_edge :
  t -> q_src:Graph.node -> q_dst:Graph.node -> Netembed_expr.Ast.t
(** {!residual} addressed by endpoints instead of edge id; used by the
    filter builder and the explain path. *)

val query_neighbours : t -> Graph.node -> (Graph.node * Graph.edge) list
(** All (neighbour, edge) pairs incident to a query node in either
    direction — what constraint propagation must traverse. *)

val query_edges_between :
  t -> Graph.node -> Graph.node -> (Graph.edge * bool) list
(** Query edges connecting two nodes; the flag is [true] when the edge
    is stored as [u]->[v] (orientation matters for directed problems and
    for asymmetric constraints on undirected ones). *)

val prepare : t -> unit
(** Force the lazy caches (orientation residuals, host edge index) so the problem can afterwards be shared read-only
    across domains.  Called by the parallel searchers before
    spawning. *)

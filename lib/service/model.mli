(** The network model: the service-side characterization of the hosting
    infrastructure (paper, section III component 1 — "a model of the
    real network that characterizes the resources available.  Such model
    could be maintained either by a monitoring service, a resource
    manager, or a combination of both").

    The model wraps the hosting graph with revisioned updates (a
    monitoring feed refreshing measured attributes) and a resource
    {!val-ledger} tracking fractional capacity consumption
    ({!Netembed_ledger.Ledger}); allocating a mapping is a charge in
    that ledger (section III component 3). *)

open Netembed_graph

type t

val create : Graph.t -> t
(** Wrap a hosting network.  The model copies the graph, so later
    monitor updates do not alias the caller's graph.  A resource
    ledger is opened over the copy with the default capacity attributes
    ({!Netembed_ledger.Ledger.of_graph}): hosts declaring no capacities
    get an empty ledger and behave exactly as before.  The copy's host
    pair index ({!Graph.edges_between}) is built here, once per
    substrate; every {!residual_snapshot} shares it, and with it the
    host degree arrays ({!Graph.degrees}). *)

val of_graphml_file : string -> t
(** The model of the network in a GraphML file, as {!create} makes it.
    No caller holds the graph it reads, so the model takes it over
    instead of copying it.
    @raise Netembed_graphml.Graphml.Error on malformed input. *)

val snapshot : t -> Graph.t
(** The current hosting graph with its declared capacities.  Every
    node carries a ["reserved"] attribute, [false] unless the input
    set it. *)

val residual_snapshot : t -> Graph.t
(** Like {!snapshot}, but every tracked capacity attribute is replaced
    by its {e residual} value (capacity minus outstanding charges), so
    a search against it prunes on what is actually free.  This is what
    {!Service.submit} embeds against.

    The snapshot is read-only: it shares the model's pair index, and
    {!columns} serves its attribute columns on the promise that no
    attribute of it changes.  A caller that needs to adjust attributes
    (a what-if with a charge credited back, say) writes into a
    [Graph.copy] of it. *)

val revision : t -> int
(** Bumped on every attribute update and ledger change. *)

val columns : t -> Graph.t -> Netembed_core.Prefilter.stores
(** [columns t snapshot] serves the host attribute columns of
    [snapshot], which must be what {!residual_snapshot}[ t] returned
    with no model change in between (the service takes both in one
    critical section).  Pass them to [Problem.make ~columns].

    The model keeps one column store per host universe (edges, nodes)
    for its substrate; every snapshot and request shares it, as they
    share the pair index.
    - A ledger-tracked resource (["cpuMhz"], ["memMB"], ["bandwidth"]
      by default) reads [Float.max 0.0 (capacity - used)] on the
      elements that declared it, as {!residual_snapshot} stamps it.
      Its column is rebuilt here, once per {!revision}.
    - Any other attribute's column is built by the first build that
      needs it, from its snapshot, and kept until an attribute changes
      ({!update_edge_attrs} or {!update_node_attrs}).  A ledger commit
      keeps it.

    A published column is never written, so concurrent filter builds
    read the stores outside the caller's lock.  Every column equals
    what a fresh [Prefilter.of_graph snapshot] would build. *)

val ledger : t -> Netembed_ledger.Ledger.t
(** The model's resource ledger (capacities read at {!create} time). *)

(** {1 Monitoring updates} *)

val update_edge_attrs : t -> Graph.edge -> Netembed_attr.Attrs.t -> unit
(** Merge fresh measurements into an edge (new values win).  Measured
    attributes flow into snapshots; declared {e capacities} stay as
    read at {!create} time (the ledger is the capacity authority). *)

val update_node_attrs : t -> Graph.node -> Netembed_attr.Attrs.t -> unit

(** {1 Allocations} *)

val charge_mapping :
  t -> query:Graph.t -> Netembed_core.Mapping.t -> (int, string) result
(** Derive the embedding's demand vector from the query attributes and
    debit it atomically ({!Netembed_ledger.Ledger.try_commit}).
    Returns the allocation id; [Error] names the first over-committed
    resource, leaving the ledger untouched.  Bumps the revision on
    success. *)

val release_charge : t -> int -> bool
(** Credit an allocation back; [false] if the id is unknown. *)

val migrate_charge :
  t ->
  int ->
  query:Graph.t ->
  Netembed_core.Mapping.t ->
  (int, string) result
(** Atomically re-home a live allocation onto a new mapping of the same
    query ({!Netembed_ledger.Ledger.migrate}): release + commit as one
    step, returning the new allocation id.  On failure nothing changes
    — the original allocation survives under its original id — and the
    error names the over-committed resource.  Bumps the revision only
    on success. *)

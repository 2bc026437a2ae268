(** The resource ledger: fractional capacity accounting for the hosting
    network (paper, section III component 3 — resource reservation —
    generalized from whole-node locks to capacity vectors).

    A ledger tracks, per hosting node and per hosting link, how much of
    each declared capacity attribute (e.g. ["cpuMhz"], ["memMB"] on
    nodes, ["bandwidth"] on links) is consumed by outstanding
    allocations.  The accounting contract:

    - {!charge_of_mapping} derives an embedding's demand vector from
      the query's node/link attributes: a query node demanding
      [cpuMhz = 500] charges 500 MHz against its host node, a query
      link demanding [bandwidth = 10] charges 10 units against the
      host link its endpoints map across.
    - {!try_commit} debits a charge atomically: either every line fits
      within the residual capacities and the whole charge is recorded
      under a fresh allocation id, or nothing is debited and the first
      over-committed resource is returned.
    - {!release} credits an allocation back.  Residuals after release
      are recomputed from the outstanding allocations, so a full
      commit/release round-trip restores them {e exactly} (no floating
      drift accumulates).
    - {!residual_graph} materializes a hosting-graph snapshot whose
      capacity attributes hold the {e residual} values, so the search
      core prunes against what is actually free with no change to the
      constraint language: ["rSource.cpuMhz >= vSource.cpuMhz"]
      automatically accounts for co-located tenants.

    Capacity semantics: a resource is {e tracked} when at least one
    node (respectively edge) of the hosting graph carries a numeric
    value for it; elements without the attribute have zero capacity for
    that resource (nothing can be charged against them) and are left
    untouched by {!residual_graph}.  Demands for untracked resources
    are ignored — a host that declares no capacities behaves as the
    unlimited, unaccounted network of the original service.

    Concurrency: a ledger is a plain mutable structure with no internal
    locking — single-writer, like the service model it extends. *)

open Netembed_graph

type t

type kind = [ `Node | `Edge ]

type target = Node of Graph.node | Edge of Graph.edge

type line = { target : target; resource : string; amount : float }
(** One demand entry; [amount >= 0].  Lines against the same
    (target, resource) pair aggregate. *)

type charge = line list

type failure = {
  resource : string;  (** the over-committed resource *)
  kind : kind;
  target : target option;
      (** the first over-committed element; [None] when the failure is
          an aggregate admission shortfall *)
  requested : float;
  available : float;
}

val failure_to_string : failure -> string
(** E.g. ["over-committed cpuMhz on node 3: requested 1200, available 800"]. *)

val of_graph : Graph.t -> t
(** Open a ledger over the hosting graph, tracking the node resources
    [cpuMhz] and [memMB] and the edge resource [bandwidth].  Capacities
    are read once, here; later attribute updates on the graph do not
    change them.  Only resources with at least one numeric occurrence
    are tracked. *)

val graph : t -> Graph.t
val node_resources : t -> string list
(** The tracked node resources (a subset of [cpuMhz], [memMB]). *)

val edge_resources : t -> string list

val capacity : t -> target -> string -> float
(** Declared capacity (0 when the element lacks the attribute or the
    resource is untracked). *)

val used : t -> target -> string -> float
val residual : t -> target -> string -> float
(** [capacity - used]. *)

val top_residuals : t -> resource:string -> kind -> int -> (target * float) list
(** The elements with the largest residual of one tracked resource,
    descending, at most the requested number.  Empty when the resource
    is untracked on that element class.  Feeds the "closest we could
    offer" notes of an admission-rejection certificate. *)

val outstanding : t -> int
(** Number of live allocations. *)

(** {1 Demand derivation} *)

val charge_of_mapping :
  t -> query:Graph.t -> Netembed_core.Mapping.t -> (charge, string) result
(** The demand vector of an embedding: for every query node, its
    tracked node-resource attributes charged against the mapped host
    node; for every query edge with a tracked edge-resource demand, the
    charge lands on the host edge between the mapped endpoints.
    [Error] when a demanding query edge maps across a host pair with no
    direct link (e.g. a path embedding) — such mappings cannot be
    accounted by this ledger.  Demands [<= 0] and untracked resources
    contribute no lines. *)

val admissible : t -> query:Graph.t -> (unit, failure) result
(** Aggregate admission check, mapping-independent: for each tracked
    resource, the query's total demand must not exceed the total
    residual over the whole hosting network.  A necessary condition for
    any embedding of the query to commit — used to reject hopeless
    requests before searching. *)

(** {1 Accounting} *)

val try_commit : t -> charge -> (int, failure) result
(** Debit the charge atomically.  On [Ok id] every line is recorded
    under allocation [id]; on [Error] the ledger is untouched and the
    failure names the first over-committed (target, resource).
    @raise Invalid_argument on a negative line amount or an unknown
    target id. *)

val release : t -> int -> bool
(** Credit allocation [id] back; [false] if the id is unknown (already
    released).  Affected residuals are recomputed exactly from the
    remaining allocations. *)

val allocation_charge : t -> int -> charge option
(** The demand vector held by a live allocation ([None] when the id is
    unknown or already released) — the introspection a defragmentation
    pass needs to credit a victim's own footprint back before
    re-searching it. *)

val allocation_ids : t -> int list
(** The live allocation ids, ascending. *)

val migrate : t -> int -> charge -> (int, failure) result
(** [migrate t id charge'] atomically re-homes allocation [id]: its old
    charge is released and [charge'] committed in one step, returning
    the new allocation id.  On failure {e nothing changes}: the
    original allocation is restored under its original id with its
    original charge (so outstanding handles stay valid) and the failure
    names the over-committed resource.  Because the old charge is
    released first, a migration may land on capacity the victim itself
    is vacating.
    @raise Invalid_argument when [id] is not a live allocation. *)

val lock : t -> Graph.node -> int
(** The degenerate whole-node charge: the {e entire residual} of every
    tracked node resource on the node (afterwards nothing fractional
    fits there).  Always succeeds; release with {!release}.  A node
    with no tracked capacity yields an empty (but live) allocation, so
    the caller must exclude such hosts itself, as [Schedule]'s [busy]
    flag does for its leases. *)

val credit : t -> charge -> (unit, string) result
(** Reverse a charge that is not held as a live allocation — the
    restore path of the stateless CLI ([netembed free]), where usage
    was rebuilt from a residual snapshot via {!sync_residual}.  Fails
    (without changing anything) if any line exceeds the recorded
    external usage. *)

(** {1 Snapshots} *)

val iter_residuals : t -> kind -> string -> (int -> float -> unit) -> unit
(** [iter_residuals t kind resource f] calls [f i r] for every element
    of the class that declared [resource], in ascending order, with [r]
    its residual clamped at zero: [Float.max 0.0 (capacity - used)], the
    value {!residual_graph} stamps.  Nothing for an untracked
    resource. *)

val residual_graph : t -> Graph.t
(** A copy of the ledger's graph with every tracked capacity attribute
    replaced by its residual value, on exactly the elements that
    declared it.  All other attributes are preserved. *)

val sync_residual : t -> Graph.t -> unit
(** Reset usage from a residual snapshot: for every element that
    declared a resource, set [used = capacity - residual_attr]
    (clamped to [0, capacity]).  Outstanding allocations are dropped
    and the recovered usage is held as one external allocation —
    {!credit} can hand pieces of it back. *)

val utilization : t -> (string * kind * float * float) list
(** Per tracked resource: [(name, kind, total_used, total_capacity)],
    node resources first, each list in tracking order. *)

val fragmentation : t -> (string * kind * float) list
(** Per tracked resource: the residual-capacity dispersion in [0, 1] —
    the fraction of the resource's free capacity that sits on
    {e partially-used} elements.  0 when every free unit lies on a
    completely untouched element (idle network, or perfectly
    consolidated tenants); towards 1 when the free capacity is
    scattered across half-full elements, where no whole-element-sized
    block of it exists.  Node resources first, tracking order. *)

val fragmentation_index : t -> float
(** The mean of {!fragmentation} over all tracked resources (0 when
    nothing is tracked) — the scalar the online simulator's
    defragmentation threshold watches. *)

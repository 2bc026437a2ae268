(** Cross-request filter cache.

    Building the filter matrix is the dominant sequential phase of an
    ECF/RWB request (the Amdahl bottleneck called out in
    {!Netembed_parallel}); repeated or templated queries — the service
    pattern the paper's interactive scenario implies — rebuild an
    identical matrix every time.  This cache keys built filters by
    [(model revision, query signature)] so a repeat skips the build
    entirely.  Each entry also carries the problem's specialized-residual
    table ({!Netembed_core.Problem.compiled}), so a warm submit skips
    constraint specialization as well — observable as a flat
    [netembed_expr_compiles_total] counter across repeats.

    Correctness rests on the key covering every input of the build:

    - the {b model revision} stands in for the host side — the model
      bumps it on every topology/attribute update, reservation and
      ledger change, so any two requests at the same revision see the
      same residual host graph;
    - the {b query signature} is an exact canonical serialization of
      the query topology, all node/edge attribute values and both
      constraint texts (see {!signature}).  Exact-string equality means
      a collision can never hand a request somebody else's filter —
      worst case is a spurious miss, which only costs the build.

    Entries from older revisions can never hit again; {!invalidate}
    drops them eagerly so they do not occupy capacity.  Beyond
    capacity, the least-recently-used entry is evicted.

    Not thread-safe: the service serializes submits. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 32 entries.
    @raise Invalid_argument when [capacity < 1]. *)

val signature :
  query:Netembed_graph.Graph.t ->
  constraint_text:string ->
  node_constraint_text:string option ->
  string
(** Canonical serialization of the query-side inputs of a filter
    build.  Stable across processes (no hashing, no addresses). *)

val find :
  t ->
  revision:int ->
  signature:string ->
  (Netembed_core.Filter.t * Netembed_core.Problem.compiled) option
(** Cache lookup; a hit refreshes the entry's recency and returns both
    the filter matrix and the residual table, so a warm submit skips
    the filter build {e and} the specialization (fed back into
    {!Netembed_core.Problem.make} via [?compiled]). *)

val add :
  t ->
  revision:int ->
  signature:string ->
  compiled:Netembed_core.Problem.compiled ->
  Netembed_core.Filter.t ->
  unit
(** Insert a freshly built filter together with the problem's residual
    table, evicting LRU entries as needed.  No-op if the key is
    already present. *)

val invalidate : t -> current_revision:int -> unit
(** Drop every entry whose revision differs from [current_revision] —
    the model moved on, so they can never hit again. *)

val length : t -> int
val capacity : t -> int

val evictions : t -> int
(** Entries dropped to capacity pressure (LRU), cumulative. *)

val invalidations : t -> int
(** Entries dropped because the model revision moved on, cumulative. *)

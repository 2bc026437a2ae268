(** Multicore search — a realization of the paper's future-work remark
    that NETEMBED can be "implemented in a distributed fashion, which
    would be advantageous for both service scalability", scaled down to
    the shared-memory case on OCaml 5 domains.

    Two exhaustive-search strategies are provided (see
    [docs/parallel.md] for the design):

    - {!Work_stealing} (the default): the permutations tree is cut into
      resumable {!Netembed_core.Dfs.frame}s.  Each domain owns a deque
      of frames; frames above a split horizon are expanded one level
      (children become stealable), frames at the horizon run to
      exhaustion as ordinary sequential subtree searches.  Idle domains
      steal the shallowest frame from a sibling, so a skewed tree no
      longer serializes on one unlucky domain.

    - {!Static} (the seed strategy): the candidate set of the first
      query node in the search order is partitioned round-robin across
      domains, each of which runs sequential ECF on its share with no
      load balancing.  Kept as the ablation baseline and as the
      conformance-oracle second opinion.

    Under either strategy the union of the per-domain result sets
    equals sequential ECF's result set (subtrees under distinct frames
    are disjoint); only the order of the returned list varies between
    runs.  {!rwb_race} races independent randomized searches and
    cancels the losers on the first win.

    All entry points force the problem's lazy caches before spawning
    ({!Netembed_core.Problem.prepare}) and share the problem and filter
    read-only.  Mutable search state is never shared: each spawned
    domain allocates its own {!Netembed_core.Domain_store} scratch pool
    inside the domain, so the bitset filter cells are read concurrently
    while candidate domains are computed into private scratch.

    Telemetry follows the same single-writer discipline: each spawned
    domain fills a private {!Netembed_telemetry.Telemetry.Registry}
    (visited/found counters plus depth and domain-size histograms,
    labeled by algorithm; work-stealing workers add
    [netembed_steals_total]) and the spawner merges them into
    [registry] at join — {!Netembed_telemetry.Telemetry.default_registry}
    unless overridden. *)

type strategy =
  | Static  (** Round-robin root partitioning, no load balancing. *)
  | Work_stealing  (** Frame deques with stealing (default). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

type stats = {
  mappings : Netembed_core.Mapping.t list;
  outcome : Netembed_core.Engine.outcome;
  elapsed : float;  (** wall-clock seconds, spawn to last join *)
  visited_by_domain : int array;
      (** search-tree nodes visited by each spawned domain — the
          per-domain work split the scaling ablation reports *)
  steals : int;  (** frames taken from a sibling's deque (0 for Static) *)
  frames : int;  (** frames expanded by the scheduler (0 for Static) *)
  domain_registries : Netembed_telemetry.Telemetry.Registry.t list;
      (** the per-domain registries, already merged into [registry] *)
  domain_stats : Netembed_core.Domain_store.stats list;
}

val visited_total : stats -> int

val ecf_all :
  ?strategy:strategy ->
  ?domains:int ->
  ?timeout:float ->
  ?split_depth:int ->
  ?filter:Netembed_core.Filter.t ->
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  ?trace:Netembed_telemetry.Telemetry.Trace.buffer ->
  Netembed_core.Problem.t ->
  Netembed_core.Mapping.t list * Netembed_core.Engine.outcome
(** All feasible embeddings (order unspecified).  Outcome is [Complete]
    when every subtree was exhausted — including the degenerate case
    where [domains] exceeds the root candidate count, so some shares
    are empty — and [Partial]/[Inconclusive] on timeout, as in the
    sequential engine.

    [split_depth] (default 2) is the work-stealing split horizon:
    frames assigned fewer than [split_depth] order positions are
    expanded into stealable children; deeper frames run sequentially.
    Ignored by [Static].

    Filter construction is sequential (it is the dominant cost on
    filter-heavy instances — Amdahl applies); pass a prebuilt [filter]
    to amortize it across runs (the service's cross-request filter
    cache does exactly this) or to measure pure search scaling.

    [trace], when given, receives one complete span per processed
    frame: each worker records into a private buffer (tid = worker
    index + 1) merged into [trace] at join, so spans from stolen
    frames still attribute to the originating request's trace — the
    request-scoped Chrome-trace export of the service.  The untraced
    path pays one [None] branch per frame. *)

val ecf_all_stats :
  ?strategy:strategy ->
  ?domains:int ->
  ?timeout:float ->
  ?split_depth:int ->
  ?filter:Netembed_core.Filter.t ->
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  ?trace:Netembed_telemetry.Telemetry.Trace.buffer ->
  Netembed_core.Problem.t ->
  stats
(** As {!ecf_all}, returning the full scheduler accounting. *)

val rwb_race :
  ?domains:int ->
  ?timeout:float ->
  ?seed:int ->
  ?rendezvous:(int -> unit) ->
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  Netembed_core.Problem.t ->
  Netembed_core.Mapping.t option
(** First feasible embedding found by any racer, if any.  Racer [i]
    seeds its RNG with [seed + 1000 * i]; the first win cancels the
    rest cooperatively through the budget's cancellation hook.

    [rendezvous i] is called inside racer [i]'s domain after its
    scratch state is built, immediately before its search starts.
    Tests use it as a start barrier — all racers are then known to be
    live before any can win, making cancellation deterministic without
    sleeps.  Default: no-op. *)

val speedup_probe :
  ?domains:int -> Netembed_core.Problem.t -> float * float
(** [(sequential_seconds, parallel_seconds)] for an all-matches ECF run
    — the measurement behind the parallel-ablation bench. *)

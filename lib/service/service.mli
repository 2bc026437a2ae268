(** The NETEMBED mapping service front-end (paper, Fig. 1): applications
    submit resource-requirement queries against the network model and
    receive lists of possible resource assignments.

    The service embeds against {e residual} capacities (so co-located
    tenants shrink what capacity constraints can see), applies
    admission control before searching, supports the interactive
    negotiate-and-relax loop, and allocates a returned mapping as a
    capacity charge in the model's ledger ({!allocate_shared}); a
    request's node constraint is exactly the one it sent.

    {b Concurrency.}  A service value may be shared by any number of
    domains submitting, allocating and freeing concurrently (the
    {!Netembed_frontend} worker pool does exactly that).  Internally
    three small mutexes serialize the mutable state — model/ledger
    mutations and the reads that must be consistent with them, the
    filter cache with its hit/miss counters, and the diagnostics ring
    plus the windowed phase series and request counters — while the
    search itself always runs lock-free against an immutable residual
    snapshot.  Request ids and trace ids are atomic.  The per-algorithm
    engine counters (visited nodes, etc.) keep the telemetry kernel's
    racy single-writer model and may undercount slightly under heavy
    parallel load; the service-level counters are exact. *)

type t

type entry = {
  id : int;  (** the request id echoed in wire answers *)
  trace_id : int;  (** trace id allocated at submit *)
  summary : string;  (** one-line description for log listings *)
  verdict : string;
      (** ["unsat"], ["exhausted"], ["partial"], ["admission"],
          ["error"] or ["complete"] (slow-but-successful) *)
  elapsed : float;  (** seconds *)
  phases : float array;
      (** per-phase seconds, indexed by
          {!Netembed_telemetry.Telemetry.Phase.index} — the exemplar
          breakdown EXPLAIN and TOP print *)
  slow_search : bool;
      (** the search phase alone exceeded the configured share of the
          request's wall-clock time (see {!create}) *)
  certificate : Netembed_explain.Explain.Certificate.t option;
      (** [None] for request errors (verdict ["error"]); admission
          rejections carry one, and every searched request runs with
          blame on *)
}
(** One diagnosable request retained in the slow/failed-query log. *)

val create :
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  ?slow_threshold:float ->
  ?health_fast_window:float ->
  Model.t ->
  t
(** The service registers its request metrics
    ([netembed_requests_total], [netembed_request_errors_total], the
    [netembed_request_latency_us] histogram,
    [netembed_relaxation_rounds_total] and the [netembed_model_revision]
    gauge), the allocation counters ([netembed_allocations_total],
    [netembed_allocation_rejects_total],
    [netembed_admission_rejects_total],
    [netembed_active_allocations]), the failure-attribution counters
    ([netembed_unsat_total{cause}] and
    [netembed_blame_eliminations_total{cause}], created lazily on first
    use), the filter-cache counters
    ([netembed_filter_cache_hits_total] /
    [netembed_filter_cache_misses_total]) and one
    [netembed_resource_utilization{resource,kind}] gauge per capacity
    resource tracked by the model's ledger, in [registry] —
    {!Netembed_telemetry.Telemetry.default_registry} unless overridden
    (tests pass a private one for isolation).

    Every request runs the sequential engine
    ({!Netembed_core.Engine.run}); the server scales by serving
    requests on several front-end workers, not by splitting one
    request's search.

    The cross-request filter cache ({!Filter_cache}) holds 32 entries:
    ECF/RWB requests whose (model revision, query signature) was seen
    before skip the filter build — the dominant sequential phase — and
    bump the hit counter.

    The service also registers the request-latency decomposition: one
    [netembed_request_seconds{phase,window="60s"}] windowed summary per
    phase (plus [phase="total"]) covering a sliding 60-second window,
    and lifetime [netembed_phase_seconds_total{phase}] gauges.

    Successful requests slower than [slow_threshold] seconds (default
    0.5) are kept in the diagnostics log alongside the failures, as are
    requests whose search phase alone takes at least 0.9 of the
    request's wall-clock time
    while the request is non-trivially slow — catching search-dominated
    requests that stay under the absolute threshold.

    The service also owns a {!Health} state machine (its fast window
    is [health_fast_window], default 10 s) which registers
    the [netembed_health_state] gauge: every finished request and every
    backpressure reject feeds it, and the server's periodic tick drives
    {!Health.evaluate} with the live admission-queue depth. *)

val health : t -> Health.t
(** The service's SLO burn-rate health machine — evaluate it
    periodically with the front-end queue depth, read it for [/readyz]
    and the [HEALTH] verb, latch it with {!Health.set_draining} when
    shutdown begins. *)

val filter_cache : t -> Filter_cache.t
(** The service's cross-request filter cache (introspection for tests
    and monitoring). *)

val model : t -> Model.t

val registry : t -> Netembed_telemetry.Telemetry.Registry.t
(** The registry the service records into — what [GET /metrics]
    serves. *)

val utilization :
  t -> (string * [ `Node | `Edge ] * float * float) list
(** Per tracked capacity resource: [(name, kind, used, capacity)] —
    {!Netembed_ledger.Ledger.utilization} of the model's ledger. *)

type answer = {
  id : int;  (** request id — the handle for {!explain} / [EXPLAIN] *)
  trace_id : int;  (** the request's trace id (spans attribute to it) *)
  request : Request.t;
  result : Netembed_core.Engine.result;
      (** [result.telemetry.phases] carries the full per-request phase
          decomposition (parse .. encode), folded together from the
          service and engine timers *)
  model_revision : int;  (** model revision the answer was computed against *)
  trace : Netembed_telemetry.Telemetry.Trace.buffer option;
      (** the request's span buffer when submitted with [~trace:true]
          ([None] otherwise) — feed to
          {!Netembed_telemetry.Telemetry.Trace.to_chrome_json} *)
}

val submit :
  ?trace:bool -> ?queue_wait:float -> t -> Request.t -> (answer, string) result
(** Run the request against the current {e residual} model snapshot
    as a pipeline of timed stages: [parse], [admission] (a query whose
    aggregate capacity demand exceeds the total residual cannot
    commit, so it is not searched), [snapshot] ({!Model.residual_snapshot}
    and its revision), [cache_lookup], then the engine's [compile],
    [filter_build] and [search], and [cache_lookup] again to store the
    built filter.  The first stage that fails ends the request with an
    [Error] prefixed ["edge constraint:"]/["node constraint:"]
    (malformed expression), ["admission:"] (naming the exhausted
    resource), ["Problem.make:"] (query larger than the host) or
    ["constraint:"] (an ill-typed constraint, such as a string
    attribute compared with a number, met during the search).

    Every request leaves through one exit, exactly once: it bumps
    [netembed_requests_total] (and [netembed_request_errors_total] on
    [Error]), adds one [netembed_request_latency_us] sample, feeds its
    phases to the windowed [netembed_request_seconds] summaries and the
    {!Health} machine, and logs at most one diagnostics entry — always
    for an [Error] (verdict ["error"] or ["admission"]), and for an
    answer that is not complete or was slow.  {!explain} finds the
    entry by request id; {!last_entry} returns it on the calling
    domain.  ["unsat"] and ["exhausted"] verdicts and admission
    rejections bump [netembed_unsat_total{cause}].

    Every search runs with explain mode on, so failed answers carry a
    failure certificate in [result.report].  [queue_wait] (default 0),
    the seconds the frame already spent in the front-end admission
    queue, is folded in as the [queue_wait] phase.  With [trace]
    (default false) the request additionally records request-scoped
    spans into [answer.trace] for Chrome trace export: one per timed
    phase, named after it and read off the same clock as its phase
    cell, plus the enclosing [request] span. *)

val record_phase : t -> Netembed_telemetry.Telemetry.Phase.t -> float -> unit
(** Feed [seconds] into a phase's windowed summary and lifetime total —
    the hook the wire server uses to stamp the [queue_wait] of
    body-less verbs, which never reach [submit]. *)

val timed : t -> Netembed_telemetry.Telemetry.Phase.t -> (unit -> 'a) -> 'a
(** [timed t phase f] runs [f] outside any request, times it with
    {!Netembed_telemetry.Telemetry.time_phase} and {!record_phase}s the
    seconds, exceptions included — how commit/release verbs land on
    [ledger_commit] and the wire server stamps [encode], which only
    exists after [submit] returns. *)

val explain : t -> int -> entry option
(** Look up a retained diagnostic entry by request id ([None] when the
    id is unknown, was evicted from the ring, or completed quickly). *)

val reject_backpressure : t -> queue_depth:int -> queue_capacity:int -> entry
(** Record a request turned away because the front-end's admission
    queue was saturated: allocates a request id, bumps
    [netembed_admission_queue_rejects_total], counts one request and
    one request error with a 0 µs latency sample, and retains a ["backpressure"]-verdict certificate in the
    diagnostics ring so the client can [EXPLAIN] the id it was bounced
    with.  Constant-time — no model or ledger work — so the front door
    sheds load instead of queueing unboundedly. *)

val exclusively : t -> (unit -> 'a) -> 'a
(** Run [f] holding the service's model/ledger lock — the hook for
    out-of-band model mutations (monitor ticks) that must not interleave
    with concurrent submits' residual snapshots or allocations. *)

val last_entry : t -> entry option
(** The diagnostic entry most recently logged on the calling domain —
    right after a failed {!submit}, that request's own entry, even when
    other domains fail requests concurrently. *)

type phase_stat = {
  phase : Netembed_telemetry.Telemetry.Phase.t;
  total_s : float;  (** lifetime seconds accumulated in this phase *)
  window_count : int;  (** requests that exercised it inside the window *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
}
(** One row of the {!top} report: a phase's lifetime total and its
    sliding-window latency quantiles (only over requests that actually
    exercised the phase). *)

type top = {
  busiest : phase_stat list;  (** every phase, busiest (by [total_s]) first *)
  worst : entry list;  (** retained ring entries, slowest first *)
  window_s : float;  (** the quantiles' window length, seconds *)
}

val top : ?worst:int -> t -> top
(** The slow-request triage report behind the [TOP] wire verb and
    [netembed_cli top]: where wall-clock time goes by phase, and the
    [worst] (default 5) slowest retained requests with their per-phase
    breakdowns. *)

val submit_with_relaxation :
  t -> Request.t -> steps:int -> factor:float -> (answer * int, string) result
(** Interactive negotiation: try the request; while no mapping is found
    and fewer than [steps] relaxations were applied, widen the delay
    constraints by [factor] and retry.  Returns the answer together with
    the number of relaxation rounds used (also accumulated onto the
    [netembed_relaxation_rounds_total] counter). *)

val allocate_shared :
  t -> answer -> Netembed_core.Mapping.t -> (int, string) result
(** Commit the mapping's fractional demand vector in the ledger,
    leaving the hosts available to further tenants while capacity
    remains.  Returns the allocation id for {!free}.  Fails without
    charging anything if the model changed since the answer was
    computed or a resource would over-commit (the error names it). *)

val free : t -> int -> bool
(** Release a fractional allocation by id; [false] if unknown. *)

val allocation_charge : t -> int -> Netembed_ledger.Ledger.charge option
(** The demand vector held by a live fractional allocation ([None] when
    the id is unknown or already freed) — the introspection a
    defragmentation pass uses to credit a victim's own footprint back
    before re-searching it ({!Netembed_ledger.Ledger.allocation_charge}). *)

val allocation_ids : t -> int list
(** Live fractional-allocation ids, ascending. *)

val migrate :
  t -> int -> query:Netembed_graph.Graph.t -> Netembed_core.Mapping.t ->
  (int, string) result
(** Atomically re-home live allocation [id] onto [mapping] of [query]:
    the old charge is released and the new one committed as one ledger
    step ({!Netembed_ledger.Ledger.migrate}), so the move may reuse
    capacity the tenant itself vacates.  Returns the new allocation id
    and bumps [netembed_migrations_total].  On failure {e nothing
    changes} — the original allocation survives under its original id,
    [netembed_migration_failures_total] is bumped, and the error names
    the over-committed resource.  [netembed_active_allocations] is
    unchanged either way: a migration is a move, not an admission. *)

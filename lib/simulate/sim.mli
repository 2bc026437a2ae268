(** Online multi-tenant embedding simulation: the workload that looks
    like a real operator's day (ROADMAP item 4; "Online Graph Embedding
    in Star Graphs" is the theory anchor).

    A seeded, virtual-clock event-driven driver streams tenant arrivals
    (Poisson inter-arrivals) whose sizes follow a Zipf law over demand
    classes and whose holding times are bounded-Pareto heavy-tailed.
    Each arrival is submitted through {!Netembed_service.Service.submit}
    against the live residual model and, when an embedding exists,
    committed fractionally with
    {!Netembed_service.Service.allocate_shared}; the departure event at
    the end of the holding time frees the allocation — the online
    analogue of a schedule lease expiring.

    Admission policies:
    - {!Admit_greedy} places each tenant on the {e first} embedding the
      engine returns (first-fit) and never migrates;
    - {!No_defrag} picks the {e best-fit} embedding (tightest residual
      hosts) among the engine's candidates and never migrates;
    - {!Defrag_threshold} is best-fit plus a defragmentation pass: when
      a rejection occurs while the fragmentation index or the windowed
      rejection rate crosses its threshold, victim allocations
      (smallest-revenue or highest-blocking first) are re-searched on
      the residual graph with their own charges credited back and moved
      through the atomic {!Netembed_service.Service.migrate} — then the
      rejected tenant is retried once.

    Everything is deterministic in [(seed, config, substrate)]: the
    virtual clock, the draws, the engine's candidate order and the
    victim order are all replayable, which the deterministic-replay
    tests pin (same seed ⇒ identical {!stats.event_log}). *)

type policy = Admit_greedy | No_defrag | Defrag_threshold

val policy_name : policy -> string
(** ["admit_greedy"], ["no_defrag"], ["defrag_threshold"]. *)

val policy_of_string : string -> policy option
val all_policies : policy list

type victim_order =
  | Smallest_revenue
      (** cheapest tenants first — they fit almost anywhere *)
  | Highest_blocking
      (** tenants sitting on the loosest hosts first — moving them
          empties the biggest contiguous blocks *)

val victim_order_name : victim_order -> string
val victim_order_of_string : string -> victim_order option

type config = {
  seed : int;
  policy : policy;
  horizon : float;  (** virtual seconds during which tenants arrive *)
  arrival_rate : float;  (** mean tenant arrivals per virtual second *)
  hold_shape : float;  (** Pareto tail exponent of holding times *)
  hold_mean : float;  (** target mean holding time, virtual seconds *)
  hold_cap : float;  (** truncation bound on holding times *)
  size_classes : float array;  (** total cpuMhz demand per size class *)
  size_skew : float;  (** Zipf skew over [size_classes] (rank 1 = smallest) *)
  link_fraction : float;  (** share of tenants that are two-node + link *)
  bandwidth_per_cpu : float;  (** link demand = cpu demand × this *)
  candidates : int;  (** embeddings enumerated per search ([At_most]) *)
  frag_threshold : float;  (** defrag when fragmentation index ≥ this *)
  reject_threshold : float;  (** … or windowed rejection rate ≥ this *)
  reject_window : int;  (** trailing arrivals the rejection rate covers *)
  max_migrations : int;  (** migration attempts per defrag pass *)
  victim_order : victim_order;
  sample_every : float;  (** time-series sampling period, virtual seconds *)
  inject_migration_failure : (int -> bool) option;
      (** test hook: when it returns [true] for the (1-based) global
          migration-attempt ordinal, that re-embed is forced to fail
          inside the ledger commit, exercising the rollback path *)
}

val default_config : config

type sample = {
  s_time : float;
  s_arrivals : int;
  s_accepts : int;
  s_rejects : int;
  s_active : int;  (** tenants holding an allocation at sample time *)
  s_fragmentation : float;  (** {!Netembed_ledger.Ledger.fragmentation_index} *)
  s_utilization : (string * string * float) list;
      (** (resource, ["node"]/["edge"], used/capacity) per tracked resource *)
}

type stats = {
  arrivals : int;
  accepts : int;  (** tenants admitted (including retries after defrag) *)
  rejects : int;  (** tenants turned away for good *)
  retry_accepts : int;  (** accepts that needed a defrag pass + retry *)
  departures : int;
  migrations : int;
  migration_failures : int;  (** attempts rolled back — victims intact *)
  defrag_passes : int;
  offered_revenue : float;  (** Σ cpu×hold over every arrival *)
  accepted_revenue : float;  (** Σ cpu×hold over admitted tenants *)
  acceptance_rate : float;
  revenue_acceptance : float;  (** accepted / offered revenue *)
  final_fragmentation : float;  (** after the last departure (usually 0) *)
  peak_fragmentation : float;
  mean_fragmentation : float;  (** mean over {!samples} *)
  mean_cpu_utilization : float;  (** mean node-cpu used/capacity over samples *)
  invariant_violations : int;
      (** nonzero when, after every tenant departed, the ledger did not
          restore bit-exactly (outstanding allocations, nonzero usage,
          or a mid-run over-commit) — must be 0 *)
  samples : sample list;  (** chronological *)
  event_log : string list;
      (** chronological, deterministically formatted — the replay
          fingerprint: byte-identical across runs of one seed *)
}

val run :
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  config ->
  Netembed_graph.Graph.t ->
  stats
(** Drive the workload against a fresh service over [substrate] until
    the arrival horizon passes {e and} every admitted tenant has
    departed, then verify the ledger restored exactly.  [registry]
    (default: a fresh private one) receives the service metrics plus
    the simulator counters [netembed_sim_arrivals_total],
    [netembed_sim_accepts_total], [netembed_sim_rejects_total],
    [netembed_sim_departures_total], [netembed_sim_migrations_total],
    [netembed_sim_migration_failures_total],
    [netembed_sim_defrag_passes_total] and the
    [netembed_sim_fragmentation] gauge. *)

val summary : config -> stats -> string
(** The human-readable summary block [bin/netembed_sim] prints (and the
    cram test pins) — virtual-time figures only, so it is byte-stable
    across runs. *)

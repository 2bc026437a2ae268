(** The unified NETEMBED search engine: pick an algorithm, a mode and a
    budget; get mappings plus the Fig.-15 outcome classification. *)

type algorithm =
  | ECF  (** Exhaustive search with Constraint Filtering (section V-A) *)
  | RWB  (** Random Walk with Backtracking (section V-B) *)
  | LNS  (** Lazy Neighborhood Search (section V-C) *)

val algorithm_name : algorithm -> string
val all_algorithms : algorithm list

type mode =
  | First  (** stop at the first feasible embedding *)
  | All  (** enumerate every feasible embedding *)
  | At_most of int  (** stop after k embeddings; k >= 1 *)

type outcome =
  | Complete
      (** the search space was exhausted: the returned set is the
          complete set of feasible embeddings (possibly empty, which
          proves infeasibility) — or the requested number of embeddings
          was reached in [First]/[At_most] mode *)
  | Partial  (** budget ran out after finding >= 1 embedding *)
  | Inconclusive  (** budget ran out with no embedding found *)

val outcome_name : outcome -> string

type options = {
  mode : mode;
  timeout : float option;  (** seconds *)
  max_visited : int option;
  seed : int;  (** RWB candidate-shuffle seed *)
  collect : bool;
      (** when false, mappings are counted but not retained — for
          measurement harnesses that only need [found] and timings
          (an all-matches run can otherwise retain millions of
          mappings).  Default true. *)
  explain : bool;
      (** when true, the run records constraint blame and a flight
          recorder and returns a failure certificate in
          [result.report].  Plain and blamed runs share one domain
          computation, which attributes a wipeout only when blame is
          on.  The filter's blame pass reads the node constraint's
          verdicts back from the node-candidate bits, so it evaluates
          no constraint, and classifies each query node's excluded
          hosts with set operations, recording each (node, cause) once
          with its count.  Default false. *)
  prefilter : bool;
      (** forwarded to {!Filter.build}: sweep {!Netembed_expr.Bounds}
          atoms over unsorted host attribute columns, word-parallel
          with {!Netembed_bitset.Bitset.select}, so decidable
          (query edge, host edge) pairs skip constraint evaluation.
          Identical filter either way; [constraint_evals] drops.
          Default true; the bench ablation turns it off to price the
          pre-filter against plain evaluation. *)
}

val default_options : options
(** [First] mode, no timeout, seed 42, explain off. *)

type result = {
  mappings : Mapping.t list;
      (** in discovery order; empty when [options.collect] is false *)
  found : int;  (** number of feasible mappings encountered *)
  outcome : outcome;
  elapsed : float;  (** seconds, total *)
  time_to_first : float option;  (** seconds until the first mapping *)
  visited : int;  (** search-tree nodes visited *)
  filter_evals : int;
      (** constraint-expression evaluations during this run, all phases:
          the filter build for ECF/RWB, the lazy edge checks for LNS.
          (Historically this was the filter-build count only, which read
          0 for LNS; all evaluation sites now feed one shared counter —
          {!Problem.constraint_evals} — so the algorithms report on the same
          scale.) *)
  domain_stats : Domain_store.stats option;
      (** scratch-pool footprint and per-run domain-computation counts
          of the bitset search core ({!Domain_store.stats}); [None] only
          when the run was answered without building a store *)
  telemetry : Netembed_telemetry.Telemetry.snapshot;
      (** the unified per-run snapshot: the scalar fields above plus
          depth/domain-size histograms and backtrack counts — what the
          CLI's [--stats] prints *)
  report : Netembed_explain.Explain.Certificate.t option;
      (** the failure certificate / diagnostics of an explain-mode run
          ([Some] iff [options.explain]): blamed (query node,
          constraint) pairs with near-miss hosts on UNSAT, the hot
          backtrack depth, and the flight-recorder tail *)
  filter : Filter.t option;
      (** the filter matrix the run searched under ([None] for LNS,
          which filters lazily) — whether freshly built or supplied by
          the caller.  The service's cross-request filter cache stores
          this to skip the build on repeated queries. *)
}

val verdict_of : outcome -> int -> string
(** [verdict_of outcome found] — the verdict computation on raw parts,
    for callers that assemble results outside {!run} (a parallel
    enumeration's outcome and mapping count). *)

val verdict : result -> string
(** The four-way outcome the service reports: ["unsat"] (complete with
    zero mappings — infeasibility is proved), ["complete"], ["partial"]
    (budget ran out after >= 1 mapping) or ["exhausted"] (budget ran
    out empty-handed — nothing proved).  Also carried in
    [telemetry.outcome], so [snapshot_to_json] preserves the
    unsat/exhausted distinction. *)

val run :
  ?options:options ->
  ?filter:Filter.t ->
  ?trace:Netembed_telemetry.Telemetry.Trace.buffer ->
  ?phases:float array ->
  algorithm ->
  Problem.t ->
  result
(** Every returned mapping satisfies {!Verify.check} (enforced by the
    algorithms' construction; tests assert it).

    [filter], when given, is searched directly instead of building one
    — it must have been built for an identical problem (same residual
    host graph, query and constraints), which the service's filter
    cache guarantees by keying on (model revision, query signature).
    Skipping the build also skips its blame pass, so explain-mode
    certificates on this path attribute only search-time eliminations.
    Ignored by LNS.

    The run adds its [compile] / [filter_build] / [search] time, and
    in explain mode its [certificate] time, to the cells of [phases]
    (default: a fresh
    {!Netembed_telemetry.Telemetry.Phase.make_timings} array), which
    is returned as [telemetry.phases] — the service passes its
    request's own array so one array carries the whole decomposition.
    [trace], when given, also receives one span per timed phase, named
    after it, from the same clock reads
    ({!Netembed_telemetry.Telemetry.time_phase}); the plain path pays
    only a [None] branch per phase boundary.
    @raise Invalid_argument for [At_most k] with [k < 1]. *)

val find_first : ?timeout:float -> algorithm -> Problem.t -> Mapping.t option
(** Convenience wrapper: first feasible embedding, if found in time. *)

val find_all : ?timeout:float -> algorithm -> Problem.t -> Mapping.t list
(** Convenience wrapper around [All] mode. *)

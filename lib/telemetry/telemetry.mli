(** Zero-dependency telemetry kernel for the mapping service.

    The paper evaluates ECF/RWB/LNS entirely through observables —
    nodes visited, time to first mapping, constraint evaluations
    (Figs. 8-13) — and the ROADMAP's scaling goals need request-level
    latency and throughput numbers on top.  This module is the one
    place those observables are defined:

    - {!Counter} / {!Gauge}: monotonic int counters and settable
      gauges, single mutable cells with no allocation on update.
    - {!Histogram}: log-bucketed (HDR-style, ~base-1.2 bucket growth)
      value histograms backed by one preallocated int array per
      histogram; [observe] is a table lookup plus a handful of stores,
      so it is safe on the search hot path.
    - {!Phase} / {!Trace} / {!time_phase}: the fixed request-phase
      decomposition, request-scoped span buffers with Chrome
      [trace_event] export, and the one clock that times a phase into
      both.
    - {!Registry}: named, optionally labeled metrics with Prometheus
      text ({!Registry.to_prometheus}) and JSON ({!Registry.to_json})
      expositions, and cross-domain aggregation
      ({!Registry.merge_into}) for the parallel searchers.
    - {!type-snapshot}: the unified per-run statistics record the engine
      returns — one schema for ECF, RWB and LNS, so LNS finally
      reports constraint evaluations like the filtered algorithms.

    Concurrency: metrics are plain mutable cells, not atomics.  The
    intended topology is single-writer per instance — each search
    domain owns its registry/store and the results are merged at join
    — with any number of racy readers (the /metrics exposition reads
    live cells; int loads cannot tear in OCaml). *)

(** {1 Scalar metrics} *)

module Counter : sig
  type t

  val make : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  (** Negative increments are rejected with [Invalid_argument]:
      counters are monotonic. *)

  val value : t -> int
  val reset : t -> unit
  val merge_into : dst:t -> t -> unit
  (** [merge_into ~dst src] adds [src]'s value into [dst]. *)
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> float -> unit
  val value : t -> float

  val merge_into : dst:t -> t -> unit
  (** [merge_into ~dst src] overwrites [dst] with [src]'s value — last
      write wins, like {!set}.  At a parallel join the source (a worker
      domain's registry) holds the most recent reading, so worker
      gauges are no longer dropped on merge. *)
end

(** {1 Log-bucketed histograms}

    Buckets cover the non-negative ints with upper bounds growing by
    max(+1, x1.2) — exact for values up to 10, then ~20% relative
    resolution up to [max_int].  The bucket layout is global (computed
    once), so histograms merge bucket-by-bucket and every histogram
    costs one int array of {!Histogram.bucket_count} slots, allocated
    at [make] time and never after. *)

module Histogram : sig
  type t

  val bucket_count : int
  (** Number of buckets in the (global) layout. *)

  val bucket_index : int -> int
  (** Index of the bucket a value falls into.  Values [<= 0] land in
      bucket 0; values above the penultimate bound land in the last
      (catch-all) bucket.  O(1) for values up to 4096 (direct table),
      O(log buckets) above. *)

  val bucket_upper : int -> int
  (** Inclusive upper bound of bucket [i] ([max_int] for the last).
      @raise Invalid_argument outside [0, bucket_count). *)

  val make : unit -> t
  val observe : t -> int -> unit
  (** Record one value.  Allocation-free.  Negative values are clamped
      to 0 (bucket and sum). *)

  val observe_n : t -> int -> int -> unit
  (** [observe_n t v n] records [n] observations of value [v] — what a
      caller keeping its own exact count array uses to fold into a
      histogram at snapshot time.  [n = 0] is a no-op.
      @raise Invalid_argument if [n < 0]. *)

  val count : t -> int
  val sum : t -> int
  val max_observed : t -> int
  (** Largest value observed, 0 when empty (exact, not bucketed). *)

  val bucket_value : t -> int -> int
  (** Occupancy of bucket [i]. *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0,1]: the upper bound of the bucket
      holding the rank-[q] observation (nearest-rank, matching
      {!Netembed_workload.Stats.percentile} up to bucket resolution:
      the true value v satisfies [result/1.2 - 1 <= v <= result]).
      0 when empty.
      @raise Invalid_argument when [q] is outside [0,1]. *)

  val reset : t -> unit
  val merge_into : dst:t -> t -> unit
end

(** {1 Request phases} *)

module Phase : sig
  (** The fixed decomposition of one mapping request, in pipeline
      order.  {!index} is the layout of [snapshot.phases] and of the
      service's per-phase latency series. *)
  type t =
    | Parse  (** constraint parsing ([Request.parse_constraints]) *)
    | Admission  (** ledger admission check *)
    | Cache_lookup  (** filter-cache invalidate, probe and insert *)
    | Filter_build  (** candidate-domain filter matrix build *)
    | Compile  (** constraint specialization: forcing the per-edge residuals *)
    | Search  (** the descent proper *)
    | Ledger_commit  (** allocation commit / release bookkeeping *)
    | Encode  (** wire-frame encoding of the answer *)
    | Queue_wait
        (** time spent in the front-end admission queue before a worker
            picked the request up (appended after [Encode] so earlier
            indices stay stable; in wall-clock order it happens first) *)
    | Snapshot
        (** the residual model snapshot a request searches against
            (appended after [Queue_wait]; it runs after [admission]) *)
    | Certificate
        (** the explain-mode certificate assembled after the search:
            blamed nodes with their near misses, hot spot and flight
            dump (appended after [Snapshot]) *)

  val all : t array
  val count : int
  val index : t -> int
  val name : t -> string
  (** Lowercase snake-case label: ["parse"], ["filter_build"], ... *)

  val of_index : int -> t
  (** @raise Invalid_argument outside [0, count). *)

  val make_timings : unit -> float array
  (** A fresh all-zero array of {!count} seconds cells. *)
end

(** {1 Request-scoped trace buffers} *)

module Trace : sig
  (** Per-request tracing.  A trace buffer belongs to a single
      request: the service allocates it at submit, the engine and
      every parallel worker append complete spans, and the merged
      buffer serializes to Chrome [trace_event] JSON (open it in [chrome://tracing] or
      Perfetto).  Buffers are single-writer: each worker domain
      records into its own buffer (tid = worker index) and the owner
      merges at join. *)

  val fresh_id : unit -> int
  (** Allocate a process-globally unique trace id (one atomic
      fetch-and-add; safe from any domain).  Id 0 is reserved for
      "not traced". *)

  type buffer

  val create : ?tid:int -> unit -> buffer
  (** A fresh buffer whose events default to thread-id [tid]
      (default 0 — the dispatching domain). *)

  val length : buffer -> int

  val add :
    ?tid:int -> buffer -> name:string -> start_us:float -> dur_us:float -> unit
  (** Append one complete span.  [start_us] is absolute wall-clock
      microseconds, so spans recorded on different domains line up on
      one timeline. *)

  val span : buffer -> string -> (unit -> 'a) -> 'a
  (** [span b name f] times [f] and appends the span, exceptions
      included. *)

  val span_opt : buffer option -> string -> (unit -> 'a) -> 'a
  (** {!span} when a buffer is present, plain [f ()] otherwise — the
      zero-cost gate instrumented code uses. *)

  val merge_into : dst:buffer -> buffer -> unit
  (** Append every event of the source, keeping its thread ids — the
      join step for per-worker buffers. *)

  val iter :
    (name:string -> tid:int -> start_us:float -> dur_us:float -> unit) ->
    buffer ->
    unit

  val to_chrome_json : ?trace_id:int -> buffer -> string
  (** Chrome [trace_event] JSON (object format, ["traceEvents"] array
      of ["ph":"X"] complete events).  [pid] and [args.trace_id] carry
      [trace_id], [tid] the recording worker; timestamps are shifted
      to the earliest event and, like durations, rounded to 0.1 µs.
      Printed by {!Json}. *)
end

val time_phase :
  float array -> ?trace:Trace.buffer -> Phase.t -> (unit -> 'a) -> 'a
(** [time_phase cells ?trace phase f] runs [f] and adds its wall-clock
    seconds to [cells.(Phase.index phase)]; with [trace] it also
    appends a span named [Phase.name phase] with the same start and
    duration (one pair of clock reads feeds both, so span durations
    equal cell increments x 1e6).  Exceptions from [f] still charge
    the time.  The only phase timer: the engine, the service and the
    server all time their phases through it. *)

(** {1 Sliding-window histograms} *)

module Windowed : sig
  (** A sliding-window histogram: a ring of {!Histogram.t} slices,
      each covering [window / slices] seconds of a coarse clock.
      Observations land in the slice for the current time; expired
      slices are cleared lazily on the next touch.  Reads merge live
      slices into a scratch histogram, so quantiles reflect only the
      last [window] seconds — the p50/p95/p99 the ROADMAP's load
      harness reports against. *)

  type t

  val create :
    ?clock:(unit -> float) -> ?scale:float -> window:float -> slices:int -> unit -> t
  (** [create ~window ~slices ()] covers [window] seconds with
      [slices] ring slots.  [clock] (default [Unix.gettimeofday])
      is injectable for tests; [scale] (default 1.0) multiplies
      values at render time (e.g. 1e-6 to expose µs observations in
      seconds).
      @raise Invalid_argument if [slices < 1] or [window <= 0]. *)

  val observe : t -> int -> unit
  (** Record one value into the current slice (clamping as
      {!Histogram.observe}). *)

  val merged : t -> Histogram.t
  (** The live slices merged into one histogram.  Returns a scratch
      value owned by [t]: valid until the next [merged] call. *)

  val count : t -> int
  (** Observations currently inside the window. *)

  val quantile : t -> float -> float
  (** Windowed quantile, scaled by the render multiplier. *)

  val merge_into : dst:t -> t -> unit
  (** Merge the source's live slices into the destination's slices for
      the same absolute time — the parallel-join step.  Both sides
      must share the same window geometry.
      @raise Invalid_argument on mismatched window/slice counts. *)

  val window : t -> float
  val scale : t -> float
  val clock : t -> unit -> float
end

(** {1 Registries and exposition} *)

(** Registries are safe to use from multiple domains: registration,
    enumeration (the expositions) and {!Registry.merge_into} are
    serialized by an internal mutex, and a whole merge is atomic with
    respect to other merges into the same destination — concurrent
    worker joins cannot lose counter updates.  Metric {e updates}
    (increments, observations) remain lock-free plain stores under the
    single-writer/racy-reader model; callers that need exact counts
    from several writing domains serialize those updates themselves
    (see {!Netembed_service.Service}). *)
module Registry : sig
  type t

  val create : unit -> t

  val counter :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
  (** Register (or retrieve) the counter with this name and label set.
      Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*].
      @raise Invalid_argument on a bad name or if the name+labels is
      already registered as a different metric kind. *)

  val gauge :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t

  val windowed :
    t ->
    ?help:string ->
    ?labels:(string * string) list ->
    ?clock:(unit -> float) ->
    ?scale:float ->
    window:float ->
    slices:int ->
    string ->
    Windowed.t
  (** Register (or retrieve) a {!Windowed} histogram.  Creation
      parameters are used only on first registration. *)

  val merge_into : dst:t -> t -> unit
  (** Fold every metric of the source into the destination, creating
      missing ones: counters, histograms and windowed histograms add,
      gauges take the source value.  The join step of the per-domain
      registries of {!Netembed_parallel}. *)

  val to_prometheus : t -> string
  (** Prometheus text exposition format 0.0.4.  Histograms emit
      cumulative [_bucket{le="..."}] lines for their occupied buckets
      plus [le="+Inf"], [_sum] and [_count]; windowed histograms render
      as summaries — one sample per reported quantile
      ([quantile="0.5"|"0.95"|"0.99"]) plus [_sum] and [_count], all
      computed over the sliding window and scaled by the render
      multiplier. *)

  val to_json : t -> string
  (** One JSON object keyed by metric name (labels rendered into the
      key); histograms expose count/sum/max, the p50/p95/p99 quantile
      set and non-empty buckets; windowed histograms expose
      count/sum/quantiles/window_s. *)
end

val default_registry : Registry.t
(** The process-wide registry: the engine's per-algorithm counters and
    the service/server metrics live here, and [GET /metrics] serves it. *)

(** {1 The unified per-run snapshot} *)

type snapshot = {
  algorithm : string;
  outcome : string;
      (** how the run ended: ["complete"] (space exhausted; with
          [found = 0] this proves no mapping exists — reported as
          ["unsat"]), ["partial"] (budget hit after finding some
          mappings) or ["exhausted"] (gave up empty-handed; nothing
          proved) *)
  visited : int;  (** search-tree nodes visited *)
  found : int;  (** feasible mappings encountered *)
  elapsed_s : float;
  time_to_first_s : float option;
  constraint_evals : int;
      (** constraint-expression evaluations, all phases — filter build
          for ECF/RWB, lazy edge checks for LNS *)
  domains_built : int;  (** candidate domains computed *)
  intersections : int;  (** filter-cell intersections *)
  backtracks : int;  (** exhausted candidate domains (returns) *)
  max_depth : int;  (** deepest search depth visited *)
  depth_histogram : Histogram.t;  (** visits per search depth *)
  domain_size_histogram : Histogram.t;
      (** candidate-domain cardinality per computed domain *)
  phases : float array;
      (** seconds spent per request phase, indexed by {!Phase.index}
          (length {!Phase.count}).  The engine fills filter_build /
          compile / search; the service adds parse / admission /
          cache_lookup / ledger_commit; the server stamps encode after
          building the reply. *)
}

val snapshot_to_json : snapshot -> string
(** Single-line JSON object — the [--stats] output of the CLI.  Its
    ["phases"] member maps {!Phase.name}s to seconds in canonical
    order; an array shorter than {!Phase.count} renders only the
    phases it carries. *)

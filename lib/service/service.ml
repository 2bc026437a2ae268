module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Mapping = Netembed_core.Mapping
module Filter = Netembed_core.Filter
module Parallel = Netembed_parallel.Parallel
module Expr = Netembed_expr.Expr
module Ast = Netembed_expr.Ast
module Telemetry = Netembed_telemetry.Telemetry
module Ledger = Netembed_ledger.Ledger
module Explain = Netembed_explain.Explain

type entry = {
  id : int;
  trace_id : int;
  summary : string;
  verdict : string;
  elapsed : float;
  phases : float array;
  slow_search : bool;
  certificate : Explain.Certificate.t option;
}

let log_capacity = 64

(* The sliding window the per-phase latency summaries cover:
   [window_seconds] split into [window_slices] ring slices. *)
let window_seconds = 60.0
let window_slices = 6
let window_label = "60s"

type t = {
  model : Model.t;
  registry : Telemetry.Registry.t;
  (* Concurrent-submit safety: the service is shared by the front-end's
     worker domains, so its mutable state is split across three small
     locks (never nested in one another):
     - [model_lock] serializes every model/ledger mutation and every
       read that must be consistent with one (admission checks,
       residual snapshots paired with the revision they were taken at,
       allocation commit/release, monitor ticks via {!exclusively});
     - [cache_lock] guards the filter cache's table and its hit/miss
       counters, so the hammer test can assert hits + misses = lookups
       exactly;
     - [state_lock] guards the diagnostics ring, the windowed phase
       series, the latency histogram and the request counters.
     The search itself runs outside all three, against an immutable
     residual snapshot. *)
  model_lock : Mutex.t;
  cache_lock : Mutex.t;
  state_lock : Mutex.t;
  requests : Telemetry.Counter.t;
  request_errors : Telemetry.Counter.t;
  latency_us : Telemetry.Histogram.t;
  relaxation_rounds : Telemetry.Counter.t;
  model_revision : Telemetry.Gauge.t;
  allocations_accepted : Telemetry.Counter.t;
  allocations_rejected : Telemetry.Counter.t;
  admission_rejected : Telemetry.Counter.t;
  queue_rejected : Telemetry.Counter.t;
  migrations : Telemetry.Counter.t;
  migration_failures : Telemetry.Counter.t;
  active_allocations : Telemetry.Gauge.t;
  utilization_gauges : (string * [ `Node | `Edge ] * Telemetry.Gauge.t) list;
  slow_threshold : float;
  slow_search_share : float;
  domains : int;
  filter_cache : Filter_cache.t;
  cache_hits : Telemetry.Counter.t;
  cache_misses : Telemetry.Counter.t;
  (* Per-phase request-latency decomposition: one windowed series per
     phase plus a "total" one (µs observations exposed in seconds), and
     lifetime per-phase second totals mirrored onto gauges. *)
  request_seconds : Telemetry.Windowed.t array;
  phase_seconds : Telemetry.Gauge.t array;
  phase_totals : float array;
  next_id : int Atomic.t;
  (* SLO burn-rate health machine: every finished request (and every
     backpressure reject) feeds it; the server's periodic tick calls
     [Health.evaluate] with the live queue depth. *)
  health : Health.t;
  (* Bounded slow/failed-query log: a ring of the last [log_capacity]
     diagnosable requests, looked up by request id for EXPLAIN. *)
  log : entry option array;
  mutable logged : int;
}

let kind_label = function `Node -> "node" | `Edge -> "edge"

let create ?(registry = Telemetry.default_registry) ?(slow_threshold = 0.5)
    ?(slow_search_share = 0.9) ?(domains = 1) ?(filter_cache_capacity = 32)
    ?health_config model =
  let ledger = Model.ledger model in
  (* Pre-register the parallel-search steal counter so the exposition
     shows the series (at 0) before the first multi-domain request;
     work-stealing workers merge their counts onto it at join. *)
  ignore
    (Telemetry.Registry.counter registry
       ~help:"Search frames stolen from sibling deques by idle domains"
       "netembed_steals_total");
  let utilization_gauges =
    List.map
      (fun (resource, kind, _, _) ->
        ( resource,
          kind,
          Telemetry.Registry.gauge registry
            ~help:"Fraction of the hosting network's declared capacity under allocation"
            ~labels:[ ("resource", resource); ("kind", kind_label kind) ]
            "netembed_resource_utilization" ))
      (Ledger.utilization ledger)
  in
  let t =
    {
      model;
      registry;
      model_lock = Mutex.create ();
      cache_lock = Mutex.create ();
      state_lock = Mutex.create ();
      requests =
        Telemetry.Registry.counter registry
          ~help:"Requests submitted to the mapping service" "netembed_requests_total";
      request_errors =
        Telemetry.Registry.counter registry
          ~help:"Requests rejected (malformed constraints, admission control or impossible query)"
          "netembed_request_errors_total";
      latency_us =
        Telemetry.Registry.histogram registry
          ~help:"End-to-end request latency in microseconds"
          "netembed_request_latency_us";
      relaxation_rounds =
        Telemetry.Registry.counter registry
          ~help:"Constraint-relaxation rounds applied during negotiation"
          "netembed_relaxation_rounds_total";
      model_revision =
        Telemetry.Registry.gauge registry
          ~help:"Network-model revision the latest answer was computed against"
          "netembed_model_revision";
      allocations_accepted =
        Telemetry.Registry.counter registry
          ~help:"Allocations committed (whole-node reservations and fractional charges)"
          "netembed_allocations_total";
      allocations_rejected =
        Telemetry.Registry.counter registry
          ~help:"Allocations rejected (stale answer, reservation conflict or over-committed resource)"
          "netembed_allocation_rejects_total";
      admission_rejected =
        Telemetry.Registry.counter registry
          ~help:"Queries rejected before search: aggregate demand exceeded total residual capacity"
          "netembed_admission_rejects_total";
      queue_rejected =
        Telemetry.Registry.counter registry
          ~help:"Requests rejected at the front door because the admission queue was \
                 saturated (backpressure)"
          "netembed_admission_queue_rejects_total";
      migrations =
        Telemetry.Registry.counter registry
          ~help:"Allocations atomically re-homed by a defragmentation pass"
          "netembed_migrations_total";
      migration_failures =
        Telemetry.Registry.counter registry
          ~help:"Migration attempts rolled back (re-embed target over-committed); \
                 the original allocation survives intact"
          "netembed_migration_failures_total";
      active_allocations =
        Telemetry.Registry.gauge registry
          ~help:"Outstanding ledger allocations" "netembed_active_allocations";
      utilization_gauges;
      slow_threshold;
      domains = max 1 domains;
      filter_cache = Filter_cache.create ~capacity:filter_cache_capacity ();
      cache_hits =
        Telemetry.Registry.counter registry
          ~help:"Requests answered with a cached filter matrix (build skipped)"
          "netembed_filter_cache_hits_total";
      cache_misses =
        Telemetry.Registry.counter registry
          ~help:"Requests that had to build their filter matrix"
          "netembed_filter_cache_misses_total";
      request_seconds =
        Array.init
          (Telemetry.Phase.count + 1)
          (fun i ->
            let phase =
              if i < Telemetry.Phase.count then
                Telemetry.Phase.name (Telemetry.Phase.of_index i)
              else "total"
            in
            Telemetry.Registry.windowed registry
              ~help:"Request latency by phase over a sliding window"
              ~labels:[ ("phase", phase); ("window", window_label) ]
              ~scale:1e-6 ~window:window_seconds ~slices:window_slices
              "netembed_request_seconds");
      phase_seconds =
        Array.init Telemetry.Phase.count (fun i ->
            Telemetry.Registry.gauge registry
              ~help:"Cumulative seconds spent in each request phase"
              ~labels:
                [ ("phase", Telemetry.Phase.name (Telemetry.Phase.of_index i)) ]
              "netembed_phase_seconds_total");
      phase_totals = Array.make Telemetry.Phase.count 0.0;
      slow_search_share;
      next_id = Atomic.make 1;
      health = Health.create ?config:health_config ~registry ();
      log = Array.make log_capacity None;
      logged = 0;
    }
  in
  Telemetry.Gauge.set t.model_revision (float_of_int (Model.revision model));
  t

let model t = t.model
let registry t = t.registry
let filter_cache t = t.filter_cache
let domains t = t.domains
let health t = t.health

let with_lock m f =
  Mutex.lock m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock m)

let with_model t f = with_lock t.model_lock f
let with_cache t f = with_lock t.cache_lock f
let with_state t f = with_lock t.state_lock f
let exclusively t f = with_model t f

let utilization t =
  with_model t (fun () -> Ledger.utilization (Model.ledger t.model))

(* Callers hold [model_lock]. *)
let refresh_utilization t =
  let rows = Ledger.utilization (Model.ledger t.model) in
  List.iter
    (fun (resource, kind, gauge) ->
      match
        List.find_opt (fun (r, k, _, _) -> r = resource && k = kind) rows
      with
      | Some (_, _, used, cap) ->
          Telemetry.Gauge.set gauge (if cap > 0.0 then used /. cap else 0.0)
      | None -> ())
    t.utilization_gauges;
  Telemetry.Gauge.set t.active_allocations
    (float_of_int (Ledger.outstanding (Model.ledger t.model)))

(* ------------------------------------------------------------------ *)
(* Phase-latency accounting                                            *)
(* ------------------------------------------------------------------ *)

(* Caller holds [state_lock]: the windowed slices, phase totals and
   gauges are written from every worker domain. *)
let record_phase_unlocked t phase seconds =
  if seconds > 0.0 then begin
    let i = Telemetry.Phase.index phase in
    t.phase_totals.(i) <- t.phase_totals.(i) +. seconds;
    Telemetry.Gauge.set t.phase_seconds.(i) t.phase_totals.(i);
    Telemetry.Windowed.observe t.request_seconds.(i)
      (int_of_float (seconds *. 1e6))
  end

let record_phase t phase seconds =
  with_state t (fun () -> record_phase_unlocked t phase seconds)

(* Work outside any request (commit/release verbs, reply encoding)
   still lands on its phase's series: time it into a scratch cell
   array and record the cell. *)
let timed t phase f =
  let cells = Telemetry.Phase.make_timings () in
  Fun.protect
    (fun () -> Telemetry.time_phase cells phase f)
    ~finally:(fun () ->
      record_phase t phase cells.(Telemetry.Phase.index phase))

(* Feed a request's filled timings array into the per-phase series.
   Phases the request never exercised (0.0 cells) are skipped, so each
   phase's window quantiles cover only requests that paid for it. *)
let record_phases_unlocked t phases =
  Array.iteri
    (fun i s ->
      if i < Telemetry.Phase.count && s > 0.0 then
        record_phase_unlocked t (Telemetry.Phase.of_index i) s)
    phases

type answer = {
  id : int;
  trace_id : int;
  request : Request.t;
  result : Engine.result;
  model_revision : int;
  trace : Telemetry.Trace.buffer option;
}

let src = Logs.Src.create "netembed.service" ~doc:"NETEMBED mapping service"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Slow/failed-query log and failure metrics                           *)
(* ------------------------------------------------------------------ *)

(* Caller holds [state_lock]. *)
let log_entry_unlocked t entry =
  t.log.(t.logged mod log_capacity) <- Some entry;
  t.logged <- t.logged + 1

let log_entry t entry = with_state t (fun () -> log_entry_unlocked t entry)

let explain t id =
  with_state t (fun () ->
      let found = ref None in
      Array.iter
        (fun e ->
          match e with
          | Some (e : entry) when e.id = id -> found := Some e
          | Some _ | None -> ())
        t.log;
      !found)

let last_entry t =
  with_state t (fun () ->
      if t.logged = 0 then None else t.log.((t.logged - 1) mod log_capacity))

(* ------------------------------------------------------------------ *)
(* Backpressure rejections                                             *)
(* ------------------------------------------------------------------ *)

(* A request turned away at the front door because the admission queue
   was saturated.  It still gets a request id and a certificate in the
   diagnostics ring — the reject travels the same explain path as an
   admission failure, so a client can EXPLAIN the id it was bounced
   with and monitoring sees the reject counter move. *)
let reject_backpressure t ~queue_depth ~queue_capacity =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let trace_id = Telemetry.Trace.fresh_id () in
  let message =
    Printf.sprintf
      "backpressure: admission queue saturated (%d/%d in flight); retry with backoff"
      queue_depth queue_capacity
  in
  let certificate =
    Explain.Certificate.make
      ~notes:
        [
          Printf.sprintf "admission queue depth %d of capacity %d" queue_depth
            queue_capacity;
          "the search was never started: no capacity or constraint was evaluated";
        ]
      ~verdict:"backpressure" message
  in
  let entry =
    {
      id;
      trace_id;
      summary = Printf.sprintf "rejected at admission queue — %s" message;
      verdict = "backpressure";
      elapsed = 0.0;
      phases = Telemetry.Phase.make_timings ();
      slow_search = false;
      certificate = Some certificate;
    }
  in
  with_state t (fun () ->
      Telemetry.Counter.incr t.queue_rejected;
      Telemetry.Counter.incr t.request_errors;
      log_entry_unlocked t entry);
  (* Sheds count as errors against the SLO budget: sustained shedding
     is exactly what should drive the health machine to Saturated. *)
  Health.observe_request t.health ~latency_s:0.0 ~error:true;
  entry

(* ------------------------------------------------------------------ *)
(* TOP: busiest phases, worst recent requests, window quantiles        *)
(* ------------------------------------------------------------------ *)

type phase_stat = {
  phase : Telemetry.Phase.t;
  total_s : float;  (** lifetime seconds accumulated in this phase *)
  window_count : int;  (** requests that exercised it inside the window *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
}

type top = {
  busiest : phase_stat list;  (** every phase, sorted by [total_s], busiest first *)
  worst : entry list;  (** ring entries sorted by elapsed, slowest first *)
  window_s : float;
}

let top ?(worst = 5) t =
  with_state t @@ fun () ->
  let stat_of i =
    let w = t.request_seconds.(i) in
    {
      phase = Telemetry.Phase.of_index i;
      total_s = t.phase_totals.(i);
      window_count = Telemetry.Windowed.count w;
      p50_s = Telemetry.Windowed.quantile w 0.50;
      p95_s = Telemetry.Windowed.quantile w 0.95;
      p99_s = Telemetry.Windowed.quantile w 0.99;
    }
  in
  let busiest =
    List.init Telemetry.Phase.count stat_of
    |> List.sort (fun a b -> compare b.total_s a.total_s)
  in
  let entries =
    Array.to_list t.log
    |> List.filter_map Fun.id
    |> List.sort (fun (a : entry) b -> compare b.elapsed a.elapsed)
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  { busiest; worst = take worst entries; window_s = window_seconds }

(* The labeled-counter increments below are serialized by [state_lock]
   at the call sites (registration itself is thread-safe in the
   registry). *)
let count_unsat t cause =
  Telemetry.Counter.incr
    (Telemetry.Registry.counter t.registry
       ~help:"Requests that ended without a usable mapping, by attributed cause"
       ~labels:[ ("cause", cause) ]
       "netembed_unsat_total")

let count_blame t (cert : Explain.Certificate.t) =
  (* Aggregate the certificate's per-node cause counts into the
     low-cardinality blame-by-constraint counters. *)
  let agg : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Explain.Certificate.blamed) ->
      List.iter
        (fun (c, n) ->
          let l = Explain.Cause.label c in
          Hashtbl.replace agg l (n + Option.value ~default:0 (Hashtbl.find_opt agg l)))
        b.Explain.Certificate.causes)
    cert.Explain.Certificate.blamed;
  Hashtbl.iter
    (fun cause n ->
      Telemetry.Counter.add
        (Telemetry.Registry.counter t.registry
           ~help:"Candidate eliminations charged to each constraint class on failed \
                  or slow queries"
           ~labels:[ ("cause", cause) ]
           "netembed_blame_eliminations_total")
        n)
    agg

let target_label g = function
  | Ledger.Node v -> (
      let attrs = Netembed_graph.Graph.node_attrs g v in
      match Netembed_attr.Attrs.string "name" attrs with
      | Some s -> s
      | None -> Printf.sprintf "node %d" v)
  | Ledger.Edge e -> Printf.sprintf "edge %d" e

let admission_certificate t (f : Ledger.failure) =
  let ledger = Model.ledger t.model in
  let notes =
    List.map
      (fun (tgt, res) ->
        Printf.sprintf "best residual %s: %s has %g" f.Ledger.resource
          (target_label (Ledger.graph ledger) tgt)
          res)
      (Ledger.top_residuals ledger ~resource:f.Ledger.resource f.Ledger.kind 3)
  in
  Explain.Certificate.make ~notes ~verdict:"admission" (Ledger.failure_to_string f)

let request_summary (request : Request.t) verdict elapsed =
  Printf.sprintf "%s %d-node query: %s in %.1f ms"
    (Engine.algorithm_name request.Request.algorithm)
    (Netembed_graph.Graph.node_count request.Request.query)
    verdict (elapsed *. 1000.0)

(* Reserved hosts are excluded by conjoining the reservation guard to
   the user's node constraint. *)
let reservation_guard = Expr.parse_exn "!rSource.reserved"

(* Exhaustive ECF requests on a multi-domain service run through the
   work-stealing scheduler instead of [Engine.run].  The scheduler has
   no blame/recorder instrumentation (per-domain certificates would
   have to be merged), so the synthesized result carries no [report];
   everything else — verdict, telemetry snapshot, filter for the cache
   — is assembled to the engine's contract.  The per-domain registries
   are merged into [t.registry] by the scheduler itself. *)
let submit_parallel t ?trace ~phases ~cached_filter ~(request : Request.t) problem =
  let evals_before = Problem.constraint_evals problem in
  let filter =
    match cached_filter with
    | Some f -> f
    | None ->
        Telemetry.time_phase phases ?trace Telemetry.Phase.Compile (fun () ->
            Problem.prepare problem);
        Telemetry.time_phase phases ?trace Telemetry.Phase.Filter_build (fun () ->
            Filter.build problem)
  in
  let stats =
    Telemetry.time_phase phases ?trace Telemetry.Phase.Search (fun () ->
        Parallel.ecf_all_stats ~strategy:Parallel.Work_stealing ~domains:t.domains
          ?timeout:request.Request.timeout ~filter ~registry:t.registry ?trace problem)
  in
  let found = List.length stats.Parallel.mappings in
  let visited = Parallel.visited_total stats in
  let constraint_evals = Problem.constraint_evals problem - evals_before in
  with_state t (fun () ->
      Telemetry.Counter.add
        (Telemetry.Registry.counter t.registry
           ~labels:[ ("algorithm", "ECF") ]
           ~help:"Constraint-expression evaluations (all phases)"
           "netembed_constraint_evals_total")
        constraint_evals);
  let domains_built, intersections, backtracks =
    List.fold_left
      (fun (a, b, c) (s : Netembed_core.Domain_store.stats) ->
        ( a + s.Netembed_core.Domain_store.domains_built,
          b + s.Netembed_core.Domain_store.intersections,
          c + s.Netembed_core.Domain_store.backtracks ))
      (0, 0, 0) stats.Parallel.domain_stats
  in
  let depth_hist = Telemetry.Histogram.make () in
  let size_hist = Telemetry.Histogram.make () in
  List.iter
    (fun reg ->
      let labels = [ ("algorithm", "ECF") ] in
      Telemetry.Histogram.merge_into ~dst:depth_hist
        (Telemetry.Registry.histogram reg ~labels "netembed_search_depth");
      Telemetry.Histogram.merge_into ~dst:size_hist
        (Telemetry.Registry.histogram reg ~labels "netembed_domain_size"))
    stats.Parallel.domain_registries;
  let telemetry =
    {
      Telemetry.algorithm = "ECF";
      outcome = Engine.verdict_of stats.Parallel.outcome found;
      visited;
      found;
      elapsed_s = stats.Parallel.elapsed;
      time_to_first_s = None;
      constraint_evals;
      domains_built;
      intersections;
      backtracks;
      max_depth = Telemetry.Histogram.max_observed depth_hist;
      depth_histogram = depth_hist;
      domain_size_histogram = size_hist;
      phases;
    }
  in
  {
    Engine.mappings = stats.Parallel.mappings;
    found;
    outcome = stats.Parallel.outcome;
    elapsed = stats.Parallel.elapsed;
    time_to_first = None;
    visited;
    filter_evals = constraint_evals;
    domain_stats = None;
    telemetry;
    report = None;
    filter = Some filter;
  }

let submit ?(trace = false) ?(queue_wait = 0.0) t (request : Request.t) =
  let t0 = Unix.gettimeofday () in
  with_state t (fun () -> Telemetry.Counter.incr t.requests);
  let id = Atomic.fetch_and_add t.next_id 1 in
  (* Every request gets a trace id (one atomic increment) so exemplars
     and answers correlate even when span recording is off; the buffer
     itself exists only for traced requests. *)
  let trace_id = Telemetry.Trace.fresh_id () in
  let tbuf = if trace then Some (Telemetry.Trace.create ~tid:0 ()) else None in
  (* The request's phase cells: the service times parse / admission /
     cache_lookup / ledger_commit into them and hands the same array to
     the engine for compile / filter_build / search, so it comes back
     as the result's [telemetry.phases] with the full decomposition.
     The front-end's admission-queue wait is handed in ready-made: it
     was over before this call began. *)
  let phases = Telemetry.Phase.make_timings () in
  if queue_wait > 0.0 then
    phases.(Telemetry.Phase.index Telemetry.Phase.Queue_wait) <- queue_wait;
  let finish outcome =
    let dt_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
    let error = match outcome with Error _ -> true | Ok _ -> false in
    with_state t (fun () ->
        Telemetry.Histogram.observe t.latency_us dt_us;
        Telemetry.Windowed.observe t.request_seconds.(Telemetry.Phase.count) dt_us;
        record_phases_unlocked t phases;
        if error then Telemetry.Counter.incr t.request_errors);
    Health.observe_request t.health
      ~latency_s:(float_of_int dt_us *. 1e-6)
      ~error;
    outcome
  in
  let log_failure ?certificate verdict message =
    let elapsed = Unix.gettimeofday () -. t0 in
    log_entry t
      {
        id;
        trace_id;
        summary =
          Printf.sprintf "%s — %s" (request_summary request verdict elapsed) message;
        verdict;
        elapsed;
        phases;
        slow_search = false;
        certificate;
      }
  in
  match
    Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Parse (fun () ->
        Request.parse_constraints request)
  with
  | Error m ->
      log_failure "error" m;
      finish (Error m)
  | Ok (edge_constraint, node_constraint) -> (
      let node_constraint =
        match node_constraint with
        | None -> reservation_guard
        | Some c -> Ast.Binop (Ast.And, reservation_guard, c)
      in
      (* Admission control: a query whose aggregate demand exceeds the
         total residual capacity cannot commit under any mapping —
         reject it before paying for a search. *)
      match
        Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Admission (fun () ->
            with_model t (fun () ->
                Ledger.admissible (Model.ledger t.model) ~query:request.Request.query))
      with
      | Error f ->
          with_state t (fun () ->
              Telemetry.Counter.incr t.admission_rejected;
              count_unsat t "admission");
          log_failure ~certificate:(admission_certificate t f) "admission"
            (Ledger.failure_to_string f);
          finish (Error ("admission: " ^ Ledger.failure_to_string f))
      | Ok () -> (
          (* Embed against residual capacities: co-located tenants have
             already eaten into what constraints like
             rSource.cpuMhz >= vSource.cpuMhz can see.  The snapshot is
             ledger-side work, so it lands on the ledger_commit cell.
             Snapshot and revision are read under one critical section
             so a concurrent allocation cannot slip between them. *)
          let host, revision =
            Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Ledger_commit
              (fun () ->
                with_model t (fun () ->
                    (Model.residual_snapshot t.model, Model.revision t.model)))
          in
          (* Cross-request filter cache: ECF/RWB requests key their
             filter matrix on (model revision, query signature) and
             skip the build — the dominant sequential phase — on a
             repeat.  A hit also hands back the specialized-residual
             table, threaded into [Problem.make] below so a warm
             submit skips specialization too.  A miss builds inside
             the engine as before (with blame, so cold unsat requests
             still get full filter-phase attribution) and the built
             filter + residuals are stored afterwards; LNS filters
             lazily and bypasses the cache. *)
          let cache_key =
            Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Cache_lookup
              (fun () ->
                match request.Request.algorithm with
                | Engine.LNS -> None
                | Engine.ECF | Engine.RWB ->
                    (* The signature serialization reads only the
                       request; only the invalidation sweep needs the
                       cache lock. *)
                    with_cache t (fun () ->
                        Filter_cache.invalidate t.filter_cache
                          ~current_revision:revision);
                    Some
                      (Filter_cache.signature ~query:request.Request.query
                         ~constraint_text:request.Request.constraint_text
                         ~node_constraint_text:request.Request.node_constraint_text))
          in
          (* Probe and counter bump are one critical section, so
             hits + misses = lookups holds exactly under concurrent
             submits. *)
          let cache_hit =
            Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Cache_lookup
              (fun () ->
                match cache_key with
                | None -> None
                | Some key ->
                    with_cache t (fun () ->
                        match
                          Filter_cache.find t.filter_cache ~revision ~signature:key
                        with
                        | Some hit ->
                            Telemetry.Counter.incr t.cache_hits;
                            Some hit
                        | None ->
                            Telemetry.Counter.incr t.cache_misses;
                            None))
          in
          let cached_filter = Option.map fst cache_hit in
          let compiled = Option.map snd cache_hit in
          match
            Problem.make ~node_constraint ?compiled ~host
              ~query:request.Request.query edge_constraint
          with
          | exception Invalid_argument m ->
              log_failure "error" m;
              finish (Error m)
          | problem ->
              let options =
                {
                  Engine.default_options with
                  Engine.mode = request.Request.mode;
                  timeout = request.Request.timeout;
                  (* Every service request runs with blame + flight
                     recorder on: certificates must exist for EXPLAIN
                     without a re-run, and service queries are
                     milliseconds-scale, not the bench hot loop. *)
                  explain = true;
                }
              in
              let result =
                if
                  t.domains > 1
                  && request.Request.algorithm = Engine.ECF
                  && request.Request.mode = Engine.All
                then
                  submit_parallel t ?trace:tbuf ~phases ~cached_filter ~request
                    problem
                else
                  Engine.run ~options ?filter:cached_filter ?trace:tbuf ~phases
                    request.Request.algorithm problem
              in
              (* Storing the built filter is cache work, like the probe. *)
              Telemetry.time_phase phases ?trace:tbuf Telemetry.Phase.Cache_lookup
                (fun () ->
                  match (cache_key, result.Engine.filter) with
                  | Some key, Some f ->
                      with_cache t (fun () ->
                          Filter_cache.add t.filter_cache ~revision ~signature:key
                            ~compiled:(Problem.compiled_residuals problem) f)
                  | _ -> ());
              Log.debug (fun m ->
                  m "query %d nodes via %s: %d mapping(s), %s"
                    (Netembed_graph.Graph.node_count request.Request.query)
                    (Engine.algorithm_name request.Request.algorithm)
                    (List.length result.Engine.mappings)
                    (Engine.outcome_name result.Engine.outcome));
              let verdict = Engine.verdict result in
              let slow = result.Engine.elapsed >= t.slow_threshold in
              (* A cache-warm request can be fast on the wall clock yet
                 spend nearly everything in the search; flag it when the
                 search share crosses the threshold, with a floor at a
                 tenth of [slow_threshold] so microsecond-scale requests
                 don't flood the ring. *)
              let slow_search =
                result.Engine.elapsed >= 0.1 *. t.slow_threshold
                && phases.(Telemetry.Phase.index Telemetry.Phase.Search)
                   >= t.slow_search_share *. result.Engine.elapsed
              in
              (match tbuf with
              | Some b ->
                  (* The enclosing request span (tid 0) — recorded last,
                     covering parse through bookkeeping, so every other
                     span nests under it. *)
                  Telemetry.Trace.add b ~name:"request" ~start_us:(t0 *. 1e6)
                    ~dur_us:((Unix.gettimeofday () -. t0) *. 1e6)
              | None -> ());
              with_state t (fun () ->
                  (match verdict with
                  | "unsat" ->
                      let cause =
                        match result.Engine.report with
                        | Some cert -> (
                            match Explain.Certificate.primary_cause cert with
                            | Some c -> Explain.Cause.label c
                            | None -> "search")
                        | None -> "search"
                      in
                      count_unsat t cause
                  | "exhausted" -> count_unsat t "budget"
                  | _ -> ());
                  if verdict <> "complete" || slow || slow_search then begin
                    (match result.Engine.report with
                    | Some cert -> count_blame t cert
                    | None -> ());
                    log_entry_unlocked t
                      {
                        id;
                        trace_id;
                        summary =
                          request_summary request verdict result.Engine.elapsed;
                        verdict;
                        elapsed = result.Engine.elapsed;
                        phases;
                        slow_search;
                        certificate = result.Engine.report;
                      }
                  end);
              (* Stamp the revision the snapshot was taken at, not the
                 model's current one: a commit or monitor update that
                 landed during the search must make this answer stale. *)
              Telemetry.Gauge.set t.model_revision (float_of_int revision);
              finish
                (Ok { id; trace_id; request; result; model_revision = revision; trace = tbuf })))

let submit_with_relaxation t request ~steps ~factor =
  let rec go request round =
    match submit t request with
    | Error m -> Error m
    | Ok answer ->
        if answer.result.Engine.mappings <> [] || round >= steps then
          Ok (answer, round)
        else begin
          with_state t (fun () -> Telemetry.Counter.incr t.relaxation_rounds);
          go (Request.relax request factor) (round + 1)
        end
  in
  go request 0

let stale_answer_error = "model changed since the answer was computed; re-submit the query"

(* The stale-answer revision check and the commit/release must be one
   critical section: otherwise a monitor tick between check and commit
   books capacity against a model the answer never saw.  The allocation
   counters ride along under [model_lock] so the hammer test can assert
   accepted + rejected = attempts exactly. *)
let allocate t answer mapping =
  timed t Telemetry.Phase.Ledger_commit @@ fun () ->
  with_model t @@ fun () ->
  if Model.revision t.model <> answer.model_revision then begin
    Telemetry.Counter.incr t.allocations_rejected;
    Error stale_answer_error
  end
  else begin
    let hosts = List.map snd (Mapping.to_list mapping) in
    match Model.reserve t.model hosts with
    | () ->
        Telemetry.Counter.incr t.allocations_accepted;
        refresh_utilization t;
        Ok ()
    | exception Model.Conflict v ->
        Telemetry.Counter.incr t.allocations_rejected;
        Error (Printf.sprintf "host node %d already reserved" v)
  end

let allocate_shared t answer mapping =
  timed t Telemetry.Phase.Ledger_commit @@ fun () ->
  with_model t @@ fun () ->
  if Model.revision t.model <> answer.model_revision then begin
    Telemetry.Counter.incr t.allocations_rejected;
    Error stale_answer_error
  end
  else
    match Model.charge_mapping t.model ~query:answer.request.Request.query mapping with
    | Ok id ->
        Telemetry.Counter.incr t.allocations_accepted;
        refresh_utilization t;
        Ok id
    | Error m ->
        Telemetry.Counter.incr t.allocations_rejected;
        Error m

let free t id =
  timed t Telemetry.Phase.Ledger_commit @@ fun () ->
  with_model t @@ fun () ->
  let ok = Model.release_charge t.model id in
  if ok then refresh_utilization t;
  ok

let allocation_charge t id =
  with_model t (fun () -> Ledger.allocation_charge (Model.ledger t.model) id)

let allocation_ids t =
  with_model t (fun () -> Ledger.allocation_ids (Model.ledger t.model))

(* Migration takes no answer: it re-homes a *live* allocation, so the
   ledger itself is the authority on staleness (an unknown or released
   id fails), and the whole release+commit+rollback is one critical
   section with the counters, so migrations + failures = attempts holds
   exactly under concurrent callers. *)
let migrate t id ~query mapping =
  timed t Telemetry.Phase.Ledger_commit @@ fun () ->
  with_model t @@ fun () ->
  match Model.migrate_charge t.model id ~query mapping with
  | Ok id' ->
      Telemetry.Counter.incr t.migrations;
      refresh_utilization t;
      Ok id'
  | Error m ->
      Telemetry.Counter.incr t.migration_failures;
      Error m

let release_mapping t mapping =
  with_model t (fun () ->
      Model.release t.model (List.map snd (Mapping.to_list mapping));
      refresh_utilization t)

module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Mapping = Netembed_core.Mapping
module Eval = Netembed_expr.Eval
module Telemetry = Netembed_telemetry.Telemetry
module Phase = Telemetry.Phase
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

(* Entries in the cross-request filter cache (least recently used
   evicted first). *)
let filter_cache_capacity = 32

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
     The newest entry each domain logged sits in a per-domain slot
     ([last]), so a worker reads back its own request's entry.
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
  last : entry option Domain.DLS.key;
}

let kind_label = function `Node -> "node" | `Edge -> "edge"

let create ?(registry = Telemetry.default_registry) ?(slow_threshold = 0.5)
    ?health_fast_window model =
  let ledger = Model.ledger model in
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
          ~help:"Requests rejected (malformed or ill-typed constraints, admission control or impossible query)"
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
          ~help:"Allocations committed as ledger charges"
          "netembed_allocations_total";
      allocations_rejected =
        Telemetry.Registry.counter registry
          ~help:"Allocations rejected (stale answer or over-committed resource)"
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
      next_id = Atomic.make 1;
      health = Health.create ?fast_window:health_fast_window ~registry ();
      log = Array.make log_capacity None;
      logged = 0;
      last = Domain.DLS.new_key (fun () -> None);
    }
  in
  Telemetry.Gauge.set t.model_revision (float_of_int (Model.revision model));
  t

let model t = t.model
let registry t = t.registry
let filter_cache t = t.filter_cache
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
  t.logged <- t.logged + 1;
  Domain.DLS.set t.last (Some entry)

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

let last_entry t = Domain.DLS.get t.last

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
  (* A shed is a request that ended in an error after 0 s: counted and
     timed like one, so requests = answers + errors and the latency
     histogram's count equals requests_total under shedding too. *)
  with_state t (fun () ->
      Telemetry.Counter.incr t.queue_rejected;
      Telemetry.Counter.incr t.requests;
      Telemetry.Counter.incr t.request_errors;
      Telemetry.Histogram.observe t.latency_us 0;
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

(* Cross-request filter cache: ECF/RWB requests key their filter matrix
   on (model revision, query signature) and skip the build — the
   dominant sequential phase — on a repeat.  A hit also hands back the
   specialized-residual table, so a warm submit skips specialization
   too.  LNS filters lazily and bypasses the cache.  The signature reads
   only the request; invalidation, probe and counter bump are one
   critical section, so hits + misses = lookups holds exactly under
   concurrent submits. *)
let cache_probe t (request : Request.t) ~revision =
  match request.Request.algorithm with
  | Engine.LNS -> (None, None)
  | Engine.ECF | Engine.RWB ->
      let key =
        Filter_cache.signature ~query:request.Request.query
          ~constraint_text:request.Request.constraint_text
          ~node_constraint_text:request.Request.node_constraint_text
      in
      with_cache t (fun () ->
          Filter_cache.invalidate t.filter_cache ~current_revision:revision;
          let hit = Filter_cache.find t.filter_cache ~revision ~signature:key in
          Telemetry.Counter.incr (if Option.is_some hit then t.cache_hits else t.cache_misses);
          (Some key, hit))

(* The [netembed_unsat_total] cause a retained entry counts under. *)
let unsat_cause (e : entry) =
  match e.verdict with
  | "admission" -> Some "admission"
  | "exhausted" -> Some "budget"
  | "unsat" -> (
      match Option.bind e.certificate Explain.Certificate.primary_cause with
      | Some c -> Some (Explain.Cause.label c)
      | None -> Some "search")
  | _ -> None

(* A stage that fails ends the request: the error returned to the
   caller and, for an admission reject, the certificate whose verdict
   its diagnostics entry takes. *)
exception Refused of Explain.Certificate.t option * string

let refuse ?certificate message = raise_notrace (Refused (certificate, message))

let submit ?(trace = false) ?(queue_wait = 0.0) t (request : Request.t) =
  let t0 = Unix.gettimeofday () in
  let id = Atomic.fetch_and_add t.next_id 1 in
  (* Every request gets a trace id (one atomic increment) so exemplars
     and answers correlate even when span recording is off; the buffer
     itself exists only for traced requests. *)
  let trace_id = Telemetry.Trace.fresh_id () in
  let tbuf = if trace then Some (Telemetry.Trace.create ~tid:0 ()) else None in
  (* The request's phase cells: each stage below times itself into
     them and the engine adds compile / filter_build / search, so they
     come back as the result's [telemetry.phases].  The front-end's
     admission-queue wait was over before this call began. *)
  let phases = Phase.make_timings () in
  phases.(Phase.index Phase.Queue_wait) <- queue_wait;
  let stage phase f = Telemetry.time_phase phases ?trace:tbuf phase f in
  (* [Problem.make] rejects a query larger than the host; an ill-typed
     constraint raises out of the evaluator during the search.  Both
     end the request as errors. *)
  let attempt f =
    try f () with
    | Invalid_argument m -> refuse m
    | Eval.Eval_error m -> refuse ("constraint: " ^ m)
  in
  (* The single exit: every outcome is counted, timed, fed to the
     health machine and — when it failed, fell short or was slow —
     logged, exactly once. *)
  let finish outcome =
    let elapsed = Unix.gettimeofday () -. t0 in
    let entry, outcome =
      match outcome with
      | Error (certificate, message) ->
          let verdict =
            match certificate with
            | Some c -> c.Explain.Certificate.verdict
            | None -> "error"
          in
          let summary =
            Printf.sprintf "%s — %s" (request_summary request verdict elapsed) message
          in
          let entry =
            { id; trace_id; summary; verdict; elapsed; phases; slow_search = false; certificate }
          in
          (Some entry, Error message)
      | Ok (result, revision) ->
          let verdict = Engine.verdict result and run = result.Engine.elapsed in
          (* A cache-warm request can be fast on the wall clock yet
             spend nearly everything in the search; flag it when the
             search takes 0.9 of it, with a floor at a tenth of
             [slow_threshold] so microsecond-scale requests don't flood
             the ring. *)
          let slow_search =
            run >= 0.1 *. t.slow_threshold
            && phases.(Phase.index Phase.Search) >= 0.9 *. run
          in
          let entry =
            if verdict = "complete" && run < t.slow_threshold && not slow_search then None
            else
              Some
                {
                  id;
                  trace_id;
                  summary = request_summary request verdict run;
                  verdict;
                  elapsed = run;
                  phases;
                  slow_search;
                  certificate = result.Engine.report;
                }
          in
          Log.debug (fun m ->
              m "query %d nodes via %s: %d mapping(s), %s"
                (Netembed_graph.Graph.node_count request.Request.query)
                (Engine.algorithm_name request.Request.algorithm)
                (List.length result.Engine.mappings)
                (Engine.outcome_name result.Engine.outcome));
          (* Stamp the revision the snapshot was taken at, not the
             model's current one: a commit or monitor update that
             landed during the search must make this answer stale. *)
          Telemetry.Gauge.set t.model_revision (float_of_int revision);
          (entry, Ok { id; trace_id; request; result; model_revision = revision; trace = tbuf })
    in
    (* The enclosing request span (tid 0), recorded last so every other
       span nests under it. *)
    Option.iter
      (fun b ->
        Telemetry.Trace.add b ~name:"request" ~start_us:(t0 *. 1e6) ~dur_us:(elapsed *. 1e6))
      tbuf;
    let error = Result.is_error outcome in
    let dt_us = int_of_float (elapsed *. 1e6) in
    with_state t (fun () ->
        Telemetry.Counter.incr t.requests;
        if error then Telemetry.Counter.incr t.request_errors;
        Telemetry.Histogram.observe t.latency_us dt_us;
        Telemetry.Windowed.observe t.request_seconds.(Phase.count) dt_us;
        record_phases_unlocked t phases;
        Option.iter
          (fun (e : entry) ->
            if e.verdict = "admission" then Telemetry.Counter.incr t.admission_rejected;
            Option.iter (count_unsat t) (unsat_cause e);
            Option.iter (count_blame t) e.certificate;
            log_entry_unlocked t e)
          entry);
    Health.observe_request t.health ~latency_s:elapsed ~error;
    outcome
  in
  (* The stages run in order; the first to fail skips the rest. *)
  finish
    (match
       let edge_constraint, node_constraint =
         stage Phase.Parse (fun () ->
             match Request.parse_constraints request with Ok c -> c | Error m -> refuse m)
       in
       (* Admission control: a query whose aggregate demand exceeds the
          total residual capacity cannot commit under any mapping —
          reject it before paying for a search. *)
       stage Phase.Admission (fun () ->
           with_model t (fun () ->
               match Ledger.admissible (Model.ledger t.model) ~query:request.Request.query with
               | Ok () -> ()
               | Error f ->
                   refuse ~certificate:(admission_certificate t f)
                     ("admission: " ^ Ledger.failure_to_string f)));
       (* Embed against residual capacities: co-located tenants have
          already eaten into what constraints like
          rSource.cpuMhz >= vSource.cpuMhz can see.  Snapshot and
          revision are read under one critical section so a concurrent
          allocation cannot slip between them; so are the host
          attribute columns the filter build reads. *)
       let host, columns, revision =
         stage Phase.Snapshot (fun () ->
             with_model t (fun () ->
                 let host = Model.residual_snapshot t.model in
                 (host, Model.columns t.model host, Model.revision t.model)))
       in
       let key, hit = stage Phase.Cache_lookup (fun () -> cache_probe t request ~revision) in
       let problem =
         attempt (fun () ->
             Problem.make ?node_constraint ?compiled:(Option.map snd hit) ~columns ~host
               ~query:request.Request.query edge_constraint)
       in
       (* Every service request runs with blame + flight recorder on:
          certificates must exist for EXPLAIN without a re-run. *)
       let options =
         {
           Engine.default_options with
           Engine.mode = request.Request.mode;
           timeout = request.Request.timeout;
           explain = true;
         }
       in
       let result =
         attempt (fun () ->
             Engine.run ~options ?filter:(Option.map fst hit) ?trace:tbuf ~phases
               request.Request.algorithm problem)
       in
       (* Storing the built filter is cache work, like the probe. *)
       stage Phase.Cache_lookup (fun () ->
           match (key, result.Engine.filter) with
           | Some key, Some f ->
               with_cache t (fun () ->
                   Filter_cache.add t.filter_cache ~revision ~signature:key
                     ~compiled:(Problem.compiled_residuals problem) f)
           | _ -> ());
       (result, revision)
     with
     | answer -> Ok answer
     | exception Refused (certificate, message) -> Error (certificate, message))

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

(* The stale-answer revision check and the commit must be one critical
   section: otherwise a monitor tick between check and commit books
   capacity against a model the answer never saw.  The allocation
   counters ride along under [model_lock] so the hammer test can assert
   accepted + rejected = attempts exactly. *)
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

(** Concurrent domain-pool front-end for the NETEMBED service.

    The paper's Fig.-1 deployment is a {e service} many distributed
    applications query at once; this module is the front door that
    lets the concurrency-ready service underneath (filter cache,
    ledger) actually see concurrent traffic, one request per worker:

    {v
      clients ──TCP──▶ acceptor domain ──▶ reader thread per connection
                                               │  (frames, bounded)
                                               ▼
                                    bounded admission queue  ──full──▶ reject
                                               │                      (backpressure
                                               ▼                       certificate)
                                  N worker domains ──▶ handle frame
                                               │
                                               ▼
                              per-connection ordered reply writer
    v}

    - {b Bounded admission} ({!Bounded_queue}): an MPMC mutex/condvar
      ring.  When it is full the reader rejects the frame immediately
      with the caller-supplied [reject] reply (the server wires this to
      {!Netembed_service.Service.reject_backpressure}, so the client
      gets an [ERR id=...] it can [EXPLAIN] and the reject counter
      moves) instead of queueing unboundedly.
    - {b Pipelining}: the reader keeps pulling frames while earlier
      answers are still being computed; replies are written strictly in
      request order per connection, so the wire contract (answers in
      request order) survives out-of-order completion across workers.
    - {b Lifecycle}: per-connection idle timeout, bounded frame size
      (oversized frames get a clean wire error and the stream
      resynchronizes), and graceful drain on {!stop} — stop accepting,
      finish in-flight requests, then join every domain.

    The module is transport logic only: what a frame {e means} is the
    [handle] closure's business, which must be safe to call from
    several domains at once ({!Netembed_service.Service} is). *)

(** Bounded multi-producer/multi-consumer queue (mutex + condvar ring).
    [try_push] never blocks — a full queue is the backpressure signal —
    while [pop] blocks until an element, or [None] once the queue is
    closed {e and} drained. *)
module Bounded_queue : sig
  type 'a t

  val create : capacity:int -> 'a t
  (** @raise Invalid_argument when [capacity < 1]. *)

  val try_push : 'a t -> 'a -> bool
  (** Enqueue without blocking; [false] when the queue is full or
      closed. *)

  val pop : 'a t -> 'a option
  (** Dequeue, blocking while the queue is open and empty.  [None] once
      the queue is closed and every element has been drained. *)

  val close : 'a t -> unit
  (** Reject further pushes and wake every blocked consumer; elements
      already queued are still delivered. *)

  val length : 'a t -> int
  val capacity : 'a t -> int
end

val plan : ?workers:int -> unit -> int
(** The front-end worker count, sized from what the machine actually
    has.  Default [max 1 (recommended_domain_count - 1)] (one core left
    for the acceptor/readers); an explicit value is clamped to at least
    1.  Each request runs sequentially on one worker, so this is the
    server's whole parallelism. *)

type config = {
  workers : int;  (** worker domains draining the admission queue *)
  queue_capacity : int;  (** admission-queue bound *)
  idle_timeout : float;
      (** close a connection after this many seconds without a frame
          (0 = never) *)
  max_frame_bytes : int;  (** per-frame body bound *)
  drain_timeout : float;
      (** on {!stop}, seconds to wait for open connections to finish
          before force-closing them *)
}

type t

val start :
  ?config:config ->
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  handle:(queue_wait:float -> string -> string) ->
  reject:(queue_depth:int -> queue_capacity:int -> string) ->
  port:int ->
  unit ->
  t
(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port — read it
    back with {!port}), spawn the acceptor domain and [config.workers]
    worker domains, and serve until {!stop}.  [config] defaults to
    [workers] from {!plan}, queue capacity 64, idle timeout 30 s, frame
    bound {!Netembed_service.Wire.default_max_frame_bytes} and drain
    timeout 5 s.

    [handle ~queue_wait frame] computes the reply for one request
    frame; it runs on worker domains concurrently.  [queue_wait] is the
    seconds the frame sat in the admission queue (stamped at enqueue,
    measured at pop) — the server records it as the [queue_wait]
    request phase.  [reject ~queue_depth ~queue_capacity] builds the
    immediate reply for a frame bounced off a saturated admission
    queue; it runs on reader threads and must be cheap.

    Registers [netembed_admission_queue_depth],
    [netembed_frontend_connections] and per-worker
    [netembed_worker_busy_fraction{worker=...}] gauges in [registry]
    (default {!Netembed_telemetry.Telemetry.default_registry}). *)

val port : t -> int
(** The actually-bound TCP port. *)

val queue_depth : t -> int
(** Requests currently waiting in the admission queue. *)

val queue_capacity : t -> int
(** The admission queue's bound ([config.queue_capacity]). *)

val stop : t -> unit
(** Graceful drain: stop accepting, let readers finish their current
    frames and workers drain the queue, write every pending reply,
    force-close connections still open after [config.drain_timeout],
    and join every domain.  Idempotent. *)

(** Minimal HTTP listener for the telemetry exposition ([GET /metrics],
    [/metrics.json], [/healthz], [/readyz]).  One thread per connection
    with socket read/write timeouts, so a scraper that connects and
    then stalls cannot wedge health checks behind it. *)
module Http : sig
  val start :
    ?timeout:float ->
    ?healthz:(unit -> bool * string) ->
    ?readyz:(unit -> bool * string) ->
    registry:Netembed_telemetry.Telemetry.Registry.t ->
    port:int ->
    unit ->
    int
  (** Bind [127.0.0.1:port] (0 = ephemeral), serve from a dedicated
      domain, return the bound port.  [timeout] (default 5 s) bounds
      both reading the request and writing the response per connection.

      [healthz] and [readyz] produce [(ok, body)] for the two probe
      endpoints — 200 with [body] when [ok], 503 otherwise.  [healthz]
      is liveness (the server flips it only while draining, so
      orchestrators stop routing during the shutdown window); [readyz]
      is readiness (wired to the {!Netembed_service.Health} state
      machine — 503 whenever the service is not [Healthy]).  Both
      default to always-ok. *)
end

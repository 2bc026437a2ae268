(** SLO burn-rate health state machine for the mapping service.

    Every finished request feeds a fast and a slow pair of sliding
    windows (p99 latency and error rate, over
    {!Netembed_telemetry.Telemetry.Windowed}); a periodic {!evaluate}
    tick folds those windows plus the admission-queue depth into one
    of four states, exported as the [netembed_health_state] gauge
    (0=healthy 1=degraded 2=saturated 3=draining), the wire [HEALTH]
    verb and the HTTP [/readyz] probe.

    The SLOs are a 250 ms p99 latency and a 1% error rate; the slow
    window spans 60 s, and every window is a ring of 5 slices.

    Flap damping: a candidate state must win 2 consecutive evaluations
    before it is published, and queue saturation uses a high/low
    watermark band (enter at 0.9 of capacity, leave below 0.5).  {!set_draining} bypasses both — shutdown must be
    visible immediately.

    Thread-safe: observations arrive from worker domains while
    [evaluate] runs on the server's main thread and [report] answers
    [HEALTH] frames from other workers. *)

type state =
  | Healthy  (** SLOs met *)
  | Degraded  (** fast-window p99 or error rate over the SLO *)
  | Saturated
      (** admission queue nearly full, or the fast window burning
          error budget at 10x with slow-window corroboration
          (backpressure rejects count as errors, so sustained shedding
          lands here) *)
  | Draining  (** graceful shutdown began; terminal *)

val state_name : state -> string
(** ["healthy"], ["degraded"], ["saturated"], ["draining"]. *)

val state_code : state -> int
(** The gauge encoding, 0-3 in declaration order. *)

type t

val create :
  ?fast_window:float ->
  ?clock:(unit -> float) ->
  ?registry:Netembed_telemetry.Telemetry.Registry.t ->
  unit ->
  t
(** [fast_window] (default 10 s) is the window that reacts to
    incidents.  Registers the [netembed_health_state] gauge (initially
    0) in [registry] (default the process registry).  [clock] is
    injected into the sliding windows for tests.
    @raise Invalid_argument when [fast_window <= 0]. *)

val observe_request : t -> latency_s:float -> error:bool -> unit
(** Feed one finished request into all four windows.  Backpressure
    rejects are observed with [error:true] and their (near-zero)
    shed latency. *)

val evaluate : t -> queue_depth:int -> queue_capacity:int -> state
(** One tick of the state machine: classify the windows and queue,
    apply hysteresis, publish the gauge, return the (possibly
    unchanged) current state.  Call at a steady cadence — hysteresis
    counts evaluations, not wall-clock. *)

val state : t -> state
(** The current state, read-only (no hysteresis advance) — what
    [/readyz] and the [HEALTH] verb use. *)

val set_draining : t -> unit
(** Enter [Draining] immediately and latch it; subsequent
    [evaluate]s stay there. *)

type report = {
  r_state : state;
  fast_p99_s : float;
  slow_p99_s : float;
  fast_error_rate : float;
  slow_error_rate : float;
  queue_depth : int;  (** as of the last {!evaluate} *)
  queue_capacity : int;
}

val report : t -> report
(** A read-only snapshot of the machine's inputs and state — the
    [HEALTH] verb's payload. *)

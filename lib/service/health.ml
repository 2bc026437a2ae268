(* SLO burn-rate health state machine.

   The service feeds every finished request (latency + error flag)
   into two pairs of sliding windows — a fast pair that reacts within
   seconds and a slow pair that filters transients — and a periodic
   [evaluate] tick folds those windows plus the admission-queue depth
   into one of four states:

     Healthy    SLOs met
     Degraded   fast-window p99 or error rate over the SLO
     Saturated  queue nearly full, or the fast window burning error
                budget at [fast_burn]x with slow-window corroboration
     Draining   graceful shutdown began (terminal; set explicitly)

   Transitions are damped two ways: a candidate state must win
   [hysteresis] (2) consecutive evaluations before it is published (so one
   bad window slice cannot flap readiness), and queue saturation has a
   high/low watermark band (enter at [queue_high], leave only below
   [queue_low]).  [Draining] bypasses both — once shutdown starts the
   answer must change now.

   All entry points take the internal mutex: observations arrive from
   worker domains while [evaluate] runs on the server's main thread
   and [report] answers HEALTH frames from yet other workers. *)

module Telemetry = Netembed_telemetry.Telemetry
module Windowed = Telemetry.Windowed
module Histogram = Telemetry.Histogram

type state = Healthy | Degraded | Saturated | Draining

let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Saturated -> "saturated"
  | Draining -> "draining"

let state_code = function
  | Healthy -> 0
  | Degraded -> 1
  | Saturated -> 2
  | Draining -> 3

let latency_slo_s = 0.25
let error_rate_slo = 0.01
let fast_burn = 10.0
let queue_high = 0.9
let queue_low = 0.5
let hysteresis = 2
let slow_window = 60.0
let slices = 5

type t = {
  lock : Mutex.t;
  (* Latency windows observe microseconds, rendered as seconds; error
     windows observe 0/1 per request, so rate = sum / count. *)
  fast_lat : Windowed.t;
  slow_lat : Windowed.t;
  fast_err : Windowed.t;
  slow_err : Windowed.t;
  gauge : Telemetry.Gauge.t;
  mutable current : state;
  mutable candidate : state;
  mutable streak : int;
  mutable draining : bool;
  mutable last_queue_depth : int;
  mutable last_queue_capacity : int;
}

type report = {
  r_state : state;
  fast_p99_s : float;
  slow_p99_s : float;
  fast_error_rate : float;
  slow_error_rate : float;
  queue_depth : int;
  queue_capacity : int;
}

let create ?(fast_window = 10.0) ?clock ?(registry = Telemetry.default_registry) () =
  if fast_window <= 0.0 then invalid_arg "Health.create: fast_window must be positive";
  let w window scale = Windowed.create ?clock ~scale ~window ~slices () in
  let gauge =
    Telemetry.Registry.gauge registry
      ~help:"Service health state: 0=healthy 1=degraded 2=saturated 3=draining"
      "netembed_health_state"
  in
  Telemetry.Gauge.set gauge 0.0;
  {
    lock = Mutex.create ();
    fast_lat = w fast_window 1e-6;
    slow_lat = w slow_window 1e-6;
    fast_err = w fast_window 1.0;
    slow_err = w slow_window 1.0;
    gauge;
    current = Healthy;
    candidate = Healthy;
    streak = 0;
    draining = false;
    last_queue_depth = 0;
    last_queue_capacity = 0;
  }

let observe_request t ~latency_s ~error =
  Mutex.lock t.lock;
  let us = int_of_float (Float.max 0.0 latency_s *. 1e6) in
  Windowed.observe t.fast_lat us;
  Windowed.observe t.slow_lat us;
  let e = if error then 1 else 0 in
  Windowed.observe t.fast_err e;
  Windowed.observe t.slow_err e;
  Mutex.unlock t.lock

(* Error fraction over the window: observations are 0/1, so the merged
   histogram's sum counts errors and its count counts requests. *)
let rate w =
  let h = Windowed.merged w in
  let c = Histogram.count h in
  if c = 0 then 0.0 else float_of_int (Histogram.sum h) /. float_of_int c

(* Caller holds [t.lock]. *)
let classify t ~queue_frac =
  let fast_p99 = Windowed.quantile t.fast_lat 0.99 in
  let fast_err = rate t.fast_err in
  let slow_err = rate t.slow_err in
  let queue_sat =
    queue_frac
    >= if t.current = Saturated then queue_low else queue_high
  in
  let err_burn = fast_err /. error_rate_slo in
  let slow_corroborates = slow_err >= error_rate_slo in
  if queue_sat || (err_burn >= fast_burn && slow_corroborates) then Saturated
  else if fast_p99 >= latency_slo_s || fast_err >= error_rate_slo then Degraded
  else Healthy

let evaluate t ~queue_depth ~queue_capacity =
  Mutex.lock t.lock;
  t.last_queue_depth <- queue_depth;
  t.last_queue_capacity <- queue_capacity;
  (if t.draining then begin
     t.current <- Draining;
     t.candidate <- Draining
   end
   else begin
     let queue_frac =
       if queue_capacity <= 0 then 0.0
       else float_of_int queue_depth /. float_of_int queue_capacity
     in
     let c = classify t ~queue_frac in
     if c = t.candidate then t.streak <- t.streak + 1
     else begin
       t.candidate <- c;
       t.streak <- 1
     end;
     if t.streak >= hysteresis && t.current <> t.candidate then
       t.current <- t.candidate
   end);
  Telemetry.Gauge.set t.gauge (float_of_int (state_code t.current));
  let s = t.current in
  Mutex.unlock t.lock;
  s

let set_draining t =
  Mutex.lock t.lock;
  t.draining <- true;
  t.current <- Draining;
  t.candidate <- Draining;
  Telemetry.Gauge.set t.gauge (float_of_int (state_code Draining));
  Mutex.unlock t.lock

let state t =
  Mutex.lock t.lock;
  let s = t.current in
  Mutex.unlock t.lock;
  s

let report t =
  Mutex.lock t.lock;
  let r =
    {
      r_state = t.current;
      fast_p99_s = Windowed.quantile t.fast_lat 0.99;
      slow_p99_s = Windowed.quantile t.slow_lat 0.99;
      fast_error_rate = rate t.fast_err;
      slow_error_rate = rate t.slow_err;
      queue_depth = t.last_queue_depth;
      queue_capacity = t.last_queue_capacity;
    }
  in
  Mutex.unlock t.lock;
  r

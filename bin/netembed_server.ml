(* A standalone NETEMBED mapping service speaking the text wire
   protocol — the paper's Fig.-1 deployment shape ("applications would
   submit their queries and get a list of possible mappings") — over
   stdin/stdout, or over TCP through the concurrent front-end.

   Usage:
     netembed_server --host host.graphml
                     [--tcp-port PORT] [--workers N] [--queue-capacity N]
                     [--idle-timeout SEC] [--max-frame-bytes N]
                     [--monitor-every N] [--metrics-port PORT]
                     [--flight-dump FILE] [--chrome-trace FILE]
                     [--runtime-sample SEC] [--health-fast-window SEC]

   Protocol: frames as defined in Netembed_service.Wire — EMBED
   (search), ALLOC (search and commit the first mapping as a fractional
   ledger allocation), FREE <id>, UTIL, EXPLAIN <request-id> (fetch
   the failure certificate of an earlier request) and TOP (the
   phase-latency triage report); one answer per request, answers in
   request order per connection; EOF terminates a session.  Frames are
   bounded (--max-frame-bytes, default 1 MiB): an oversized frame gets
   a clean ERR and the stream resynchronizes at its terminator.

   Without --tcp-port the server is the historical stdio filter (wrap
   it in inetd/socat/ssh as needed).  With --tcp-port PORT it serves
   TCP on 127.0.0.1:PORT (0 = pick an ephemeral port) through
   Netembed_frontend: an acceptor domain feeds a bounded admission
   queue drained by --workers worker domains (0 = size from the
   machine), each running whole requests sequentially; when the queue
   is saturated new frames are rejected immediately with a
   backpressure certificate the client can EXPLAIN.
   The bound port is announced on stdout as "LISTEN port=N".  SIGTERM
   and SIGINT drain gracefully: stop accepting, finish in-flight
   requests, then exit.

   With --monitor-every N, a synthetic monitoring tick refreshes the
   model between every N requests, so long-running sessions see
   drifting measurements.  With --flight-dump FILE, the certificate
   (including the flight-recorder tail) of every diagnosable request is
   written to FILE as it happens — the post-mortem artifact a CI run
   uploads.  With --chrome-trace FILE, every request runs with span
   tracing on and FILE is rewritten with the latest request's Chrome
   trace-event JSON (open in chrome://tracing or Perfetto).

   With --metrics-port PORT, an HTTP listener on 127.0.0.1:PORT serves
   the telemetry registry: GET /metrics (Prometheus text exposition),
   GET /metrics.json, GET /healthz (liveness — non-200 only once the
   drain began) and GET /readyz (readiness — non-200 whenever the SLO
   health machine is not Healthy).  It runs in its own OCaml domain
   with one thread per scrape and socket timeouts, so a stalled scraper
   cannot wedge health checks.

   The runtime health plane: --runtime-sample SEC (default 1, 0 = off)
   runs the GC sampler domain exporting netembed_gc_* gauges;
   --health-fast-window SEC (default 10) sets the fast SLO burn-rate
   window.  In TCP mode the main thread evaluates the health machine
   every 250 ms against the live admission-queue depth; the state is
   served as the netembed_health_state gauge, the HEALTH wire verb and
   /readyz. *)

module Model = Netembed_service.Model
module Service = Netembed_service.Service
module Wire = Netembed_service.Wire
module Monitor = Netembed_service.Monitor
module Health = Netembed_service.Health
module Frontend = Netembed_frontend.Frontend
module Rng = Netembed_rng.Rng
module Telemetry = Netembed_telemetry.Telemetry
module Runtime = Netembed_telemetry.Runtime

let () =
  let host_file = ref "" in
  let monitor_every = ref 0 in
  let metrics_port = ref 0 in
  let flight_dump = ref "" in
  let chrome_trace = ref "" in
  let tcp_port = ref (-1) in
  let workers = ref 0 in
  let queue_capacity = ref 64 in
  let idle_timeout = ref 30.0 in
  let max_frame_bytes = ref Wire.default_max_frame_bytes in
  let runtime_sample = ref 1.0 in
  let health_fast_window = ref 10.0 in
  let speclist =
    [
      ("--host", Arg.Set_string host_file, "FILE hosting network (GraphML), required");
      ("--tcp-port", Arg.Set_int tcp_port,
       "PORT serve TCP on 127.0.0.1:PORT through the concurrent front-end (0 = \
        ephemeral; announced as LISTEN port=N; default: stdio mode)");
      ("--workers", Arg.Set_int workers,
       "N front-end worker domains (0 = size from the machine)");
      ("--queue-capacity", Arg.Set_int queue_capacity,
       "N bounded admission queue capacity (default 64)");
      ("--idle-timeout", Arg.Set_float idle_timeout,
       "SEC close idle TCP connections after SEC seconds (0 = never, default 30)");
      ("--max-frame-bytes", Arg.Set_int max_frame_bytes,
       "N reject request frames larger than N bytes (default 1 MiB)");
      ("--monitor-every", Arg.Set_int monitor_every,
       "N run a synthetic monitoring tick every N requests (0 = off)");
      ("--metrics-port", Arg.Set_int metrics_port,
       "PORT serve GET /metrics on 127.0.0.1:PORT (0 = off)");
      ("--flight-dump", Arg.Set_string flight_dump,
       "FILE write the latest failure certificate (JSON) here");
      ("--chrome-trace", Arg.Set_string chrome_trace,
       "FILE trace every request; write the latest request's Chrome trace JSON here");
      ("--runtime-sample", Arg.Set_float runtime_sample,
       "SEC poll Gc.quick_stat every SEC seconds and export netembed_gc_* gauges \
        (0 = off, default 1)");
      ("--health-fast-window", Arg.Set_float health_fast_window,
       "SEC fast SLO burn-rate window for the health state machine (default 10)");
    ]
  in
  Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "netembed_server --host FILE [--tcp-port PORT] [--workers N] [--queue-capacity N] \
     [--idle-timeout SEC] [--max-frame-bytes N] [--monitor-every N] [--metrics-port \
     PORT] [--flight-dump FILE] [--chrome-trace FILE] [--runtime-sample SEC] \
     [--health-fast-window SEC]";
  if !host_file = "" then begin
    prerr_endline "netembed_server: --host is required";
    exit 2
  end;
  let model = Model.of_graphml_file !host_file in
  let service = Service.create ~health_fast_window:!health_fast_window model in
  (* Runtime health plane: the GC sampler domain, stopped on every
     exit path. *)
  if !runtime_sample > 0.0 then
    Runtime.start ~registry:(Service.registry service)
      ~interval:!runtime_sample ();
  (* /healthz is pure liveness until the drain begins; /readyz follows
     the SLO health machine. *)
  let draining = Atomic.make false in
  if !metrics_port > 0 then begin
    (* A dying scrape connection must not kill the service. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    ignore
      (Frontend.Http.start ~registry:(Service.registry service)
         ~healthz:(fun () ->
           if Atomic.get draining then (false, "draining") else (true, "ok"))
         ~readyz:(fun () ->
           let s = Health.state (Service.health service) in
           (s = Health.Healthy, Health.state_name s))
         ~port:!metrics_port ())
  end;
  let monitor =
    if !monitor_every > 0 then Some (Monitor.create (Rng.make 1) model) else None
  in
  let requests = Atomic.make 0 in
  (* Worker domains share the dump files and the monitor; serialize
     both behind one lock (dumps are rare: failures and slow paths). *)
  let io_lock = Mutex.create () in
  let with_io f =
    Mutex.lock io_lock;
    Fun.protect f ~finally:(fun () -> Mutex.unlock io_lock)
  in
  (* Persist the certificate of the request that was just diagnosed —
     [entry] is {!Service.last_entry} right after a failed submit, or
     the entry matching the answered id, so old certificates are never
     re-dumped for unrelated requests. *)
  let dump_certificate entry =
    match (!flight_dump, entry) with
    | "", _ | _, None -> ()
    | file, Some e -> (
        match e.Service.certificate with
        | None -> ()
        | Some cert ->
            with_io (fun () ->
                let oc = open_out file in
                output_string oc (Netembed_explain.Explain.Certificate.to_json cert);
                output_char oc '\n';
                close_out oc))
  in
  (* A submit error has always just logged a diagnostic entry; answer
     with its id so the client can EXPLAIN it. *)
  let submit_error e =
    let entry = Service.last_entry service in
    dump_certificate entry;
    Wire.encode_error
      ?id:(Option.map (fun (en : Service.entry) -> en.Service.id) entry)
      e
  in
  let trace = !chrome_trace <> "" in
  let dump_trace (answer : Service.answer) =
    match (!chrome_trace, answer.Service.trace) with
    | "", _ | _, None -> ()
    | file, Some buf ->
        with_io (fun () ->
            let oc = open_out file in
            output_string oc
              (Telemetry.Trace.to_chrome_json ~trace_id:answer.Service.trace_id buf);
            output_char oc '\n';
            close_out oc)
  in
  (* Reply serialization is a request phase too: stamp it onto the
     windowed series (it cannot appear in its own OK header — the
     header is already built by the time the cost is known). *)
  let timed_encode f = Service.timed service Telemetry.Phase.Encode f in
  (* One frame in, one reply out — shared verbatim by the stdio loop
     and every front-end worker domain, so both transports speak the
     same service.  Safe to call concurrently: Service serializes its
     own state, the dump files hide behind io_lock, and the monitor
     tick mutates the model only under the service's model lock. *)
  let handle ~queue_wait frame =
    let n = Atomic.fetch_and_add requests 1 + 1 in
    (* GC counters are per-domain: each worker publishes its own
       reading for the sampler domain to export. *)
    Runtime.publish_minor_words ();
    (match (monitor, !monitor_every) with
    | Some mon, every when every > 0 && n mod every = 0 ->
        with_io (fun () -> Service.exclusively service (fun () -> Monitor.tick mon))
    | _ -> ());
    let cmd = Wire.decode_command frame in
    (* Submits fold the queue wait into their own phase array (so it
       reaches the OK header and exemplars); body-less verbs stamp it
       straight onto the windowed series here. *)
    (match cmd with
    | Ok (Wire.Submit _ | Wire.Allocate _) | Error _ -> ()
    | Ok _ ->
        if queue_wait > 0.0 then
          Service.record_phase service Telemetry.Phase.Queue_wait queue_wait);
    match cmd with
    | Error e -> Wire.encode_error e
    | Ok (Wire.Submit request) -> (
        match Service.submit ~trace ~queue_wait service request with
        | Error e -> submit_error e
        | Ok answer ->
            dump_certificate (Service.explain service answer.Service.id);
            dump_trace answer;
            timed_encode (fun () -> Wire.encode_answer answer))
    | Ok (Wire.Allocate request) -> (
        match Service.submit ~trace ~queue_wait service request with
        | Error e -> submit_error e
        | Ok answer -> (
            dump_certificate (Service.explain service answer.Service.id);
            dump_trace answer;
            match answer.Service.result.Netembed_core.Engine.mappings with
            | [] -> timed_encode (fun () -> Wire.encode_answer answer)
            | mapping :: _ -> (
                match Service.allocate_shared service answer mapping with
                | Ok id ->
                    timed_encode (fun () -> Wire.encode_answer ~allocation:id answer)
                | Error e -> Wire.encode_error ~id:answer.Service.id e)))
    | Ok (Wire.Free id) ->
        if Service.free service id then Wire.encode_freed id
        else Wire.encode_error (Printf.sprintf "unknown allocation %d" id)
    | Ok Wire.Utilization -> Wire.encode_utilization (Service.utilization service)
    | Ok (Wire.Explain id) -> (
        match Service.explain service id with
        | Some entry -> Wire.encode_explanation entry
        | None ->
            Wire.encode_error
              (Printf.sprintf
                 "no diagnostics retained for request %d (unknown, evicted, or \
                  completed quickly)"
                 id))
    | Ok Wire.Top -> Wire.encode_top (Service.top service)
    | Ok Wire.Health -> Wire.encode_health (Health.report (Service.health service))
  in
  (* A saturated admission queue answers with a certificate, not a
     dropped connection: the entry is in the diagnostics ring, so the
     client can EXPLAIN the id it was bounced with. *)
  let reject ~queue_depth ~queue_capacity =
    let entry = Service.reject_backpressure service ~queue_depth ~queue_capacity in
    Wire.encode_error ~id:entry.Service.id
      (Printf.sprintf "server saturated: admission queue full (%d/%d); retry"
         queue_depth queue_capacity)
  in
  if !tcp_port >= 0 then begin
    let config =
      {
        Frontend.workers =
          Frontend.plan ?workers:(if !workers > 0 then Some !workers else None) ();
        queue_capacity = max 1 !queue_capacity;
        idle_timeout = !idle_timeout;
        max_frame_bytes = !max_frame_bytes;
        drain_timeout = 5.0;
      }
    in
    let server = Frontend.start ~config ~handle ~reject ~port:!tcp_port () in
    Printf.printf "LISTEN port=%d\n%!" (Frontend.port server);
    (* Graceful drain on SIGTERM/SIGINT: a handler may only flag; the
       main thread does the actual stop. *)
    let quit = Atomic.make false in
    let request_quit _ = Atomic.set quit true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_quit);
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_quit);
    (* The wait loop doubles as the health check: every 250 ms the
       machine reclassifies against the live admission-queue depth, so
       /readyz and the netembed_health_state gauge track overload with
       bounded staleness. *)
    let next_eval = ref 0.0 in
    while not (Atomic.get quit) do
      Thread.delay 0.05;
      let now = Unix.gettimeofday () in
      if now >= !next_eval then begin
        next_eval := now +. 0.25;
        ignore
          (Health.evaluate (Service.health service)
             ~queue_depth:(Frontend.queue_depth server)
             ~queue_capacity:(Frontend.queue_capacity server))
      end
    done;
    (* Flip both probes before the drain starts so orchestrators stop
       routing while in-flight requests finish. *)
    Atomic.set draining true;
    Health.set_draining (Service.health service);
    Frontend.stop server;
    Runtime.stop ()
  end
  else begin
    let frames = Wire.reader (input stdin) in
    let rec serve () =
      match Wire.read_frame ~max_bytes:!max_frame_bytes frames with
      | None -> ()
      | Some frame ->
          let reply =
            match frame with
            | Error msg -> Wire.encode_error msg
            | Ok frame -> handle ~queue_wait:0.0 frame
          in
          print_string reply;
          flush stdout;
          serve ()
    in
    serve ();
    Runtime.stop ()
  end

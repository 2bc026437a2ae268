(* Concurrent domain-pool front-end: acceptor domain -> reader thread
   per connection -> bounded admission queue -> worker domains ->
   per-connection in-order reply writer.  See frontend.mli for the
   picture; the invariants that keep this deadlock-free are spelled out
   inline where they are enforced. *)

module Telemetry = Netembed_telemetry.Telemetry
module Wire = Netembed_service.Wire

module Bounded_queue = struct
  type 'a t = {
    lock : Mutex.t;
    not_empty : Condition.t;
    slots : 'a option array;
    cap : int;
    mutable head : int;  (* index of the next element to pop *)
    mutable len : int;
    mutable closed : bool;
  }

  let create ~capacity =
    if capacity < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      slots = Array.make capacity None;
      cap = capacity;
      head = 0;
      len = 0;
      closed = false;
    }

  let try_push t x =
    Mutex.lock t.lock;
    let ok = (not t.closed) && t.len < t.cap in
    if ok then begin
      t.slots.((t.head + t.len) mod t.cap) <- Some x;
      t.len <- t.len + 1;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.lock;
    ok

  let pop t =
    Mutex.lock t.lock;
    while t.len = 0 && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    let item =
      if t.len = 0 then None
      else begin
        let x = t.slots.(t.head) in
        t.slots.(t.head) <- None;
        t.head <- (t.head + 1) mod t.cap;
        t.len <- t.len - 1;
        x
      end
    in
    Mutex.unlock t.lock;
    item

  let close t =
    Mutex.lock t.lock;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.lock

  let length t =
    Mutex.lock t.lock;
    let n = t.len in
    Mutex.unlock t.lock;
    n

  let capacity t = t.cap
end

let plan ?workers () =
  match workers with
  | Some w -> max 1 w
  | None -> max 1 (Domain.recommended_domain_count () - 1)

type config = {
  workers : int;
  queue_capacity : int;
  idle_timeout : float;
  max_frame_bytes : int;
  drain_timeout : float;
}

let default_config () =
  {
    workers = plan ();
    queue_capacity = 64;
    idle_timeout = 30.0;
    max_frame_bytes = Wire.default_max_frame_bytes;
    drain_timeout = 5.0;
  }

(* The refill function of a connection's {!Wire.reader}: [Unix.read]
   straight off the descriptor, because an in_channel cannot surface
   SO_RCVTIMEO's EAGAIN cleanly. *)
exception Idle

let rec read_fd fd buf pos len =
  match Unix.read fd buf pos len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Idle
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_fd fd buf pos len

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.write_substring fd s !pos (len - !pos) in
    if n <= 0 then raise Exit;
    pos := !pos + n
  done

(* ------------------------------------------------------------------ *)
(* Connections and jobs                                                *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  out_lock : Mutex.t;
  out_done : Condition.t;
  mutable next_write : int;  (* seq of the next reply allowed out *)
  mutable issued : int;  (* frames read off this connection so far *)
  mutable broken : bool;  (* a write failed; swallow the rest *)
}

type job = {
  conn : conn;
  seq : int;
  frame : string;
  enqueued_at : float;  (* stamped at try_push; queue_wait = pop - this *)
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  (* Self-pipe: closing a listening fd does not wake a blocked accept
     on Linux, so the acceptor multiplexes on [wake_r] and [stop]
     writes a byte to [wake_w]. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  bound_port : int;
  queue : job Bounded_queue.t;
  registry : Telemetry.Registry.t;
  handle : queue_wait:float -> string -> string;
  reject : queue_depth:int -> queue_capacity:int -> string;
  depth_gauge : Telemetry.Gauge.t;
  conn_gauge : Telemetry.Gauge.t;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  conns_lock : Mutex.t;
  mutable open_conns : conn list;
  mutable acceptor : unit Domain.t option;
  mutable worker_pool : unit Domain.t array;
}

(* Per-connection reply ordering: every frame gets a ticket [seq] the
   moment it is read, and whoever produces its reply (worker for
   admitted frames, the reader itself for wire errors and rejects)
   waits until [next_write] reaches its ticket.  The earliest unwritten
   seq is always owned by exactly one live party, so the turnstile
   cannot wedge — and pipelined requests answered out of order by the
   worker pool still leave the socket in request order. *)
let write_in_order conn ~seq reply =
  Mutex.lock conn.out_lock;
  while conn.next_write < seq do
    Condition.wait conn.out_done conn.out_lock
  done;
  (if not conn.broken then
     match write_all conn.fd reply with
     | () -> ()
     | exception _ -> conn.broken <- true);
  conn.next_write <- seq + 1;
  Condition.broadcast conn.out_done;
  Mutex.unlock conn.out_lock

let register_conn t conn =
  Mutex.lock t.conns_lock;
  t.open_conns <- conn :: t.open_conns;
  Telemetry.Gauge.set t.conn_gauge (float_of_int (List.length t.open_conns));
  Mutex.unlock t.conns_lock

let unregister_conn t conn =
  Mutex.lock t.conns_lock;
  t.open_conns <- List.filter (fun c -> c != conn) t.open_conns;
  Telemetry.Gauge.set t.conn_gauge (float_of_int (List.length t.open_conns));
  Mutex.unlock t.conns_lock

let set_depth_gauge t =
  Telemetry.Gauge.set t.depth_gauge
    (float_of_int (Bounded_queue.length t.queue))

let worker t idx () =
  let busy_gauge =
    Telemetry.Registry.gauge t.registry
      ~help:"Fraction of wall-clock time this worker spent handling requests"
      ~labels:[ ("worker", string_of_int idx) ]
      "netembed_worker_busy_fraction"
  in
  let started = Unix.gettimeofday () in
  let busy = ref 0.0 in
  let rec loop () =
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some job ->
        set_depth_gauge t;
        let t0 = Unix.gettimeofday () in
        let queue_wait = Float.max 0.0 (t0 -. job.enqueued_at) in
        let reply =
          try t.handle ~queue_wait job.frame
          with exn -> Wire.encode_error (Printexc.to_string exn)
        in
        write_in_order job.conn ~seq:job.seq reply;
        let now = Unix.gettimeofday () in
        busy := !busy +. (now -. t0);
        let elapsed = now -. started in
        if elapsed > 0.0 then Telemetry.Gauge.set busy_gauge (!busy /. elapsed);
        loop ()
  in
  loop ()

let reader t conn () =
  let r = Wire.reader (read_fd conn.fd) in
  let next_seq () =
    let seq = conn.issued in
    conn.issued <- seq + 1;
    seq
  in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Wire.read_frame ~max_bytes:t.config.max_frame_bytes r with
      | exception Idle -> ()  (* idle timeout: hang up *)
      | exception _ -> conn.broken <- true
      | None -> ()  (* EOF *)
      | Some (Error msg) ->
          let seq = next_seq () in
          write_in_order conn ~seq (Wire.encode_error msg);
          loop ()
      | Some (Ok frame) ->
          let seq = next_seq () in
          let job = { conn; seq; frame; enqueued_at = Unix.gettimeofday () } in
          if Bounded_queue.try_push t.queue job then begin
            set_depth_gauge t;
            loop ()
          end
          else begin
            (* Saturated: shed load right here, with a reply the client
               can EXPLAIN, instead of queueing without bound. *)
            let reply =
              t.reject
                ~queue_depth:(Bounded_queue.length t.queue)
                ~queue_capacity:(Bounded_queue.capacity t.queue)
            in
            write_in_order conn ~seq reply;
            loop ()
          end
  in
  loop ();
  (* Every issued frame has a reply owner (worker or this thread), so
     waiting for next_write to catch up flushes the pipeline before the
     socket closes; next_write advances even past failed writes. *)
  Mutex.lock conn.out_lock;
  while conn.next_write < conn.issued do
    Condition.wait conn.out_done conn.out_lock
  done;
  Mutex.unlock conn.out_lock;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  unregister_conn t conn

let acceptor t () =
  let threads = ref [] in
  let rec loop () =
    match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | readable, _, _ when List.mem t.wake_r readable -> ()  (* stop *)
    | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                | Unix.ECONNABORTED ),
                _,
                _ ) ->
            loop ()
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _ ->
            if Atomic.get t.stopping then (
              (try Unix.close fd with Unix.Unix_error _ -> ());
              loop ())
            else begin
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          if t.config.idle_timeout > 0.0 then begin
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.idle_timeout
             with Unix.Unix_error _ -> ());
            (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.idle_timeout
             with Unix.Unix_error _ -> ())
          end;
          let conn =
            {
              fd;
              out_lock = Mutex.create ();
              out_done = Condition.create ();
              next_write = 0;
              issued = 0;
              broken = false;
            }
          in
              register_conn t conn;
              threads := Thread.create (reader t conn) () :: !threads;
              loop ()
            end)
  in
  loop ();
  (* The acceptor domain owns its reader threads: joining them here
     means [Domain.join acceptor] in [stop] implies every connection is
     fully drained and closed. *)
  List.iter Thread.join !threads

let start ?config ?(registry = Telemetry.default_registry) ~handle ~reject
    ~port () =
  let config = match config with Some c -> c | None -> default_config () in
  (* A peer hanging up mid-reply must be an EPIPE error, not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let depth_gauge =
    Telemetry.Registry.gauge registry
      ~help:"Requests waiting in the front-end admission queue"
      "netembed_admission_queue_depth"
  in
  let conn_gauge =
    Telemetry.Registry.gauge registry
      ~help:"Open front-end client connections" "netembed_frontend_connections"
  in
  let t =
    {
      config;
      listen_fd;
      wake_r;
      wake_w;
      bound_port;
      queue = Bounded_queue.create ~capacity:config.queue_capacity;
      registry;
      handle;
      reject;
      depth_gauge;
      conn_gauge;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      conns_lock = Mutex.create ();
      open_conns = [];
      acceptor = None;
      worker_pool = [||];
    }
  in
  t.worker_pool <-
    Array.init (max 1 config.workers) (fun i -> Domain.spawn (worker t i));
  t.acceptor <- Some (Domain.spawn (acceptor t));
  t

let port t = t.bound_port
let queue_depth t = Bounded_queue.length t.queue
let queue_capacity t = Bounded_queue.capacity t.queue

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    Atomic.set t.stopping true;
    (* No new connections: poke the self-pipe so the acceptor's select
       returns, whatever it was blocked on. *)
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    (* Let live connections finish their in-flight frames... *)
    let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
    let open_count () =
      Mutex.lock t.conns_lock;
      let n = List.length t.open_conns in
      Mutex.unlock t.conns_lock;
      n
    in
    while open_count () > 0 && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    (* ...then shut down stragglers (shutdown, not close: the reader
       still owns the fd and will close it once its replies flushed,
       and a shut-down fd cannot be recycled under a pending write). *)
    Mutex.lock t.conns_lock;
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.open_conns;
    Mutex.unlock t.conns_lock;
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    Bounded_queue.close t.queue;
    Array.iter Domain.join t.worker_pool;
    set_depth_gauge t
  end

(* ------------------------------------------------------------------ *)
(* Metrics HTTP listener                                               *)
(* ------------------------------------------------------------------ *)

module Http = struct
  let http_response status content_type body =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      status content_type (String.length body) body

  (* Health endpoints are callback-driven so the server can wire them
     to its drain flag and SLO health machine; [fun () -> (ok, body)].
     /healthz is pure liveness (non-200 only once draining); /readyz is
     readiness (non-200 whenever the health machine is not Healthy). *)
  let default_probe () = (true, "ok")

  let probe_response (ok, body) =
    http_response
      (if ok then "200 OK" else "503 Service Unavailable")
      "text/plain" (body ^ "\n")

  let route ~healthz ~readyz registry path =
    match path with
    | "/metrics" ->
        http_response "200 OK" "text/plain; version=0.0.4; charset=utf-8"
          (Telemetry.Registry.to_prometheus registry)
    | "/metrics.json" ->
        http_response "200 OK" "application/json"
          (Telemetry.Registry.to_json registry)
    | "/healthz" -> probe_response (healthz ())
    | "/readyz" -> probe_response (readyz ())
    | _ -> http_response "404 Not Found" "text/plain" "not found\n"

  let handle_client ~timeout ~healthz ~readyz registry fd =
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
     with Unix.Unix_error _ -> ());
    (try
       let r = Wire.reader (read_fd fd) in
       let request_line = Option.value ~default:"" (Wire.read_line r) in
       (* Drain request headers (bounded); scrapes have no body. *)
       let rec drain n =
         if n > 0 then
           match Wire.read_line r with
           | None -> ()
           | Some l -> if String.trim l <> "" then drain (n - 1)
       in
       drain 100;
       let path =
         match String.split_on_char ' ' request_line with
         | _meth :: p :: _ -> p
         | _ -> "/"
       in
       write_all fd (route ~healthz ~readyz registry path)
     with _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

  let start ?(timeout = 5.0) ?(healthz = default_probe) ?(readyz = default_probe)
      ~registry ~port () =
    let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen sock 16;
    let bound =
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    ignore
      (Domain.spawn (fun () ->
           let rec loop () =
             match Unix.accept ~cloexec:true sock with
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
             | exception Unix.Unix_error (_, _, _) -> ()
             | fd, _ ->
                 (* One thread per scrape: a scraper that connects and
                    stalls times out on its own thread while /healthz
                    keeps answering. *)
                 ignore
                   (Thread.create
                      (fun () ->
                        handle_client ~timeout ~healthz ~readyz registry fd)
                      ());
                 loop ()
           in
           loop ()));
    bound
end

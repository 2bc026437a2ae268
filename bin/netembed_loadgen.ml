(* Open-loop load generator for the TCP front-end.

   Closed-loop harnesses (send, wait, send) measure the server's pace,
   not its capacity: under overload they politely slow down with it.
   This generator is open-loop — each connection sends on a fixed
   arrival schedule derived from the target rate whether or not earlier
   replies have arrived (the front-end's pipelining makes that legal on
   one connection) — so pushing the rate past capacity surfaces the
   saturation knee: latency quantiles blow up and, once the admission
   queue fills, backpressure rejects appear instead of unbounded
   queueing.

   Usage (spawn mode — the generator runs the server itself):
     netembed_loadgen --server-bin _build/default/bin/netembed_server.exe \
       --host host.graphml --workers-list 1,2 --rates 50,100,200 \
       --duration 3 --connections 4 [--json BENCH_RESULTS.json]

   or against a running server:  --connect HOST:PORT

   Each (workers, rate) trial reports sent/completed/rejected/errors,
   sustained req/s and p50/p95/p99 reply latency; rows are printed as
   JSON and, with --json FILE, written as the file's top-level
   "service_load" section (other sections are kept).  --strict
   exits nonzero on any protocol error — the CI smoke gate. *)

module Json = Netembed_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Seeded query mix                                                    *)
(* ------------------------------------------------------------------ *)

(* splitmix64: tiny, seedable, good enough to shuffle a query mix. *)
let rng_state = ref 0L

let rng_init seed = rng_state := Int64.of_int seed

let rng_next () =
  let open Int64 in
  rng_state := add !rng_state 0x9E3779B97F4A7C15L;
  let z = !rng_state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

let query_graphml =
  "<graphml><graph edgedefault=\"undirected\">\n\
   <node id=\"x\"/><node id=\"y\"/>\n\
   <edge source=\"x\" target=\"y\"/>\n\
   </graph></graphml>\n"

let frame_lns_first =
  "EMBED alg=LNS mode=first timeout=5\nCONSTRAINT rEdge.avgDelay < 500\nGRAPHML\n"
  ^ query_graphml ^ ".\n"

let frame_ecf_all =
  "EMBED alg=ECF mode=all timeout=5\nCONSTRAINT rEdge.avgDelay < 100\nGRAPHML\n"
  ^ query_graphml ^ ".\n"

let frame_unsat =
  "EMBED alg=ECF mode=all\nCONSTRAINT true\nNODECONSTRAINT rSource.cpuMhz >= \
   99999999\nGRAPHML\n" ^ query_graphml ^ ".\n"

let frame_util = "UTIL\n.\n"

let frame_top = "TOP\n.\n"

(* 60% cheap feasible search, 15% exhaustive search, 5% infeasible
   (answers OK verdict=unsat), 20% diagnostics verbs. *)
let pick_frame () =
  let r = rng_next () mod 100 in
  if r < 60 then frame_lns_first
  else if r < 75 then frame_ecf_all
  else if r < 80 then frame_unsat
  else if r < 90 then frame_util
  else frame_top

(* ------------------------------------------------------------------ *)
(* One connection: writer on a fixed schedule, reader matching FIFO    *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let n = Unix.write_substring fd s !pos (len - !pos) in
    if n <= 0 then raise Exit;
    pos := !pos + n
  done

type conn_stats = {
  mutable sent : int;
  mutable completed : int;
  mutable rejected : int;
  mutable errors : int;
  mutable latencies : float list;  (* seconds, completed requests only *)
  mutable last_reply : float;  (* wall clock of the newest reply *)
  phase_sum_ms : (string, float) Hashtbl.t;
      (* per-phase milliseconds summed over phased OK replies *)
  mutable phased : int;  (* OK replies that carried a phases= token *)
}

(* Parse the [phases=<name>:<ms>,...] token off an OK header line.
   Kept local and tolerant — the generator links only the workload
   library, and TOP's header reuses [phases=] for a plain count (no
   colon), which this parser simply yields nothing for. *)
let phases_of_line line =
  let token = " phases=" in
  let n = String.length line and m = String.length token in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = token then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some start ->
      let stop =
        match String.index_from_opt line start ' ' with Some j -> j | None -> n
      in
      String.sub line start (stop - start)
      |> String.split_on_char ','
      |> List.filter_map (fun part ->
             match String.split_on_char ':' part with
             | [ name; ms ] -> (
                 match float_of_string_opt ms with
                 | Some v when name <> "" -> Some (name, v)
                 | _ -> None)
             | _ -> None)

(* Replies come back in request order per connection, so matching the
   reply stream FIFO against the send-timestamp queue is exact. *)
let run_connection ~host ~port ~interval ~offset ~duration stats =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (* A short receive timeout: the reader wakes to re-check whether the
     writer finished (the check/read pair is racy by design), and the
     drain grace below bounds how long unanswered sends are waited
     for. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.25
   with Unix.Unix_error _ -> ());
  let pending = Queue.create () in
  let pending_lock = Mutex.create () in
  let writer_done = ref false in
  let grace_deadline = ref infinity in
  let reader =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let read_reply () =
          (* One reply frame: lines through the "." terminator; the
             first line classifies it. *)
          let first = input_line ic in
          let rec drain () =
            if input_line ic <> "." then drain ()
          in
          if first <> "." then drain ();
          first
        in
        let rec loop () =
          let more =
            Mutex.lock pending_lock;
            let m = (not (Queue.is_empty pending)) || not !writer_done in
            Mutex.unlock pending_lock;
            m
          in
          if more then
            match read_reply () with
            | exception End_of_file ->
                (* Server hung up: unanswered sends are errors. *)
                Mutex.lock pending_lock;
                stats.errors <- stats.errors + Queue.length pending;
                Queue.clear pending;
                Mutex.unlock pending_lock
            | exception _ ->
                (* Receive timeout: keep waiting while the trial is live
                   or inside the drain grace; afterwards whatever is
                   still unanswered counts as errors. *)
                let give_up =
                  Mutex.lock pending_lock;
                  let drained = Queue.is_empty pending in
                  let expired =
                    !writer_done && Unix.gettimeofday () > !grace_deadline
                  in
                  if expired && not drained then begin
                    stats.errors <- stats.errors + Queue.length pending;
                    Queue.clear pending
                  end;
                  Mutex.unlock pending_lock;
                  (drained && !writer_done) || expired
                in
                if not give_up then loop ()
            | first ->
                let t1 = Unix.gettimeofday () in
                Mutex.lock pending_lock;
                let t0 = if Queue.is_empty pending then None else Some (Queue.pop pending) in
                Mutex.unlock pending_lock;
                (match t0 with
                | None -> stats.errors <- stats.errors + 1  (* unsolicited *)
                | Some t0 ->
                    stats.last_reply <- t1;
                    (* Replies are still flowing: extend the drain
                       grace (it bounds silence, not total drain). *)
                    grace_deadline := t1 +. 5.0;
                    if String.length first >= 2 && String.sub first 0 2 = "OK"
                    then begin
                      stats.completed <- stats.completed + 1;
                      stats.latencies <- (t1 -. t0) :: stats.latencies;
                      match phases_of_line first with
                      | [] -> ()
                      | ps ->
                          stats.phased <- stats.phased + 1;
                          List.iter
                            (fun (name, ms) ->
                              let prev =
                                Option.value ~default:0.0
                                  (Hashtbl.find_opt stats.phase_sum_ms name)
                              in
                              Hashtbl.replace stats.phase_sum_ms name (prev +. ms))
                            ps
                    end
                    else if
                      (* The backpressure reject is load shedding, not a
                         protocol failure. *)
                      String.length first >= 3
                      && String.sub first 0 3 = "ERR"
                    then
                      let saturated =
                        let sub = "admission queue full" in
                        let n = String.length first and m = String.length sub in
                        let rec has i =
                          i + m <= n && (String.sub first i m = sub || has (i + 1))
                        in
                        has 0
                      in
                      if saturated then stats.rejected <- stats.rejected + 1
                      else stats.errors <- stats.errors + 1
                    else stats.errors <- stats.errors + 1);
                loop ()
        in
        loop ())
      ()
  in
  (* Open loop: absolute schedule, no reply coupling. *)
  let start = Unix.gettimeofday () +. offset in
  let stop_at = start +. duration in
  let rec send i =
    let due = start +. (float_of_int i *. interval) in
    if due >= stop_at then ()
    else begin
      let now = Unix.gettimeofday () in
      if due > now then Thread.delay (due -. now);
      let frame = pick_frame () in
      Mutex.lock pending_lock;
      Queue.push (Unix.gettimeofday ()) pending;
      Mutex.unlock pending_lock;
      (match write_all fd frame with
      | () -> stats.sent <- stats.sent + 1
      | exception _ ->
          Mutex.lock pending_lock;
          ignore (Queue.pop pending);
          Mutex.unlock pending_lock;
          stats.errors <- stats.errors + 1);
      send (i + 1)
    end
  in
  send 0;
  grace_deadline := Unix.gettimeofday () +. 5.0;
  writer_done := true;
  Thread.join reader;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Trials                                                              *)
(* ------------------------------------------------------------------ *)

type row = {
  workers : int;
  rate : float;
  connections : int;
  duration_s : float;
  sent : int;
  completed : int;
  rejected : int;
  errors : int;
  sustained_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  phase_mean_ms : (string * float) list;
      (* mean per-phase ms over replies that carried phases=, slowest
         first (queue_wait included once the server stamps it) *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let run_trial ~host ~port ~workers ~rate ~connections ~duration =
  let t0 = Unix.gettimeofday () in
  let stats =
    Array.init connections (fun _ ->
        {
          sent = 0;
          completed = 0;
          rejected = 0;
          errors = 0;
          latencies = [];
          last_reply = t0;
          phase_sum_ms = Hashtbl.create 16;
          phased = 0;
        })
  in
  let interval = float_of_int connections /. rate in
  let threads =
    Array.init connections (fun i ->
        (* Stagger connection schedules so the aggregate arrival
           process approximates the target rate instead of bursting. *)
        let offset = float_of_int i *. interval /. float_of_int connections in
        Thread.create
          (fun () -> run_connection ~host ~port ~interval ~offset ~duration stats.(i))
          ())
  in
  Array.iter Thread.join threads;
  (* Completed work over the time replies actually spanned — the idle
     tail the readers spend confirming the stream is dry is not load. *)
  let t_end = Array.fold_left (fun m s -> Float.max m s.last_reply) t0 stats in
  let elapsed = Float.max 1e-6 (t_end -. t0) in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  let latencies =
    Array.of_list (Array.fold_left (fun acc s -> s.latencies @ acc) [] stats)
  in
  Array.sort compare latencies;
  let ms q = percentile latencies q *. 1000.0 in
  let phase_mean_ms =
    let sums = Hashtbl.create 16 in
    let phased = sum (fun s -> s.phased) in
    Array.iter
      (fun s ->
        Hashtbl.iter
          (fun name v ->
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt sums name) in
            Hashtbl.replace sums name (prev +. v))
          s.phase_sum_ms)
      stats;
    if phased = 0 then []
    else
      Hashtbl.fold
        (fun name v acc -> (name, v /. float_of_int phased) :: acc)
        sums []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    workers;
    rate;
    connections;
    duration_s = duration;
    sent = sum (fun s -> s.sent);
    completed = sum (fun s -> s.completed);
    rejected = sum (fun s -> s.rejected);
    errors = sum (fun s -> s.errors);
    sustained_rps = float_of_int (sum (fun s -> s.completed)) /. elapsed;
    p50_ms = ms 0.50;
    p95_ms = ms 0.95;
    p99_ms = ms 0.99;
    phase_mean_ms;
  }

let row_json r =
  let ms x = Json.Float (Json.round 3 x) in
  Json.(Obj [ ("workers", Int r.workers); ("rate", Float r.rate);
              ("connections", Int r.connections); ("duration_s", Float r.duration_s);
              ("sent", Int r.sent); ("completed", Int r.completed);
              ("rejected", Int r.rejected); ("errors", Int r.errors);
              ("sustained_rps", Float (round 1 r.sustained_rps));
              ("p50_ms", ms r.p50_ms); ("p95_ms", ms r.p95_ms); ("p99_ms", ms r.p99_ms);
              ("phase_mean_ms", Obj (List.map (fun (name, v) -> (name, ms v)) r.phase_mean_ms)) ])

(* ------------------------------------------------------------------ *)
(* Spawning the server under test                                      *)
(* ------------------------------------------------------------------ *)

let spawn_server ~bin ~host_file ~workers ~queue_capacity ~runtime_sample =
  let r, w = Unix.pipe ~cloexec:false () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process bin
      [|
        bin; "--host"; host_file; "--tcp-port"; "0"; "--workers";
        string_of_int workers; "--queue-capacity"; string_of_int queue_capacity;
        "--runtime-sample"; Printf.sprintf "%g" runtime_sample;
      |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  (* The server announces its ephemeral port as "LISTEN port=N". *)
  let rec wait_listen () =
    let line = input_line ic in
    match String.split_on_char '=' line with
    | [ "LISTEN port"; p ] -> int_of_string (String.trim p)
    | _ -> wait_listen ()
  in
  let port = wait_listen () in
  (pid, port, ic)

let stop_server (pid, _port, ic) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  try close_in ic with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let server_bin = ref "" in
  let host_file = ref "" in
  let connect = ref "" in
  let workers_list = ref "1" in
  let rates = ref "100" in
  let duration = ref 3.0 in
  let connections = ref 4 in
  let seed = ref 42 in
  let queue_capacity = ref 64 in
  let runtime_sample = ref 1.0 in
  let json_file = ref "" in
  let strict = ref false in
  let speclist =
    [
      ("--server-bin", Arg.Set_string server_bin,
       "PATH netembed_server binary to spawn (one instance per --workers-list entry)");
      ("--host", Arg.Set_string host_file,
       "FILE hosting network (GraphML) for spawned servers");
      ("--connect", Arg.Set_string connect,
       "HOST:PORT drive an already-running server instead of spawning");
      ("--workers-list", Arg.Set_string workers_list,
       "N,M,... front-end worker-domain counts to measure (spawn mode; default 1)");
      ("--rates", Arg.Set_string rates,
       "R1,R2,... target open-loop arrival rates, req/s (default 100)");
      ("--duration", Arg.Set_float duration, "SEC per-trial send window (default 3)");
      ("--connections", Arg.Set_int connections,
       "M concurrent client connections (default 4)");
      ("--seed", Arg.Set_int seed, "N query-mix seed (default 42)");
      ("--queue-capacity", Arg.Set_int queue_capacity,
       "N admission queue capacity for spawned servers (default 64)");
      ("--runtime-sample", Arg.Set_float runtime_sample,
       "SEC GC sampler interval for spawned servers, 0 disables (default 1; \
        the runtime-ablation knob)");
      ("--json", Arg.Set_string json_file,
       "FILE write the rows as FILE's top-level service_load section");
      ("--strict", Arg.Set strict, " exit 1 on any protocol error (CI gate)");
    ]
  in
  Arg.parse speclist (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "netembed_loadgen (--server-bin BIN --host FILE | --connect HOST:PORT) \
     [--workers-list N,M] [--rates R1,R2] [--duration SEC] [--connections M] \
     [--seed N] [--json FILE] [--strict]";
  if !connect = "" && (!server_bin = "" || !host_file = "") then begin
    prerr_endline
      "netembed_loadgen: need --connect HOST:PORT, or --server-bin and --host";
    exit 2
  end;
  let ints s = List.map int_of_string (String.split_on_char ',' s) in
  let floats s = List.map float_of_string (String.split_on_char ',' s) in
  let rate_list = floats !rates in
  let rows = ref [] in
  let trial ~host ~port ~workers =
    List.iter
      (fun rate ->
        rng_init !seed;
        let row =
          run_trial ~host ~port ~workers ~rate ~connections:!connections
            ~duration:!duration
        in
        print_string (Json.to_document (row_json row));
        flush stdout;
        rows := row :: !rows)
      rate_list
  in
  (match !connect with
  | "" ->
      List.iter
        (fun workers ->
          let server =
            spawn_server ~bin:!server_bin ~host_file:!host_file ~workers
              ~queue_capacity:!queue_capacity ~runtime_sample:!runtime_sample
          in
          let _, port, _ = server in
          Fun.protect
            (fun () -> trial ~host:"127.0.0.1" ~port ~workers)
            ~finally:(fun () -> stop_server server))
        (ints !workers_list)
  | hostport -> (
      match String.split_on_char ':' hostport with
      | [ host; port ] -> trial ~host ~port:(int_of_string port) ~workers:0
      | _ ->
          prerr_endline "netembed_loadgen: --connect expects HOST:PORT";
          exit 2));
  let rows = List.rev !rows in
  if !json_file <> "" then begin
    let note =
      "open-loop fixed-arrival-rate trials over the TCP front-end; rejected counts \
       backpressure sheds, not failures; the saturation knee is where p99 departs p50 \
       across the rate sweep"
    in
    let section = Json.(Obj [ ("note", String note); ("rows", List (List.map row_json rows)) ]) in
    match Json.update_file !json_file [ ("service_load", section) ] with
    | Ok () -> Printf.printf "# service_load section written to %s\n%!" !json_file
    | Error e ->
        prerr_endline ("netembed_loadgen: " ^ e);
        exit 1
  end;
  let total_errors = List.fold_left (fun a r -> a + r.errors) 0 rows in
  let total_completed = List.fold_left (fun a r -> a + r.completed) 0 rows in
  Printf.printf "# total completed=%d errors=%d\n%!" total_completed total_errors;
  if !strict && (total_errors > 0 || total_completed = 0) then exit 1

(* The netembed command-line interface.

   Subcommands:
     generate   synthesize a hosting network and write it as GraphML
     info       summarize a GraphML network
     embed      find embeddings of a query network into a hosting network
     top        phase-latency triage report for a request workload

   Examples:
     netembed generate --kind planetlab -o host.graphml
     netembed generate --kind brite-ba -n 500 -o host.graphml
     netembed info host.graphml
     netembed embed --host host.graphml --query query.graphml \
       --constraint 'rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay' \
       --algorithm lns --mode first --timeout 30 *)

module Graph = Netembed_graph.Graph
module Metrics = Netembed_topology.Metrics
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Brite = Netembed_topology.Brite
module Transit_stub = Netembed_topology.Transit_stub
module Graphml = Netembed_graphml.Graphml
module Ledger = Netembed_ledger.Ledger
module Request = Netembed_service.Request
module Model = Netembed_service.Model
module Service = Netembed_service.Service
module Wire = Netembed_service.Wire
module Engine = Netembed_core.Engine
module Mapping = Netembed_core.Mapping
module Telemetry = Netembed_telemetry.Telemetry

open Cmdliner

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate kind n seed output =
  let rng = Rng.make seed in
  let graph =
    match kind with
    | `Planetlab -> Trace.generate rng { Trace.default with Trace.sites = n }
    | `Brite_ba -> Brite.generate rng (Brite.default_barabasi ~n)
    | `Brite_waxman -> Brite.generate rng (Brite.default_waxman ~n)
    | `Transit_stub ->
        let per_stub = max 2 (n / 16) in
        Transit_stub.generate rng
          { Transit_stub.default with Transit_stub.stub_size = per_stub }
  in
  Graphml.write_file graph output;
  Format.printf "wrote %a to %s@." Graph.pp_summary graph output

let kind_conv =
  Arg.enum
    [
      ("planetlab", `Planetlab);
      ("brite-ba", `Brite_ba);
      ("brite-waxman", `Brite_waxman);
      ("transit-stub", `Transit_stub);
    ]

let generate_cmd =
  let kind =
    Arg.(value & opt kind_conv `Planetlab & info [ "kind" ] ~docv:"KIND"
           ~doc:"Topology family: planetlab, brite-ba, brite-waxman or transit-stub.")
  in
  let n =
    Arg.(value & opt int 296 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes/sites.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output GraphML file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a hosting network as GraphML")
    Term.(const generate $ kind $ n $ seed $ output)

(* ------------------------------------------------------------------ *)
(* convert                                                             *)
(* ------------------------------------------------------------------ *)

(* File formats are chosen by extension: .graphml / .brite. *)
let load_any path =
  if Filename.check_suffix path ".brite" then
    Netembed_topology.Brite_format.read_file path
  else Graphml.read_file path

(* A topology file argument, read while the command line is parsed: a
   missing, unreadable, empty or malformed file is a usage error (exit
   124 with a message), not an uncaught exception.  GraphML errors name
   the file; BRITE errors get it prefixed.  The value keeps the path for
   messages. *)
let topology_conv =
  let parse path =
    match Arg.conv_parser Arg.file path with
    | Error _ as e -> e
    | Ok path -> (
        match load_any path with
        | g -> Ok (path, g)
        | exception Netembed_topology.Brite_format.Error m ->
            Error (`Msg (Printf.sprintf "%s: %s" path m))
        | exception (Graphml.Error m | Sys_error m) -> Error (`Msg m))
  in
  Arg.conv (parse, fun ppf (path, _) -> Format.pp_print_string ppf path)

let save_any g path =
  if Filename.check_suffix path ".brite" then
    Netembed_topology.Brite_format.write_file g path
  else Graphml.write_file g path

let convert (input, g) output =
  save_any g output;
  Format.printf "converted %a: %s -> %s@." Graph.pp_summary g input output;
  `Ok ()

let convert_cmd =
  let input =
    Arg.(required & pos 0 (some topology_conv) None & info [] ~docv:"INPUT"
           ~doc:"Input topology (.graphml or .brite).")
  in
  let output =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT"
           ~doc:"Output topology (.graphml or .brite).")
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between GraphML and BRITE topology formats")
    Term.(ret (const convert $ input $ output))

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_run (_, g) =
  let stats = Metrics.degree_stats g in
  Format.printf "%a@." Graph.pp_summary g;
  Format.printf "density %.4f, %a@." (Graph.density g) Metrics.pp_degree_stats stats;
  (match Metrics.power_law_exponent g with
  | Some e -> Format.printf "degree power-law slope %.2f@." e
  | None -> ());
  `Ok ()

let info_cmd =
  let file =
    Arg.(required & pos 0 (some topology_conv) None & info [] ~docv:"FILE" ~doc:"GraphML file.")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Summarize a GraphML network")
    Term.(ret (const info_run $ file))

(* ------------------------------------------------------------------ *)
(* embed                                                               *)
(* ------------------------------------------------------------------ *)

let algorithm_conv =
  Arg.enum [ ("ecf", Engine.ECF); ("rwb", Engine.RWB); ("lns", Engine.LNS) ]

let mode_conv =
  let parse s =
    match Wire.mode_of_string s with Ok m -> Ok m | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Wire.mode_to_string m))

(* The request embed, explain, top and allocate take: the host graph,
   a Request.t built from --query, --constraint (inline, or @FILE read
   one expression per line), --node-constraint, --algorithm, --mode and
   --timeout, and its parsed edge and node constraints.  Files are read
   and constraints parsed here, so an unreadable file or a malformed
   constraint is a usage error (exit 124) in every subcommand.
   allocate's host and query declare capacities and demands, its
   timeout is per tenant, and it has no --mode. *)
let request_term ~allocate =
  let doc plain for_allocate = if allocate then for_allocate else plain in
  let host_file =
    Arg.(required & opt (some topology_conv) None & info [ "host" ] ~docv:"FILE"
           ~doc:(doc "Hosting network (GraphML)."
                   "Hosting network (GraphML) declaring capacities."))
  in
  let query_file =
    Arg.(required & opt (some topology_conv) None & info [ "query" ] ~docv:"FILE"
           ~doc:(doc "Query network (GraphML)."
                   "Query network (GraphML) whose attributes are the demand vector."))
  in
  let constraint_arg =
    Arg.(value & opt string "true" & info [ "constraint" ] ~docv:"EXPR"
           ~doc:(doc "Constraint expression, or @FILE to load one expression per line."
                   "Constraint expression, or @FILE."))
  in
  let node_constraint =
    Arg.(value & opt (some string) None & info [ "node-constraint" ] ~docv:"EXPR"
           ~doc:"Optional per-node constraint over rSource/vSource.")
  in
  let algorithm =
    Arg.(value & opt algorithm_conv Engine.ECF & info [ "algorithm"; "a" ] ~docv:"ALG"
           ~doc:"Search algorithm: ecf, rwb or lns.")
  in
  let mode =
    if allocate then Term.const Engine.First
    else
      Arg.(value & opt mode_conv Engine.First & info [ "mode" ] ~docv:"MODE"
             ~doc:"Answer mode: first, all or atmost:K.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:(doc "Search timeout." "Per-tenant search timeout."))
  in
  let request (_, host) (_, query) constraint_arg node_constraint algorithm mode timeout =
    let constraint_text =
      if String.length constraint_arg > 0 && constraint_arg.[0] = '@' then
        match
          Request.read_constraint_file
            (String.sub constraint_arg 1 (String.length constraint_arg - 1))
        with
        | text -> Ok text
        | exception Sys_error m -> Error ("--constraint: " ^ m)
      else Ok constraint_arg
    in
    let ( let* ) = Result.bind in
    match
      let* text = constraint_text in
      let request = Request.make ?node_constraint ~algorithm ~mode ?timeout ~query text in
      let* constraints = Request.parse_constraints request in
      Ok (host, request, constraints)
    with
    | Ok parsed -> `Ok parsed
    | Error m -> `Error (false, m)
  in
  Term.(
    ret
      (const request $ host_file $ query_file $ constraint_arg $ node_constraint
     $ algorithm $ mode $ timeout))

let embed (host, request, (edge_constraint, _)) path_hops dedupe optimize_cost stats
    trace_file =
  let host =
    (* --paths K: virtual links may ride host paths of up to K hops
       (the link-to-path extension, realized as a host closure). *)
    match path_hops with
    | None -> host
    | Some k -> Netembed_extensions.Path_embed.host (Netembed_extensions.Path_embed.closure ~max_hops:k host)
  in
  let query = request.Request.query in
  let service = Service.create (Model.create host) in
  match Service.submit ~trace:(trace_file <> None) service request with
  | Error e -> `Error (false, e)
  | Ok answer ->
      let answer =
        (* --dedupe-symmetry: collapse orbit-equivalent mappings. *)
        if not dedupe then answer
        else
          match Netembed_extensions.Symmetry.automorphisms query with
          | None -> answer (* group too large: skip compaction *)
          | Some auts ->
              let result = answer.Service.result in
              { answer with
                Service.result =
                  { result with
                    Engine.mappings = Netembed_extensions.Symmetry.dedupe auts result.Engine.mappings } }
      in
      let answer =
        (* --optimize METRIC: keep only the cheapest mapping. *)
        match optimize_cost with
        | None -> answer
        | Some cost_name ->
            let cost =
              match cost_name with
              | "total-delay" -> Netembed_extensions.Optimize.total_avg_delay
              | "max-delay" -> Netembed_extensions.Optimize.max_avg_delay
              | "host-degree" -> Netembed_extensions.Optimize.total_host_degree
              | other -> Netembed_extensions.Optimize.node_attr_sum other
            in
            let result = answer.Service.result in
            let problem = Netembed_core.Problem.make ~host ~query edge_constraint in
            let best =
              Netembed_extensions.Optimize.best_of problem ~cost result.Engine.mappings
            in
            { answer with
              Service.result =
                { result with Engine.mappings = Option.to_list best } }
      in
      if stats then
        prerr_endline
          (Telemetry.snapshot_to_json answer.Service.result.Engine.telemetry);
      (match (trace_file, answer.Service.trace) with
      | Some path, Some buf ->
          let oc = open_out path in
          output_string oc
            (Telemetry.Trace.to_chrome_json ~trace_id:answer.Service.trace_id buf);
          output_char oc '\n';
          close_out oc
      | _ -> ());
      print_string (Wire.encode_answer answer);
      `Ok ()

let embed_cmd =
  let path_hops =
    Arg.(value & opt (some int) None & info [ "paths" ] ~docv:"K"
           ~doc:"Allow virtual links to map onto host paths of up to K hops.")
  in
  let dedupe =
    Arg.(value & flag & info [ "dedupe-symmetry" ]
           ~doc:"Collapse mappings equivalent under query automorphisms.")
  in
  let optimize_cost =
    Arg.(value & opt (some string) None & info [ "optimize" ] ~docv:"METRIC"
           ~doc:"Return only the cheapest mapping by METRIC: total-delay, \
                 max-delay, host-degree, or a numeric node attribute name.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the engine telemetry snapshot (visited nodes, constraint \
                 evaluations, backtracks, depth and domain-size histograms) as \
                 one JSON line on stderr.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the request's Chrome trace-event JSON to FILE: one span \
                 per request phase inside the enclosing request span — open \
                 it in chrome://tracing or Perfetto.")
  in
  Cmd.v
    (Cmd.info "embed" ~doc:"Embed a query network into a hosting network")
    Term.(
      ret
        (const embed $ request_term ~allocate:false $ path_hops $ dedupe $ optimize_cost
        $ stats $ trace_file))

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

(* Run the request with explain mode on (the service always does) and
   print the resulting diagnosis: why did the search fail, which
   (query node, constraint) pairs emptied the domains, which hosts came
   closest.  Successful runs still print a certificate (hot spot,
   flight-recorder tail) — slow_threshold 0 forces every request into
   the diagnostics log. *)
let explain_run (host, request, _) json =
  let service =
    Service.create
      ~registry:(Netembed_telemetry.Telemetry.Registry.create ())
      ~slow_threshold:0.0 (Model.create host)
  in
  let print_entry (entry : Service.entry) =
    match entry.Service.certificate with
    | None -> `Error (false, entry.Service.summary)
    | Some cert ->
        if json then
          print_endline (Netembed_explain.Explain.Certificate.to_json cert)
        else begin
          Printf.printf "request %d: %s\n" entry.Service.id entry.Service.summary;
          print_string (Netembed_explain.Explain.Certificate.to_text cert)
        end;
        `Ok ()
  in
  match Service.submit service request with
  | Error e -> (
      (* Every failed submit leaves an entry in the diagnostics log;
         only an admission rejection's carries a certificate. *)
      match Service.last_entry service with
      | Some entry -> print_entry entry
      | None -> `Error (false, e))
  | Ok answer -> (
      match Service.explain service answer.Service.id with
      | Some entry -> print_entry entry
      | None -> `Error (false, "no diagnostics retained for this run"))

let explain_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the failure certificate as one JSON document instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Diagnose an embedding request: constraint blame, near-miss hosts and \
             the search flight recorder")
    Term.(
      ret
        (const explain_run $ request_term ~allocate:false $ json))

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Run a request (optionally several times) against a private service
   and print the phase-latency triage report: where the wall-clock time
   went per phase (with sliding-window quantiles) and the slowest
   retained requests with their per-phase breakdowns — the local twin
   of the TOP wire verb. *)
let top_run (host, request, _) repeat worst =
  let service =
    (* slow_threshold 0 retains every request, so the worst-requests
       table is populated even for fast runs. *)
    Service.create
      ~registry:(Telemetry.Registry.create ())
      ~slow_threshold:0.0 (Model.create host)
  in
  let errors = ref [] in
  for _ = 1 to max 1 repeat do
    match Service.submit service request with
    | Ok _ -> ()
    | Error e -> errors := e :: !errors
  done;
  let report = Service.top ~worst service in
  Format.printf "%-14s %12s %7s %10s %10s %10s@." "PHASE" "TOTAL-S" "COUNT"
    "P50-MS" "P95-MS" "P99-MS";
  List.iter
    (fun (s : Service.phase_stat) ->
      Format.printf "%-14s %12.6f %7d %10.3f %10.3f %10.3f@."
        (Telemetry.Phase.name s.Service.phase)
        s.Service.total_s s.Service.window_count
        (s.Service.p50_s *. 1000.0)
        (s.Service.p95_s *. 1000.0)
        (s.Service.p99_s *. 1000.0))
    report.Service.busiest;
  Format.printf "@.slowest retained requests (quantile window %gs):@."
    report.Service.window_s;
  List.iter
    (fun (e : Service.entry) ->
      Format.printf "  id=%d trace=%d verdict=%s elapsed=%.3fms%s  %s@."
        e.Service.id e.Service.trace_id e.Service.verdict
        (e.Service.elapsed *. 1000.0)
        (if e.Service.slow_search then " slow-search" else "")
        e.Service.summary)
    report.Service.worst;
  match !errors with
  | [] -> `Ok ()
  | e :: _ when repeat <= 1 -> `Error (false, e)
  | e :: _ ->
      Format.printf "@.%d of %d requests failed (last: %s)@." (List.length !errors)
        repeat e;
      `Ok ()

let top_cmd =
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Submit the request N times before reporting, so window \
                 quantiles have a population.")
  in
  let worst =
    Arg.(value & opt int 5 & info [ "worst" ] ~docv:"K"
           ~doc:"How many slowest retained requests to list.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Phase-latency triage: busiest request phases with sliding-window \
             quantiles, and the slowest retained requests")
    Term.(
      ret
        (const top_run $ request_term ~allocate:false $ repeat $ worst))

(* ------------------------------------------------------------------ *)
(* allocate / free / utilization                                       *)
(* ------------------------------------------------------------------ *)

(* The stateless ledger workflow: the residual GraphML file *is* the
   allocation state.  `allocate` starts from the host (or a prior
   residual) and commits query charges; `free` hands a query's charge
   back; `utilization` reports usage.  All three rebuild the ledger by
   syncing it to the residual snapshot. *)

let open_ledger host residual =
  let ledger = Ledger.of_graph host in
  (match residual with
  | Some (_, Some residual) -> Ledger.sync_residual ledger residual
  | Some (_, None) | None -> ());
  ledger

let print_utilization rows =
  Format.printf "%-12s %-5s %14s %14s %8s@." "RESOURCE" "KIND" "USED" "CAPACITY" "UTIL";
  List.iter
    (fun (resource, kind, used, cap) ->
      Format.printf "%-12s %-5s %14.1f %14.1f %7.1f%%@." resource
        (match kind with `Node -> "node" | `Edge -> "edge")
        used cap
        (if cap > 0.0 then 100.0 *. used /. cap else 0.0))
    rows

let allocate_run (host, (request : Request.t), (edge_constraint, node_expr)) count
    residual_file =
  let ledger = open_ledger host residual_file in
  let query = request.Request.query in
  let committed = ref 0 in
  let stop = ref None in
  (try
     for i = 1 to count do
       if !stop = None then begin
         match Ledger.admissible ledger ~query with
         | Error f ->
             stop := Some (Printf.sprintf "admission: %s" (Ledger.failure_to_string f))
         | Ok () -> (
             let residual = Ledger.residual_graph ledger in
             let problem =
               Netembed_core.Problem.make ?node_constraint:node_expr ~host:residual
                 ~query edge_constraint
             in
             match
               Engine.find_first ?timeout:request.Request.timeout
                 request.Request.algorithm problem
             with
             | None -> stop := Some "no feasible mapping on the residual network"
             | Some mapping -> (
                 match Ledger.charge_of_mapping ledger ~query mapping with
                 | Error m -> stop := Some m
                 | Ok charge -> (
                     match Ledger.try_commit ledger charge with
                     | Error f -> stop := Some (Ledger.failure_to_string f)
                     | Ok _id ->
                         incr committed;
                         Format.printf "tenant %d:%s@." i
                           (String.concat ""
                              (List.map
                                 (fun (q, r) -> Printf.sprintf " q%d->r%d" q r)
                                 (Mapping.to_list mapping))))))
       end
     done
   with Failure m -> stop := Some m);
  (match residual_file with
  | Some (path, _) when !committed > 0 ->
      Graphml.write_file (Ledger.residual_graph ledger) path;
      Format.printf "residual network written to %s@." path
  | Some _ | None -> ());
  Format.printf "committed %d/%d allocation(s)@." !committed count;
  print_utilization (Ledger.utilization ledger);
  match !stop with
  | Some m when !committed = 0 -> `Error (false, m)
  | Some m ->
      Format.printf "stopped: %s@." m;
      `Ok ()
  | None -> `Ok ()

let parse_mapping_arg query text =
  let pairs =
    List.filter_map
      (fun tok -> Scanf.sscanf_opt tok "q%d->r%d" (fun q r -> (q, r)))
      (String.split_on_char ' ' (String.trim text))
  in
  let n = Graph.node_count query in
  if List.length pairs <> n then
    Error
      (Printf.sprintf "mapping names %d of %d query nodes" (List.length pairs) n)
  else
    let arr = Array.make n (-1) in
    List.iter (fun (q, r) -> if q >= 0 && q < n then arr.(q) <- r) pairs;
    if Array.exists (fun r -> r < 0) arr then
      Error "mapping must name every query node exactly once (q<i>->r<j> pairs)"
    else Ok (Mapping.of_array arr)

let free_run (_, host) residual (_, query) mapping_arg =
  match residual with
  | residual_file, None ->
      `Error (false, Printf.sprintf "residual file %s does not exist" residual_file)
  | residual_file, Some _ -> (
      let ledger = open_ledger host (Some residual) in
      match parse_mapping_arg query mapping_arg with
      | Error m -> `Error (false, m)
      | Ok mapping -> (
          match Ledger.charge_of_mapping ledger ~query mapping with
          | Error m -> `Error (false, m)
          | Ok charge -> (
              match Ledger.credit ledger charge with
              | Error m -> `Error (false, m)
              | Ok () ->
                  Graphml.write_file (Ledger.residual_graph ledger) residual_file;
                  Format.printf "credited; residual network written to %s@."
                    residual_file;
                  print_utilization (Ledger.utilization ledger);
                  `Ok ())))

let utilization_run (_, host) residual =
  print_utilization (Ledger.utilization (open_ledger host residual));
  `Ok ()

(* A residual-network file: read when it exists, so that a malformed
   one is a usage error, and [None] while it does not. *)
let residual_conv =
  let parse path =
    if not (Sys.file_exists path) then Ok (path, None)
    else
      match Graphml.read_file path with
      | g -> Ok (path, Some g)
      | exception (Graphml.Error m | Sys_error m) -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf (path, _) -> Format.pp_print_string ppf path)

let residual_opt =
  Arg.(value & opt (some residual_conv) None & info [ "residual" ] ~docv:"FILE"
         ~doc:"Residual-network GraphML file: read as the starting state when \
               it exists, rewritten after successful commits.  This file is \
               the allocation state between CLI invocations.")

let allocate_cmd =
  let count =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"N"
           ~doc:"Commit up to N tenants of the same query (stops at the first \
                 rejection).")
  in
  Cmd.v
    (Cmd.info "allocate"
       ~doc:"Embed a query and commit its capacity charge in the resource ledger")
    Term.(
      ret
        (const allocate_run $ request_term ~allocate:true $ count $ residual_opt))

let free_cmd =
  let host_file =
    Arg.(required & opt (some topology_conv) None & info [ "host" ] ~docv:"FILE"
           ~doc:"Hosting network (GraphML) declaring capacities.")
  in
  let residual_file =
    Arg.(required & opt (some residual_conv) None & info [ "residual" ] ~docv:"FILE"
           ~doc:"Residual-network GraphML file holding the allocation state; \
                 rewritten after the credit.")
  in
  let query_file =
    Arg.(required & opt (some topology_conv) None & info [ "query" ] ~docv:"FILE"
           ~doc:"The query network that was allocated.")
  in
  let mapping_arg =
    Arg.(required & opt (some string) None & info [ "mapping" ] ~docv:"PAIRS"
           ~doc:"The mapping that was committed, as printed by allocate: \
                 'q0->r17 q1->r4 ...'.")
  in
  Cmd.v
    (Cmd.info "free"
       ~doc:"Credit a previously committed allocation back to the residual network")
    Term.(ret (const free_run $ host_file $ residual_file $ query_file $ mapping_arg))

let utilization_cmd =
  let host_file =
    Arg.(required & opt (some topology_conv) None & info [ "host" ] ~docv:"FILE"
           ~doc:"Hosting network (GraphML) declaring capacities.")
  in
  Cmd.v
    (Cmd.info "utilization"
       ~doc:"Report per-resource ledger utilization of a hosting network")
    Term.(ret (const utilization_run $ host_file $ residual_opt))

(* ------------------------------------------------------------------ *)
(* watch                                                               *)
(* ------------------------------------------------------------------ *)

(* A polling terminal view over a running server's HEALTH and TOP wire
   verbs — `top(1)` for the mapping service.  Each tick opens a fresh
   connection (so a wedged server shows up as a connect error, not a
   silent stall), prints the health line and the triage report, and
   sleeps.  --once prints a single snapshot and exits; the cram tests
   and shell scripts use it. *)
let watch_run connect interval once =
  let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt in
  if interval <= 0.0 then fail "watch: --interval must be positive"
  else
    match String.split_on_char ':' connect with
    | [ host; port_s ] -> (
        match int_of_string_opt port_s with
        | None -> fail "watch: --connect expects HOST:PORT"
        | Some port -> (
            let resolve () =
              try Unix.inet_addr_of_string host
              with Failure _ -> (
                try (Unix.gethostbyname host).Unix.h_addr_list.(0)
                with Not_found -> failwith ("unknown host " ^ host))
            in
            let ask fd frame =
              let len = String.length frame in
              let pos = ref 0 in
              while !pos < len do
                pos := !pos + Unix.write_substring fd frame !pos (len - !pos)
              done
            in
            let drop_ok body =
              if String.starts_with ~prefix:"OK " body then
                String.sub body 3 (String.length body - 3)
              else body
            in
            let snapshot addr =
              let fd =
                Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
              in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
              @@ fun () ->
              Unix.connect fd (Unix.ADDR_INET (addr, port));
              let replies = Wire.reader (Unix.read fd) in
              (* Pipelined on one connection; replies come back in
                 order. *)
              ask fd "HEALTH\n.\nTOP\n.\n";
              let print verb =
                match Wire.read_frame replies with
                | None -> raise End_of_file
                | Some (Error m) -> failwith m
                | Some (Ok "") -> ()
                | Some (Ok body) -> Printf.printf "%s %s" verb (drop_ok body)
              in
              print "HEALTH";
              print "TOP";
              flush stdout
            in
            try
              let addr = resolve () in
              if once then begin
                snapshot addr;
                `Ok ()
              end
              else
                let rec loop () =
                  snapshot addr;
                  print_newline ();
                  flush stdout;
                  Unix.sleepf interval;
                  loop ()
                in
                loop ()
            with
            | Unix.Unix_error (e, _, _) ->
                fail "watch: %s:%d: %s" host port (Unix.error_message e)
            | End_of_file -> fail "watch: server closed the connection"
            | Failure m | Sys_error m -> fail "watch: %s" m))
    | _ -> fail "watch: --connect expects HOST:PORT"

let watch_cmd =
  let connect =
    Arg.(required & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"The running server's TCP endpoint.")
  in
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SEC"
           ~doc:"Seconds between polls (default 2).")
  in
  let once =
    Arg.(value & flag & info [ "once" ]
           ~doc:"Print one snapshot and exit instead of polling.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Poll a running server's HEALTH and TOP verbs: health state, SLO \
             window inputs, busiest phases and slowest requests")
    Term.(ret (const watch_run $ connect $ interval $ once))

let main_cmd =
  let doc = "NETEMBED: a network resource mapping service" in
  Cmd.group (Cmd.info "netembed" ~doc ~version:"1.0.0")
    [
      generate_cmd; info_cmd; embed_cmd; explain_cmd; top_cmd; convert_cmd;
      allocate_cmd; free_cmd; utilization_cmd; watch_cmd;
    ]

let () = exit (Cmd.eval main_cmd)

(* Seeded benchmark inputs: the substrate written as GraphML, and each
   workload's request stream rendered to wire frames ahead of time, so
   that generation stays out of set-up time and out of the measured
   heap.  The service under test only ever sees the frames. *)

open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Expr = Netembed_expr.Expr
module Engine = Netembed_core.Engine
module Request = Netembed_service.Request
module Wire = Netembed_service.Wire
module Query_gen = Netembed_workload.Query_gen
module Planetlab = Netembed_planetlab.Trace
module Graphml = Netembed_graphml.Graphml

type workload = Tenant_churn | Query_mix | Hot_queries

let workloads = [ Tenant_churn; Query_mix; Hot_queries ]

let workload_name = function
  | Tenant_churn -> "tenant_churn"
  | Query_mix -> "query_mix"
  | Hot_queries -> "hot_queries"

let workload_of_string s = List.find_opt (fun w -> workload_name w = s) workloads

(* Substrate: a 100-site synthetic PlanetLab trace (~3.4k links).  The
   trace has no link capacity, so every link gets a seeded bandwidth;
   the ledger then tracks cpuMhz and memMB on nodes and bandwidth on
   links.  The substrate comes from a fixed seed: its link count moves
   by several percent between trace seeds, and every layer's cost
   scales with it, so only the request streams follow --seed. *)
let sites = 100
let substrate_seed = 2008

(* tenant_churn: live tenants kept after warm-up.  Demands are capped so
   that K + 1 co-located tenants fit on the smallest host (cpuMhz 1000)
   and the thinnest link (bandwidth 100): no tenant is ever refused. *)
let live_tenants = 16
let tenant_bandwidth_max = 5

(* query_mix: every [mix_unsat_every]-th pool entry is made infeasible.
   The pool is larger than a run's op count, so the stream repeats no
   query within a run. *)
let mix_pool = 1024
let mix_unsat_every = 5

(* hot_queries: 16 queries under Zipf popularity; the pool fits the
   service's default 32-entry filter cache.  The infeasible ones sit at
   fixed popularity ranks so their share of the stream does not move
   with the seed. *)
let hot_pool = 16
let hot_unsat_ranks = [ 2; 5; 9 ]
let hot_stream = 8192
let tenant_pool = 256

type t = {
  workload : workload;
  seed : int;
  host_file : string;
  links : int;
  frames : string array;  (** request frames, each ending in the [.] line *)
  planted_feasible : bool array;  (** per frame: an embedding exists by construction *)
  stream : int array;  (** op order, as indices into [frames]; cycled *)
  warmup : int;  (** leading stream entries run inside set-up *)
}

let substrate rng =
  let g = Planetlab.generate rng { Planetlab.default with sites } in
  Array.iter
    (fun (e, _, _) ->
      let bw = float_of_int (100 + (10 * Rng.int rng 91)) in
      Graph.set_edge_attrs g e
        (Attrs.add "bandwidth" (Value.Float bw) (Graph.edge_attrs g e)))
    (Graph.edges g);
  g

let tenant_constraint =
  "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay \
   && rEdge.bandwidth >= vEdge.bandwidth"

(* An [n]-node tenant in the simulator's request shape, planted on a
   sampled host subgraph: its delay bands contain the sampled links'
   average delays, so the sampled placement always qualifies.  A node
   demands 20-50 cpuMhz. *)
let tenant_request rng host ~n =
  let query = Graph.create ~name:"tenant" () in
  let demand () =
    Attrs.of_list
      [ ("cpuMhz", Value.Float (float_of_int (20 + (5 * Rng.int rng 7)))) ]
  in
  if n = 1 then ignore (Graph.add_node query (demand ()))
  else begin
    let sub, _ =
      Netembed_graph.Sample.random_connected_subgraph rng host ~n
        ~extra_edges:(Rng.int rng 2)
    in
    Graph.iter_nodes (fun _ -> ignore (Graph.add_node query (demand ()))) sub;
    Graph.iter_edges
      (fun e u v ->
        let avg = Option.get (Attrs.float "avgDelay" (Graph.edge_attrs sub e)) in
        let w = Rng.uniform rng ~lo:0.1 ~hi:0.4 in
        let bw = float_of_int (1 + Rng.int rng tenant_bandwidth_max) in
        ignore
          (Graph.add_edge query u v
             (Attrs.of_list
                [
                  ("minDelay", Value.Float (avg *. (1.0 -. w)));
                  ("maxDelay", Value.Float (avg *. (1.0 +. w)));
                  ("bandwidth", Value.Float bw);
                ])))
      sub
  end;
  Request.make ~node_constraint:"rSource.cpuMhz >= vSource.cpuMhz"
    ~algorithm:Engine.ECF ~mode:(Engine.At_most 4) ~query tenant_constraint

(* An [n]-node subgraph query (feasible by construction), or its
   infeasible mutation (a negative delay band on a quarter of its links). *)
let read_request rng host ~n ~feasible =
  let case = Query_gen.subgraph rng ~host ~n () in
  let case = if feasible then case else Query_gen.make_infeasible rng case in
  Request.make ~algorithm:Engine.ECF ~mode:(Engine.At_most 8)
    ~query:case.Query_gen.query
    (Expr.to_string case.Query_gen.edge_constraint)

(* Query sizes are spread evenly over the pool (and, in query_mix,
   evenly over feasible and infeasible entries), so a seed changes which
   queries run but not the mix of sizes. *)
let generate ~dir workload seed =
  let host = substrate (Rng.make substrate_seed) in
  let rng = Rng.make seed in
  let host_file = Filename.concat dir "host.graphml" in
  Graphml.write_file host host_file;
  let frames, planted, stream, warmup =
    match workload with
    | Tenant_churn ->
        let frames =
          Array.init tenant_pool (fun i ->
              Wire.encode_command (Wire.Allocate (tenant_request rng host ~n:(1 + (i mod 4)))))
        in
        (frames, Array.make tenant_pool true, Array.init tenant_pool Fun.id,
         live_tenants)
    | Query_mix ->
        let planted = Array.init mix_pool (fun i -> (i + 1) mod mix_unsat_every <> 0) in
        let frames =
          Array.mapi
            (fun i feasible ->
              let n = 4 + (i / mix_unsat_every mod 5) in
              Wire.encode_command (Wire.Submit (read_request rng host ~n ~feasible)))
            planted
        in
        (* Cycling more distinct queries than the filter cache holds
           makes every lookup miss. *)
        (frames, planted, Array.init mix_pool Fun.id, 8)
    | Hot_queries ->
        let planted =
          Array.init hot_pool (fun i -> not (List.mem (i + 1) hot_unsat_ranks))
        in
        let frames =
          Array.mapi
            (fun i feasible ->
              Wire.encode_command (Wire.Submit (read_request rng host ~n:(4 + (i mod 5)) ~feasible)))
            planted
        in
        (* Warm-up visits every pool entry once, filling the cache. *)
        let stream =
          Array.init (hot_pool + hot_stream) (fun i ->
              if i < hot_pool then i else Rng.zipf rng ~n:hot_pool ~s:1.0 - 1)
        in
        (frames, planted, stream, hot_pool)
  in
  {
    workload;
    seed;
    host_file;
    links = Graph.edge_count host;
    frames;
    planted_feasible = planted;
    stream;
    warmup;
  }

let frame_at t i = t.stream.(i mod Array.length t.stream)

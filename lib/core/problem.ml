open Netembed_graph
module Eval = Netembed_expr.Eval
module Ast = Netembed_expr.Ast
module Telemetry = Netembed_telemetry.Telemetry

type compiled = Ast.t option array

type t = {
  host : Graph.t;
  query : Graph.t;
  edge_constraint : Ast.t;
  node_constraint : Ast.t option;
  degree_filter : bool;
  host_degree : int array;
  query_degree : int array;
  host_in_degree : int array;
  query_in_degree : int array;
  (* Specialized residuals per (query edge, orientation); index 2*qe for
     the stored orientation, 2*qe+1 for the reverse.  Filled lazily.  A
     service-level cache hands the same table to the next problem over
     the same query and constraint (see [compiled]). *)
  residuals : Ast.t option array;
  evals : Telemetry.Counter.t;
}

(* Process-wide count of residual specializations ([residual] cache
   misses).  The metric keeps its historical name. *)
let specializations_counter =
  Telemetry.Registry.counter Telemetry.default_registry
    ~help:"Constraint residuals specialized (per-query-edge residual cache misses)"
    "netembed_expr_compiles_total"

let specializations_total () = Telemetry.Counter.value specializations_counter

let make ?node_constraint ?(degree_filter = true) ?compiled ~host ~query edge_constraint =
  if Graph.kind host <> Graph.kind query then
    invalid_arg "Problem.make: host and query must share directedness";
  if Graph.node_count query > Graph.node_count host then
    invalid_arg "Problem.make: query larger than host";
  let n = max 1 (2 * Graph.edge_count query) in
  let residuals =
    match compiled with
    | Some c when Array.length c = n -> c
    | Some _ | None -> Array.make n None
  in
  {
    host;
    query;
    edge_constraint;
    node_constraint;
    degree_filter;
    host_degree = Array.init (Graph.node_count host) (Graph.degree host);
    query_degree = Array.init (Graph.node_count query) (Graph.degree query);
    host_in_degree = Array.init (Graph.node_count host) (Graph.in_degree host);
    query_in_degree = Array.init (Graph.node_count query) (Graph.in_degree query);
    residuals;
    evals = Telemetry.Counter.make ();
  }

let eval_counter t = t.evals
let constraint_evals t = Telemetry.Counter.value t.evals
let compiled_residuals t = t.residuals

let residual_idx t qe ~q_src =
  (2 * qe) + if Graph.edge_source t.query qe = q_src then 0 else 1

let residual t qe ~q_src ~q_dst =
  let idx = residual_idx t qe ~q_src in
  match t.residuals.(idx) with
  | Some r -> r
  | None ->
      Telemetry.Counter.incr specializations_counter;
      let r =
        Eval.specialize
          ~v_edge:(Graph.edge_attrs t.query qe)
          ~v_source:(Graph.node_attrs t.query q_src)
          ~v_target:(Graph.node_attrs t.query q_dst)
          t.edge_constraint
      in
      t.residuals.(idx) <- Some r;
      r

let edge_pair_ok t ~qe ~q_src ~q_dst ~he ~r_src ~r_dst =
  Telemetry.Counter.incr t.evals;
  let residual = residual t qe ~q_src ~q_dst in
  let env =
    Eval.env ~v_edge:Netembed_attr.Attrs.empty
      ~r_edge:(Graph.edge_attrs t.host he)
      ~v_source:Netembed_attr.Attrs.empty ~v_target:Netembed_attr.Attrs.empty
      ~r_source:(Graph.node_attrs t.host r_src)
      ~r_target:(Graph.node_attrs t.host r_dst)
  in
  Eval.accepts env residual

let degree_ok t ~q ~r =
  (not t.degree_filter)
  || (t.query_degree.(q) <= t.host_degree.(r)
     && t.query_in_degree.(q) <= t.host_in_degree.(r))

(* A node constraint sees the query node's table in both v-source
   slots and the host node's in both r-source slots; no edge is in
   scope. *)
let node_residual_ok t ~q ~r c =
  Telemetry.Counter.incr t.evals;
  let attrs_q = Graph.node_attrs t.query q and attrs_r = Graph.node_attrs t.host r in
  let env =
    Eval.env ~v_edge:Netembed_attr.Attrs.empty ~r_edge:Netembed_attr.Attrs.empty
      ~v_source:attrs_q ~v_target:attrs_q ~r_source:attrs_r ~r_target:attrs_r
  in
  Eval.accepts env c

let node_residual t q =
  Option.map
    (fun c ->
      let attrs_q = Graph.node_attrs t.query q in
      Eval.specialize ~v_edge:Netembed_attr.Attrs.empty ~v_source:attrs_q
        ~v_target:attrs_q c)
    t.node_constraint

let node_ok t ~q ~r =
  degree_ok t ~q ~r
  && match t.node_constraint with None -> true | Some c -> node_residual_ok t ~q ~r c

let residual_for_edge t ~q_src ~q_dst =
  match Graph.find_edge t.query q_src q_dst with
  | None -> invalid_arg "Problem.residual_for_edge: no such query edge"
  | Some qe -> residual t qe ~q_src ~q_dst

(* All query edges incident to [q], regardless of direction: for
   undirected queries [succ] already lists both orientations of each
   edge once; for directed ones the in-edges must be added. *)
let query_neighbours t q =
  match Graph.kind t.query with
  | Graph.Undirected -> Graph.succ t.query q
  | Graph.Directed -> Graph.succ t.query q @ Graph.pred t.query q

let query_edges_between t u v =
  List.filter_map
    (fun (w, e) ->
      if w <> v then None
      else
        let src, _ = Graph.endpoints t.query e in
        Some (e, src = u))
    (query_neighbours t u)

let prepare t =
  (* Force every lazy cache so the structure can be shared read-only
     across domains: residuals and the host pair index. *)
  Graph.iter_edges
    (fun qe q_src q_dst ->
      ignore (residual t qe ~q_src ~q_dst);
      ignore (residual t qe ~q_src:q_dst ~q_dst:q_src))
    t.query;
  if Graph.node_count t.host > 0 then ignore (Graph.edges_between t.host 0 0)

(* The filter matrix from its definition: node verdicts first, then
   every (r, v) host pair of every linked query pair, with no shared
   singleton, row or pre-filter plan. *)

module Graph = Netembed_graph.Graph
module Bitset = Netembed_bitset.Bitset
module Problem = Netembed_core.Problem
module Explain = Netembed_explain.Explain
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Expr = Netembed_expr.Expr

type t = {
  p : Problem.t;
  cells : Bitset.t array array;  (** [cells.(a * nq + b).(r)] *)
  cands : Bitset.t array;
}

let build (p : Problem.t) =
  let host = p.Problem.host in
  let nq = Graph.node_count p.Problem.query and nr = Graph.node_count host in
  let node_ok = Array.init nq (fun q -> Array.init nr (fun r -> Problem.node_ok p ~q ~r)) in
  (* Host edges by (source, target); an undirected edge serves both. *)
  let between = Hashtbl.create (2 * Graph.edge_count host) in
  Graph.iter_edges
    (fun he s t ->
      Hashtbl.add between (s, t) he;
      if Graph.kind host = Graph.Undirected && s <> t then Hashtbl.add between (t, s) he)
    host;
  (* Query edge [qe] stored [src -> dst], with [src] on [x] and [dst] on
     [y]: some host edge from [x] to [y] passes.  Every candidate host
     edge is evaluated, as the build evaluates every admitted pair. *)
  let edge_ok qe ~src ~dst ~x ~y =
    List.fold_left
      (fun acc he ->
        Problem.edge_pair_ok p ~qe ~q_src:src ~q_dst:dst ~he ~r_src:x ~r_dst:y || acc)
      false
      (Hashtbl.find_all between (x, y))
  in
  let empty = Bitset.create nr in
  let cells =
    Array.init (nq * nq) (fun i ->
        let a = i / nq and b = i mod nq in
        let linking = if a = b then [] else Problem.query_edges_between p a b in
        if linking = [] then [||]
        else
          Array.init nr (fun r ->
              let cell = Bitset.create nr in
              if node_ok.(a).(r) then
                for v = 0 to nr - 1 do
                  if node_ok.(b).(v) then begin
                    let all =
                      List.fold_left
                        (fun acc (qe, a_to_b) ->
                          (if a_to_b then edge_ok qe ~src:a ~dst:b ~x:r ~y:v
                           else edge_ok qe ~src:b ~dst:a ~x:v ~y:r)
                          && acc)
                        true linking
                    in
                    if all then Bitset.add cell v
                  end
                done;
              cell))
  in
  let cell_of a r b =
    let row = cells.((a * nq) + b) in
    if Array.length row = 0 then empty else row.(r)
  in
  let cands =
    Array.init nq (fun q ->
        let c = Bitset.create nr in
        for r = 0 to nr - 1 do
          if
            node_ok.(q).(r)
            && List.for_all
                 (fun (w, _) -> w = q || not (Bitset.is_empty (cell_of q r w)))
                 (Problem.query_neighbours p q)
          then Bitset.add c r
        done;
        c)
  in
  { p; cells; cands }

let cell t ~a ~r ~b =
  let nq = Graph.node_count t.p.Problem.query in
  let row = t.cells.((a * nq) + b) in
  if Array.length row = 0 then Bitset.create (Graph.node_count t.p.Problem.host)
  else row.(r)

let node_candidates t q = t.cands.(q)

let blame t =
  let p = t.p in
  let bl = Explain.Blame.create () in
  let nq = Graph.node_count p.Problem.query and nr = Graph.node_count p.Problem.host in
  for q = 0 to nq - 1 do
    let incident = Problem.query_neighbours p q in
    for r = 0 to nr - 1 do
      if not (Bitset.mem t.cands.(q) r) then
        if not (Problem.degree_ok p ~q ~r) then
          Explain.Blame.eliminate bl ~q Explain.Cause.Degree_filter
        else if not (Problem.node_ok p ~q ~r) then
          Explain.Blame.eliminate bl ~q Explain.Cause.Node_constraint
        else
          match
            List.find_opt (fun (w, _) -> w <> q && Bitset.is_empty (cell t ~a:q ~r ~b:w)) incident
          with
          | Some (w, _) -> Explain.Blame.eliminate bl ~q (Explain.Cause.Edge_constraint (q, w))
          | None -> ()
    done
  done;
  bl

let tenant_problem rng ~host ~n =
  let query = Graph.create ~name:"tenant" () in
  let demand () =
    Attrs.of_list [ ("cpuMhz", Value.Float (float_of_int (20 + (5 * Rng.int rng 7)))) ]
  in
  if n = 1 then ignore (Graph.add_node query (demand ()))
  else begin
    let sub, _ =
      Netembed_graph.Sample.random_connected_subgraph rng host ~n ~extra_edges:(Rng.int rng 2)
    in
    Graph.iter_nodes (fun _ -> ignore (Graph.add_node query (demand ()))) sub;
    Graph.iter_edges
      (fun e u v ->
        let avg = Option.get (Attrs.float "avgDelay" (Graph.edge_attrs sub e)) in
        let w = Rng.uniform rng ~lo:0.1 ~hi:0.4 in
        ignore
          (Graph.add_edge query u v
             (Attrs.of_list
                [
                  ("minDelay", Value.Float (avg *. (1.0 -. w)));
                  ("maxDelay", Value.Float (avg *. (1.0 +. w)));
                ])))
      sub
  end;
  Problem.make
    ~node_constraint:(Expr.parse_exn "rSource.cpuMhz >= vSource.cpuMhz")
    ~host ~query Expr.avg_delay_within

(* The paper's "Current and Future Work" features, working together:

   1. link-to-path mapping — "mapping a link in the query network to a
      path in the real network" (Path_embed);
   2. optimization over the feasible set — "what assignment of
      resources minimizes some cost metric?" (Optimize);
   3. scheduling — "find a window of time in which some feasible
      embedding is available" (Schedule).

   The substrate is a sparse transit-stub WAN, where direct links
   rarely satisfy tight end-to-end delay requests, so virtual links
   must ride multi-hop paths.

   Run with:  dune exec examples/paths_and_windows.exe *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Transit_stub = Netembed_topology.Transit_stub
module Expr = Netembed_expr.Expr
open Netembed_core
open Netembed_extensions

let band lo hi =
  Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

let triangle lo hi =
  let g = Graph.create ~name:"triangle" () in
  let v = Array.init 3 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g v.(0) v.(1) (band lo hi));
  ignore (Graph.add_edge g v.(1) v.(2) (band lo hi));
  ignore (Graph.add_edge g v.(0) v.(2) (band lo hi));
  g

let () =
  let rng = Rng.make 31 in
  let host = Transit_stub.generate rng Transit_stub.default in
  Format.printf "WAN substrate: %a@." Graph.pp_summary host;

  (* A triangle of virtual links, each tolerating 40-160 ms: the stub
     links are far too short and many transit pairs are not directly
     connected, so one-to-one embedding usually fails... *)
  let query = triangle 40.0 160.0 in
  let direct = Problem.make ~host ~query Expr.avg_delay_within in
  (match Engine.find_first ~timeout:5.0 Engine.ECF direct with
  | Some _ -> Format.printf "direct (one-to-one) embedding: found@."
  | None -> Format.printf "direct (one-to-one) embedding: none@.");

  (* ... whereas 3-hop paths open up the search space. *)
  (match
     Path_embed.embed_with_paths ~max_hops:3 Engine.ECF ~host ~query
       Expr.avg_delay_within
   with
  | None -> Format.printf "path embedding: none@."
  | Some (m, decoded) ->
      Format.printf "path embedding found: nodes %s@."
        (String.concat ", "
           (List.map (fun (_, r) -> string_of_int r) (Mapping.to_list m)));
      List.iter
        (fun (qe, path) ->
          Format.printf "  virtual link %d -> host path %s@." qe
            (String.concat " - " (List.map string_of_int path)))
        decoded);

  (* Optimization stage: among all embeddings of a looser query, pick
     the latency-minimal one. *)
  let loose = triangle 1.0 300.0 in
  let p = Problem.make ~host ~query:loose Expr.avg_delay_within in
  (match Optimize.find_best Engine.ECF p ~cost:Optimize.total_avg_delay with
  | Some (_, cost) -> Format.printf "cheapest loose triangle: %.1f ms total@." cost
  | None -> Format.printf "loose triangle infeasible@.");

  (* Scheduling: book the whole network's best region, then ask again —
     the second request must wait for the lease to expire. *)
  let sched = Schedule.create host in
  (match
     Schedule.earliest sched ~now:0.0 ~duration:3600.0 ~query:loose
       Expr.avg_delay_within
   with
  | Error e -> Format.printf "no window: %s@." e
  | Ok placement ->
      Schedule.book sched placement;
      Format.printf "first task scheduled at t=%.0f s@." placement.Schedule.start;
      (* A conflicting second task (force it onto the same nodes by
         leasing everything else). *)
      let others =
        Graph.fold_nodes
          (fun v acc ->
            if List.exists (fun (_, r) -> r = v) (Mapping.to_list placement.Schedule.mapping)
            then acc
            else v :: acc)
          host []
      in
      Schedule.book sched
        { Schedule.mapping = Mapping.of_array (Array.of_list others);
          start = 0.0; finish = 1800.0 };
      match
        Schedule.earliest sched ~now:0.0 ~duration:600.0 ~query:loose
          Expr.avg_delay_within
      with
      | Error e -> Format.printf "second task: %s@." e
      | Ok p2 ->
          Format.printf "second task deferred to t=%.0f s (a lease expiry)@."
            p2.Schedule.start)

(* Grid resource allocation through the NETEMBED service — the paper's
   grid scenario: "a grid application that needs to allocate a subset of
   nodes with certain capabilities and some connectivity requirements
   between them", exercised through the full service stack (model ->
   request -> answer -> allocation as a ledger charge).

   Two applications arrive in turn.  Each wants a 4-node compute clique
   with intra-cluster latency below 120 ms and 1.6 GHz of CPU on every
   node.  The first allocation charges 1.6 GHz against each of its
   hosts; no PlanetLab host has 3.2 GHz, so what is left on them is too
   little for the second application, whose embedding must avoid them.

   Run with:  dune exec examples/grid_allocation.exe *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Regular = Netembed_topology.Regular
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Service = Netembed_service.Service
open Netembed_core

let compute_clique () =
  Regular.clique
    ~node:(Attrs.of_list [ ("cpuMhz", Value.Float 1600.0) ])
    ~edge:
      (Attrs.of_list
         [ ("minDelay", Value.Float 1.0); ("maxDelay", Value.Float 120.0) ])
    4

let edge_constraint = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

(* Hosts carry their residual CPU, so this reads what is still free. *)
let node_constraint = "rSource.cpuMhz >= vSource.cpuMhz"

let hosts_of m = List.map snd (Mapping.to_list m)

let cpu_used service =
  List.fold_left
    (fun acc (r, _, used, _) -> if r = "cpuMhz" then acc +. used else acc)
    0.0 (Service.utilization service)

let () =
  let rng = Rng.make 7 in
  let model = Model.create (Trace.generate rng Trace.default) in
  let service = Service.create model in
  Format.printf "Model: %a (revision %d)@."
    Graph.pp_summary (Model.snapshot model) (Model.revision model);

  let submit label =
    let request =
      Request.make ~node_constraint ~algorithm:Engine.LNS ~mode:Engine.First
        ~timeout:10.0 ~query:(compute_clique ()) edge_constraint
    in
    match Service.submit service request with
    | Error e -> failwith e
    | Ok answer -> (
        match answer.Service.result.Engine.mappings with
        | [] ->
            Format.printf "%s: no allocation available (%s)@." label
              (Engine.outcome_name answer.Service.result.Engine.outcome);
            None
        | m :: _ ->
            let id =
              match Service.allocate_shared service answer m with
              | Ok id -> id
              | Error e -> failwith e
            in
            Format.printf "%s: allocated hosts %s@." label
              (String.concat ", " (List.map string_of_int (hosts_of m)));
            Some (id, m))
  in
  let first = submit "app-1" in
  let second = submit "app-2" in
  (match (first, second) with
  | Some (_, m1), Some (_, m2) ->
      let overlap =
        List.filter (fun h -> List.mem h (hosts_of m1)) (hosts_of m2)
      in
      if overlap = [] then
        Format.printf "No host shared between the two applications, as required.@."
      else failwith "capacity over-committed!"
  | _ -> ());
  Format.printf "Live allocations: %d, cpuMhz charged: %.0f@."
    (List.length (Service.allocation_ids service)) (cpu_used service);

  (* Free the first application's slice and show the model recovers. *)
  match first with
  | Some (id1, _) ->
      if not (Service.free service id1) then failwith "app-1 allocation unknown";
      Format.printf "After app-1 release: %d allocation(s) live, cpuMhz charged: %.0f@."
        (List.length (Service.allocation_ids service)) (cpu_used service)
  | None -> ()

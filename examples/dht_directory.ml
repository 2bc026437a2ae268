(* Peer-to-peer directory-node selection — the paper's P2P scenario:
   "a peer-to-peer system, where location, bandwidth and delay of a
   subset of nodes, such as 'directory nodes' (e.g., the nodes of a
   distributed hash table) play an important role in the performance of
   the lookup service".

   The DHT wants k directory nodes arranged in its overlay ring, every
   ring hop under a latency bound, and each directory on a beefy
   machine.  Because a ring query is highly symmetric (its automorphism
   group is dihedral, 2k elements), the raw answer set is inflated by
   rotations/reflections; Symmetry.dedupe collapses it to genuinely
   distinct placements, which the optimizer then ranks by total
   latency.

   Run with:  dune exec examples/dht_directory.exe *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Regular = Netembed_topology.Regular
module Expr = Netembed_expr.Expr
open Netembed_core
open Netembed_extensions

let () =
  let rng = Rng.make 4242 in
  let host = Trace.generate rng Trace.default in
  let k = 5 in
  let ring =
    Regular.ring
      ~edge:
        (Attrs.of_list
           [ ("minDelay", Value.Float 1.0); ("maxDelay", Value.Float 40.0) ])
      k
  in
  let problem =
    Problem.make
      ~node_constraint:(Expr.parse_exn "rSource.cpuMhz >= 2800")
      ~host ~query:ring Expr.avg_delay_within
  in
  (* The whole feasible region, then dedupe. *)
  let result =
    Engine.run
      ~options:
        { Engine.default_options with Engine.mode = Engine.All; timeout = Some 20.0 }
      Engine.ECF problem
  in
  Format.printf "raw placements sampled: %d (%s)@."
    (List.length result.Engine.mappings)
    (Engine.outcome_name result.Engine.outcome);
  let auts = Option.get (Symmetry.automorphisms ring) in
  Format.printf "ring-%d automorphism group: %d elements (dihedral)@." k
    (Symmetry.size auts);
  let distinct = Symmetry.dedupe auts result.Engine.mappings in
  Format.printf "distinct placements after symmetry compaction: %d@."
    (List.length distinct);
  (* The group acts freely on injective ring mappings: every orbit of a
     complete answer set has exactly one member per automorphism. *)
  assert (List.length result.Engine.mappings = Symmetry.size auts * List.length distinct);

  match Optimize.rank problem ~cost:Optimize.total_avg_delay distinct with
  | [] -> Format.printf "no feasible directory ring.@."
  | (best, cost) :: _ ->
      Format.printf "@.best ring (total hop latency %.1f ms):@." cost;
      List.iter
        (fun (q, site) ->
          let a = Graph.node_attrs host site in
          Format.printf "  slot %d -> %s (%.0f MHz, %s)@." q
            (Option.value ~default:"?" (Attrs.string "name" a))
            (Option.value ~default:0.0 (Attrs.float "cpuMhz" a))
            (Option.value ~default:"?" (Attrs.string "region" a)))
        (Mapping.to_list best);
      assert (Verify.is_valid problem best)

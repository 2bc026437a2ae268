(* Testbed experiment embedding over GraphML and the wire protocol —
   the PlanetLab/Emulab scenario: "embedding a network experiment with
   specific resource constraints in a distributed testbed".

   This example exercises the interchange layer end to end:
   1. the requested experiment topology is written to GraphML and read
      back (what a user would upload);
   2. the request is serialized through the text wire protocol and
      decoded by the service side;
   3. an infeasible first attempt is negotiated via constraint
      relaxation until the testbed can satisfy it.

   Run with:  dune exec examples/testbed_slicing.exe *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Graphml = Netembed_graphml.Graphml
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Service = Netembed_service.Service
module Wire = Netembed_service.Wire
open Netembed_core

let edge_constraint = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

(* The experiment: a dumbbell — two 3-node LANs joined by one
   wide-area link, with deliberately tight delay requirements. *)
let experiment () =
  let g = Graph.create ~name:"dumbbell" () in
  let lan lo hi =
    let v = Array.init 3 (fun _ -> Graph.add_node g Attrs.empty) in
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        ignore
          (Graph.add_edge g v.(i) v.(j)
             (Attrs.of_list
                [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]))
      done
    done;
    v.(0)
  in
  let left = lan 1.0 40.0 and right = lan 1.0 40.0 in
  ignore
    (Graph.add_edge g left right
       (Attrs.of_list [ ("minDelay", Value.Float 60.0); ("maxDelay", Value.Float 80.0) ]));
  g

let () =
  let rng = Rng.make 11 in
  let service = Service.create (Model.create (Trace.generate rng Trace.default)) in

  (* 1. GraphML round trip, as a user upload would do. *)
  let path = Filename.temp_file "experiment" ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphml.write_file (experiment ()) path;
      let query = Graphml.read_file path in
      Format.printf "Experiment read back from %s: %a@." (Filename.basename path)
        Graph.pp_summary query;

      (* 2. Serialize through the wire protocol and decode service-side. *)
      let request =
        Request.make ~algorithm:Engine.ECF ~mode:Engine.First ~timeout:15.0 ~query
          edge_constraint
      in
      let frame = Wire.encode_command (Wire.Submit request) in
      Format.printf "Wire frame is %d bytes@." (String.length frame);
      let request =
        match Wire.decode_command frame with
        | Ok (Wire.Submit r) -> r
        | Ok _ -> failwith "not an EMBED frame"
        | Error e -> failwith e
      in

      (* 3. Submit with negotiation: relax by 20% per round if needed. *)
      match Service.submit_with_relaxation service request ~steps:4 ~factor:0.2 with
      | Error e -> failwith e
      | Ok (answer, rounds) -> (
          match answer.Service.result.Engine.mappings with
          | [] -> Format.printf "Testbed cannot host the experiment even relaxed.@."
          | m :: _ ->
              Format.printf "Slice found after %d relaxation round(s):@." rounds;
              List.iter
                (fun (q, site) ->
                  let name =
                    Option.value ~default:"?"
                      (Attrs.string "name"
                         (Graph.node_attrs (Model.snapshot (Service.model service)) site))
                  in
                  Format.printf "  vnode %d -> %s@." q name)
                (Mapping.to_list m);
              (* Echo the answer over the wire, as the server would. *)
              let reply = Wire.encode_answer answer in
              Format.printf "Reply frame:@.%s@." reply))

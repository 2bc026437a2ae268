(* A day in the life of the NETEMBED service (paper, Fig. 1): the
   monitoring feed refreshes the network model while applications
   arrive, get embedded, hold their slices for a while and leave.
   Demonstrates every service-layer component cooperating:

   - Model: the characterized hosting network and its capacity ledger;
   - Monitor: synthetic measurements drifting, nodes flapping;
   - Request/Service: queries with edge + node constraints, relaxation;
   - allocation/release: slices come and go as ledger charges, and
     later queries see only the capacity still free.

   Run with:  dune exec examples/service_simulation.exe *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Model = Netembed_service.Model
module Monitor = Netembed_service.Monitor
module Request = Netembed_service.Request
module Service = Netembed_service.Service
module Query_gen = Netembed_workload.Query_gen
open Netembed_core

let edge_constraint = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"
(* A query node demands the CPU and memory of the host it was sampled
   from; hosts carry their residual capacity, so this reads what is
   still free. *)
let node_constraint =
  "rSource.up && rSource.cpuMhz >= vSource.cpuMhz && rSource.memMB >= vSource.memMB"

type slice = { id : int; allocation : int; expires : int }

let () =
  let rng = Rng.make 20260705 in
  let model = Model.create (Trace.generate rng Trace.default) in
  let service = Service.create model in
  let monitor =
    Monitor.create
      ~params:{ Monitor.default with Monitor.flap_probability = 0.002 }
      (Rng.make 2) model
  in
  let host () = Model.snapshot model in
  Format.printf "t=0  model %a@." Graph.pp_summary (host ());

  let active : slice list ref = ref [] in
  let next_id = ref 0 in
  let accepted = ref 0 and rejected = ref 0 and relaxed = ref 0 in

  for t = 1 to 40 do
    Monitor.tick monitor;
    (* Expire slices whose lease ended. *)
    let expired, live = List.partition (fun s -> s.expires <= t) !active in
    List.iter
      (fun s ->
        if not (Service.free service s.allocation) then failwith "unknown allocation";
        Format.printf "t=%-2d slice %d released@." t s.id)
      expired;
    active := live;
    (* One application arrives every other tick. *)
    if t mod 2 = 0 then begin
      let n = 3 + Rng.int rng 5 in
      let case = Query_gen.subgraph rng ~host:(host ()) ~n ~widen:0.02 () in
      let request =
        Request.make ~node_constraint ~algorithm:Engine.LNS ~mode:Engine.First
          ~timeout:3.0 ~query:case.Query_gen.query edge_constraint
      in
      match Service.submit_with_relaxation service request ~steps:2 ~factor:0.25 with
      | Error e -> Format.printf "t=%-2d request error: %s@." t e
      | Ok (answer, rounds) -> (
          if rounds > 0 then incr relaxed;
          match answer.Service.result.Engine.mappings with
          | [] ->
              incr rejected;
              Format.printf "t=%-2d request (%d nodes) rejected (%s)@." t n
                (Engine.outcome_name answer.Service.result.Engine.outcome)
          | m :: _ -> (
              match Service.allocate_shared service answer m with
              | Error e -> Format.printf "t=%-2d allocation raced: %s@." t e
              | Ok allocation ->
                  incr accepted;
                  incr next_id;
                  let hold = 4 + Rng.int rng 10 in
                  active := { id = !next_id; allocation; expires = t + hold } :: !active;
                  Format.printf
                    "t=%-2d slice %d allocated: %d nodes for %d ticks%s@." t !next_id
                    n hold
                    (if rounds > 0 then
                       Printf.sprintf " (after %d relaxation rounds)" rounds
                     else "")))
    end
  done;

  Format.printf "@.summary: %d accepted (%d needed relaxation), %d rejected@."
    !accepted !relaxed !rejected;
  Format.printf "model revision %d after %d monitor rounds; %d node(s) down; %d allocation(s) still live@."
    (Model.revision model) (Monitor.ticks monitor)
    (List.length (Monitor.down_nodes monitor))
    (List.length (Service.allocation_ids service));
  (* Sanity: the ledger holds exactly the slices still active. *)
  assert (
    Service.allocation_ids service
    = List.sort compare (List.map (fun s -> s.allocation) !active))

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Service = Netembed_service.Service
module Wire = Netembed_service.Wire
module Health = Netembed_service.Health
module Engine = Netembed_core.Engine
module Mapping = Netembed_core.Mapping
module Rng = Netembed_rng.Rng

let check = Alcotest.check

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]
let band lo hi = Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

let host () =
  let g = Graph.create ~name:"host" () in
  let v = Array.init 5 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge g v.(1) v.(2) (delay 20.0));
  ignore (Graph.add_edge g v.(2) v.(3) (delay 10.0));
  ignore (Graph.add_edge g v.(3) v.(4) (delay 20.0));
  ignore (Graph.add_edge g v.(4) v.(0) (delay 30.0));
  g

let path_query lo hi =
  let g = Graph.create ~name:"q" () in
  let q0 = Graph.add_node g Attrs.empty and q1 = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g q0 q1 (band lo hi));
  g

let standard_constraint = "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_snapshot_isolated () =
  let g = host () in
  let m = Model.create g in
  (* Updating the model must not touch the caller's graph. *)
  Model.update_edge_attrs m 0 (delay 99.0);
  check (Alcotest.option (Alcotest.float 0.0)) "caller graph untouched" (Some 10.0)
    (Attrs.float "avgDelay" (Graph.edge_attrs g 0));
  check (Alcotest.option (Alcotest.float 0.0)) "model updated" (Some 99.0)
    (Attrs.float "avgDelay" (Graph.edge_attrs (Model.snapshot m) 0))

let test_model_revision () =
  let m = Model.create (host ()) in
  let r0 = Model.revision m in
  Model.update_node_attrs m 0 (Attrs.of_list [ ("load", Value.Float 0.5) ]);
  check Alcotest.bool "bumped" true (Model.revision m > r0);
  Model.reserve m [ 1; 2 ];
  check Alcotest.bool "bumped again" true (Model.revision m > r0 + 1)

let test_model_reserve () =
  let m = Model.create (host ()) in
  Model.reserve m [ 1; 3 ];
  check Alcotest.(list int) "reserved" [ 1; 3 ] (Model.reserved m);
  check Alcotest.bool "is_reserved" true (Model.is_reserved m 1);
  (match Model.reserve m [ 2; 1 ] with
  | exception Model.Conflict 1 -> ()
  | _ -> Alcotest.fail "expected Conflict 1");
  (* The failed call must not have reserved node 2. *)
  check Alcotest.bool "atomic failure" false (Model.is_reserved m 2);
  Model.release m [ 1 ];
  check Alcotest.(list int) "after release" [ 3 ] (Model.reserved m)

(* Regression: a node listed twice in one reserve call must raise
   Conflict and reserve nothing — previously the first occurrence was
   committed before the second was examined. *)
let test_model_reserve_duplicate () =
  let m = Model.create (host ()) in
  (match Model.reserve m [ 2; 2 ] with
  | exception Model.Conflict 2 -> ()
  | _ -> Alcotest.fail "expected Conflict 2");
  check Alcotest.(list int) "nothing reserved" [] (Model.reserved m);
  (* The duplicate may come after valid entries; those must not stick. *)
  (match Model.reserve m [ 0; 1; 0 ] with
  | exception Model.Conflict 0 -> ()
  | _ -> Alcotest.fail "expected Conflict 0");
  check Alcotest.(list int) "atomic failure" [] (Model.reserved m);
  let r0 = Model.revision m in
  check Alcotest.int "revision untouched by failed calls" r0 (Model.revision m)

let test_model_reserved_attr () =
  let m = Model.create (host ()) in
  check Alcotest.bool "reserved attr stamped false" true
    (Value.equal
       (Attrs.find_exn "reserved" (Graph.node_attrs (Model.snapshot m) 0))
       (Value.Bool false));
  Model.reserve m [ 0 ];
  check Alcotest.bool "reserved attr true" true
    (Value.equal
       (Attrs.find_exn "reserved" (Graph.node_attrs (Model.snapshot m) 0))
       (Value.Bool true))

(* ------------------------------------------------------------------ *)
(* Service                                                             *)
(* ------------------------------------------------------------------ *)

let test_submit_end_to_end () =
  let svc = Service.create (Model.create (host ())) in
  let request = Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint in
  match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok answer ->
      let r = answer.Service.result in
      check Alcotest.bool "complete" true (r.Engine.outcome = Engine.Complete);
      (* Host edges with delay in [5,15]: 0-1 (10) and 2-3 (10), both
         orientations each. *)
      check Alcotest.int "four mappings" 4 (List.length r.Engine.mappings)

let test_submit_bad_constraint () =
  let svc = Service.create (Model.create (host ())) in
  let request = Request.make ~query:(path_query 5.0 15.0) "vEdge.>>>" in
  match Service.submit svc request with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected constraint parse error"

let test_reservation_excludes () =
  let model = Model.create (host ()) in
  let svc = Service.create model in
  (* Reserve hosts 0 and 1: the only remaining in-band edge is 2-3. *)
  Model.reserve model [ 0; 1 ];
  let request = Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint in
  match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok answer ->
      check Alcotest.int "two mappings left" 2
        (List.length answer.Service.result.Engine.mappings);
      List.iter
        (fun m ->
          List.iter
            (fun (_, r) ->
              if r = 0 || r = 1 then Alcotest.fail "reserved host used")
            (Mapping.to_list m))
        answer.Service.result.Engine.mappings

let test_allocate_and_conflict () =
  let model = Model.create (host ()) in
  let svc = Service.create model in
  let request = Request.make ~query:(path_query 5.0 15.0) standard_constraint in
  match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok answer -> (
      match answer.Service.result.Engine.mappings with
      | [] -> Alcotest.fail "expected a mapping"
      | m :: _ -> (
          (match Service.allocate svc answer m with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          check Alcotest.int "hosts reserved" 2 (List.length (Model.reserved model));
          (* Re-allocating from the now-stale answer must fail. *)
          match Service.allocate svc answer m with
          | Error _ -> Service.release_mapping svc m
          | Ok () -> Alcotest.fail "expected stale-revision failure"))

(* An answer must carry the revision of the residual snapshot it was
   computed against, or [allocate] would accept a mapping the current
   model no longer admits.  One domain submits in a loop while another,
   under the model lock, moves every host link's delay outside the
   query band and back.  At an out-of-band revision no mapping exists,
   so an answer stamped with one must carry none — and an answer stamped
   with an in-band revision must carry one. *)
let test_answer_stamped_with_snapshot_revision () =
  let model = Model.create (host ()) in
  let svc = Service.create model in
  let original =
    let g = Model.snapshot model in
    Array.init (Graph.edge_count g) (Graph.edge_attrs g)
  in
  let request = Request.make ~query:(path_query 5.0 15.0) standard_constraint in
  let set_links attrs_of =
    Service.exclusively svc (fun () ->
        Array.iteri (fun e _ -> Model.update_edge_attrs model e (attrs_of e)) original;
        Model.revision model)
  in
  let cycles = 30 in
  let answers = Atomic.make 0 and stop = Atomic.make false in
  (* Let at least two more answers complete: the second one's snapshot
     postdates the last change. *)
  let await_answers () =
    let target = Atomic.get answers + 2 in
    while Atomic.get answers < target do
      Domain.cpu_relax ()
    done
  in
  let flipper () =
    let out_of_band =
      List.init cycles (fun _ ->
          await_answers ();
          let bad = set_links (fun _ -> delay 999.0) in
          await_answers ();
          ignore (set_links (fun e -> original.(e)));
          bad)
    in
    Atomic.set stop true;
    out_of_band
  in
  let submitter () =
    let rec go acc =
      if Atomic.get stop then acc
      else
        (* Errors are counted as answers too, so the flipper never
           waits on a submitter that has stopped producing them. *)
        let stamp =
          match Service.submit svc request with
          | Error m -> Error m
          | Ok a -> Ok (a.Service.model_revision, a.Service.result.Engine.mappings <> [])
        in
        Atomic.incr answers;
        go (stamp :: acc)
    in
    go []
  in
  let d = Domain.spawn flipper in
  let results = submitter () in
  let out_of_band = Domain.join d in
  let stamps = List.map (function Ok s -> s | Error m -> Alcotest.fail m) results in
  List.iter
    (fun (revision, mapped) ->
      let feasible = not (List.mem revision out_of_band) in
      if mapped <> feasible then
        Alcotest.failf "answer stamped at revision %d %s a mapping" revision
          (if mapped then "carries" else "lacks"))
    stamps;
  check Alcotest.bool "answers stamped at every out-of-band revision" true
    (List.for_all (fun r -> List.mem_assoc r stamps) out_of_band)

let test_relaxation () =
  let svc = Service.create (Model.create (host ())) in
  (* Band [1,2] matches nothing; three 20% relaxations widen it
     enough to catch the 10 ms links? 2 * 1.2^k >= 10 needs k ~ 9, so
     use a band that needs exactly two rounds: [5,7] -> 7*1.44 > 10. *)
  let request =
    Request.make ~mode:Engine.First ~query:(path_query 5.0 7.5) standard_constraint
  in
  match Service.submit_with_relaxation svc request ~steps:3 ~factor:0.2 with
  | Error m -> Alcotest.fail m
  | Ok (answer, rounds) ->
      check Alcotest.bool "found after relaxing" true
        (answer.Service.result.Engine.mappings <> []);
      check Alcotest.bool "took at least one round" true (rounds >= 1)

let test_request_relax () =
  let r = Request.make ~query:(path_query 10.0 20.0) standard_constraint in
  let r' = Request.relax r 0.5 in
  let attrs = Graph.edge_attrs r'.Request.query 0 in
  check (Alcotest.option (Alcotest.float 1e-9)) "min widened" (Some 5.0)
    (Attrs.float "minDelay" attrs);
  check (Alcotest.option (Alcotest.float 1e-9)) "max widened" (Some 30.0)
    (Attrs.float "maxDelay" attrs);
  (* Original untouched. *)
  check (Alcotest.option (Alcotest.float 1e-9)) "original" (Some 10.0)
    (Attrs.float "minDelay" (Graph.edge_attrs r.Request.query 0))

let test_constraint_file () =
  let path = Filename.temp_file "netembed" ".constraint" in
  let qpath = Filename.temp_file "netembed" ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove qpath)
    (fun () ->
      let oc = open_out path in
      output_string oc "# delay band\nrEdge.avgDelay >= vEdge.minDelay\nrEdge.avgDelay <= vEdge.maxDelay\n";
      close_out oc;
      Netembed_graphml.Graphml.write_file (path_query 5.0 15.0) qpath;
      let r = Request.of_files ~query_file:qpath ~constraint_file:path () in
      match Request.parse_constraints r with
      | Ok (_, None) -> ()
      | Ok (_, Some _) -> Alcotest.fail "unexpected node constraint"
      | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_wire_request_roundtrip () =
  let request =
    Request.make ~algorithm:Engine.LNS ~mode:(Engine.At_most 7) ~timeout:2.5
      ~query:(path_query 5.0 15.0) standard_constraint
  in
  match Wire.decode_request (Wire.encode_request request) with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check Alcotest.bool "alg" true (r.Request.algorithm = Engine.LNS);
      check Alcotest.bool "mode" true (r.Request.mode = Engine.At_most 7);
      check (Alcotest.option (Alcotest.float 1e-9)) "timeout" (Some 2.5) r.Request.timeout;
      check Alcotest.int "query nodes" 2 (Graph.node_count r.Request.query);
      check Alcotest.string "constraint" standard_constraint r.Request.constraint_text

let test_wire_answer_roundtrip () =
  let svc = Service.create (Model.create (host ())) in
  let request = Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint in
  match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok answer -> (
      match Wire.decode_answer (Wire.encode_answer answer) with
      | Error m -> Alcotest.fail m
      | Ok decoded ->
          check Alcotest.bool "outcome" true (decoded.Wire.outcome = Engine.Complete);
          check Alcotest.int "mapping count" 4 (List.length decoded.Wire.mappings);
          check Alcotest.int "pairs per mapping" 2
            (List.length (List.hd decoded.Wire.mappings)))

let test_wire_errors () =
  (match Wire.decode_request "NOPE" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected decode failure");
  (match Wire.decode_request "EMBED alg=XYZ\nCONSTRAINT true\nGRAPHML\n<graphml/>" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown algorithm");
  (match Wire.decode_answer (Wire.encode_error "boom") with
  | Error "boom" -> ()
  | Error m -> Alcotest.failf "wrong message %S" m
  | Ok _ -> Alcotest.fail "expected error answer")

(* ------------------------------------------------------------------ *)
(* Fractional allocations through the service                          *)
(* ------------------------------------------------------------------ *)

let capacitated_host () =
  let g = Graph.create ~name:"cap-host" () in
  let node =
    Attrs.of_list [ ("cpuMhz", Value.Int 1000); ("memMB", Value.Int 1024) ]
  in
  let edge d =
    Attrs.of_list [ ("avgDelay", Value.Float d); ("bandwidth", Value.Float 100.0) ]
  in
  let v = Array.init 4 (fun _ -> Graph.add_node g node) in
  ignore (Graph.add_edge g v.(0) v.(1) (edge 10.0));
  ignore (Graph.add_edge g v.(1) v.(2) (edge 10.0));
  ignore (Graph.add_edge g v.(2) v.(3) (edge 10.0));
  ignore (Graph.add_edge g v.(3) v.(0) (edge 10.0));
  g

let demanding_query ~cpu ~bw =
  let g = Graph.create ~name:"q" () in
  let node = Attrs.of_list [ ("cpuMhz", Value.Int cpu) ] in
  let q0 = Graph.add_node g node and q1 = Graph.add_node g node in
  ignore
    (Graph.add_edge g q0 q1
       (Attrs.of_list
          [
            ("minDelay", Value.Float 5.0);
            ("maxDelay", Value.Float 15.0);
            ("bandwidth", Value.Float bw);
          ]));
  g

let shared_constraint =
  "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay \
   && rEdge.bandwidth >= vEdge.bandwidth"

let shared_node_constraint = "rSource.cpuMhz >= vSource.cpuMhz"

let test_allocate_shared_lifecycle () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let model = Model.create (capacitated_host ()) in
  let svc = Service.create ~registry model in
  let request =
    Request.make ~node_constraint:shared_node_constraint
      ~query:(demanding_query ~cpu:400 ~bw:60.0) shared_constraint
  in
  let submit_and_charge () =
    match Service.submit svc request with
    | Error m -> Alcotest.fail m
    | Ok answer -> (
        match answer.Service.result.Engine.mappings with
        | [] -> Alcotest.fail "expected a mapping"
        | m :: _ -> (answer, m, Service.allocate_shared svc answer m))
  in
  (* First tenant commits. *)
  let _, m1, r1 = submit_and_charge () in
  let id1 = match r1 with Ok id -> id | Error e -> Alcotest.fail e in
  check Alcotest.bool "cpu used recorded" true
    (List.exists
       (fun (r, k, used, _) -> r = "cpuMhz" && k = `Node && used = 800.0)
       (Service.utilization svc));
  (* Its hosts are still available to a second tenant (400+400 <= 1000),
     but the bandwidth demand (60+60 > 100) pushes tenant 2 off the
     first tenant's edge: residual pruning, not rejection. *)
  let a2, m2, r2 = submit_and_charge () in
  (match r2 with Ok _ -> () | Error e -> Alcotest.fail e);
  let edge_of m =
    match List.map snd (Mapping.to_list m) with
    | [ a; b ] -> if a < b then (a, b) else (b, a)
    | _ -> Alcotest.fail "two-node mapping expected"
  in
  check Alcotest.bool "second tenant avoids saturated edge" true
    (edge_of m1 <> edge_of m2);
  (* A stale answer must not charge: committing tenant 2 bumped the
     revision, so tenant 2's own answer is already out of date. *)
  (match Service.allocate_shared svc a2 m2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected stale-revision failure");
  (* Freeing tenant 1 restores its capacity exactly. *)
  check Alcotest.bool "free known id" true (Service.free svc id1);
  check Alcotest.bool "free unknown id" false (Service.free svc id1);
  let cpu_used =
    List.find_map
      (fun (r, k, used, _) ->
        if r = "cpuMhz" && k = `Node then Some used else None)
      (Service.utilization svc)
  in
  check (Alcotest.option (Alcotest.float 0.0)) "only tenant 2 remains"
    (Some 800.0) cpu_used

(* A migration is a move, not an admission: the allocation/active
   counters must not change on success, and a failed migration must
   leave the victim allocation intact under its original id with no
   partial charges leaked. *)
let test_migrate_atomic () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let module Ledger = Netembed_ledger.Ledger in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (capacitated_host ())) in
  let counter name =
    Telemetry.Counter.value (Telemetry.Registry.counter registry name)
  in
  let active () =
    Telemetry.Gauge.value
      (Telemetry.Registry.gauge registry "netembed_active_allocations")
  in
  let query = demanding_query ~cpu:400 ~bw:60.0 in
  let request =
    Request.make ~node_constraint:shared_node_constraint
      ~mode:(Engine.At_most 8) ~query shared_constraint
  in
  let answer =
    match Service.submit svc request with
    | Ok a -> a
    | Error m -> Alcotest.fail m
  in
  let m1, m2 =
    match answer.Service.result.Engine.mappings with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "expected at least two candidate mappings"
  in
  let id =
    match Service.allocate_shared svc answer m1 with
    | Ok id -> id
    | Error m -> Alcotest.fail m
  in
  check Alcotest.int "one admission" 1 (counter "netembed_allocations_total");
  check (Alcotest.float 0.0) "one active" 1.0 (active ());
  let charge_before = Service.allocation_charge svc id in
  check Alcotest.bool "charge introspectable" true (charge_before <> None);
  (* Success: new id, same counters, charge follows the new mapping. *)
  let id' =
    match Service.migrate svc id ~query m2 with
    | Ok id' -> id'
    | Error m -> Alcotest.fail m
  in
  check Alcotest.(list int) "old handle retired" [ id' ]
    (Service.allocation_ids svc);
  check Alcotest.int "no new admission" 1 (counter "netembed_allocations_total");
  check (Alcotest.float 0.0) "still one active" 1.0 (active ());
  check Alcotest.int "migration counted" 1 (counter "netembed_migrations_total");
  (* Failure: an impossible re-embed rolls back inside the ledger. *)
  let impossible = demanding_query ~cpu:1_000_000 ~bw:60.0 in
  let kept = Service.allocation_charge svc id' in
  (match Service.migrate svc id' ~query:impossible m1 with
  | Ok _ -> Alcotest.fail "expected over-commit"
  | Error m ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "names cpu" true (contains m "cpuMhz"));
  check Alcotest.int "failure counted" 1
    (counter "netembed_migration_failures_total");
  check Alcotest.(list int) "victim intact" [ id' ] (Service.allocation_ids svc);
  check Alcotest.bool "victim charge untouched" true
    (Service.allocation_charge svc id' = kept);
  check (Alcotest.float 0.0) "active unchanged" 1.0 (active ());
  check Alcotest.bool "no partial charge leaked" true
    (List.for_all
       (fun (r, _, used, _) -> r <> "cpuMhz" || used = 800.0)
       (Service.utilization svc));
  (* Drain: everything restores. *)
  check Alcotest.bool "free" true (Service.free svc id');
  check (Alcotest.float 0.0) "none active" 0.0 (active ());
  check Alcotest.bool "usage zero" true
    (List.for_all (fun (_, _, used, _) -> used = 0.0) (Service.utilization svc));
  check Alcotest.int "ledger drained" 0
    (Ledger.outstanding (Model.ledger (Service.model svc)))

let test_admission_rejection () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (capacitated_host ())) in
  (* Aggregate demand 2 * 2500 = 5000 > total 4000 cpuMhz: rejected
     before the search, naming the resource. *)
  let request =
    Request.make ~query:(demanding_query ~cpu:2500 ~bw:1.0) shared_constraint
  in
  (match Service.submit svc request with
  | Error m ->
      check Alcotest.bool "names the resource" true
        (String.length m >= 10 && String.sub m 0 10 = "admission:")
  | Ok _ -> Alcotest.fail "expected admission rejection");
  check Alcotest.int "admission counter" 1
    (Telemetry.Counter.value
       (Telemetry.Registry.counter registry "netembed_admission_rejects_total"))

let test_wire_commands () =
  let request =
    Request.make ~algorithm:Engine.RWB ~query:(path_query 5.0 15.0)
      standard_constraint
  in
  (match Wire.decode_command (Wire.encode_command (Wire.Allocate request)) with
  | Ok (Wire.Allocate r) ->
      check Alcotest.bool "alg" true (r.Request.algorithm = Engine.RWB);
      check Alcotest.int "query nodes" 2 (Graph.node_count r.Request.query)
  | Ok _ -> Alcotest.fail "wrong command"
  | Error m -> Alcotest.fail m);
  (match Wire.decode_command (Wire.encode_command (Wire.Submit request)) with
  | Ok (Wire.Submit _) -> ()
  | _ -> Alcotest.fail "EMBED should decode as Submit");
  (match Wire.decode_command "FREE 42\n.\n" with
  | Ok (Wire.Free 42) -> ()
  | _ -> Alcotest.fail "FREE 42");
  (match Wire.decode_command "FREE 0\n.\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "allocation ids are positive");
  (match Wire.decode_command "UTIL\n.\n" with
  | Ok Wire.Utilization -> ()
  | _ -> Alcotest.fail "UTIL");
  (* The ALLOC response carries the allocation id through the OK header. *)
  (match
     Wire.decode_answer "OK outcome=complete count=1 elapsed=1.0 allocation=7\nMAPPING q0->r1 q1->r2\n.\n"
   with
  | Ok d ->
      check Alcotest.(option int) "allocation id" (Some 7) d.Wire.allocation;
      check Alcotest.int "mapping" 1 (List.length d.Wire.mappings)
  | Error m -> Alcotest.fail m);
  (* Utilization rows round-trip. *)
  let rows = [ ("cpuMhz", `Node, 1500.0, 6000.0); ("bandwidth", `Edge, 0.0, 400.0) ] in
  match Wire.decode_utilization (Wire.encode_utilization rows) with
  | Error m -> Alcotest.fail m
  | Ok decoded ->
      check Alcotest.int "two rows" 2 (List.length decoded);
      let r0 = List.hd decoded in
      check Alcotest.string "resource" "cpuMhz" r0.Wire.resource;
      check Alcotest.bool "kind" true (r0.Wire.kind = `Node);
      check (Alcotest.float 1e-9) "used" 1500.0 r0.Wire.used;
      check (Alcotest.float 1e-9) "capacity" 6000.0 r0.Wire.capacity

module Monitor = Netembed_service.Monitor

let test_monitor_updates () =
  let model = Model.create (host ()) in
  let before = Model.revision model in
  let mon =
    Monitor.create
      ~params:{ Monitor.default with Monitor.sample_fraction = 1.0; flap_probability = 0.0 }
      (Rng.make 5) model
  in
  Monitor.tick mon;
  check Alcotest.int "one tick" 1 (Monitor.ticks mon);
  check Alcotest.bool "revision bumped" true (Model.revision model > before);
  (* Delay invariants survive remeasurement. *)
  let g = Model.snapshot model in
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs g e in
      let mn = Option.get (Attrs.float "minDelay" a) in
      let avg = Option.get (Attrs.float "avgDelay" a) in
      let mx = Option.get (Attrs.float "maxDelay" a) in
      if not (0.0 < mn && mn <= avg && avg <= mx) then
        Alcotest.failf "band violated after remeasure: %g %g %g" mn avg mx)
    g

let test_monitor_flaps_and_guard () =
  let model = Model.create (host ()) in
  let mon =
    Monitor.create
      ~params:{ Monitor.default with Monitor.flap_probability = 0.8; sample_fraction = 0.0 }
      (Rng.make 6) model
  in
  Monitor.tick mon;
  let down = Monitor.down_nodes mon in
  check Alcotest.bool "some nodes flapped down" true (down <> []);
  (* The liveness guard excludes them from embeddings. *)
  let p =
    Netembed_core.Problem.make ~node_constraint:Monitor.liveness_guard
      ~host:(Model.snapshot model) ~query:(path_query 5.0 500.0)
      (Netembed_expr.Expr.parse_exn standard_constraint)
  in
  List.iter
    (fun v ->
      if Netembed_core.Problem.node_ok p ~q:0 ~r:v then
        Alcotest.failf "down node %d still eligible" v)
    down;
  (* Flapping is reversible: more ticks can bring nodes back. *)
  for _ = 1 to 20 do Monitor.tick mon done;
  check Alcotest.bool "liveness tracked" true (List.length (Monitor.down_nodes mon) <= 5)

(* Negotiation under a flapping monitor: the relaxation-round counter
   in the service's registry must equal the rounds the answer reports,
   the model_revision of the answer (and the exported gauge) must match
   the model after the monitoring history, and replaying the identical
   history must reproduce all of it. *)
let test_relaxation_under_monitor_flaps () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let run_history () =
    let registry = Telemetry.Registry.create () in
    let model = Model.create (host ()) in
    let svc = Service.create ~registry model in
    let mon =
      Monitor.create
        ~params:
          { Monitor.default with Monitor.flap_probability = 0.3; sample_fraction = 1.0 }
        (Rng.make 11) model
    in
    for _ = 1 to 7 do Monitor.tick mon done;
    let request =
      Request.make ~mode:Engine.First ~node_constraint:"rSource.up"
        ~query:(path_query 5.0 7.5) standard_constraint
    in
    match Service.submit_with_relaxation svc request ~steps:6 ~factor:0.2 with
    | Error m -> Alcotest.fail m
    | Ok (answer, rounds) ->
        let counter_rounds =
          Telemetry.Counter.value
            (Telemetry.Registry.counter registry "netembed_relaxation_rounds_total")
        in
        check Alcotest.int "rounds counter matches answer" rounds counter_rounds;
        check Alcotest.int "revision matches live model" (Model.revision model)
          answer.Service.model_revision;
        check (Alcotest.float 0.0) "gauge tracks revision"
          (float_of_int answer.Service.model_revision)
          (Telemetry.Gauge.value
             (Telemetry.Registry.gauge registry "netembed_model_revision"));
        (* Every submit (initial + one per relaxation round) was latency-
           timed. *)
        check Alcotest.int "latency histogram counts submits" (rounds + 1)
          (Telemetry.Histogram.count
             (Telemetry.Registry.histogram registry "netembed_request_latency_us"));
        ( rounds,
          answer.Service.model_revision,
          List.length answer.Service.result.Engine.mappings,
          Monitor.down_nodes mon )
  in
  let a = run_history () in
  let b = run_history () in
  check Alcotest.bool "replayed history reproduces the negotiation" true (a = b)

let test_monitor_determinism () =
  let run seed =
    let model = Model.create (host ()) in
    let mon = Monitor.create (Rng.make seed) model in
    for _ = 1 to 10 do Monitor.tick mon done;
    (Model.revision model, Monitor.down_nodes mon)
  in
  check Alcotest.bool "same seed, same history" true (run 3 = run 3)

(* ------------------------------------------------------------------ *)
(* Cross-request filter cache                                          *)
(* ------------------------------------------------------------------ *)

module Filter_cache = Netembed_service.Filter_cache
module Problem = Netembed_core.Problem

let add_built cache ~revision ~signature query =
  let p =
    Problem.make ~host:(host ()) ~query
      (Netembed_expr.Expr.parse_exn standard_constraint)
  in
  Filter_cache.add cache ~revision ~signature
    ~compiled:(Problem.compiled_residuals p)
    (Netembed_core.Filter.build p)

let sig_of ?node_constraint_text lo hi =
  Filter_cache.signature ~query:(path_query lo hi)
    ~constraint_text:standard_constraint ~node_constraint_text

let test_filter_cache_lru () =
  let cache = Filter_cache.create ~capacity:2 () in
  let s1 = sig_of 5.0 15.0 and s2 = sig_of 5.0 25.0 and s3 = sig_of 15.0 25.0 in
  check Alcotest.bool "distinct signatures" true (s1 <> s2 && s2 <> s3 && s1 <> s3);
  check Alcotest.bool "miss on empty" true
    (Filter_cache.find cache ~revision:1 ~signature:s1 = None);
  add_built cache ~revision:1 ~signature:s1 (path_query 5.0 15.0);
  add_built cache ~revision:1 ~signature:s2 (path_query 5.0 25.0);
  check Alcotest.int "two entries" 2 (Filter_cache.length cache);
  check Alcotest.bool "hit refreshes recency" true
    (Filter_cache.find cache ~revision:1 ~signature:s1 <> None);
  (* s1 was just touched, so inserting s3 at capacity evicts s2. *)
  add_built cache ~revision:1 ~signature:s3 (path_query 15.0 25.0);
  check Alcotest.int "one eviction" 1 (Filter_cache.evictions cache);
  check Alcotest.bool "LRU entry gone" true
    (Filter_cache.find cache ~revision:1 ~signature:s2 = None);
  check Alcotest.bool "recent entry survives" true
    (Filter_cache.find cache ~revision:1 ~signature:s1 <> None);
  check Alcotest.bool "other revision misses" true
    (Filter_cache.find cache ~revision:2 ~signature:s1 = None)

let test_filter_cache_invalidation () =
  let cache = Filter_cache.create () in
  let s = sig_of 5.0 15.0 in
  add_built cache ~revision:3 ~signature:s (path_query 5.0 15.0);
  (* Same revision: nothing to drop. *)
  Filter_cache.invalidate cache ~current_revision:3;
  check Alcotest.int "kept at same revision" 1 (Filter_cache.length cache);
  Filter_cache.invalidate cache ~current_revision:4;
  check Alcotest.int "dropped on revision bump" 0 (Filter_cache.length cache);
  check Alcotest.int "counted as invalidation" 1 (Filter_cache.invalidations cache);
  check Alcotest.int "not as eviction" 0 (Filter_cache.evictions cache)

let test_filter_cache_signature_sensitivity () =
  check Alcotest.string "deterministic" (sig_of 5.0 15.0) (sig_of 5.0 15.0);
  check Alcotest.bool "band change changes signature" true
    (sig_of 5.0 15.0 <> sig_of 5.0 15.5);
  check Alcotest.bool "node constraint in signature" true
    (sig_of 5.0 15.0 <> sig_of ~node_constraint_text:"rSource.up" 5.0 15.0);
  check Alcotest.bool "constraint text in signature" true
    (Filter_cache.signature ~query:(path_query 5.0 15.0) ~constraint_text:"true"
       ~node_constraint_text:None
    <> sig_of 5.0 15.0)

(* The id and trace id are fresh per request and elapsed/phases are
   wall-clock; everything else about a warm answer must match the cold
   one byte for byte. *)
let normalize_answer s =
  match String.split_on_char '\n' s with
  | header :: rest ->
      let has_prefix p tok =
        String.length tok >= String.length p
        && String.sub tok 0 (String.length p) = p
      in
      let keep tok =
        not
          (has_prefix "id=" tok || has_prefix "elapsed=" tok
          || has_prefix "trace=" tok || has_prefix "phases=" tok)
      in
      let header = String.concat " " (List.filter keep (String.split_on_char ' ' header)) in
      String.concat "\n" (header :: rest)
  | [] -> s

let test_service_cache_warm_vs_cold () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (host ())) in
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  let submit () =
    match Service.submit svc request with Ok a -> a | Error m -> Alcotest.fail m
  in
  let value name =
    Telemetry.Counter.value (Telemetry.Registry.counter registry name)
  in
  let cold = submit () in
  check Alcotest.int "cold run misses" 1 (value "netembed_filter_cache_misses_total");
  check Alcotest.int "cold run cannot hit" 0 (value "netembed_filter_cache_hits_total");
  (* The cache entry carries the specialized-residual table: a warm
     submit must not specialize anything, so the global
     netembed_expr_compiles_total counter stays flat across it. *)
  let compiles_before_warm = Problem.specializations_total () in
  let warm = submit () in
  check Alcotest.int "warm run hits" 1 (value "netembed_filter_cache_hits_total");
  check Alcotest.int "warm run skips the build" 1
    (value "netembed_filter_cache_misses_total");
  check Alcotest.int "warm run skips compilation" compiles_before_warm
    (Problem.specializations_total ());
  check Alcotest.string "byte-identical modulo id/elapsed"
    (normalize_answer (Wire.encode_answer cold))
    (normalize_answer (Wire.encode_answer warm))

let test_service_cache_revision_invalidation () =
  let model = Model.create (host ()) in
  let svc = Service.create model in
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  let submit () =
    match Service.submit svc request with Ok a -> a | Error m -> Alcotest.fail m
  in
  ignore (submit ());
  ignore (submit ());
  let cache = Service.filter_cache svc in
  check Alcotest.int "entry cached" 1 (Filter_cache.length cache);
  (* The model moved on: the cached filter may describe edges that no
     longer exist, so the next submit must rebuild. *)
  Model.update_edge_attrs model 0 (delay 99.0);
  let fresh = submit () in
  check Alcotest.bool "stale entry invalidated" true
    (Filter_cache.invalidations cache >= 1);
  (* Edge 0-1 left the band, so only 2-3 remains (both orientations). *)
  check Alcotest.int "answer reflects new model" 2
    (List.length fresh.Service.result.Engine.mappings)

(* LNS mutates per-iteration state that a shared filter would leak
   across requests; the service must bypass the cache for it. *)
let test_service_cache_skips_lns () =
  let svc = Service.create (Model.create (host ())) in
  let request =
    Request.make ~algorithm:Engine.LNS ~query:(path_query 5.0 15.0)
      standard_constraint
  in
  (match Service.submit svc request with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "nothing cached for LNS" 0
    (Filter_cache.length (Service.filter_cache svc))

(* Multi-domain service: the work-stealing path must return the same
   mapping set as the sequential path, report through the same answer
   shape, and share the filter cache. *)
let test_service_parallel_path () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let par = Service.create ~registry ~domains:3 (Model.create (host ())) in
  let seq = Service.create (Model.create (host ())) in
  check Alcotest.int "domains recorded" 3 (Service.domains par);
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  let mappings svc =
    match Service.submit svc request with
    | Error m -> Alcotest.fail m
    | Ok a -> List.sort_uniq Mapping.compare a.Service.result.Engine.mappings
  in
  let mp = mappings par and ms = mappings seq in
  check Alcotest.int "same count" (List.length ms) (List.length mp);
  check Alcotest.bool "same set" true (List.for_all2 Mapping.equal ms mp);
  (* Second submit on the parallel service hits the shared cache. *)
  ignore (mappings par);
  check Alcotest.int "parallel path hits cache" 1
    (Telemetry.Counter.value
       (Telemetry.Registry.counter registry "netembed_filter_cache_hits_total"));
  (* The steal counter is pre-registered so scrapes always see the series. *)
  let exposition = Telemetry.Registry.to_prometheus registry in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "steals series exposed" true
    (contains exposition "netembed_steals_total")

(* ------------------------------------------------------------------ *)
(* Request tracing, phase decomposition and TOP                        *)
(* ------------------------------------------------------------------ *)

let test_tracing_and_phases () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let svc =
    Service.create
      ~registry:(Telemetry.Registry.create ())
      (Model.create (host ()))
  in
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  (* Untraced submit: a trace id is still allocated (it keys EXPLAIN
     exemplars) but no span buffer is built. *)
  (match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok a ->
      check Alcotest.bool "trace id allocated" true (a.Service.trace_id > 0);
      check Alcotest.bool "no buffer unless asked" true (a.Service.trace = None);
      let phases = a.Service.result.Engine.telemetry.Telemetry.phases in
      check Alcotest.int "one cell per phase" Telemetry.Phase.count
        (Array.length phases);
      check Alcotest.bool "some phase time recorded" true
        (Array.exists (fun v -> v > 0.0) phases));
  (* Traced submit: the buffer carries the outer request span plus the
     engine's phase spans, and the wire header carries trace and
     phases tokens that decode back. *)
  match Service.submit ~trace:true svc request with
  | Error m -> Alcotest.fail m
  | Ok a -> (
      let buf =
        match a.Service.trace with
        | Some b -> b
        | None -> Alcotest.fail "traced submit returned no buffer"
      in
      let names = ref [] in
      Netembed_telemetry.Telemetry.Trace.iter
        (fun ~name ~tid:_ ~start_us:_ ~dur_us:_ -> names := name :: !names)
        buf;
      check Alcotest.bool "request span present" true (List.mem "request" !names);
      check Alcotest.bool "search span present" true (List.mem "search" !names);
      (match Wire.decode_answer (Wire.encode_answer a) with
      | Error m -> Alcotest.fail m
      | Ok d ->
          check (Alcotest.option Alcotest.int) "trace id on the wire"
            (Some a.Service.trace_id) d.Wire.trace_id;
          check Alcotest.bool "phases on the wire" true (d.Wire.phases_ms <> []));
      (* Spans and phase cells come off one clock: on a cold cache the
         compile / filter_build / search spans each last exactly their
         cell's seconds x 1e6, sequentially and on the work-stealing
         path alike. *)
      List.iter
        (fun domains ->
          let svc =
            Service.create ~domains
              ~registry:(Telemetry.Registry.create ())
              (Model.create (host ()))
          in
          match Service.submit ~trace:true svc request with
          | Error m -> Alcotest.fail m
          | Ok a ->
              let buf = Option.get a.Service.trace in
              let phases = a.Service.result.Engine.telemetry.Telemetry.phases in
              List.iter
                (fun phase ->
                  let name = Telemetry.Phase.name phase in
                  let durs = ref [] in
                  Telemetry.Trace.iter
                    (fun ~name:n ~tid:_ ~start_us:_ ~dur_us ->
                      if n = name then durs := dur_us :: !durs)
                    buf;
                  let label = Printf.sprintf "domains=%d %s" domains name in
                  match !durs with
                  | [ dur_us ] ->
                      check (Alcotest.float 1e-6) (label ^ " span = cell x 1e6")
                        (phases.(Telemetry.Phase.index phase) *. 1e6)
                        dur_us
                  | l -> Alcotest.failf "%s: %d spans, expected 1" label (List.length l))
                Telemetry.Phase.[ Compile; Filter_build; Search ])
        [ 1; 2 ])

let test_top_report_and_wire () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  (* slow_threshold 0 retains every request, so worst is populated. *)
  let svc =
    Service.create
      ~registry:(Telemetry.Registry.create ())
      ~slow_threshold:0.0
      (Model.create (host ()))
  in
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  for _ = 1 to 3 do
    match Service.submit svc request with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m
  done;
  let report = Service.top ~worst:2 svc in
  check Alcotest.int "one stat per phase" Telemetry.Phase.count
    (List.length report.Service.busiest);
  check Alcotest.int "worst capped" 2 (List.length report.Service.worst);
  (match report.Service.busiest with
  | first :: rest ->
      check Alcotest.bool "sorted busiest first" true
        (List.for_all (fun (s : Service.phase_stat) -> s.Service.total_s <= first.Service.total_s) rest);
      check Alcotest.bool "some phase accumulated time" true
        (first.Service.total_s > 0.0)
  | [] -> Alcotest.fail "empty report");
  (* TOP is a first-class wire verb. *)
  (match Wire.decode_command (Wire.encode_command Wire.Top) with
  | Ok Wire.Top -> ()
  | Ok _ -> Alcotest.fail "TOP decoded as another command"
  | Error m -> Alcotest.fail m);
  let encoded = Wire.encode_top report in
  let contains needle =
    let nl = String.length needle and hl = String.length encoded in
    let rec go i = i + nl <= hl && (String.sub encoded i nl = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "phase rows" true (contains "PHASE name=search");
  check Alcotest.bool "slow rows" true (contains "SLOW id=");
  check Alcotest.bool "window advertised" true (contains "window=60")

(* A request whose wall-clock sits under the absolute slow threshold
   must still be retained when its search phase dominates. *)
let test_slow_search_flag () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let svc =
    Service.create
      ~registry:(Telemetry.Registry.create ())
      ~slow_threshold:1e-6 ~slow_search_share:0.0
      (Model.create (host ()))
  in
  let request =
    Request.make ~mode:Engine.All ~query:(path_query 5.0 15.0) standard_constraint
  in
  match Service.submit svc request with
  | Error m -> Alcotest.fail m
  | Ok a -> (
      match Service.explain svc a.Service.id with
      | None -> Alcotest.fail "search-dominated request not retained"
      | Some e ->
          check Alcotest.bool "flagged slow_search" true e.Service.slow_search;
          check Alcotest.int "entry carries the trace id" a.Service.trace_id
            e.Service.trace_id;
          check Alcotest.bool "entry carries the phase breakdown" true
            (Array.exists (fun v -> v > 0.0) e.Service.phases))

(* Oversized frames must come back as a clean wire error with the
   stream resynchronized at the terminator — the next frame parses. *)
let test_wire_frame_bound () =
  let path = Filename.temp_file "netembed_wire" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc (String.make 100 'x');
  output_string oc "\n.\nEMBED alg=ECF mode=first\n.\nshort\n.\n";
  close_out oc;
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  (match Wire.read_frame ~max_bytes:64 ic with
  | Some (Error m) ->
      check Alcotest.string "canonical message" (Wire.frame_too_large ~limit:64) m
  | Some (Ok _) -> Alcotest.fail "oversized frame accepted"
  | None -> Alcotest.fail "oversized frame read as EOF");
  (match Wire.read_frame ~max_bytes:64 ic with
  | Some (Ok body) ->
      check Alcotest.string "stream resynchronized" "EMBED alg=ECF mode=first\n" body
  | Some (Error m) -> Alcotest.fail m
  | None -> Alcotest.fail "EOF after resync");
  (match Wire.read_frame ~max_bytes:64 ic with
  | Some (Ok body) -> check Alcotest.string "next frame intact" "short\n" body
  | Some (Error m) -> Alcotest.fail m
  | None -> Alcotest.fail "EOF on final frame");
  check Alcotest.bool "stream exhausted" true (Wire.read_frame ic = None)

(* A saturation reject is not a silent drop: it allocates a request id,
   bumps the queue-reject counter, and retains an EXPLAIN-able
   certificate — the acceptance contract of the bounded admission
   queue. *)
let test_backpressure_reject_explainable () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (host ())) in
  let counter name =
    Telemetry.Counter.value (Telemetry.Registry.counter registry name)
  in
  let entry = Service.reject_backpressure svc ~queue_depth:64 ~queue_capacity:64 in
  check Alcotest.string "backpressure verdict" "backpressure" entry.Service.verdict;
  check Alcotest.int "queue-reject counter" 1
    (counter "netembed_admission_queue_rejects_total");
  check Alcotest.int "also a request error" 1
    (counter "netembed_request_errors_total");
  (* The bounced id is immediately EXPLAIN-able. *)
  (match Service.explain svc entry.Service.id with
  | None -> Alcotest.fail "backpressure reject not retained in the ring"
  | Some e ->
      check Alcotest.string "retained verdict" "backpressure" e.Service.verdict;
      check Alcotest.int "same id" entry.Service.id e.Service.id;
      let contains hay needle =
        let n = String.length hay and m = String.length needle in
        let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "summary names the queue" true
        (contains e.Service.summary "queue");
      check Alcotest.bool "wire explanation renders" true
        (contains (Wire.encode_explanation e) "backpressure"));
  let e2 = Service.reject_backpressure svc ~queue_depth:3 ~queue_capacity:4 in
  check Alcotest.bool "rejects get distinct ids" true
    (e2.Service.id <> entry.Service.id);
  check Alcotest.int "counter accumulates" 2
    (counter "netembed_admission_queue_rejects_total")

(* Four client domains hammer one service through a start barrier:
   EMBEDs (every fifth a parse error), shared allocations freed
   immediately, stale-revision failures tolerated.  Afterwards the
   telemetry must balance exactly — the counters are maintained under
   the service's state lock, so concurrency may reorder but never lose
   increments — and the ledger must be back to zero residual use. *)
let test_concurrent_hammer () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (capacitated_host ())) in
  let counter name =
    Telemetry.Counter.value (Telemetry.Registry.counter registry name)
  in
  let domains = 4 and iters = 10 in
  let arrived = Atomic.make 0 in
  let barrier () =
    Atomic.incr arrived;
    while Atomic.get arrived < domains do
      Domain.cpu_relax ()
    done
  in
  let submits = Atomic.make 0 in
  let parse_errors = Atomic.make 0 in
  let allocs = Atomic.make 0 in
  let stale = Atomic.make 0 in
  let unexpected = Atomic.make 0 in
  let good =
    Request.make ~node_constraint:shared_node_constraint
      ~query:(demanding_query ~cpu:50 ~bw:2.0) shared_constraint
  in
  let bad = Request.make ~query:(demanding_query ~cpu:50 ~bw:2.0) "vEdge.>>>" in
  let worker () =
    barrier ();
    for i = 0 to iters - 1 do
      if i mod 5 = 0 then begin
        Atomic.incr submits;
        match Service.submit svc bad with
        | Error _ -> Atomic.incr parse_errors
        | Ok _ -> Atomic.incr unexpected
      end
      else begin
        Atomic.incr submits;
        match Service.submit svc good with
        | Error _ ->
            (* Tiny demands never trip admission; any error here is a
               bug. *)
            Atomic.incr unexpected
        | Ok answer -> (
            match answer.Service.result.Engine.mappings with
            | [] -> ()
            | m :: _ -> (
                match Service.allocate_shared svc answer m with
                | Ok id ->
                    Atomic.incr allocs;
                    if not (Service.free svc id) then Atomic.incr unexpected
                | Error _ ->
                    (* A sibling committed or freed between our snapshot
                       and our commit: the revision guard did its job. *)
                    Atomic.incr stale))
      end
    done
  in
  let ds = Array.init domains (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join ds;
  check Alcotest.int "no unexpected outcomes" 0 (Atomic.get unexpected);
  check Alcotest.int "every submit counted exactly once"
    (Atomic.get submits)
    (counter "netembed_requests_total");
  check Alcotest.int "every parse error counted exactly once"
    (Atomic.get parse_errors)
    (counter "netembed_request_errors_total");
  (* Every well-formed ECF submit probes the filter cache exactly once;
     hit/miss classification is racy in *which* bucket, never in the
     sum. *)
  check Alcotest.int "cache hits + misses = cache lookups"
    (Atomic.get submits - Atomic.get parse_errors)
    (counter "netembed_filter_cache_hits_total"
    + counter "netembed_filter_cache_misses_total");
  check Alcotest.int "every commit counted"
    (Atomic.get allocs)
    (counter "netembed_allocations_total");
  check (Alcotest.float 0.0) "no allocation outlives its free" 0.0
    (Telemetry.Gauge.value
       (Telemetry.Registry.gauge registry "netembed_active_allocations"));
  List.iter
    (fun (resource, _, used, _) ->
      check (Alcotest.float 1e-9) ("residual restored: " ^ resource) 0.0 used)
    (Service.utilization svc);
  (* The diagnostics ring retained the parse errors and TOP still
     renders under the post-hammer state. *)
  let top = Service.top svc in
  check Alcotest.bool "ring retained failures" true
    (List.length top.Service.worst > 0);
  check Alcotest.bool "phase accounting accumulated" true
    (List.exists (fun p -> p.Service.total_s > 0.0) top.Service.busiest);
  check Alcotest.bool "at least one stale or alloc outcome" true
    (Atomic.get allocs + Atomic.get stale > 0)

(* ------------------------------------------------------------------ *)
(* Health state machine                                                *)
(* ------------------------------------------------------------------ *)

let health_config =
  {
    Health.latency_slo_s = 0.1;
    error_rate_slo = 0.01;
    fast_burn = 10.0;
    queue_high = 0.9;
    queue_low = 0.5;
    hysteresis = 2;
    fast_window = 10.0;
    slow_window = 60.0;
    slices = 5;
  }

(* Readiness must flap only after [hysteresis] consecutive window
   evaluations agree, in both directions — and recovery must come from
   the bad samples aging out of the injected-clock windows. *)
let test_health_hysteresis () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let now = ref 1000.0 in
  let h = Health.create ~config:health_config ~clock:(fun () -> !now) ~registry () in
  let gauge () =
    int_of_float
      (Telemetry.Gauge.value
         (Telemetry.Registry.gauge registry "netembed_health_state"))
  in
  let eval () = Health.evaluate h ~queue_depth:0 ~queue_capacity:64 in
  check Alcotest.bool "starts healthy" true (eval () = Health.Healthy);
  (* Blow the latency SLO inside the fast window. *)
  for _ = 1 to 50 do
    Health.observe_request h ~latency_s:0.5 ~error:false
  done;
  check Alcotest.bool "one bad evaluation does not flip" true
    (eval () = Health.Healthy);
  check Alcotest.int "gauge still healthy" 0 (gauge ());
  check Alcotest.bool "second consecutive bad evaluation flips" true
    (eval () = Health.Degraded);
  check Alcotest.int "gauge degraded" 1 (gauge ());
  (* Recovery: age the bad samples out of both windows, then demand the
     same consecutive-evaluation streak on the way back. *)
  now := !now +. 2.0 *. health_config.Health.slow_window;
  check Alcotest.bool "one good evaluation does not recover" true
    (eval () = Health.Degraded);
  check Alcotest.bool "second consecutive good evaluation recovers" true
    (eval () = Health.Healthy);
  check Alcotest.int "gauge healthy again" 0 (gauge ())

(* Queue saturation enters at [queue_high] and leaves only below
   [queue_low] — the band keeps a hovering queue from flapping. *)
let test_health_queue_watermarks () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let h =
    Health.create
      ~config:{ health_config with Health.hysteresis = 1 }
      ~clock:(fun () -> 0.0)
      ~registry ()
  in
  let eval depth = Health.evaluate h ~queue_depth:depth ~queue_capacity:10 in
  check Alcotest.bool "empty queue healthy" true (eval 0 = Health.Healthy);
  check Alcotest.bool "9/10 saturates" true (eval 9 = Health.Saturated);
  check Alcotest.bool "6/10 holds inside the band" true
    (eval 6 = Health.Saturated);
  check Alcotest.bool "4/10 leaves the band" true (eval 4 = Health.Healthy);
  let r = Health.report h in
  check Alcotest.int "report queue depth" 4 r.Health.queue_depth;
  check Alcotest.int "report queue capacity" 10 r.Health.queue_capacity

(* Draining bypasses hysteresis, latches, and renders on the wire. *)
let test_health_draining_latch () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let h = Health.create ~config:health_config ~registry () in
  check Alcotest.bool "healthy before drain" true
    (Health.state h = Health.Healthy);
  Health.set_draining h;
  check Alcotest.bool "draining immediately" true
    (Health.state h = Health.Draining);
  check Alcotest.bool "evaluate cannot leave draining" true
    (Health.evaluate h ~queue_depth:0 ~queue_capacity:10 = Health.Draining);
  check (Alcotest.float 0.0) "gauge draining" 3.0
    (Telemetry.Gauge.value
       (Telemetry.Registry.gauge registry "netembed_health_state"));
  let line = Wire.encode_health (Health.report h) in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "wire line carries the state" true
    (contains line "state=draining");
  check Alcotest.bool "wire line carries the code" true (contains line "code=3")

(* Service.submit feeds the machine: errors (including backpressure
   sheds) burn the error budget, successes feed latency. *)
let test_health_fed_by_service () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (host ())) in
  let good = Request.make ~query:(path_query 5.0 15.0) standard_constraint in
  let bad = Request.make ~query:(path_query 5.0 15.0) "vEdge.>>>" in
  (match Service.submit svc good with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  ignore (Service.submit svc bad);
  let r = Health.report (Service.health svc) in
  check Alcotest.bool "latency observed" true (r.Health.fast_p99_s > 0.0);
  check Alcotest.bool "error rate observed" true
    (r.Health.fast_error_rate > 0.0 && r.Health.fast_error_rate < 1.0)

let prop_wire_decode_total =
  QCheck.Test.make ~name:"wire decode is total on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 120))
    (fun s ->
      (match Wire.decode_request s with Ok _ | Error _ -> true)
      && match Wire.decode_answer s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "service"
    [
      ( "model",
        [
          Alcotest.test_case "snapshot isolated" `Quick test_model_snapshot_isolated;
          Alcotest.test_case "revision" `Quick test_model_revision;
          Alcotest.test_case "reserve/release" `Quick test_model_reserve;
          Alcotest.test_case "reserve duplicate" `Quick test_model_reserve_duplicate;
          Alcotest.test_case "reserved attribute" `Quick test_model_reserved_attr;
        ] );
      ( "service",
        [
          Alcotest.test_case "submit end-to-end" `Quick test_submit_end_to_end;
          Alcotest.test_case "bad constraint" `Quick test_submit_bad_constraint;
          Alcotest.test_case "reservation excludes" `Quick test_reservation_excludes;
          Alcotest.test_case "allocate + stale" `Quick test_allocate_and_conflict;
          Alcotest.test_case "answer stamped with snapshot revision" `Quick
            test_answer_stamped_with_snapshot_revision;
          Alcotest.test_case "relaxation loop" `Quick test_relaxation;
          Alcotest.test_case "request relax" `Quick test_request_relax;
          Alcotest.test_case "constraint file" `Quick test_constraint_file;
          Alcotest.test_case "allocate shared lifecycle" `Quick
            test_allocate_shared_lifecycle;
          Alcotest.test_case "migrate is atomic" `Quick test_migrate_atomic;
          Alcotest.test_case "admission rejection" `Quick test_admission_rejection;
          Alcotest.test_case "backpressure reject is EXPLAIN-able" `Quick
            test_backpressure_reject_explainable;
          Alcotest.test_case "4-domain hammer balances telemetry" `Quick
            test_concurrent_hammer;
        ] );
      ( "filter cache",
        [
          Alcotest.test_case "LRU hit/miss/eviction" `Quick test_filter_cache_lru;
          Alcotest.test_case "revision invalidation" `Quick test_filter_cache_invalidation;
          Alcotest.test_case "signature sensitivity" `Quick
            test_filter_cache_signature_sensitivity;
          Alcotest.test_case "warm = cold answer" `Quick test_service_cache_warm_vs_cold;
          Alcotest.test_case "invalidated on model update" `Quick
            test_service_cache_revision_invalidation;
          Alcotest.test_case "LNS bypasses cache" `Quick test_service_cache_skips_lns;
          Alcotest.test_case "parallel path" `Quick test_service_parallel_path;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "trace ids and phases" `Quick test_tracing_and_phases;
          Alcotest.test_case "top report + wire verb" `Quick
            test_top_report_and_wire;
          Alcotest.test_case "slow-search flag" `Quick test_slow_search_flag;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "answer roundtrip" `Quick test_wire_answer_roundtrip;
          Alcotest.test_case "errors" `Quick test_wire_errors;
          Alcotest.test_case "commands" `Quick test_wire_commands;
          Alcotest.test_case "frame size bound + resync" `Quick
            test_wire_frame_bound;
          QCheck_alcotest.to_alcotest prop_wire_decode_total;
        ] );
      ( "health",
        [
          Alcotest.test_case "hysteresis both directions" `Quick
            test_health_hysteresis;
          Alcotest.test_case "queue watermark band" `Quick
            test_health_queue_watermarks;
          Alcotest.test_case "draining latch + wire" `Quick
            test_health_draining_latch;
          Alcotest.test_case "fed by the service" `Quick
            test_health_fed_by_service;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "updates model" `Quick test_monitor_updates;
          Alcotest.test_case "flaps + liveness guard" `Quick test_monitor_flaps_and_guard;
          Alcotest.test_case "relaxation under flaps" `Quick
            test_relaxation_under_monitor_flaps;
          Alcotest.test_case "deterministic" `Quick test_monitor_determinism;
        ] );
    ]

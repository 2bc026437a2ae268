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
  Model.update_node_attrs m 1 (Attrs.of_list [ ("reserved", Value.Bool true) ]);
  check Alcotest.bool "bumped again" true (Model.revision m > r0 + 1)

(* Words allocated so far: [Gc.minor_words] is exact, where the minor
   count of [Gc.counters] only moves at a minor collection on OCaml 5;
   [major -. promoted] adds the blocks allocated directly in the major
   heap, where large arrays go. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let planetlab_model sites =
  let module Trace = Netembed_planetlab.Trace in
  Model.create (Trace.generate (Rng.make 7) { Trace.default with Trace.sites })

(* Counted, not timed: a residual snapshot shares the pair index built
   once by [Model.create], so preparing a 1-edge query against it only
   specializes the query's two orientation residuals.  An index rebuilt
   per snapshot would allocate a table over every link (about 7k half
   edges here).  The count includes allocations made directly in the
   major heap, where large arrays go.  The host degree arrays sit
   beside the index, so [Problem.make] on a fresh snapshot allocates
   for the query and the problem's two column stores, which hold no
   column until one is read: the same words on a 100-site and a
   296-site model. *)
let test_snapshot_shares_pair_index () =
  let model = planetlab_model 100 in
  check Alcotest.bool "at least 1k links" true
    (Graph.edge_count (Model.snapshot model) >= 1000);
  let problem =
    Netembed_core.Problem.make ~host:(Model.residual_snapshot model)
      ~query:(path_query 10.0 50.0)
      (Netembed_expr.Expr.parse_exn standard_constraint)
  in
  let before = allocated_words () in
  Netembed_core.Problem.prepare problem;
  let words = allocated_words () -. before in
  if words >= 1000.0 then
    Alcotest.failf "Problem.prepare allocated %.0f words on a residual snapshot" words;
  let make_words model =
    let host = Model.residual_snapshot model in
    let query = path_query 10.0 50.0 in
    let c = Netembed_expr.Expr.parse_exn standard_constraint in
    let before = allocated_words () in
    let p = Netembed_core.Problem.make ~host ~query c in
    let words = allocated_words () -. before in
    ignore (Sys.opaque_identity p);
    words
  in
  let small = make_words model and large = make_words (planetlab_model 296) in
  check (Alcotest.float 0.0) "Problem.make words at 100 and 296 sites" small large;
  (* 2 query nodes + 1 query edge, at most 32 words each *)
  if small > 32.0 *. 3.0 then
    Alcotest.failf "Problem.make allocated %.0f words for a 2-node query" small

(* A PlanetLab host as svcbench loads it, written to a temporary file:
   the trace plus a seeded bandwidth on every link, so the ledger
   tracks cpuMhz and memMB on nodes and bandwidth on links. *)
let with_planetlab_file sites f =
  let module Trace = Netembed_planetlab.Trace in
  let rng = Rng.make 2008 in
  let g = Trace.generate rng { Trace.default with Trace.sites } in
  Graph.iter_edges
    (fun e _ _ ->
      let bw = float_of_int (100 + (10 * Rng.int rng 91)) in
      Graph.set_edge_attrs g e (Attrs.add "bandwidth" (Value.Float bw) (Graph.edge_attrs g e)))
    g;
  let path = Filename.temp_file "netembed_model" ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Netembed_graphml.Graphml.write_file g path;
      f path)

(* Counted, not timed: loading a model from GraphML allocates at most
   twice the words the model then holds.  The count takes in the file's
   text, which is allocated directly in the major heap, the read's
   garbage and the model built over the graph it read; a load that
   copied the graph once more, or kept a tree or a string per element,
   would pass the bound. *)
let test_of_graphml_file_words () =
  with_planetlab_file 100 (fun path ->
      let before = allocated_words () in
      let model = Model.of_graphml_file path in
      let words = allocated_words () -. before in
      let held = float_of_int (Obj.reachable_words (Obj.repr model)) in
      check Alcotest.bool "at least 3k links" true
        (Graph.edge_count (Model.snapshot model) >= 3000);
      if words > 2.0 *. held then
        Alcotest.failf "Model.of_graphml_file allocated %.0f words for a %.0f-word model" words
          held)

(* The model that owns the graph it read serves what a model over a
   copy of the same graph serves: snapshots, revisions, degrees and
   ledger utilization, as loaded and after the same attribute update
   and charge. *)
let test_of_graphml_file_equals_create () =
  with_planetlab_file 40 (fun path ->
      let owned = Model.of_graphml_file path in
      let copied = Model.create (Netembed_graphml.Graphml.read_file path) in
      let graph_equal name a b =
        check Alcotest.int (name ^ " nodes") (Graph.node_count a) (Graph.node_count b);
        check Alcotest.int (name ^ " edges") (Graph.edge_count a) (Graph.edge_count b);
        Graph.iter_nodes
          (fun v ->
            if not (Attrs.equal (Graph.node_attrs a v) (Graph.node_attrs b v)) then
              Alcotest.failf "%s: node %d attributes differ" name v)
          a;
        Graph.iter_edges
          (fun e u v ->
            if Graph.endpoints b e <> (u, v) then Alcotest.failf "%s: edge %d endpoints" name e;
            if not (Attrs.equal (Graph.edge_attrs a e) (Graph.edge_attrs b e)) then
              Alcotest.failf "%s: edge %d attributes differ" name e)
          a;
        check Alcotest.(array int) (name ^ " degrees") (Graph.degrees a) (Graph.degrees b)
      in
      let same stage =
        check Alcotest.int (stage ^ ": revision") (Model.revision copied) (Model.revision owned);
        graph_equal (stage ^ ": snapshot") (Model.snapshot owned) (Model.snapshot copied);
        graph_equal (stage ^ ": residual")
          (Model.residual_snapshot owned)
          (Model.residual_snapshot copied);
        check
          Alcotest.(list (pair string (float 0.0)))
          (stage ^ ": utilization")
          (List.map
             (fun (r, _, used, cap) -> (r, used /. cap))
             (Netembed_ledger.Ledger.utilization (Model.ledger copied)))
          (List.map
             (fun (r, _, used, cap) -> (r, used /. cap))
             (Netembed_ledger.Ledger.utilization (Model.ledger owned)))
      in
      same "loaded";
      let query = Graph.create () in
      let q0 = Graph.add_node query (Attrs.of_list [ ("cpuMhz", Value.Float 100.0) ]) in
      let q1 = Graph.add_node query (Attrs.of_list [ ("cpuMhz", Value.Float 200.0) ]) in
      ignore (Graph.add_edge query q0 q1 (Attrs.of_list [ ("bandwidth", Value.Float 5.0) ]));
      let u, v = Graph.endpoints (Model.snapshot owned) 0 in
      let mapping = Mapping.of_array [| u; v |] in
      List.iter
        (fun m ->
          Model.update_node_attrs m 3 (Attrs.of_list [ ("reserved", Value.Bool true) ]);
          match Model.charge_mapping m ~query mapping with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "charge refused: %s" e)
        [ owned; copied ];
      same "charged")

let test_model_reserved_attr () =
  let m = Model.create (host ()) in
  check Alcotest.bool "reserved attr stamped false" true
    (Value.equal
       (Attrs.find_exn "reserved" (Graph.node_attrs (Model.snapshot m) 0))
       (Value.Bool false))

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

(* Every searched request runs with blame on, whatever the algorithm
   and mode: an infeasible query (no host link has a delay in
   [100, 200]) answers with a certificate, and EXPLAIN finds it. *)
let test_unsat_certificate_every_path () =
  let table =
    [ Engine.ECF, Engine.First
    ; Engine.ECF, Engine.All
    ; Engine.RWB, Engine.First
    ; Engine.RWB, Engine.All
    ; Engine.LNS, Engine.First
    ; Engine.LNS, Engine.All
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (algorithm, mode) ->
      let label what =
        Printf.sprintf "%s %s: %s" (Engine.algorithm_name algorithm)
          (Wire.mode_to_string mode) what
      in
      let svc = Service.create (Model.create (host ())) in
      let request =
        Request.make ~algorithm ~mode ~query:(path_query 100.0 200.0)
          standard_constraint
      in
      match Service.submit svc request with
      | Error m -> Alcotest.fail (label m)
      | Ok a ->
          check Alcotest.int (label "no mappings") 0
            (List.length a.Service.result.Engine.mappings);
          check Alcotest.bool (label "result carries a report") true
            (a.Service.result.Engine.report <> None);
          let certified =
            match Service.explain svc a.Service.id with
            | Some e -> e.Service.certificate <> None
            | None -> false
          in
          check Alcotest.bool (label "EXPLAIN has a certificate") true certified)
    table

(* An answer must carry the revision of the residual snapshot it was
   computed against, or [allocate_shared] would accept a mapping the current
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
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write "# delay band\nrEdge.avgDelay >= vEdge.minDelay\n\nrEdge.avgDelay <= vEdge.maxDelay\n";
      let text = Request.read_constraint_file path in
      check Alcotest.string "lines conjoined"
        "(rEdge.avgDelay >= vEdge.minDelay) && (rEdge.avgDelay <= vEdge.maxDelay)" text;
      (match Request.parse_constraints (Request.make ~query:(path_query 5.0 15.0) text) with
      | Ok (_, None) -> ()
      | Ok (_, Some _) -> Alcotest.fail "unexpected node constraint"
      | Error m -> Alcotest.fail m);
      write "# only comments\n\n";
      check Alcotest.string "empty file" "true" (Request.read_constraint_file path))

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_wire_request_roundtrip () =
  let request =
    Request.make ~algorithm:Engine.LNS ~mode:(Engine.At_most 7) ~timeout:2.5
      ~query:(path_query 5.0 15.0) standard_constraint
  in
  match Wire.decode_command (Wire.encode_command (Wire.Submit request)) with
  | Error m -> Alcotest.fail m
  | Ok (Wire.Submit r) ->
      check Alcotest.bool "alg" true (r.Request.algorithm = Engine.LNS);
      check Alcotest.bool "mode" true (r.Request.mode = Engine.At_most 7);
      check (Alcotest.option (Alcotest.float 1e-9)) "timeout" (Some 2.5) r.Request.timeout;
      check Alcotest.int "query nodes" 2 (Graph.node_count r.Request.query);
      check Alcotest.string "constraint" standard_constraint r.Request.constraint_text
  | Ok _ -> Alcotest.fail "EMBED should decode as Submit"

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
  let table =
    [ "unknown verb", "NOPE"
    ; "unknown algorithm", "EMBED alg=XYZ\nCONSTRAINT true\nGRAPHML\n<graphml/>"
    ; "at most zero", "EMBED alg=ECF mode=atmost:0\nCONSTRAINT true\nGRAPHML\n<graphml/>"
    ; "negative at most", "EMBED alg=ECF mode=atmost:-1\nCONSTRAINT true\nGRAPHML\n<graphml/>"
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (row, frame) ->
      match Wire.decode_command frame with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected a decode failure" row)
    table;
  check Alcotest.bool "atmost:1 decodes" true (Wire.mode_of_string "atmost:1" = Ok (Engine.At_most 1));
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

let has_prefix s prefix =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let has_suffix s suffix =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* Every failed submit leaves through the one exit: an [Error] with its
   canonical prefix and a diagnostics entry under the request's own id
   whose summary ends with that error.  One host serves every row: it
   has capacities (for the admission row), four nodes (for the
   oversized query) and a string osType (for the ill-typed constraint).
   Afterwards every request is counted once and timed once. *)
let test_single_exit_table () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let host = capacitated_host () in
  Graph.iter_nodes
    (fun v ->
      Graph.set_node_attrs host v
        (Attrs.add "osType" (Value.String "linux") (Graph.node_attrs host v)))
    host;
  let svc = Service.create ~registry (Model.create host) in
  let five_nodes = Graph.create ~name:"q" () in
  for _ = 1 to 5 do ignore (Graph.add_node five_nodes Attrs.empty) done;
  let path = path_query 5.0 15.0 in
  let table =
    [ "edge parse error", Request.make ~query:path "vEdge.>>>", "edge constraint:", "error"
    ; "node parse error", Request.make ~node_constraint:"rSource.>>>" ~query:path standard_constraint, "node constraint:", "error"
    ; "admission reject", Request.make ~query:(demanding_query ~cpu:2500 ~bw:1.0) shared_constraint, "admission:", "admission"
    ; "query larger than host", Request.make ~query:five_nodes "true", "Problem.make:", "error"
    ; "ill-typed constraint", Request.make ~query:path "rSource.osType <= vEdge.maxDelay", "constraint: cannot compare", "error"
    ; "at most zero", Request.make ~mode:(Engine.At_most 0) ~query:path standard_constraint, "Engine.run:", "error"
    ] [@ocamlformat "disable"]
  in
  (match Service.submit svc (Request.make ~query:path standard_constraint) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let ok = 1 in
  List.iter
    (fun (row, request, prefix, verdict) ->
      let label what = Printf.sprintf "%s: %s" row what in
      match Service.submit svc request with
      | Ok _ -> Alcotest.fail (label "expected an error")
      | Error m -> (
          if not (has_prefix m prefix) then
            Alcotest.failf "%s: %S lacks the prefix %S" row m prefix;
          match Service.last_entry svc with
          | None -> Alcotest.fail (label "no diagnostics entry")
          | Some e ->
              check Alcotest.string (label "verdict") verdict e.Service.verdict;
              check Alcotest.bool (label "entry names the error") true
                (has_suffix e.Service.summary m);
              check (Alcotest.option Alcotest.int) (label "retained under its id")
                (Some e.Service.id)
                (Option.map (fun (x : Service.entry) -> x.Service.id)
                   (Service.explain svc e.Service.id))))
    table;
  let counter name = Telemetry.Counter.value (Telemetry.Registry.counter registry name) in
  let requests = counter "netembed_requests_total" in
  check Alcotest.int "every request counted" (ok + List.length table) requests;
  check Alcotest.int "requests = ok + errors" requests
    (ok + counter "netembed_request_errors_total");
  check Alcotest.int "one latency sample per request" requests
    (Telemetry.Histogram.count
       (Telemetry.Registry.histogram registry "netembed_request_latency_us"))

(* [last_entry] answers the calling domain's newest entry: a failure
   on another domain in between must not replace it. *)
let test_last_entry_per_domain () =
  let svc =
    Service.create
      ~registry:(Netembed_telemetry.Telemetry.Registry.create ())
      (Model.create (host ()))
  in
  let query = path_query 5.0 15.0 in
  let fail_here request =
    match Service.submit svc request with
    | Ok _ -> Alcotest.fail "expected a parse error"
    | Error m -> (m, Option.get (Service.last_entry svc))
  in
  let edge_error, a = fail_here (Request.make ~query "vEdge.>>>") in
  let node_error, b =
    Domain.join
      (Domain.spawn (fun () ->
           fail_here (Request.make ~node_constraint:"rSource.>>>" ~query standard_constraint)))
  in
  check Alcotest.bool "distinct requests" true (a.Service.id <> b.Service.id);
  check Alcotest.bool "B's entry names its node constraint" true
    (has_suffix b.Service.summary node_error);
  match Service.last_entry svc with
  | None -> Alcotest.fail "A lost its entry"
  | Some e ->
      check Alcotest.int "A still reads its own id" a.Service.id e.Service.id;
      check Alcotest.bool "A's entry names its edge constraint" true
        (has_suffix e.Service.summary edge_error)

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
         cell's seconds x 1e6. *)
      let svc =
        Service.create
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
              match !durs with
              | [ dur_us ] ->
                  check (Alcotest.float 1e-6) (name ^ " span = cell x 1e6")
                    (phases.(Telemetry.Phase.index phase) *. 1e6)
                    dur_us
              | l -> Alcotest.failf "%s: %d spans, expected 1" name (List.length l))
            Telemetry.Phase.[ Compile; Filter_build; Search ])

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

(* A retained request whose search phase takes 0.9 of its run is
   flagged slow_search: a repeated request hits the filter cache, so
   its run is almost all search, and a 5-ring on K(10,10) keeps that
   search busy — every host edge admits every query edge, and no odd
   cycle fits a bipartite host. *)
let test_slow_search_flag () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let k = Graph.create ~name:"k10,10" () in
  let v = Array.init 20 (fun _ -> Graph.add_node k Attrs.empty) in
  for i = 0 to 9 do
    for j = 10 to 19 do
      ignore (Graph.add_edge k v.(i) v.(j) Attrs.empty)
    done
  done;
  let ring = Graph.create ~name:"c5" () in
  let r = Array.init 5 (fun _ -> Graph.add_node ring Attrs.empty) in
  for i = 0 to 4 do
    ignore (Graph.add_edge ring r.(i) r.((i + 1) mod 5) Attrs.empty)
  done;
  let svc =
    Service.create
      ~registry:(Telemetry.Registry.create ())
      ~slow_threshold:1e-6 (Model.create k)
  in
  let request = Request.make ~query:ring "true" in
  let submit () =
    match Service.submit svc request with Error m -> Alcotest.fail m | Ok a -> a
  in
  ignore (submit ());
  let a = submit () in
  check Alcotest.string "no odd ring in a bipartite host" "unsat"
    (Engine.verdict a.Service.result);
  match Service.explain svc a.Service.id with
  | None -> Alcotest.fail "search-dominated request not retained"
  | Some e ->
      check Alcotest.bool "flagged slow_search" true e.Service.slow_search;
      check Alcotest.int "entry carries the trace id" a.Service.trace_id
        e.Service.trace_id;
      check Alcotest.bool "entry carries the phase breakdown" true
        (Array.exists (fun v -> v > 0.0) e.Service.phases)

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
  let ic = Wire.reader (input ic) in
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

(* A reader over [s] whose refill hands out at most [chunk] bytes. *)
let string_reader ?(chunk = max_int) s =
  let off = ref 0 in
  Wire.reader (fun buf pos len ->
      let n = min (min len chunk) (String.length s - !off) in
      Bytes.blit_string s !off buf pos n;
      off := !off + n;
      n)

let frame_result = Alcotest.(option (result string string))

(* The bound is counted as bytes arrive: an 8 MiB line with no newline
   is skipped as it streams, so reading it allocates O(max_bytes), not
   O(line), and the stream still resynchronizes at the terminator. *)
let test_wire_frame_bound_streams () =
  let max_bytes = 4096 in
  let input = String.make (8 lsl 20) 'x' ^ "\n.\nEMBED alg=ECF mode=first\n.\n" in
  let before = Gc.allocated_bytes () in
  let r = string_reader input in
  let oversized = Wire.read_frame ~max_bytes r in
  let next = Wire.read_frame ~max_bytes r in
  let allocated = Gc.allocated_bytes () -. before in
  check frame_result "canonical error first"
    (Some (Error (Wire.frame_too_large ~limit:max_bytes)))
    oversized;
  check frame_result "the next frame parses" (Some (Ok "EMBED alg=ECF mode=first\n")) next;
  if allocated > float_of_int (16 * max_bytes) then
    Alcotest.failf "reading an 8 MiB line allocated %.0f bytes, over 16 x max_bytes"
      allocated

(* Where the bound falls: a body (its lines, each with its '\n') of
   exactly [max_bytes] is a frame, one byte more is the error.  Each
   row is read in one refill, and again one byte per refill. *)
let test_wire_frame_bound_edges () =
  let max_bytes = 64 in
  let too_large = Some (Error (Wire.frame_too_large ~limit:max_bytes)) in
  let body n = String.make (n - 1) 'x' ^ "\n" in
  let table =
    [ "body of exactly max_bytes", body 64 ^ ".\n", Some (Ok (body 64));
      "body of max_bytes + 1", body 65 ^ ".\n", too_large;
      "two lines of exactly max_bytes", body 30 ^ body 34 ^ ".\n", Some (Ok (body 30 ^ body 34));
      "two lines of max_bytes + 1", body 30 ^ body 35 ^ ".\n", too_large;
      "last line without newline at max_bytes", String.make 63 'x', Some (Ok (body 64));
      "last line without newline at max_bytes + 1", String.make 64 'x', too_large;
      "terminator after a full body", body 64 ^ ".", Some (Ok (body 64));
      "a line starting with '.' past a full body", body 63 ^ ".x\n.\n", too_large;
      "an empty line at max_bytes", body 63 ^ "\n.\n", Some (Ok (body 63 ^ "\n"));
      "an empty line at max_bytes + 1", body 64 ^ "\n.\n", too_large;
      "'..' is a line, not the terminator", "..\n.\n", Some (Ok "..\n");
      "terminator only", ".\n", Some (Ok "");
      "empty input", "", None;
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, input, expected) ->
      check frame_result name expected (Wire.read_frame ~max_bytes (string_reader input));
      check frame_result (name ^ ", one byte per refill") expected
        (Wire.read_frame ~max_bytes (string_reader ~chunk:1 input)))
    table

(* The oracle: the frame reader before it counted the bound inside a
   line.  It takes whole lines as [input_line] returns them and lists
   every frame of [text]. *)
let oracle_frames ~max_bytes text =
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  let too_large = Error (Wire.frame_too_large ~limit:max_bytes) in
  let rec frame buf overflow acc = function
    | [] -> List.rev (if overflow then too_large :: acc else if buf = "" then acc else Ok buf :: acc)
    | "." :: rest -> frame "" false ((if overflow then too_large else Ok buf) :: acc) rest
    | _ :: rest when overflow -> frame "" true acc rest
    | line :: rest when String.length buf + String.length line + 1 > max_bytes ->
        frame "" true acc rest
    | line :: rest -> frame (buf ^ line ^ "\n") false acc rest
  in
  frame "" false [] lines

let prop_wire_reader_matches_oracle =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 24) (int_range 1 5)
        (map (String.concat "")
           (list_size (int_bound 14) (oneofl [ "\n"; "."; "x"; "xxxxxxxxxx"; "\n.\n"; ".."; "\r" ]))))
  in
  QCheck.Test.make ~name:"frame reader = whole-line oracle, any bound and refill size" ~count:2000
    (QCheck.make ~print:QCheck.Print.(triple int int string) gen)
    (fun (max_bytes, chunk, text) ->
      let r = string_reader ~chunk text in
      let rec frames acc =
        match Wire.read_frame ~max_bytes r with None -> List.rev acc | Some f -> frames (f :: acc)
      in
      frames [] = oracle_frames ~max_bytes text)

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
  (* Counted and timed as a request, so the exit invariants hold. *)
  check Alcotest.int "counted as a request" 1 (counter "netembed_requests_total");
  let latency_count () =
    Telemetry.Histogram.count
      (Telemetry.Registry.histogram registry "netembed_request_latency_us")
  in
  check Alcotest.int "one latency sample" 1 (latency_count ());
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
    (counter "netembed_admission_queue_rejects_total");
  (* Beside answered requests: requests = ok + errors, and the
     histogram counts every request. *)
  let ok =
    match Service.submit svc (Request.make ~query:(path_query 5.0 15.0) standard_constraint) with
    | Ok _ -> 1
    | Error e -> Alcotest.fail e
  in
  check Alcotest.int "requests = ok + errors"
    (ok + counter "netembed_request_errors_total")
    (counter "netembed_requests_total");
  check Alcotest.int "latency count = requests" (counter "netembed_requests_total")
    (latency_count ())

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

(* Readiness must flap only after [hysteresis] consecutive window
   evaluations agree, in both directions — and recovery must come from
   the bad samples aging out of the injected-clock windows. *)
let test_health_hysteresis () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let now = ref 1000.0 in
  let h = Health.create ~clock:(fun () -> !now) ~registry () in
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
  now := !now +. 120.0;
  check Alcotest.bool "one good evaluation does not recover" true
    (eval () = Health.Degraded);
  check Alcotest.bool "second consecutive good evaluation recovers" true
    (eval () = Health.Healthy);
  check Alcotest.int "gauge healthy again" 0 (gauge ())

(* Queue saturation enters at 0.9 of capacity and leaves only below
   0.5 — the band keeps a hovering queue from flapping.  Each depth is
   evaluated twice, so the hysteresis streak is met. *)
let test_health_queue_watermarks () =
  let module Telemetry = Netembed_telemetry.Telemetry in
  let registry = Telemetry.Registry.create () in
  let h = Health.create ~clock:(fun () -> 0.0) ~registry () in
  let eval depth =
    ignore (Health.evaluate h ~queue_depth:depth ~queue_capacity:10);
    Health.evaluate h ~queue_depth:depth ~queue_capacity:10
  in
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
  let h = Health.create ~registry () in
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
      (match Wire.decode_command s with Ok _ | Error _ -> true)
      && match Wire.decode_answer s with Ok _ | Error _ -> true)

(* Hostile query GraphML in an EMBED frame: the decoder answers Error,
   it does not raise.  A self-loop and an invalid character reference
   used to escape as Invalid_argument. *)
let test_wire_hostile_graphml () =
  let frame graphml =
    Printf.sprintf "EMBED alg=ECF mode=first\nCONSTRAINT true\nGRAPHML\n%s\n.\n" graphml
  in
  let table =
    [ "self-loop",
      {|<graphml><graph><node id="n0"/><edge source="n0" target="n0"/></graph></graphml>|},
      {|edge from "n0" to itself|};
      "character reference past U+10FFFF",
      {|<graphml><graph><node id="&#x110000;"/></graph></graphml>|},
      "XML parse error at line 1: bad character reference &#x110000;";
      "surrogate character reference",
      {|<graphml><graph><node id="&#xD800;"/></graph></graphml>|},
      "XML parse error at line 1: bad character reference &#xD800;";
      "content after the root element",
      {|<graphml><graph><node id="n0"/></graph></graphml>trailing junk <b>|},
      "XML parse error at line 1: content after the root element";
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, graphml, message) ->
      match Wire.decode_command (frame graphml) with
      | Error m -> check Alcotest.string name message m
      | Ok _ -> Alcotest.failf "%s: decoded" name
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    table

(* A valid 8-node EMBED frame, as a client would send it. *)
let embed8_frame =
  lazy
    (let host =
       Netembed_planetlab.Trace.generate (Rng.make 4)
         { Netembed_planetlab.Trace.default with sites = 24 }
     in
     let case = Netembed_workload.Query_gen.subgraph (Rng.make 5) ~host ~n:8 () in
     Wire.encode_command
       (Wire.Submit
          (Request.make ~mode:(Engine.At_most 8) ~query:case.Netembed_workload.Query_gen.query
             (Netembed_expr.Expr.to_string case.Netembed_workload.Query_gen.edge_constraint))))

let decodes_or_errs frame =
  match Wire.decode_command frame with Ok _ | Error _ -> true | exception _ -> false

let test_wire_decode_prefixes () =
  let frame = Lazy.force embed8_frame in
  (match Wire.decode_command frame with
  | Ok (Wire.Submit r) -> check Alcotest.int "query nodes" 8 (Graph.node_count r.Request.query)
  | Ok _ | Error _ -> Alcotest.fail "the frame does not decode");
  for n = 0 to String.length frame - 1 do
    if not (decodes_or_errs (String.sub frame 0 n)) then
      Alcotest.failf "the %d-byte prefix raised" n
  done

(* Every prefix of the frame reads the same one byte per refill as in
   one refill, and what the reader returns decodes as the text itself
   does, so a frame decodes the same with or without its terminator. *)
let test_wire_read_prefixes () =
  let frame = Lazy.force embed8_frame in
  let decoded text =
    match Wire.decode_command text with
    | Ok c -> Ok (Wire.encode_command c)
    | Error m -> Error m
  in
  for n = 0 to String.length frame do
    let text = String.sub frame 0 n in
    let read = Wire.read_frame (string_reader text) in
    if Wire.read_frame (string_reader ~chunk:1 text) <> read then
      Alcotest.failf "the %d-byte prefix reads differently one byte at a time" n;
    match read with
    | Some (Error m) -> Alcotest.failf "the %d-byte prefix: %s" n m
    | Some (Ok body) when decoded body <> decoded text ->
        Alcotest.failf "the %d-byte prefix decodes differently once read" n
    | Some (Ok _) | None -> ()
  done;
  check Alcotest.bool "the whole frame decodes" true (Result.is_ok (decoded frame))

(* Any prefix of the frame, or the frame with one byte replaced by a
   character that means something to XML or ends a C string. *)
let prop_wire_decode_never_raises =
  let frame = Lazy.force embed8_frame in
  let n = String.length frame in
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> String.sub frame 0 k) (int_bound n);
          map2
            (fun i c -> String.mapi (fun j x -> if j = i then c else x) frame)
            (int_bound (n - 1))
            (oneofl [ '<'; '>'; '&'; '"'; '\''; '\000' ]);
        ])
  in
  QCheck.Test.make ~name:"EMBED decode never raises on a cut or patched frame" ~count:1500
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    decodes_or_errs

(* ------------------------------------------------------------------ *)
(* Host columns                                                        *)
(* ------------------------------------------------------------------ *)

module Filter = Netembed_core.Filter
module Prefilter = Netembed_core.Prefilter
module Bitset = Netembed_bitset.Bitset
module Explain = Netembed_explain.Explain

(* Counted: the model's static columns outlive a build.  The first cold
   build of a 100-site model fills the avgDelay column, a float array
   over every link; a second cold build of another query at the same
   attribute revision, after a ledger commit, reuses it and allocates
   less than that one array in all its column lookups. *)
let test_columns_outlive_builds () =
  let model = planetlab_model 100 in
  let links = float_of_int (Graph.edge_count (Model.snapshot model)) in
  let c = Netembed_expr.Expr.parse_exn standard_constraint in
  let column_words query =
    let host = Model.residual_snapshot model in
    let stores = Model.columns model host in
    let spent = ref 0.0 in
    let counted (s : Prefilter.store) =
      let column name =
        let before = allocated_words () in
        let col = s.Prefilter.column name in
        spent := !spent +. (allocated_words () -. before);
        col
      in
      { s with Prefilter.column }
    in
    let columns = { Prefilter.edges = counted stores.edges; nodes = counted stores.nodes } in
    let p = Problem.make ~columns ~host ~query c in
    ignore (Filter.build p);
    !spent
  in
  let first = column_words (path_query 10.0 50.0) in
  if first < links then
    Alcotest.failf "the first build allocated %.0f column words over %.0f links" first links;
  let demand = Graph.create () in
  let cpu = Attrs.of_list [ ("cpuMhz", Value.Float 10.0) ] in
  let a = Graph.add_node demand cpu and b = Graph.add_node demand cpu in
  ignore (Graph.add_edge demand a b Attrs.empty);
  let r0 = Model.revision model in
  (match Model.charge_mapping model ~query:demand (Mapping.of_array [| 0; 1 |]) with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.bool "the commit is a new revision" true (Model.revision model > r0);
  let second = column_words (path_query 20.0 80.0) in
  if second >= links then
    Alcotest.failf "a second cold build allocated %.0f column words (%.0f links)" second links

(* A build still holding a snapshot from before an attribute change
   keeps the column it fills to itself: the store of a later snapshot
   must not serve it. *)
let test_old_snapshot_column_private () =
  let model = Model.create (host ()) in
  let old = Model.columns model (Model.residual_snapshot model) in
  Model.update_edge_attrs model 0 (delay 99.0);
  let current = Model.columns model (Model.residual_snapshot model) in
  let avg (s : Prefilter.stores) = (s.edges.column "avgDelay").Prefilter.num.(0) in
  check (Alcotest.float 0.0) "the old snapshot's value" 10.0 (avg old);
  check (Alcotest.float 0.0) "the current snapshot's value" 99.0 (avg current)

(* What a request answers: its sorted mappings, or its error. *)
let service_outcome svc request =
  match Service.submit svc request with
  | Ok a -> Ok (List.sort compare (List.map Mapping.to_list a.Service.result.Engine.mappings))
  | Error m -> Error m

(* The same request built with a fresh column store over the model's
   current residual snapshot, as the service would run it. *)
let fresh_outcome model (request : Request.t) =
  match Request.parse_constraints request with
  | Error m -> Error m
  | Ok (edge_c, node_constraint) -> (
      let p =
        Problem.make ?node_constraint ~host:(Model.residual_snapshot model)
          ~query:request.Request.query edge_c
      in
      let options =
        { Engine.default_options with Engine.mode = request.Request.mode; explain = true }
      in
      match Engine.run ~options request.Request.algorithm p with
      | r -> Ok (List.sort compare (List.map Mapping.to_list r.Engine.mappings))
      | exception Netembed_expr.Eval.Eval_error m -> Error ("constraint: " ^ m))

(* Each row changes the model between submits on one service; every
   answer after a change must differ from the one before and equal a
   fresh-store build's.  A column cache that missed the change would
   answer as before.  Host edges: 0-1 (10), 1-2 (20), 2-3 (10),
   3-4 (20), 4-0 (30). *)
let test_columns_follow_changes () =
  let all ?node_constraint lo hi =
    Request.make ?node_constraint ~mode:Engine.All ~query:(path_query lo hi)
      standard_constraint
  in
  let table =
    [ "avgDelay moves into the band", all 25.0 35.0,
        (fun _ -> [ (fun m -> Model.update_edge_attrs m 0 (delay 30.0)) ])
    ; "avgDelay moves out of the band", all 5.0 15.0,
        (fun _ -> [ (fun m -> Model.update_edge_attrs m 0 (delay 99.0)) ])
    ; "the monitor marks nodes down", all ~node_constraint:"rSource.up" 5.0 15.0,
        (fun m ->
          let params =
            { Monitor.default with Monitor.sample_fraction = 0.0; flap_probability = 1.0 }
          in
          let mon = Monitor.create ~params (Rng.make 3) m in
          [ (fun _ -> Monitor.tick mon) ])
    ; "drain, then restore, the only mapping's host",
        all ~node_constraint:"!rSource.drained" 25.0 35.0,
        (fun m ->
          let drained v flag =
            Model.update_node_attrs m v (Attrs.of_list [ ("drained", Value.Bool flag) ])
          in
          Graph.iter_nodes (fun v -> drained v false) (Model.snapshot m);
          [ (fun _ -> drained 0 true); (fun _ -> drained 0 false) ])
    ; "avgDelay becomes a string", all 5.0 15.0,
        (fun _ ->
          [ (fun m ->
              Model.update_edge_attrs m 1
                (Attrs.of_list [ ("avgDelay", Value.String "n/a") ])) ])
    ] [@ocamlformat "disable"]
  in
  let outcome =
    Alcotest.(result (list (list (pair int int))) string)
  in
  List.iter
    (fun (name, request, steps) ->
      let model = Model.create (host ()) in
      let svc = Service.create model in
      let steps = steps model in
      let before = ref (service_outcome svc request) in
      check outcome (name ^ ": first answer") (fresh_outcome model request) !before;
      List.iteri
        (fun i step ->
          step model;
          let label what = Printf.sprintf "%s, step %d: %s" name (i + 1) what in
          let after = service_outcome svc request in
          check outcome (label "fresh-store answer") (fresh_outcome model request) after;
          check Alcotest.bool (label "the answer changed") false (after = !before);
          before := after)
        steps)
    table

(* Fixed-seed churn traces over a small host with capacities.  After
   every step each column the model serves must equal a fresh store's
   over the residual snapshot, and a filter build over the model's
   stores must equal a fresh-store build cell for cell, blame
   included (or raise the same error). *)
let churn_host rng =
  let g = Graph.create () in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let n = 7 in
  for _ = 0 to n - 1 do
    let cpu =
      pick
        [ Some (Value.Float 1000.0); Some (Value.Int 800); Some (Value.Float (-5.0)); None ]
    in
    let os = pick [ Value.String "linux"; Value.String "bsd"; Value.Bool true ] in
    let attrs =
      [ ("memMB", Value.Float (float_of_int (256 * (1 + Rng.int rng 4)))); ("osType", os);
        ("drained", Value.Bool false) ]
      @ match cpu with Some c -> [ ("cpuMhz", c) ] | None -> []
    in
    ignore (Graph.add_node g (Attrs.of_list attrs))
  done;
  for v = 0 to n - 1 do
    List.iter
      (fun w ->
        if w > v && (w = v + 1 || Rng.int rng 3 = 0) then
          let bw =
            pick
              [ Some (Value.Float 100.0); Some (Value.Int 60); Some (Value.Float (-1.0)); None ]
          in
          let attrs =
            ("avgDelay", Value.Float (float_of_int (5 + Rng.int rng 30)))
            :: (match bw with Some b -> [ ("bandwidth", b) ] | None -> [])
          in
          ignore (Graph.add_edge g v w (Attrs.of_list attrs)))
      (List.init n Fun.id)
  done;
  g

let churn_query rng =
  let g = Graph.create () in
  let node () =
    Graph.add_node g (Attrs.of_list [ ("cpuMhz", Value.Float (float_of_int (50 * Rng.int rng 8))) ])
  in
  let a = node () and b = node () in
  let lo = float_of_int (Rng.int rng 20) in
  ignore
    (Graph.add_edge g a b
       (Attrs.of_list
          [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float (lo +. 15.0));
            ("bandwidth", Value.Float (float_of_int (10 * Rng.int rng 5))) ]));
  g

let churn_constraint =
  Netembed_expr.Expr.parse_exn
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay \
     && rEdge.bandwidth >= vEdge.bandwidth"

let churn_node_constraint =
  Netembed_expr.Expr.parse_exn "!rSource.drained && rSource.cpuMhz >= vSource.cpuMhz"

let same_column (a : Prefilter.column) (b : Prefilter.column) =
  let nums c =
    List.map (fun i -> (i, Int64.bits_of_float c.Prefilter.num.(i))) (Bitset.elements c.num_set)
  in
  let strings c =
    List.sort compare
      (Hashtbl.fold (fun s set acc -> (s, Bitset.elements set) :: acc) c.Prefilter.strings [])
  in
  Bitset.equal a.present b.present && Bitset.equal a.num_set b.num_set
  && nums a = nums b
  && Bitset.equal a.true_set b.true_set
  && Bitset.equal a.false_set b.false_set
  && strings a = strings b
  && List.sort compare a.others = List.sort compare b.others

let churn_step rng model live =
  let g = Model.snapshot model in
  let edge () = Rng.int rng (Graph.edge_count g) in
  let mapping () =
    let u, v = Graph.endpoints g (edge ()) in
    Mapping.of_array (if Rng.int rng 2 = 0 then [| u; v |] else [| v; u |])
  in
  let value () =
    match Rng.int rng 8 with
    | 0 | 1 | 2 -> Value.Float (float_of_int (Rng.int rng 40))
    | 3 | 4 -> Value.Int (Rng.int rng 40)
    | 5 -> Value.Float (-3.0)
    | 6 -> Value.String "n/a"
    | _ -> Value.Bool false
  in
  let pick_live () = List.nth !live (Rng.int rng (List.length !live)) in
  match Rng.int rng 7 with
  | 0 | 1 -> (
      match Model.charge_mapping model ~query:(churn_query rng) (mapping ()) with
      | Ok id -> live := id :: !live
      | Error _ -> ())
  | 2 when !live <> [] ->
      let id = pick_live () in
      ignore (Model.release_charge model id);
      live := List.filter (( <> ) id) !live
  | 3 when !live <> [] -> (
      let id = pick_live () in
      match Model.migrate_charge model id ~query:(churn_query rng) (mapping ()) with
      | Ok id' -> live := id' :: List.filter (( <> ) id) !live
      | Error _ -> ())
  | 4 ->
      let v = Rng.int rng (Graph.node_count g) in
      let drained = Attrs.find "drained" (Graph.node_attrs g v) = Some (Value.Bool true) in
      Model.update_node_attrs model v
        (Attrs.of_list [ ("drained", Value.Bool (not drained)) ])
  | 5 ->
      let name = if Rng.int rng 2 = 0 then "avgDelay" else "bandwidth" in
      Model.update_edge_attrs model (edge ()) (Attrs.of_list [ (name, value ()) ])
  | _ ->
      let name = List.nth [ "cpuMhz"; "memMB"; "osType" ] (Rng.int rng 3) in
      Model.update_node_attrs model (Rng.int rng (Graph.node_count g))
        (Attrs.of_list [ (name, value ()) ])

let columns_prop seed =
  let rng = Rng.make seed in
  let model = Model.create (churn_host rng) in
  let live = ref [] in
  for step = 1 to 25 do
    churn_step rng model live;
    let host = Model.residual_snapshot model in
    let columns = Model.columns model host in
    let query = churn_query rng in
    let build columns =
      let p =
        Problem.make ~node_constraint:churn_node_constraint ?columns ~host ~query
          churn_constraint
      in
      let blame = Explain.Blame.create () in
      match Filter.build ~blame p with
      | f -> Ok (f, blame)
      | exception Netembed_expr.Eval.Eval_error m -> Error m
    in
    let fail what = QCheck.Test.fail_reportf "seed %d, step %d: %s" seed step what in
    (match (build (Some columns), build None) with
    | Error m, Error m' -> if m <> m' then fail (Printf.sprintf "errors %S vs %S" m m')
    | Ok _, Error m | Error m, Ok _ -> fail ("only one build raised " ^ m)
    | Ok (f, blame), Ok (f', blame') ->
        let nq = Graph.node_count query and nr = Graph.node_count host in
        for a = 0 to nq - 1 do
          if not (Bitset.equal (Filter.node_candidates_bits f a) (Filter.node_candidates_bits f' a))
          then fail (Printf.sprintf "node candidates of q%d" a);
          let tallies b = List.sort compare (Explain.Blame.by_node b a) in
          if tallies blame <> tallies blame' then fail (Printf.sprintf "blame of q%d" a);
          for b = 0 to nq - 1 do
            for r = 0 to nr - 1 do
              let cell f =
                match Filter.cell_bits_exn f ~q_assigned:a ~r_assigned:r ~q_next:b with
                | c -> Some (Bitset.elements c)
                | exception Not_found -> None
              in
              if cell f <> cell f' then fail (Printf.sprintf "cell (q%d, r%d, q%d)" a r b)
            done
          done
        done);
    let fresh = Prefilter.of_graph host in
    List.iter
      (fun (universe, served, fresh, names) ->
        List.iter
          (fun name ->
            if not (same_column (served.Prefilter.column name) (fresh.Prefilter.column name))
            then fail (Printf.sprintf "%s column %s" universe name))
          names)
      [ ("edge", columns.Prefilter.edges, fresh.Prefilter.edges,
         [ "avgDelay"; "bandwidth"; "minDelay" ]);
        ("node", columns.nodes, fresh.nodes, [ "cpuMhz"; "memMB"; "osType"; "drained" ]) ]
  done;
  true

let columns_churn_test =
  QCheck.Test.make ~count:40 ~name:"model columns = fresh columns over churn traces"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    columns_prop

let () =
  Alcotest.run "service"
    [
      ( "model",
        [
          Alcotest.test_case "snapshot isolated" `Quick test_model_snapshot_isolated;
          Alcotest.test_case "revision" `Quick test_model_revision;
          Alcotest.test_case "reserved attribute" `Quick test_model_reserved_attr;
          Alcotest.test_case "snapshots share the pair index" `Quick
            test_snapshot_shares_pair_index;
          Alcotest.test_case "load allocates <= 2x the model" `Quick
            test_of_graphml_file_words;
          Alcotest.test_case "load = create over the read graph" `Quick
            test_of_graphml_file_equals_create;
        ] );
      ( "host columns",
        [
          Alcotest.test_case "columns outlive builds" `Quick test_columns_outlive_builds;
          Alcotest.test_case "answers follow model changes" `Quick test_columns_follow_changes;
          Alcotest.test_case "an old snapshot's column stays private" `Quick
            test_old_snapshot_column_private;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) columns_churn_test;
        ] );
      ( "service",
        [
          Alcotest.test_case "submit end-to-end" `Quick test_submit_end_to_end;
          Alcotest.test_case "bad constraint" `Quick test_submit_bad_constraint;
          Alcotest.test_case "unsat certificate per path" `Quick
            test_unsat_certificate_every_path;
          Alcotest.test_case "answer stamped with snapshot revision" `Quick
            test_answer_stamped_with_snapshot_revision;
          Alcotest.test_case "relaxation loop" `Quick test_relaxation;
          Alcotest.test_case "request relax" `Quick test_request_relax;
          Alcotest.test_case "constraint file" `Quick test_constraint_file;
          Alcotest.test_case "allocate shared lifecycle" `Quick
            test_allocate_shared_lifecycle;
          Alcotest.test_case "migrate is atomic" `Quick test_migrate_atomic;
          Alcotest.test_case "admission rejection" `Quick test_admission_rejection;
          Alcotest.test_case "every failure leaves by one exit" `Quick
            test_single_exit_table;
          Alcotest.test_case "last entry is per domain" `Quick test_last_entry_per_domain;
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
          Alcotest.test_case "frame bound holds inside a streaming line" `Quick
            test_wire_frame_bound_streams;
          Alcotest.test_case "frame bound at max_bytes and max_bytes + 1" `Quick
            test_wire_frame_bound_edges;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
            prop_wire_reader_matches_oracle;
          QCheck_alcotest.to_alcotest prop_wire_decode_total;
          Alcotest.test_case "hostile query GraphML" `Quick test_wire_hostile_graphml;
          Alcotest.test_case "every prefix of an EMBED frame" `Quick test_wire_decode_prefixes;
          Alcotest.test_case "every prefix of an EMBED frame, read one byte at a time"
            `Quick test_wire_read_prefixes;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_wire_decode_never_raises;
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

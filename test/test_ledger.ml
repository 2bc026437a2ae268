module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ledger = Netembed_ledger.Ledger
module Mapping = Netembed_core.Mapping
module Problem = Netembed_core.Problem
module Engine = Netembed_core.Engine
module Expr = Netembed_expr.Expr

let check = Alcotest.check
let exact = Alcotest.float 0.0

(* 4-node ring, every node 1000 MHz / 1024 MB, every link 100 Mbps. *)
let host () =
  let g = Graph.create ~name:"cap-ring" () in
  let node =
    Attrs.of_list [ ("cpuMhz", Value.Int 1000); ("memMB", Value.Int 1024) ]
  in
  let edge =
    Attrs.of_list [ ("avgDelay", Value.Float 10.0); ("bandwidth", Value.Float 100.0) ]
  in
  let v = Array.init 4 (fun _ -> Graph.add_node g node) in
  for i = 0 to 3 do
    ignore (Graph.add_edge g v.(i) v.((i + 1) mod 4) edge)
  done;
  g

let query ~cpu ~bw =
  let g = Graph.create ~name:"q" () in
  let node = Attrs.of_list [ ("cpuMhz", Value.Float cpu) ] in
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

let line target resource amount = { Ledger.target; resource; amount }

let assert_pristine ledger =
  let g = Ledger.graph ledger in
  for v = 0 to Graph.node_count g - 1 do
    check exact "node cpu residual" 1000.0 (Ledger.residual ledger (Ledger.Node v) "cpuMhz");
    check exact "node mem residual" 1024.0 (Ledger.residual ledger (Ledger.Node v) "memMB")
  done;
  for e = 0 to Graph.edge_count g - 1 do
    check exact "edge bw residual" 100.0 (Ledger.residual ledger (Ledger.Edge e) "bandwidth")
  done;
  check Alcotest.int "no allocations" 0 (Ledger.outstanding ledger)

(* ------------------------------------------------------------------ *)

let test_tracking () =
  let ledger = Ledger.of_graph (host ()) in
  check Alcotest.(list string) "node resources" [ "cpuMhz"; "memMB" ]
    (Ledger.node_resources ledger);
  check Alcotest.(list string) "edge resources" [ "bandwidth" ]
    (Ledger.edge_resources ledger);
  check exact "capacity" 1000.0 (Ledger.capacity ledger (Ledger.Node 0) "cpuMhz");
  check exact "untracked resource" 0.0 (Ledger.capacity ledger (Ledger.Node 0) "gpu");
  (* A host with no capacity attributes yields an empty ledger that
     admits everything. *)
  let bare = Graph.create () in
  ignore (Graph.add_node bare Attrs.empty);
  ignore (Graph.add_node bare Attrs.empty);
  ignore (Graph.add_edge bare 0 1 Attrs.empty);
  let empty = Ledger.of_graph bare in
  check Alcotest.(list string) "nothing tracked" [] (Ledger.node_resources empty);
  match Ledger.admissible empty ~query:(query ~cpu:1e9 ~bw:1e9) with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Ledger.failure_to_string f)

(* Commit/release round-trips restore residuals exactly — bit-for-bit
   float equality, even under fractional churn that would drift with
   naive add/subtract accounting. *)
let test_roundtrip_exact () =
  let ledger = Ledger.of_graph (host ()) in
  (* Interleaved commits and releases of awkward fractions. *)
  let commit c =
    match Ledger.try_commit ledger c with
    | Ok id -> id
    | Error f -> Alcotest.fail (Ledger.failure_to_string f)
  in
  let ids = ref [] in
  for i = 0 to 99 do
    let a = 0.1 +. (0.7 *. float_of_int (i mod 13)) in
    let id =
      commit
        [
          line (Ledger.Node (i mod 4)) "cpuMhz" a;
          line (Ledger.Node ((i + 1) mod 4)) "memMB" (a /. 3.0);
          line (Ledger.Edge (i mod 4)) "bandwidth" (a /. 7.0);
        ]
    in
    ids := id :: !ids;
    (* Every third step, release a pending allocation out of order. *)
    if i mod 3 = 2 then begin
      match !ids with
      | _ :: keep :: rest when i mod 2 = 0 ->
          check Alcotest.bool "release" true (Ledger.release ledger keep);
          ids := List.hd !ids :: rest
      | id :: rest ->
          check Alcotest.bool "release" true (Ledger.release ledger id);
          ids := rest
      | [] -> ()
    end
  done;
  List.iter (fun id -> check Alcotest.bool "drain" true (Ledger.release ledger id)) !ids;
  assert_pristine ledger;
  (* Double release is a no-op. *)
  check Alcotest.bool "unknown id" false (Ledger.release ledger 1)

let test_atomicity () =
  let ledger = Ledger.of_graph (host ()) in
  (* First line fits, second over-commits: nothing may be debited. *)
  (match
     Ledger.try_commit ledger
       [ line (Ledger.Node 0) "cpuMhz" 600.0; line (Ledger.Node 1) "cpuMhz" 1200.0 ]
   with
  | Ok _ -> Alcotest.fail "expected over-commit"
  | Error f ->
      check Alcotest.string "names the resource" "cpuMhz" f.Ledger.resource;
      check Alcotest.bool "names the element" true (f.Ledger.target = Some (Ledger.Node 1));
      check exact "requested" 1200.0 f.Ledger.requested;
      check exact "available" 1000.0 f.Ledger.available);
  assert_pristine ledger;
  (* Lines against the same (target, resource) aggregate before the
     check: two individually-fitting halves that jointly exceed the
     capacity are rejected. *)
  (match
     Ledger.try_commit ledger
       [ line (Ledger.Edge 0) "bandwidth" 60.0; line (Ledger.Edge 0) "bandwidth" 60.0 ]
   with
  | Ok _ -> Alcotest.fail "expected aggregated over-commit"
  | Error f ->
      check Alcotest.string "resource" "bandwidth" f.Ledger.resource;
      check exact "joint demand" 120.0 f.Ledger.requested);
  assert_pristine ledger;
  (* Negative amounts are a programming error, not a rejection. *)
  match Ledger.try_commit ledger [ line (Ledger.Node 0) "cpuMhz" (-1.0) ] with
  | exception Invalid_argument _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Invalid_argument"

let test_multi_tenant () =
  let ledger = Ledger.of_graph (host ()) in
  let tenant () = [ line (Ledger.Node 0) "cpuMhz" 400.0 ] in
  let id1 = Result.get_ok (Ledger.try_commit ledger (tenant ())) in
  let _id2 = Result.get_ok (Ledger.try_commit ledger (tenant ())) in
  check exact "co-located" 800.0 (Ledger.used ledger (Ledger.Node 0) "cpuMhz");
  (* Third tenant does not fit; the failure names resource and element
     and reports what is left. *)
  (match Ledger.try_commit ledger (tenant ()) with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error f ->
      check Alcotest.string "resource" "cpuMhz" f.Ledger.resource;
      check Alcotest.bool "element" true (f.Ledger.target = Some (Ledger.Node 0));
      check exact "available" 200.0 f.Ledger.available);
  (* Departure of tenant 1 makes room again. *)
  check Alcotest.bool "release" true (Ledger.release ledger id1);
  match Ledger.try_commit ledger (tenant ()) with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Ledger.failure_to_string f)

(* Searching against the residual graph and charging each returned
   embedding must never over-commit: the constraints see residual
   capacities, so whatever the engine returns fits by construction. *)
let test_residual_search_never_overcommits () =
  let base = host () in
  let ledger = Ledger.of_graph base in
  let q = query ~cpu:400.0 ~bw:60.0 in
  let edge_constraint =
    Expr.parse_exn
      "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay \
       && rEdge.bandwidth >= vEdge.bandwidth"
  in
  let node_constraint = Expr.parse_exn "rSource.cpuMhz >= vSource.cpuMhz" in
  let tenants = ref 0 in
  let exhausted = ref false in
  while not !exhausted do
    let residual = Ledger.residual_graph ledger in
    let problem = Problem.make ~node_constraint ~host:residual ~query:q edge_constraint in
    match Engine.find_first Engine.ECF problem with
    | None -> exhausted := true
    | Some mapping -> (
        match Ledger.charge_of_mapping ledger ~query:q mapping with
        | Error m -> Alcotest.fail m
        | Ok charge -> (
            match Ledger.try_commit ledger charge with
            | Ok _ -> incr tenants
            | Error f ->
                Alcotest.failf "residual search over-committed: %s"
                  (Ledger.failure_to_string f)))
  done;
  (* 4 edges x 100 Mbps at 60 per tenant: one tenant per edge; node
     capacity admits two 400 MHz tenants per node. *)
  check Alcotest.int "tenants placed" 4 !tenants;
  List.iter
    (fun (_, _, used, cap) ->
      if used > cap then Alcotest.failf "utilization above capacity: %g > %g" used cap)
    (Ledger.utilization ledger)

let test_charge_of_mapping () =
  let ledger = Ledger.of_graph (host ()) in
  let q = query ~cpu:400.0 ~bw:60.0 in
  (* Adjacent hosts: node and edge lines. *)
  (match Ledger.charge_of_mapping ledger ~query:q (Mapping.of_array [| 0; 1 |]) with
  | Error m -> Alcotest.fail m
  | Ok charge -> check Alcotest.int "two node lines + one edge line" 3 (List.length charge));
  (* Hosts 0 and 2 share no link in the ring: a bandwidth-demanding
     query edge cannot be accounted. *)
  match Ledger.charge_of_mapping ledger ~query:q (Mapping.of_array [| 0; 2 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unaccountable path mapping"

let test_admission () =
  let ledger = Ledger.of_graph (host ()) in
  (* 2 x 2500 = 5000 > 4000 total MHz. *)
  (match Ledger.admissible ledger ~query:(query ~cpu:2500.0 ~bw:1.0) with
  | Ok () -> Alcotest.fail "expected aggregate rejection"
  | Error f ->
      check Alcotest.string "resource" "cpuMhz" f.Ledger.resource;
      check Alcotest.bool "aggregate (no element)" true (f.Ledger.target = None);
      check exact "requested" 5000.0 f.Ledger.requested;
      check exact "available" 4000.0 f.Ledger.available);
  (* Feasible in aggregate. *)
  (match Ledger.admissible ledger ~query:(query ~cpu:400.0 ~bw:60.0) with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Ledger.failure_to_string f));
  (* Usage shrinks what admission sees. *)
  ignore (Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 0) "cpuMhz" 1000.0;
                                                    line (Ledger.Node 1) "cpuMhz" 1000.0;
                                                    line (Ledger.Node 2) "cpuMhz" 1000.0;
                                                    line (Ledger.Node 3) "cpuMhz" 300.0 ]));
  match Ledger.admissible ledger ~query:(query ~cpu:400.0 ~bw:1.0) with
  | Ok () -> Alcotest.fail "expected admission to see residuals"
  | Error f -> check exact "residual total" 700.0 f.Ledger.available

let test_sync_and_credit () =
  let g = host () in
  let a = Ledger.of_graph g in
  let charge =
    [
      line (Ledger.Node 0) "cpuMhz" 400.0;
      line (Ledger.Node 1) "cpuMhz" 400.0;
      line (Ledger.Edge 0) "bandwidth" 60.0;
    ]
  in
  ignore (Result.get_ok (Ledger.try_commit a charge));
  (* A fresh ledger rebuilt from the residual snapshot sees the same
     usage, held as one external allocation. *)
  let b = Ledger.of_graph g in
  Ledger.sync_residual b (Ledger.residual_graph a);
  check Alcotest.int "one external allocation" 1 (Ledger.outstanding b);
  check exact "usage recovered" 400.0 (Ledger.used b (Ledger.Node 0) "cpuMhz");
  check exact "edge usage recovered" 60.0 (Ledger.used b (Ledger.Edge 0) "bandwidth");
  (* Crediting the original charge back empties the ledger exactly. *)
  (match Ledger.credit b charge with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check exact "restored" 1000.0 (Ledger.residual b (Ledger.Node 0) "cpuMhz");
  check exact "edge restored" 100.0 (Ledger.residual b (Ledger.Edge 0) "bandwidth");
  (* Crediting again exceeds what is recorded. *)
  (match Ledger.credit b charge with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected over-credit failure");
  (* Without any synced usage there is nothing to credit. *)
  let c = Ledger.of_graph g in
  match Ledger.credit c charge with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected no-external-usage failure"

let test_migrate () =
  let ledger = Ledger.of_graph (host ()) in
  let id = Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 0) "cpuMhz" 400.0 ]) in
  (* Success: the charge moves atomically and the old id dies. *)
  let id' =
    match Ledger.migrate ledger id [ line (Ledger.Node 1) "cpuMhz" 400.0 ] with
    | Ok id' -> id'
    | Error f -> Alcotest.fail (Ledger.failure_to_string f)
  in
  check exact "source vacated" 1000.0 (Ledger.residual ledger (Ledger.Node 0) "cpuMhz");
  check exact "target charged" 600.0 (Ledger.residual ledger (Ledger.Node 1) "cpuMhz");
  check Alcotest.int "still one allocation" 1 (Ledger.outstanding ledger);
  check Alcotest.bool "old id dead" true (Ledger.allocation_charge ledger id = None);
  check Alcotest.bool "release new id" true (Ledger.release ledger id');
  assert_pristine ledger;
  (* Unknown ids are a programming error. *)
  match Ledger.migrate ledger 999 [] with
  | exception Invalid_argument _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Invalid_argument"

(* The release-then-commit order lets a move land on capacity the
   allocation itself vacates. *)
let test_migrate_reuses_own_capacity () =
  let ledger = Ledger.of_graph (host ()) in
  let victim = Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 0) "cpuMhz" 800.0 ]) in
  (* 900 > 200 residual, but fits once the victim's own 800 is back. *)
  (match Ledger.migrate ledger victim [ line (Ledger.Node 0) "cpuMhz" 900.0 ] with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Ledger.failure_to_string f));
  check exact "re-homed in place" 100.0 (Ledger.residual ledger (Ledger.Node 0) "cpuMhz")

let test_migrate_rollback () =
  let ledger = Ledger.of_graph (host ()) in
  let before = [ line (Ledger.Node 0) "cpuMhz" 400.0; line (Ledger.Edge 0) "bandwidth" 30.0 ] in
  let id = Result.get_ok (Ledger.try_commit ledger before) in
  let bystander = Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 2) "cpuMhz" 250.0 ]) in
  (* The new charge over-commits: the failure must leave the victim
     intact under its original id with its original charge, bit-exact. *)
  (match Ledger.migrate ledger id [ line (Ledger.Node 1) "cpuMhz" 1200.0 ] with
  | Ok _ -> Alcotest.fail "expected over-commit"
  | Error f -> check Alcotest.string "names the resource" "cpuMhz" f.Ledger.resource);
  check Alcotest.int "both allocations live" 2 (Ledger.outstanding ledger);
  (match Ledger.allocation_charge ledger id with
  | Some c -> check Alcotest.bool "charge preserved" true (c = before)
  | None -> Alcotest.fail "victim lost its allocation");
  check exact "victim still charged" 600.0 (Ledger.residual ledger (Ledger.Node 0) "cpuMhz");
  check exact "victim bw still charged" 70.0 (Ledger.residual ledger (Ledger.Edge 0) "bandwidth");
  check exact "target untouched" 1000.0 (Ledger.residual ledger (Ledger.Node 1) "cpuMhz");
  check Alcotest.bool "release victim" true (Ledger.release ledger id);
  check Alcotest.bool "release bystander" true (Ledger.release ledger bystander);
  assert_pristine ledger

let test_fragmentation () =
  let ledger = Ledger.of_graph (host ()) in
  (* Idle: all free capacity sits on untouched elements. *)
  check exact "idle" 0.0 (Ledger.fragmentation_index ledger);
  (* A fully-consumed node leaves no partial residue either. *)
  let full = Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 0) "cpuMhz" 1000.0 ]) in
  let cpu_frag () =
    match List.find (fun (r, k, _) -> r = "cpuMhz" && k = `Node) (Ledger.fragmentation ledger) with
    | _, _, f -> f
  in
  check exact "fully used = consolidated" 0.0 (cpu_frag ());
  (* A half-used node scatters its free half: 500 of the 3500 free MHz
     now sits on a partially-used element. *)
  let partial = Result.get_ok (Ledger.try_commit ledger [ line (Ledger.Node 1) "cpuMhz" 500.0 ]) in
  check (Alcotest.float 1e-9) "dispersed share" (500.0 /. 2500.0) (cpu_frag ());
  (* The index averages over all tracked pools (memMB and bandwidth are
     untouched, so they contribute 0). *)
  check (Alcotest.float 1e-9) "index is pool mean" (500.0 /. 2500.0 /. 3.0)
    (Ledger.fragmentation_index ledger);
  ignore (Ledger.release ledger full);
  ignore (Ledger.release ledger partial);
  check exact "restored" 0.0 (Ledger.fragmentation_index ledger)

(* Property: any sequence of fitting commits, fully released in an
   arbitrary order, restores every residual bit-for-bit. *)
let prop_release_restores =
  QCheck.Test.make ~name:"full release restores residuals exactly" ~count:100
    QCheck.(
      list_of_size (QCheck.Gen.int_range 1 30)
        (pair (int_bound 3) (map (fun k -> float_of_int k /. 97.0) (int_bound 2500))))
    (fun ops ->
      let ledger = Ledger.of_graph (host ()) in
      let ids =
        List.filter_map
          (fun (v, amount) ->
            let amount = Float.abs amount in
            match
              Ledger.try_commit ledger
                [
                  line (Ledger.Node v) "cpuMhz" amount;
                  line (Ledger.Edge v) "bandwidth" (amount /. 3.0);
                ]
            with
            | Ok id -> Some id
            | Error _ -> None)
          ops
      in
      (* Release in reversed-interleaved order. *)
      let order =
        List.mapi (fun i id -> (i, id)) ids
        |> List.sort (fun (i, _) (j, _) -> compare (i mod 2, j) (j mod 2, i))
        |> List.map snd
      in
      List.iter (fun id -> ignore (Ledger.release ledger id)) order;
      List.for_all
        (fun v ->
          Ledger.residual ledger (Ledger.Node v) "cpuMhz" = 1000.0
          && Ledger.residual ledger (Ledger.Edge v) "bandwidth" = 100.0)
        [ 0; 1; 2; 3 ])

(* Property (churn): any seeded sequence of commit / release / migrate
   events — including migrations forced to fail and roll back — that
   ends with every tenant departed restores the ledger bit-exactly:
   residuals at full capacity, zero usage totals, zero outstanding
   allocations.  500 traces; failed migrations occur whenever the
   generator emits an oversized migration target, which the amount
   range makes frequent. *)
let prop_churn_restores =
  let open QCheck in
  let op =
    triple (int_bound 5) (int_bound 3)
      (map (fun k -> float_of_int k /. 89.0) (int_bound 40000))
  in
  Test.make ~name:"churn (commit/release/migrate) drains to pristine" ~count:500
    (list_of_size (Gen.int_range 1 60) op)
    (fun ops ->
      let ledger = Ledger.of_graph (host ()) in
      let live = ref [] in
      let failed_migrations = ref 0 in
      let charge_for v amount =
        [
          line (Ledger.Node v) "cpuMhz" amount;
          line (Ledger.Edge v) "bandwidth" (amount /. 7.0);
        ]
      in
      List.iter
        (fun (kind, v, amount) ->
          match kind with
          | 0 | 1 | 2 -> (
              (* arrivals may over-commit; rejected ones charge nothing *)
              match Ledger.try_commit ledger (charge_for v amount) with
              | Ok id -> live := (id, charge_for v amount) :: !live
              | Error _ -> ())
          | 3 -> (
              (* departure of an arbitrary live tenant *)
              match !live with
              | [] -> ()
              | picked ->
                  let n = List.length picked in
                  let id, _ = List.nth picked (v mod n) in
                  if not (Ledger.release ledger id) then
                    QCheck.Test.fail_report "release of live id failed";
                  live := List.filter (fun (i, _) -> i <> id) !live)
          | _ -> (
              (* migration, to a possibly-impossible target *)
              match !live with
              | [] -> ()
              | picked -> (
                  let n = List.length picked in
                  let id, old = List.nth picked (v mod n) in
                  let charge' = charge_for ((v + 1) mod 4) amount in
                  match Ledger.migrate ledger id charge' with
                  | Ok id' ->
                      live :=
                        (id', charge')
                        :: List.filter (fun (i, _) -> i <> id) !live
                  | Error _ ->
                      (* rollback: same id, same charge, still live *)
                      incr failed_migrations;
                      if Ledger.allocation_charge ledger id <> Some old then
                        QCheck.Test.fail_report
                          "failed migration did not preserve the victim")))
        ops;
      List.iter (fun (id, _) -> ignore (Ledger.release ledger id)) !live;
      List.for_all
        (fun v ->
          Ledger.residual ledger (Ledger.Node v) "cpuMhz" = 1000.0
          && Ledger.residual ledger (Ledger.Node v) "memMB" = 1024.0
          && Ledger.residual ledger (Ledger.Edge v) "bandwidth" = 100.0)
        [ 0; 1; 2; 3 ]
      && Ledger.outstanding ledger = 0
      && List.for_all
           (fun (_, _, used, _) -> used = 0.0)
           (Ledger.utilization ledger)
      && Ledger.fragmentation_index ledger = 0.0)

let () =
  Alcotest.run "ledger"
    [
      ( "accounting",
        [
          Alcotest.test_case "tracking" `Quick test_tracking;
          Alcotest.test_case "commit/release round-trip" `Quick test_roundtrip_exact;
          Alcotest.test_case "atomicity" `Quick test_atomicity;
          Alcotest.test_case "multi-tenant exhaustion" `Quick test_multi_tenant;
          Alcotest.test_case "charge of mapping" `Quick test_charge_of_mapping;
          Alcotest.test_case "migrate" `Quick test_migrate;
          Alcotest.test_case "migrate reuses own capacity" `Quick
            test_migrate_reuses_own_capacity;
          Alcotest.test_case "migrate rollback" `Quick test_migrate_rollback;
          Alcotest.test_case "fragmentation" `Quick test_fragmentation;
          QCheck_alcotest.to_alcotest prop_release_restores;
          QCheck_alcotest.to_alcotest prop_churn_restores;
        ] );
      ( "integration",
        [
          Alcotest.test_case "residual search never over-commits" `Quick
            test_residual_search_never_overcommits;
          Alcotest.test_case "admission" `Quick test_admission;
          Alcotest.test_case "sync + credit" `Quick test_sync_and_credit;
        ] );
    ]

(* Tests for the paper's future-work extensions: optimization-stage
   ranking (Optimize), link-to-path embedding (Path_embed) and
   temporal scheduling (Schedule). *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Expr = Netembed_expr.Expr
module Rng = Netembed_rng.Rng
open Netembed_core
open Netembed_extensions

let check = Alcotest.check

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]
let band lo hi = Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

(* Host: 0-1 (10ms), 1-2 (20ms), 2-3 (10ms), 3-0 (20ms). *)
let ring_host () =
  let g = Graph.create () in
  let v = Array.init 4 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge g v.(1) v.(2) (delay 20.0));
  ignore (Graph.add_edge g v.(2) v.(3) (delay 10.0));
  ignore (Graph.add_edge g v.(3) v.(0) (delay 20.0));
  g

let single_edge_query lo hi =
  let g = Graph.create () in
  let a = Graph.add_node g Attrs.empty and b = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g a b (band lo hi));
  g

(* ------------------------------------------------------------------ *)
(* Optimize                                                            *)
(* ------------------------------------------------------------------ *)

let test_optimize_best () =
  let p = Problem.make ~host:(ring_host ()) ~query:(single_edge_query 5.0 25.0) Expr.avg_delay_within in
  let all = Engine.find_all Engine.ECF p in
  (* Edges with delay in [5,25]: all four; two of delay 10, two of 20,
     each in two orientations -> 8 mappings. *)
  check Alcotest.int "eight mappings" 8 (List.length all);
  (match Optimize.best_of p ~cost:Optimize.total_avg_delay all with
  | None -> Alcotest.fail "expected a best mapping"
  | Some m ->
      check (Alcotest.float 1e-9) "cheapest uses a 10ms link" 10.0
        (Optimize.total_avg_delay p m));
  let ranked = Optimize.rank p ~cost:Optimize.total_avg_delay all in
  check Alcotest.int "all ranked" 8 (List.length ranked);
  let costs = List.map snd ranked in
  check Alcotest.bool "ascending" true (costs = List.sort Float.compare costs);
  check (Alcotest.float 1e-9) "worst is 20ms" 20.0 (List.nth costs 7)

let test_optimize_find_best () =
  let p = Problem.make ~host:(ring_host ()) ~query:(single_edge_query 5.0 25.0) Expr.avg_delay_within in
  match Optimize.find_best Engine.ECF p ~cost:Optimize.total_avg_delay with
  | Some (m, c) ->
      check (Alcotest.float 1e-9) "best cost" 10.0 c;
      check Alcotest.bool "valid" true (Verify.is_valid p m)
  | None -> Alcotest.fail "expected a result"

let test_optimize_stock_costs () =
  let host = ring_host () in
  Graph.set_node_attrs host 0 (Attrs.of_list [ ("load", Value.Float 0.9) ]);
  Graph.set_node_attrs host 1 (Attrs.of_list [ ("load", Value.Float 0.1) ]);
  let p = Problem.make ~host ~query:(single_edge_query 5.0 25.0) Expr.avg_delay_within in
  let m01 = Mapping.of_array [| 0; 1 |] in
  check (Alcotest.float 1e-9) "load sum" 1.0 (Optimize.node_attr_sum "load" p m01);
  check (Alcotest.float 1e-9) "degree sum" 4.0 (Optimize.total_host_degree p m01);
  check (Alcotest.float 1e-9) "max delay" 10.0 (Optimize.max_avg_delay p m01)

(* ------------------------------------------------------------------ *)
(* Path_embed                                                          *)
(* ------------------------------------------------------------------ *)

let test_closure_structure () =
  (* Line 0-1-2: 2-hop closure adds 0-2 with summed delay. *)
  let host = Graph.create () in
  let v = Array.init 3 (fun _ -> Graph.add_node host Attrs.empty) in
  ignore (Graph.add_edge host v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge host v.(1) v.(2) (delay 15.0));
  let c = Path_embed.closure ~max_hops:2 host in
  let aug = Path_embed.host c in
  check Alcotest.int "3 closure edges" 3 (Graph.edge_count aug);
  (match Graph.find_edge aug 0 2 with
  | None -> Alcotest.fail "missing path edge 0-2"
  | Some e ->
      check (Alcotest.option (Alcotest.float 1e-9)) "summed delay" (Some 25.0)
        (Attrs.float "avgDelay" (Graph.edge_attrs aug e));
      check Alcotest.(list int) "underlying path" [ 0; 1; 2 ] (Path_embed.path_of_edge c e))

let test_closure_picks_cheapest () =
  (* Two 2-hop routes from 0 to 3: via 1 (10+10) and via 2 (30+30);
     the closure must keep the cheap one. *)
  let host = Graph.create () in
  let v = Array.init 4 (fun _ -> Graph.add_node host Attrs.empty) in
  ignore (Graph.add_edge host v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge host v.(1) v.(3) (delay 10.0));
  ignore (Graph.add_edge host v.(0) v.(2) (delay 30.0));
  ignore (Graph.add_edge host v.(2) v.(3) (delay 30.0));
  let c = Path_embed.closure ~max_hops:2 host in
  match Graph.find_edge (Path_embed.host c) 0 3 with
  | None -> Alcotest.fail "missing path edge"
  | Some e ->
      check (Alcotest.option (Alcotest.float 1e-9)) "cheapest kept" (Some 20.0)
        (Attrs.float "avgDelay" (Graph.edge_attrs (Path_embed.host c) e));
      check Alcotest.(list int) "via node 1" [ 0; 1; 3 ] (Path_embed.path_of_edge c e)

let test_embed_with_paths () =
  (* A query link demanding <= 30ms end-to-end that no single host link
     satisfies between far nodes; a 2-hop path does. *)
  let host = Graph.create () in
  let v = Array.init 3 (fun _ -> Graph.add_node host Attrs.empty) in
  ignore (Graph.add_edge host v.(0) v.(1) (delay 12.0));
  ignore (Graph.add_edge host v.(1) v.(2) (delay 14.0));
  (* Query: one link in [25, 30]: only the 0-1-2 path (26ms) fits. *)
  let query = single_edge_query 25.0 30.0 in
  (match
     Path_embed.embed_with_paths ~max_hops:2 Engine.ECF ~host ~query
       Expr.avg_delay_within
   with
  | None -> Alcotest.fail "expected a path embedding"
  | Some (m, decoded) -> (
      let ends = List.sort compare [ Mapping.apply m 0; Mapping.apply m 1 ] in
      check Alcotest.(list int) "spans the line" [ 0; 2 ] ends;
      match decoded with
      | [ (_, path) ] -> check Alcotest.int "2-hop path" 3 (List.length path)
      | _ -> Alcotest.fail "expected one decoded edge"));
  (* Without path mapping the same query is infeasible. *)
  let p = Problem.make ~host ~query Expr.avg_delay_within in
  check Alcotest.bool "one-to-one infeasible" true (Engine.find_first Engine.ECF p = None)

let test_closure_bandwidth_bottleneck () =
  let bw d b =
    Attrs.of_list [ ("avgDelay", Value.Float d); ("bandwidth", Value.Float b) ]
  in
  let host = Graph.create () in
  let v = Array.init 3 (fun _ -> Graph.add_node host Attrs.empty) in
  ignore (Graph.add_edge host v.(0) v.(1) (bw 10.0 100.0));
  ignore (Graph.add_edge host v.(1) v.(2) (bw 10.0 25.0));
  let c = Path_embed.closure ~max_hops:2 host in
  match Graph.find_edge (Path_embed.host c) 0 2 with
  | None -> Alcotest.fail "missing path edge"
  | Some e ->
      check (Alcotest.option (Alcotest.float 1e-9)) "bottleneck bandwidth" (Some 25.0)
        (Attrs.float "bandwidth" (Graph.edge_attrs (Path_embed.host c) e))

let test_closure_rejects () =
  match Path_embed.closure ~max_hops:0 (ring_host ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_immediate () =
  let s = Schedule.create (ring_host ()) in
  match
    Schedule.earliest s ~now:100.0 ~duration:50.0 ~query:(single_edge_query 5.0 15.0)
      Expr.avg_delay_within
  with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      check (Alcotest.float 1e-9) "starts now" 100.0 placement.Schedule.start;
      check (Alcotest.float 1e-9) "window" 150.0 placement.Schedule.finish

let test_schedule_waits_for_lease () =
  let s = Schedule.create (ring_host ()) in
  (* Occupy hosts 0 and 2 until t=200: the delay-10 links (0-1 and 2-3)
     are both blocked, so a [5,15] query must wait. *)
  Schedule.book s
    { Schedule.mapping = Mapping.of_array [| 0; 2 |]; start = 0.0; finish = 200.0 };
  check Alcotest.(list int) "busy now" [ 0; 2 ] (Schedule.busy_at s 100.0);
  match
    Schedule.earliest s ~now:100.0 ~duration:10.0 ~query:(single_edge_query 5.0 15.0)
      Expr.avg_delay_within
  with
  | Error m -> Alcotest.fail m
  | Ok placement ->
      check (Alcotest.float 1e-9) "deferred to lease expiry" 200.0 placement.Schedule.start;
      (* Booking it then shows up as a lease. *)
      Schedule.book s placement;
      check Alcotest.int "two leases" 2 (List.length (Schedule.leases s));
      check Alcotest.int "expired cleanup" 1 (Schedule.release_expired s ~now:205.0)

let test_schedule_infeasible () =
  let s = Schedule.create (ring_host ()) in
  match
    Schedule.earliest s ~now:0.0 ~duration:10.0 ~query:(single_edge_query 500.0 600.0)
      Expr.avg_delay_within
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility"

(* Windows are half-open [start, finish): a lease ending exactly at a
   candidate start does not block it. *)
let test_schedule_lease_boundary () =
  let s = Schedule.create (ring_host ()) in
  (* Blocks both delay-10 links until exactly t=100. *)
  Schedule.book s
    { Schedule.mapping = Mapping.of_array [| 0; 2 |]; start = 0.0; finish = 100.0 };
  (* A window starting at the lease's exact end is free... *)
  (match
     Schedule.earliest s ~now:100.0 ~duration:10.0 ~query:(single_edge_query 5.0 15.0)
       Expr.avg_delay_within
   with
  | Error m -> Alcotest.fail m
  | Ok p -> check (Alcotest.float 1e-9) "lease end is usable" 100.0 p.Schedule.start);
  (* ...and a lease expiring exactly at `now` is also already gone from
     the busy set (gc uses the same half-open convention). *)
  check Alcotest.(list int) "not busy at own finish" [] (Schedule.busy_at s 100.0);
  (* But one instant earlier the lease still blocks, deferring to its
     expiry. *)
  let s2 = Schedule.create (ring_host ()) in
  Schedule.book s2
    { Schedule.mapping = Mapping.of_array [| 0; 2 |]; start = 0.0; finish = 100.0 };
  match
    Schedule.earliest s2 ~now:99.0 ~duration:10.0 ~query:(single_edge_query 5.0 15.0)
      Expr.avg_delay_within
  with
  | Error m -> Alcotest.fail m
  | Ok p -> check (Alcotest.float 1e-9) "deferred to expiry" 100.0 p.Schedule.start

let test_schedule_zero_duration () =
  let s = Schedule.create (ring_host ()) in
  (* On an idle network a zero-duration request starts immediately and
     occupies a degenerate window. *)
  (match
     Schedule.earliest s ~now:42.0 ~duration:0.0 ~query:(single_edge_query 5.0 15.0)
       Expr.avg_delay_within
   with
  | Error m -> Alcotest.fail m
  | Ok p ->
      check (Alcotest.float 1e-9) "starts now" 42.0 p.Schedule.start;
      check (Alcotest.float 1e-9) "degenerate window" 42.0 p.Schedule.finish);
  (* An instant strictly inside a lease is still busy for duration 0. *)
  Schedule.book s
    { Schedule.mapping = Mapping.of_array [| 0; 2 |]; start = 0.0; finish = 200.0 };
  match
    Schedule.earliest s ~now:100.0 ~duration:0.0 ~query:(single_edge_query 5.0 15.0)
      Expr.avg_delay_within
  with
  | Error m -> Alcotest.fail m
  | Ok p -> check (Alcotest.float 1e-9) "deferred past the lease" 200.0 p.Schedule.start

(* With a ledger attached, booked leases hold full-capacity charges and
   the internal gc (run by earliest) credits them back at expiry. *)
let test_schedule_gc_releases_charges () =
  let module Ledger = Netembed_ledger.Ledger in
  let host = Graph.create () in
  let node = Attrs.of_list [ ("cpuMhz", Value.Int 1000) ] in
  let v = Array.init 4 (fun _ -> Graph.add_node host node) in
  ignore (Graph.add_edge host v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge host v.(1) v.(2) (delay 20.0));
  ignore (Graph.add_edge host v.(2) v.(3) (delay 10.0));
  ignore (Graph.add_edge host v.(3) v.(0) (delay 20.0));
  let ledger = Ledger.of_graph host in
  let s = Schedule.create ~ledger host in
  (match
     Schedule.earliest s ~now:0.0 ~duration:50.0 ~query:(single_edge_query 5.0 15.0)
       Expr.avg_delay_within
   with
  | Error m -> Alcotest.fail m
  | Ok p ->
      Schedule.book s p;
      (* The lease's hosts are fully charged while it runs. *)
      List.iter
        (fun (_, h) ->
          check (Alcotest.float 0.0) "host locked" 0.0
            (Ledger.residual ledger (Ledger.Node h) "cpuMhz"))
        (Mapping.to_list p.Schedule.mapping));
  check Alcotest.int "charges outstanding" 2 (Ledger.outstanding ledger);
  (* A later earliest() call gc's the expired lease and frees the
     charges before scanning windows. *)
  (match
     Schedule.earliest s ~now:60.0 ~duration:10.0 ~query:(single_edge_query 5.0 15.0)
       Expr.avg_delay_within
   with
  | Error m -> Alcotest.fail m
  | Ok p -> check (Alcotest.float 1e-9) "immediate" 60.0 p.Schedule.start);
  check Alcotest.int "gc'd lease" 0 (List.length (Schedule.leases s));
  check Alcotest.int "charges returned" 0 (Ledger.outstanding ledger);
  for i = 0 to 3 do
    check (Alcotest.float 0.0) "capacity restored exactly" 1000.0
      (Ledger.residual ledger (Ledger.Node i) "cpuMhz")
  done

(* A booked lease holds the whole residual of every pool on its hosts,
   including what a fractional tenant left free: nothing more fits
   there, the other hosts and the links keep theirs, and expiry returns
   the ledger to pristine. *)
let test_schedule_book_holds_hosts () =
  let module Ledger = Netembed_ledger.Ledger in
  let host = Graph.create () in
  let node = Attrs.of_list [ ("cpuMhz", Value.Int 1000); ("memMB", Value.Int 1024) ] in
  let link = Attrs.add "bandwidth" (Value.Float 100.0) (delay 10.0) in
  let v = Array.init 4 (fun _ -> Graph.add_node host node) in
  for i = 0 to 3 do
    ignore (Graph.add_edge host v.(i) v.((i + 1) mod 4) link)
  done;
  let ledger = Ledger.of_graph host in
  let s = Schedule.create ~ledger host in
  let tenant =
    Result.get_ok
      (Ledger.try_commit ledger
         [ { Ledger.target = Ledger.Node 0; resource = "cpuMhz"; amount = 300.0 } ])
  in
  Schedule.book s
    { Schedule.mapping = Mapping.of_array [| 0; 2 |]; start = 0.0; finish = 100.0 };
  List.iter
    (fun h ->
      List.iter
        (fun r ->
          check (Alcotest.float 0.0) "leased pool empty" 0.0
            (Ledger.residual ledger (Ledger.Node h) r))
        (Ledger.node_resources ledger))
    [ 0; 2 ];
  (match
     Ledger.try_commit ledger
       [ { Ledger.target = Ledger.Node 2; resource = "cpuMhz"; amount = 1.0 } ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a leased host must take no fractional charge");
  List.iter
    (fun h ->
      check (Alcotest.float 0.0) "other host cpu" 1000.0
        (Ledger.residual ledger (Ledger.Node h) "cpuMhz");
      check (Alcotest.float 0.0) "other host mem" 1024.0
        (Ledger.residual ledger (Ledger.Node h) "memMB"))
    [ 1; 3 ];
  for e = 0 to 3 do
    check (Alcotest.float 0.0) "links untouched" 100.0
      (Ledger.residual ledger (Ledger.Edge e) "bandwidth")
  done;
  check Alcotest.int "expired" 1 (Schedule.release_expired s ~now:100.0);
  check Alcotest.bool "tenant released" true (Ledger.release ledger tenant);
  for h = 0 to 3 do
    check (Alcotest.float 0.0) "cpu pristine" 1000.0
      (Ledger.residual ledger (Ledger.Node h) "cpuMhz");
    check (Alcotest.float 0.0) "mem pristine" 1024.0
      (Ledger.residual ledger (Ledger.Node h) "memMB")
  done;
  check Alcotest.int "no allocations" 0 (Ledger.outstanding ledger)

let test_path_embed_decoded_paths_real () =
  (* Property on a real substrate: every decoded path is a genuine host
     walk and its summed delay satisfies the query band. *)
  let rng = Rng.make 77 in
  let host =
    Netembed_topology.Transit_stub.generate rng Netembed_topology.Transit_stub.default
  in
  let query = single_edge_query 20.0 200.0 in
  match
    Path_embed.embed_with_paths ~max_hops:3 Engine.ECF ~host ~query Expr.avg_delay_within
  with
  | None -> Alcotest.fail "expected a path embedding on a WAN"
  | Some (_, decoded) ->
      List.iter
        (fun (qe, path) ->
          (* consecutive hops are host edges *)
          let rec hops = function
            | a :: (b :: _ as rest) ->
                if not (Graph.mem_edge host a b || Graph.mem_edge host b a) then
                  Alcotest.fail "decoded hop is not a host edge";
                hops rest
            | _ -> ()
          in
          hops path;
          (* summed delay within the query band *)
          let total =
            let rec sum acc = function
              | a :: (b :: _ as rest) ->
                  let e = List.hd (Graph.edges_between host a b) in
                  sum (acc +. Option.get (Attrs.float "avgDelay" (Graph.edge_attrs host e))) rest
              | _ -> acc
            in
            sum 0.0 path
          in
          let attrs = Graph.edge_attrs (single_edge_query 20.0 200.0) qe in
          ignore attrs;
          if total < 20.0 -. 1e-6 || total > 200.0 +. 1e-6 then
            Alcotest.failf "path delay %g outside band" total)
        decoded

let test_schedule_no_overlap_property () =
  (* Booked placements never share a host during overlapping windows. *)
  let rng = Rng.make 88 in
  let host = ring_host () in
  let s = Schedule.create host in
  let placements = ref [] in
  for i = 0 to 9 do
    let now = float_of_int (10 * i) in
    ignore (Schedule.release_expired s ~now);
    match
      Schedule.earliest s ~now ~duration:(15.0 +. Rng.float rng 20.0)
        ~query:(single_edge_query 5.0 25.0) Expr.avg_delay_within
    with
    | Error _ -> ()
    | Ok p ->
        Schedule.book s p;
        placements := p :: !placements
  done;
  let overlap (a : Schedule.placement) (b : Schedule.placement) =
    a.Schedule.start < b.Schedule.finish && b.Schedule.start < a.Schedule.finish
  in
  let hosts_of p = List.map snd (Mapping.to_list p.Schedule.mapping) in
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
        List.iter
          (fun q ->
            if overlap p q then
              List.iter
                (fun h ->
                  if List.mem h (hosts_of q) then
                    Alcotest.failf "host %d double-booked" h)
                (hosts_of p))
          rest;
        pairs rest
  in
  check Alcotest.bool "some placements made" true (List.length !placements >= 2);
  pairs !placements

(* ------------------------------------------------------------------ *)
(* Symmetry                                                            *)
(* ------------------------------------------------------------------ *)

let test_automorphisms_counts () =
  let module Regular = Netembed_topology.Regular in
  (* Unattributed shapes have the textbook group orders. *)
  let order g = match Symmetry.automorphisms g with Some t -> Symmetry.size t | None -> -1 in
  check Alcotest.int "clique 4 -> 4!" 24 (order (Regular.clique 4));
  check Alcotest.int "ring 5 -> dihedral 10" 10 (order (Regular.ring 5));
  check Alcotest.int "star 5 -> (n-1)!" 24 (order (Regular.star 5));
  check Alcotest.int "line 3 -> 2" 2 (order (Regular.line 3));
  (* Attribute differences break symmetry. *)
  let p = Regular.line 3 in
  Graph.set_node_attrs p 0 (Attrs.of_list [ ("pin", Value.Bool true) ]);
  check Alcotest.int "attributed line -> trivial" 1 (order p)

let test_automorphisms_limit () =
  let module Regular = Netembed_topology.Regular in
  match Symmetry.automorphisms ~limit:100 (Regular.clique 6) with
  | None -> () (* 720 > 100 *)
  | Some _ -> Alcotest.fail "expected the limit to trip"

let test_symmetry_dedupe_clique () =
  let module Regular = Netembed_topology.Regular in
  (* Embed a 3-clique with loose bands: the feasible set is a union of
     S3 orbits; dedupe must divide counts by exactly 6 and keep only
     verified representatives. *)
  let host = ring_host () in
  ignore (Graph.add_edge host 0 2 (delay 12.0));
  let query = Regular.clique ~edge:(band 5.0 25.0) 3 in
  let p = Problem.make ~host ~query Expr.avg_delay_within in
  let all = Engine.find_all Engine.ECF p in
  check Alcotest.bool "multiple of 6" true (List.length all mod 6 = 0);
  match Symmetry.automorphisms query with
  | None -> Alcotest.fail "group should be small"
  | Some g ->
      check Alcotest.int "S3" 6 (Symmetry.size g);
      let reps = Symmetry.dedupe g all in
      check Alcotest.int "collapsed by 6" (List.length all / 6) (List.length reps);
      List.iter (fun m -> check Alcotest.bool "rep valid" true (Verify.is_valid p m)) reps;
      check Alcotest.int "orbit_count agrees" (List.length reps) (Symmetry.orbit_count g all)

let test_canonical_idempotent () =
  let module Regular = Netembed_topology.Regular in
  let query = Regular.ring 4 in
  match Symmetry.automorphisms query with
  | None -> Alcotest.fail "small group"
  | Some g ->
      let m = Mapping.of_array [| 3; 1; 0; 2 |] in
      let c = Symmetry.canonical g m in
      check Alcotest.bool "idempotent" true (Mapping.equal c (Symmetry.canonical g c));
      (* Canonical of any orbit member is the same. *)
      let m' = Mapping.of_array [| 1; 3; 2; 0 |] in
      (* m' = m ∘ rotation?  Just check canonical is minimal-or-equal. *)
      check Alcotest.bool "canonical minimal" true
        (Mapping.to_array c <= Mapping.to_array m
        && Mapping.to_array (Symmetry.canonical g m') <= Mapping.to_array m')

let () =
  Alcotest.run "extensions"
    [
      ( "optimize",
        [
          Alcotest.test_case "best/rank" `Quick test_optimize_best;
          Alcotest.test_case "find_best" `Quick test_optimize_find_best;
          Alcotest.test_case "stock costs" `Quick test_optimize_stock_costs;
        ] );
      ( "path_embed",
        [
          Alcotest.test_case "closure structure" `Quick test_closure_structure;
          Alcotest.test_case "picks cheapest path" `Quick test_closure_picks_cheapest;
          Alcotest.test_case "embed with paths" `Quick test_embed_with_paths;
          Alcotest.test_case "bandwidth bottleneck" `Quick test_closure_bandwidth_bottleneck;
          Alcotest.test_case "rejects" `Quick test_closure_rejects;
          Alcotest.test_case "decoded paths real" `Quick test_path_embed_decoded_paths_real;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "immediate window" `Quick test_schedule_immediate;
          Alcotest.test_case "waits for lease" `Quick test_schedule_waits_for_lease;
          Alcotest.test_case "infeasible" `Quick test_schedule_infeasible;
          Alcotest.test_case "lease boundary" `Quick test_schedule_lease_boundary;
          Alcotest.test_case "zero duration" `Quick test_schedule_zero_duration;
          Alcotest.test_case "gc releases charges" `Quick test_schedule_gc_releases_charges;
          Alcotest.test_case "book holds whole hosts" `Quick test_schedule_book_holds_hosts;
          Alcotest.test_case "no double-booking" `Quick test_schedule_no_overlap_property;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "group orders" `Quick test_automorphisms_counts;
          Alcotest.test_case "limit" `Quick test_automorphisms_limit;
          Alcotest.test_case "dedupe cliques" `Quick test_symmetry_dedupe_clique;
          Alcotest.test_case "canonical" `Quick test_canonical_idempotent;
        ] );
    ]

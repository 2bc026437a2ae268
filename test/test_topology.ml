module Graph = Netembed_graph.Graph
module Traversal = Netembed_oracle.Traversal
module Metrics = Netembed_topology.Metrics
module Regular = Netembed_topology.Regular
module Brite = Netembed_topology.Brite
module Transit_stub = Netembed_topology.Transit_stub
module Composite = Netembed_topology.Composite
module Attrs = Netembed_attr.Attrs
module Rng = Netembed_rng.Rng

let check = Alcotest.check

let counts name g (nodes, edges) =
  check Alcotest.int (name ^ " nodes") nodes (Graph.node_count g);
  check Alcotest.int (name ^ " edges") edges (Graph.edge_count g);
  check Alcotest.bool (name ^ " connected") true (Traversal.is_connected g)

let test_ring () =
  counts "ring 7" (Regular.ring 7) (7, 7);
  Graph.iter_nodes
    (fun v -> check Alcotest.int "ring degree" 2 (Graph.degree (Regular.ring 7) v))
    (Regular.ring 7);
  Alcotest.check_raises "ring 2" (Invalid_argument "Regular.ring: n < 3") (fun () ->
      ignore (Regular.ring 2))

let test_star () =
  let g = Regular.star 8 in
  counts "star 8" g (8, 7);
  check Alcotest.int "hub degree" 7 (Graph.degree g 0)

let test_clique () =
  counts "clique 6" (Regular.clique 6) (6, 15);
  counts "clique 1" (Regular.clique 1) (1, 0)

let test_line () = counts "line 5" (Regular.line 5) (5, 4)

let test_tree () =
  (* Complete binary tree of depth 3: 1+2+4+8 = 15 nodes, 14 edges. *)
  counts "tree 2^3" (Regular.balanced_tree ~arity:2 3) (15, 14);
  counts "tree depth 0" (Regular.balanced_tree ~arity:3 0) (1, 0)

let test_grid () =
  (* 3x4 grid: 12 nodes, 3*3 + 2*4 = 17 edges. *)
  counts "grid 3x4" (Regular.grid ~rows:3 4) (12, 17)

let test_torus () =
  (* Torus rows*cols nodes, 2*rows*cols edges. *)
  counts "torus 3x4" (Regular.torus ~rows:3 4) (12, 24);
  Graph.iter_nodes
    (fun v -> check Alcotest.int "torus degree" 4 (Graph.degree (Regular.torus ~rows:3 4) v))
    (Regular.torus ~rows:3 4)

let test_hypercube () =
  (* d-cube: 2^d nodes, d * 2^(d-1) edges. *)
  counts "hypercube 4" (Regular.hypercube 4) (16, 32);
  Graph.iter_nodes
    (fun v -> check Alcotest.int "cube degree" 4 (Graph.degree (Regular.hypercube 4) v))
    (Regular.hypercube 4)

let test_of_shape () =
  List.iter
    (fun shape ->
      let g = Regular.of_shape shape 12 in
      check Alcotest.bool
        (Regular.shape_name shape ^ " connected")
        true (Traversal.is_connected g);
      check Alcotest.bool
        (Regular.shape_name shape ^ " size near request")
        true
        (Graph.node_count g >= 8))
    [ Regular.Ring; Regular.Star; Regular.Clique; Regular.Line; Regular.Tree 2;
      Regular.Grid; Regular.Torus; Regular.Hypercube ]

let test_edge_attrs_stamped () =
  let edge = Attrs.of_list [ ("minDelay", Netembed_attr.Value.Float 1.0) ] in
  let g = Regular.ring ~edge 5 in
  Graph.iter_edges
    (fun e _ _ ->
      check Alcotest.bool "edge attr present" true
        (Attrs.mem "minDelay" (Graph.edge_attrs g e)))
    g

(* ------------------------------------------------------------------ *)
(* BRITE                                                               *)
(* ------------------------------------------------------------------ *)

let test_brite_ba () =
  let rng = Rng.make 42 in
  let g = Brite.generate rng (Brite.default_barabasi ~n:300) in
  check Alcotest.int "n" 300 (Graph.node_count g);
  (* Incremental growth with m=2: 1 + 2*(n-2) edges. *)
  check Alcotest.int "edges ~2n" (1 + (2 * 298)) (Graph.edge_count g);
  check Alcotest.bool "connected" true (Traversal.is_connected g);
  (* Preferential attachment yields a heavy tail: hub degree >> mean. *)
  let s = Metrics.degree_stats g in
  check Alcotest.bool "hub exists" true
    (float_of_int s.Metrics.max_degree > 3.0 *. s.Metrics.mean_degree)

let test_brite_waxman () =
  let rng = Rng.make 43 in
  let g = Brite.generate rng (Brite.default_waxman ~n:200) in
  check Alcotest.int "n" 200 (Graph.node_count g);
  check Alcotest.bool "connected" true (Traversal.is_connected g);
  check Alcotest.bool "edges >= n-1" true (Graph.edge_count g >= 199)

let test_brite_attrs () =
  let rng = Rng.make 44 in
  let g = Brite.generate rng (Brite.default_barabasi ~n:50) in
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs g e in
      let mn = Option.get (Attrs.float "minDelay" a) in
      let avg = Option.get (Attrs.float "avgDelay" a) in
      let mx = Option.get (Attrs.float "maxDelay" a) in
      if not (mn <= avg && avg <= mx && mn > 0.0) then
        Alcotest.fail "delay band violated";
      if Option.get (Attrs.float "bandwidth" a) <= 0.0 then
        Alcotest.fail "bandwidth not positive")
    g;
  Graph.iter_nodes
    (fun v ->
      let a = Graph.node_attrs g v in
      if Attrs.float "x" a = None || Attrs.float "y" a = None then
        Alcotest.fail "missing coordinates")
    g;
  check Alcotest.bool "distance positive" true (Brite.edge_distance g 0 >= 0.0)

let test_brite_rejects () =
  let rng = Rng.make 45 in
  Alcotest.check_raises "n < 2" (Invalid_argument "Brite.generate: n < 2") (fun () ->
      ignore (Brite.generate rng { (Brite.default_waxman ~n:1) with Brite.n = 1 }))

let test_brite_determinism () =
  let g1 = Brite.generate (Rng.make 7) (Brite.default_barabasi ~n:80) in
  let g2 = Brite.generate (Rng.make 7) (Brite.default_barabasi ~n:80) in
  check Alcotest.int "same edges" (Graph.edge_count g1) (Graph.edge_count g2);
  let ok = ref true in
  Graph.iter_edges
    (fun e u v ->
      let u', v' = Graph.endpoints g2 e in
      if u <> u' || v <> v' then ok := false)
    g1;
  check Alcotest.bool "same structure" true !ok

(* ------------------------------------------------------------------ *)
(* Transit-stub                                                        *)
(* ------------------------------------------------------------------ *)

let test_transit_stub () =
  let rng = Rng.make 46 in
  let p = Transit_stub.default in
  let g = Transit_stub.generate rng p in
  let expected_nodes =
    p.Transit_stub.transit_nodes
    + (p.Transit_stub.transit_nodes * p.Transit_stub.stubs_per_transit * p.Transit_stub.stub_size)
  in
  check Alcotest.int "node count" expected_nodes (Graph.node_count g);
  check Alcotest.bool "connected" true (Traversal.is_connected g);
  (* Tier attributes present. *)
  let transit = ref 0 and stub = ref 0 in
  Graph.iter_nodes
    (fun v ->
      match Attrs.string "tier" (Graph.node_attrs g v) with
      | Some "transit" -> incr transit
      | Some "stub" -> incr stub
      | Some _ | None -> Alcotest.fail "missing tier")
    g;
  check Alcotest.int "transit tier" p.Transit_stub.transit_nodes !transit;
  check Alcotest.int "stub tier" (expected_nodes - p.Transit_stub.transit_nodes) !stub

let test_transit_stub_delays () =
  let rng = Rng.make 47 in
  let p = Transit_stub.default in
  let g = Transit_stub.generate rng p in
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs g e in
      let mn = Option.get (Attrs.float "minDelay" a) in
      let mx = Option.get (Attrs.float "maxDelay" a) in
      if mn > mx || mn <= 0.0 then Alcotest.fail "bad delay band")
    g

(* ------------------------------------------------------------------ *)
(* Composite                                                           *)
(* ------------------------------------------------------------------ *)

let test_composite_structure () =
  let spec =
    { Composite.root = Regular.Ring; groups = 4; group = Regular.Star; group_size = 5 }
  in
  let g = Composite.generate spec in
  check Alcotest.int "node count" (Composite.node_count spec) (Graph.node_count g);
  check Alcotest.int "node count formula" 20 (Graph.node_count g);
  check Alcotest.bool "connected" true (Traversal.is_connected g);
  (* 4 gateways (root level), the rest leaves. *)
  let roots = ref 0 in
  Graph.iter_nodes
    (fun v ->
      if Attrs.string "level" (Graph.node_attrs g v) = Some "root" then incr roots)
    g;
  check Alcotest.int "gateways" 4 !roots;
  (* Root ring has 4 edges; each star of 5 has 4 edges -> 4 + 16. *)
  check Alcotest.int "edges" 20 (Graph.edge_count g);
  let root_edges = ref 0 and group_edges = ref 0 in
  Graph.iter_edges
    (fun e _ _ ->
      match Attrs.string "level" (Graph.edge_attrs g e) with
      | Some "root" -> incr root_edges
      | Some "group" -> incr group_edges
      | Some _ | None -> Alcotest.fail "missing edge level")
    g;
  check Alcotest.int "root edges" 4 !root_edges;
  check Alcotest.int "group edges" 16 !group_edges

let test_composite_single_node_groups () =
  let spec =
    { Composite.root = Regular.Clique; groups = 5; group = Regular.Ring; group_size = 1 }
  in
  let g = Composite.generate spec in
  check Alcotest.int "degenerates to root" 5 (Graph.node_count g);
  check Alcotest.int "clique edges" 10 (Graph.edge_count g)

let test_composite_rejects () =
  Alcotest.check_raises "groups < 2" (Invalid_argument "Composite.generate: groups < 2")
    (fun () ->
      ignore
        (Composite.generate
           { Composite.root = Regular.Ring; groups = 1; group = Regular.Ring; group_size = 3 }))

module Overlay = Netembed_topology.Overlay

let test_overlay_full_mesh () =
  let rng = Rng.make 50 in
  let underlay = Brite.generate (Rng.make 51) (Brite.default_barabasi ~n:80) in
  let o = Overlay.build rng ~underlay ~nodes:12 ~mesh:Overlay.Full_mesh in
  check Alcotest.int "nodes" 12 (Graph.node_count o);
  check Alcotest.int "clique" 66 (Graph.edge_count o);
  (* Delays are path delays: positive, triangle-inequality-ish. *)
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs o e in
      let avg = Option.get (Attrs.float "avgDelay" a) in
      let hops = Option.get (Attrs.float "hops" a) in
      if avg <= 0.0 || hops < 1.0 then Alcotest.fail "bad overlay link")
    o;
  (* Router back-references are distinct underlay nodes. *)
  let routers =
    Graph.fold_nodes
      (fun v acc -> Option.get (Attrs.float "router" (Graph.node_attrs o v)) :: acc)
      o []
  in
  check Alcotest.int "distinct routers" 12 (List.length (List.sort_uniq compare routers))

let test_overlay_nearest () =
  let rng = Rng.make 52 in
  let underlay = Brite.generate (Rng.make 53) (Brite.default_barabasi ~n:80) in
  let o = Overlay.build rng ~underlay ~nodes:15 ~mesh:(Overlay.Nearest 3) in
  check Alcotest.int "nodes" 15 (Graph.node_count o);
  (* Between k*n/2 (all shared) and k*n (no shared) edges. *)
  check Alcotest.bool "edge count in range" true
    (Graph.edge_count o >= (3 * 15) / 2 && Graph.edge_count o <= 3 * 15);
  Graph.iter_nodes
    (fun v -> if Graph.degree o v < 3 then Alcotest.fail "node under-connected")
    o

let test_overlay_rejects () =
  let underlay = Brite.generate (Rng.make 54) (Brite.default_barabasi ~n:10) in
  let rng = Rng.make 55 in
  (match Overlay.build rng ~underlay ~nodes:1 ~mesh:Overlay.Full_mesh with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nodes < 2");
  (match Overlay.build rng ~underlay ~nodes:11 ~mesh:Overlay.Full_mesh with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nodes > routers");
  match Overlay.build rng ~underlay ~nodes:4 ~mesh:(Overlay.Nearest 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k < 1"

module Brite_format = Netembed_topology.Brite_format

let test_brite_format_roundtrip () =
  let g = Brite.generate (Rng.make 60) (Brite.default_barabasi ~n:40) in
  let h = Brite_format.read_string (Brite_format.write_string g) in
  check Alcotest.int "nodes" 40 (Graph.node_count h);
  check Alcotest.int "edges" (Graph.edge_count g) (Graph.edge_count h);
  (* Delays survive (written at 3 decimals). *)
  Graph.iter_edges
    (fun e _ _ ->
      let orig = Option.get (Attrs.float "avgDelay" (Graph.edge_attrs g e)) in
      let got = Option.get (Attrs.float "avgDelay" (Graph.edge_attrs h e)) in
      if Float.abs (orig -. got) > 0.001 then Alcotest.fail "delay not preserved")
    g;
  (* Coordinates survive (written at 2 decimals). *)
  Graph.iter_nodes
    (fun v ->
      let orig = Option.get (Attrs.float "x" (Graph.node_attrs g v)) in
      let got = Option.get (Attrs.float "x" (Graph.node_attrs h v)) in
      if Float.abs (orig -. got) > 0.01 then Alcotest.fail "x not preserved")
    g

let test_brite_format_handwritten () =
  let text = {|Topology: ( 3 Nodes, 2 Edges )
Model ( 2 ): Waxman

Nodes: ( 3 )
0 10.0 20.0 1 1 -1 RT_NODE
1 30.0 40.0 2 2 -1 RT_NODE
2 50.0 60.0 1 1 -1 RT_NODE

Edges: ( 2 )
0 0 1 22.36 0.15 10.0 -1 -1 E_RT U
1 1 2 28.28 0.19 100.0 -1 -1 E_RT U
|} in
  let g = Brite_format.read_string text in
  check Alcotest.int "nodes" 3 (Graph.node_count g);
  check Alcotest.int "edges" 2 (Graph.edge_count g);
  check (Alcotest.option (Alcotest.float 1e-9)) "delay" (Some 0.15)
    (Attrs.float "avgDelay" (Graph.edge_attrs g 0));
  check (Alcotest.option (Alcotest.float 1e-9)) "bandwidth" (Some 100.0)
    (Attrs.float "bandwidth" (Graph.edge_attrs g 1));
  check (Alcotest.option (Alcotest.float 1e-9)) "x" (Some 30.0)
    (Attrs.float "x" (Graph.node_attrs g 1))

let test_brite_format_errors () =
  (match Brite_format.read_string "garbage with no sections" with
  | exception Brite_format.Error _ -> ()
  | _ -> Alcotest.fail "expected Error on missing sections");
  match
    Brite_format.read_string
      "Nodes: ( 1 )
0 1.0 2.0 0 0 -1 RT
Edges: ( 1 )
0 0 99 1 1 1 -1 -1 E U
"
  with
  | exception Brite_format.Error _ -> ()
  | _ -> Alcotest.fail "expected Error on dangling edge"

let () =
  Alcotest.run "topology"
    [
      ( "regular",
        [
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "clique" `Quick test_clique;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "tree" `Quick test_tree;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "of_shape" `Quick test_of_shape;
          Alcotest.test_case "edge attrs" `Quick test_edge_attrs_stamped;
        ] );
      ( "brite",
        [
          Alcotest.test_case "barabasi-albert" `Quick test_brite_ba;
          Alcotest.test_case "waxman" `Quick test_brite_waxman;
          Alcotest.test_case "attributes" `Quick test_brite_attrs;
          Alcotest.test_case "rejects" `Quick test_brite_rejects;
          Alcotest.test_case "determinism" `Quick test_brite_determinism;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "structure" `Quick test_transit_stub;
          Alcotest.test_case "delays" `Quick test_transit_stub_delays;
        ] );
      ( "composite",
        [
          Alcotest.test_case "structure" `Quick test_composite_structure;
          Alcotest.test_case "single-node groups" `Quick test_composite_single_node_groups;
          Alcotest.test_case "rejects" `Quick test_composite_rejects;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "full mesh" `Quick test_overlay_full_mesh;
          Alcotest.test_case "nearest-k" `Quick test_overlay_nearest;
          Alcotest.test_case "rejects" `Quick test_overlay_rejects;
        ] );
      ( "brite-format",
        [
          Alcotest.test_case "roundtrip" `Quick test_brite_format_roundtrip;
          Alcotest.test_case "handwritten" `Quick test_brite_format_handwritten;
          Alcotest.test_case "errors" `Quick test_brite_format_errors;
        ] );
    ]

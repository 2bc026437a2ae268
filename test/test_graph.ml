module Graph = Netembed_graph.Graph
module Traversal = Netembed_oracle.Traversal
module Paths = Netembed_topology.Paths
module Metrics = Netembed_topology.Metrics
module Sample = Netembed_graph.Sample
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng

let check = Alcotest.check

let attrs k v = Attrs.of_list [ (k, Value.Float v) ]

(* A small fixture: path 0-1-2-3 plus chord 0-2. *)
let fixture () =
  let g = Graph.create ~name:"fixture" () in
  let v = Array.init 4 (fun _ -> Graph.add_node g Attrs.empty) in
  let e01 = Graph.add_edge g v.(0) v.(1) (attrs "w" 1.0) in
  let e12 = Graph.add_edge g v.(1) v.(2) (attrs "w" 1.0) in
  let e23 = Graph.add_edge g v.(2) v.(3) (attrs "w" 5.0) in
  let e02 = Graph.add_edge g v.(0) v.(2) (attrs "w" 1.5) in
  (g, v, (e01, e12, e23, e02))

let test_counts () =
  let g, _, _ = fixture () in
  check Alcotest.int "nodes" 4 (Graph.node_count g);
  check Alcotest.int "edges" 4 (Graph.edge_count g);
  check Alcotest.string "name" "fixture" (Graph.name g)

let test_adjacency () =
  let g, v, (e01, _, _, e02) = fixture () in
  let nbrs = List.map fst (Graph.succ g v.(0)) |> List.sort compare in
  check Alcotest.(list int) "succ 0" [ v.(1); v.(2) ] nbrs;
  check Alcotest.int "degree 2" 3 (Graph.degree g v.(2));
  check (Alcotest.option Alcotest.int) "find_edge 0-1" (Some e01) (Graph.find_edge g v.(0) v.(1));
  check (Alcotest.option Alcotest.int) "find_edge reversed" (Some e01) (Graph.find_edge g v.(1) v.(0));
  check (Alcotest.option Alcotest.int) "no edge 1-3" None (Graph.find_edge g v.(1) v.(3));
  check Alcotest.(list int) "edges_between" [ e02 ] (Graph.edges_between g v.(0) v.(2));
  (* The index must rebuild after mutation. *)
  let e03 = Graph.add_edge g v.(0) v.(3) Attrs.empty in
  check Alcotest.(list int) "post-mutation lookup" [ e03 ] (Graph.edges_between g v.(0) v.(3))

let test_endpoints_attrs () =
  let g, v, (e01, _, e23, _) = fixture () in
  check (Alcotest.pair Alcotest.int Alcotest.int) "endpoints" (v.(0), v.(1)) (Graph.endpoints g e01);
  check (Alcotest.option (Alcotest.float 0.0)) "edge attr" (Some 5.0)
    (Attrs.float "w" (Graph.edge_attrs g e23));
  Graph.set_edge_attrs g e23 (attrs "w" 7.0);
  check (Alcotest.option (Alcotest.float 0.0)) "updated" (Some 7.0)
    (Attrs.float "w" (Graph.edge_attrs g e23))

let test_rejections () =
  let g, v, _ = fixture () in
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.add_edge g v.(0) v.(0) Attrs.empty));
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Graph.add_edge: unknown node")
    (fun () -> ignore (Graph.add_edge g v.(0) 99 Attrs.empty))

let test_directed () =
  let g = Graph.create ~kind:Graph.Directed () in
  let a = Graph.add_node g Attrs.empty and b = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g a b Attrs.empty);
  check Alcotest.int "succ a" 1 (List.length (Graph.succ g a));
  check Alcotest.int "succ b" 0 (List.length (Graph.succ g b));
  check Alcotest.int "pred b" 1 (List.length (Graph.pred g b));
  check Alcotest.bool "a->b" true (Graph.mem_edge g a b);
  check Alcotest.bool "not b->a" false (Graph.mem_edge g b a);
  check Alcotest.int "in_degree b" 1 (Graph.in_degree g b);
  check Alcotest.int "out_degree b" 0 (Graph.out_degree g b)

let test_handshake () =
  (* Handshake lemma: sum of degrees = 2|E| for undirected graphs. *)
  let rng = Rng.make 13 in
  let g = Graph.create () in
  let n = 40 in
  let vs = Array.init n (fun _ -> Graph.add_node g Attrs.empty) in
  for _ = 1 to 120 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then ignore (Graph.add_edge g vs.(u) vs.(v) Attrs.empty)
  done;
  let sum = Graph.fold_nodes (fun v acc -> acc + Graph.degree g v) g 0 in
  check Alcotest.int "handshake" (2 * Graph.edge_count g) sum

let test_copy_independent () =
  let g, v, (e01, _, _, _) = fixture () in
  let h = Graph.copy g in
  Graph.set_edge_attrs h e01 (attrs "w" 99.0);
  check (Alcotest.option (Alcotest.float 0.0)) "original untouched" (Some 1.0)
    (Attrs.float "w" (Graph.edge_attrs g e01));
  ignore (Graph.add_node h Attrs.empty);
  check Alcotest.int "original node count" 4 (Graph.node_count g);
  ignore v

let test_induced_subgraph () =
  let g, v, _ = fixture () in
  let sub, orig = Graph.induced_subgraph g [| v.(0); v.(1); v.(2) |] in
  check Alcotest.int "nodes" 3 (Graph.node_count sub);
  (* Edges among {0,1,2}: 0-1, 1-2, 0-2. *)
  check Alcotest.int "edges" 3 (Graph.edge_count sub);
  check Alcotest.(array int) "orig ids" [| v.(0); v.(1); v.(2) |] orig;
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Graph.induced_subgraph: duplicate node") (fun () ->
      ignore (Graph.induced_subgraph g [| v.(0); v.(0) |]))

let test_density () =
  let g, _, _ = fixture () in
  (* 4 edges of max 6. *)
  check (Alcotest.float 1e-9) "density" (4.0 /. 6.0) (Graph.density g)

(* ------------------------------------------------------------------ *)
(* Pair index: edges_between / find_edge                               *)
(* ------------------------------------------------------------------ *)

(* Build a graph of [n] nodes whose edge ids are the positions in
   [edges]. *)
let graph_of kind n edges =
  let g = Graph.create ~kind () in
  for _ = 1 to n do
    ignore (Graph.add_node g Attrs.empty)
  done;
  List.iter (fun (u, v) -> ignore (Graph.add_edge g u v Attrs.empty)) edges;
  g

type mutation = Add_node | Add_edge of int * int

let mutate g = function
  | Add_node -> ignore (Graph.add_node g Attrs.empty)
  | Add_edge (u, v) -> ignore (Graph.add_edge g u v Attrs.empty)

(* Each row: a graph, mutations applied after the index is built, the
   queried pair and the expected edge ids (ascending). *)
let test_edges_between_table () =
  let open Graph in
  let table =
    [ "undirected pair",             Undirected, 3, [ (0, 1); (1, 2) ], [], (0, 1), [ 0 ]
    ; "undirected reversed",         Undirected, 3, [ (0, 1); (1, 2) ], [], (2, 1), [ 1 ]
    ; "undirected absent",           Undirected, 3, [ (0, 1); (1, 2) ], [], (0, 2), []
    ; "undirected parallel",         Undirected, 3, [ (0, 1); (1, 2); (1, 0); (0, 1) ], [], (0, 1), [ 0; 2; 3 ]
    ; "undirected parallel, v-u",    Undirected, 3, [ (0, 1); (1, 2); (1, 0); (0, 1) ], [], (1, 0), [ 0; 2; 3 ]
    ; "directed forward",            Directed, 2, [ (0, 1) ], [], (0, 1), [ 0 ]
    ; "directed backward",           Directed, 2, [ (0, 1) ], [], (1, 0), []
    ; "directed parallel",           Directed, 3, [ (0, 1); (0, 2); (0, 1) ], [], (0, 1), [ 0; 2 ]
    ; "antiparallel forward",        Directed, 2, [ (0, 1); (1, 0); (0, 1) ], [], (0, 1), [ 0; 2 ]
    ; "antiparallel backward",       Directed, 2, [ (0, 1); (1, 0); (0, 1) ], [], (1, 0), [ 1 ]
    ; "u = v undirected",            Undirected, 3, [ (0, 1); (1, 2) ], [], (1, 1), []
    ; "u = v directed",              Directed, 3, [ (0, 1); (1, 2) ], [], (1, 1), []
    ; "isolated node",               Undirected, 4, [ (0, 1); (1, 2) ], [], (3, 1), []
    ; "isolated node, reversed",     Directed, 4, [ (0, 1); (1, 2) ], [], (1, 3), []
    ; "node added after index",      Undirected, 3, [ (0, 1); (1, 2) ], [ Add_node ], (3, 0), []
    ; "node added, queried as v",    Directed, 3, [ (0, 1); (1, 2) ], [ Add_node ], (0, 3), []
    ; "node added, then linked",     Undirected, 3, [ (0, 1) ], [ Add_node; Add_edge (3, 0) ], (0, 3), [ 1 ]
    ; "lookup after add_edge",       Undirected, 3, [ (0, 1) ], [ Add_edge (1, 2) ], (2, 1), [ 1 ]
    ; "parallel added after index",  Undirected, 2, [ (0, 1) ], [ Add_edge (1, 0) ], (0, 1), [ 0; 1 ]
    ; "directed add_edge after index", Directed, 2, [ (0, 1) ], [ Add_edge (1, 0) ], (1, 0), [ 1 ]
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, kind, n, edges, mutations, (u, v), expected) ->
      let g = graph_of kind n edges in
      ignore (Graph.edges_between g 0 0);
      List.iter (mutate g) mutations;
      check Alcotest.(list int) name expected (Graph.edges_between g u v);
      check (Alcotest.option Alcotest.int) (name ^ " (find_edge)")
        (match expected with [] -> None | e :: _ -> Some e)
        (Graph.find_edge g u v))
    table

(* A naive oracle over an edge list in id order. *)
let oracle kind edges u v =
  List.concat
    (List.mapi
       (fun e (a, b) ->
         if (a = u && b = v) || (kind = Graph.Undirected && a = v && b = u) then [ e ]
         else [])
       edges)

let agrees_with_oracle g kind n edges =
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let want = oracle kind edges u v in
      if Graph.edges_between g u v <> want then ok := false;
      if Graph.find_edge g u v <> (match want with [] -> None | e :: _ -> Some e) then
        ok := false
    done
  done;
  !ok

let random_edges rng n m =
  List.filter
    (fun (u, v) -> u <> v)
    (List.init m (fun _ -> (Rng.int rng n, Rng.int rng n)))

(* Random multigraphs (few nodes, so parallel and antiparallel edges are
   common): the index, a copy's shared index and a copy's index after
   its own mutations all agree with the oracle, and mutating the copy
   leaves the source's answers alone. *)
let prop_pair_index_oracle =
  QCheck.Test.make ~count:300 ~name:"edges_between/find_edge = naive scan, on copies too"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      let rng = Rng.make seed in
      let kind = if Rng.bool rng then Graph.Directed else Graph.Undirected in
      let n = 1 + Rng.int rng 7 in
      let edges = if n < 2 then [] else random_edges rng n (Rng.int rng 20) in
      let g = graph_of kind n edges in
      let force_first = Rng.bool rng in
      if force_first && not (agrees_with_oracle g kind n edges) then
        QCheck.Test.fail_reportf "seed %d: source disagrees" seed;
      let h = Graph.copy g in
      if not (agrees_with_oracle h kind n edges) then
        QCheck.Test.fail_reportf "seed %d: fresh copy disagrees" seed;
      let n' = n + Rng.int rng 3 in
      for _ = n + 1 to n' do
        ignore (Graph.add_node h Attrs.empty)
      done;
      let extra = if n' < 2 then [] else random_edges rng n' (Rng.int rng 6) in
      List.iter (fun (u, v) -> ignore (Graph.add_edge h u v Attrs.empty)) extra;
      if not (agrees_with_oracle h kind n' (edges @ extra)) then
        QCheck.Test.fail_reportf "seed %d: mutated copy disagrees" seed;
      if not (agrees_with_oracle g kind n edges) then
        QCheck.Test.fail_reportf "seed %d: source changed by copy's mutation" seed;
      true)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let two_components () =
  let g = Graph.create () in
  let vs = Array.init 6 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g vs.(0) vs.(1) Attrs.empty);
  ignore (Graph.add_edge g vs.(1) vs.(2) Attrs.empty);
  ignore (Graph.add_edge g vs.(3) vs.(4) Attrs.empty);
  (g, vs)

let test_components () =
  let g, _ = two_components () in
  let comps = Traversal.components g in
  check Alcotest.int "three components" 3 (Array.length comps);
  let sizes = Array.to_list (Array.map Array.length comps) |> List.sort compare in
  check Alcotest.(list int) "sizes" [ 1; 2; 3 ] sizes;
  (* Partition: every node in exactly one component. *)
  let all = Array.concat (Array.to_list comps) in
  Array.sort compare all;
  check Alcotest.(array int) "partition" (Array.init 6 Fun.id) all;
  check Alcotest.bool "not connected" false (Traversal.is_connected g)

let test_bfs_dfs () =
  let g, vs = two_components () in
  let bfs = Traversal.bfs_order g vs.(0) in
  check Alcotest.int "bfs covers component" 3 (Array.length bfs);
  check Alcotest.int "bfs starts at source" vs.(0) bfs.(0);
  let dfs = Traversal.dfs_order g vs.(0) in
  check Alcotest.int "dfs covers component" 3 (Array.length dfs)

let test_spanning_tree () =
  let g, v, _ = fixture () in
  let tree = Traversal.spanning_tree_edges g v.(0) in
  check Alcotest.int "n-1 edges" 3 (List.length tree)

let test_empty_graph () =
  let g = Graph.create () in
  check Alcotest.bool "empty is connected" true (Traversal.is_connected g);
  check Alcotest.int "no components" 0 (Array.length (Traversal.components g))

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let test_hops () =
  let g, v, _ = fixture () in
  let d = Paths.hops_from g v.(0) in
  check Alcotest.int "self" 0 d.(v.(0));
  check Alcotest.int "direct" 1 d.(v.(1));
  check Alcotest.int "chord" 1 d.(v.(2));
  check Alcotest.int "two hops" 2 d.(v.(3))

let test_dijkstra () =
  let g, v, _ = fixture () in
  let weight e = Option.get (Attrs.float "w" (Graph.edge_attrs g e)) in
  let dist, _parent = Paths.dijkstra g ~weight v.(0) in
  check (Alcotest.float 1e-9) "0->2 via chord" 1.5 dist.(v.(2));
  check (Alcotest.float 1e-9) "0->3" 6.5 dist.(v.(3));
  match Paths.shortest_path g ~weight v.(0) v.(3) with
  | Some (d, path) ->
      check (Alcotest.float 1e-9) "path dist" 6.5 d;
      check Alcotest.(list int) "path nodes" [ v.(0); v.(2); v.(3) ] path
  | None -> Alcotest.fail "expected a path"

let test_dijkstra_unreachable () =
  let g, vs = two_components () in
  let dist, _ = Paths.dijkstra g ~weight:(fun _ -> 1.0) vs.(0) in
  check Alcotest.bool "unreachable is inf" true (dist.(vs.(5)) = infinity)

let test_diameter () =
  let line = Netembed_topology.Regular.line 10 in
  check Alcotest.int "eccentricity of end" 9 (Paths.eccentricity line 0);
  let rng = Rng.make 3 in
  let d = Paths.diameter_approx line ~rng ~samples:4 in
  check Alcotest.int "line diameter" 9 d

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_degree_stats () =
  let g, _, _ = fixture () in
  let s = Metrics.degree_stats g in
  check Alcotest.int "min" 1 s.Metrics.min_degree;
  check Alcotest.int "max" 3 s.Metrics.max_degree;
  check (Alcotest.float 1e-9) "mean" 2.0 s.Metrics.mean_degree

let test_clustering () =
  let clique = Netembed_topology.Regular.clique 5 in
  check (Alcotest.float 1e-9) "clique cc = 1" 1.0 (Metrics.clustering_coefficient clique);
  let star = Netembed_topology.Regular.star 6 in
  check (Alcotest.float 1e-9) "star cc = 0" 0.0 (Metrics.clustering_coefficient star)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let test_random_connected_nodes () =
  let rng = Rng.make 5 in
  let g = Netembed_topology.Regular.grid ~rows:6 6 in
  for _ = 1 to 20 do
    let sel = Sample.random_connected_nodes rng g 10 in
    check Alcotest.int "size" 10 (Array.length sel);
    let sub, _ = Graph.induced_subgraph g sel in
    check Alcotest.bool "connected" true (Traversal.is_connected sub)
  done

let test_random_connected_subgraph () =
  let rng = Rng.make 6 in
  let g = Netembed_topology.Regular.grid ~rows:6 6 in
  for extra = 0 to 5 do
    let sub, orig = Sample.random_connected_subgraph rng g ~n:12 ~extra_edges:extra in
    check Alcotest.int "nodes" 12 (Graph.node_count sub);
    check Alcotest.int "orig ids size" 12 (Array.length orig);
    check Alcotest.bool "connected" true (Traversal.is_connected sub);
    check Alcotest.bool "tree + extras" true (Graph.edge_count sub >= 11);
    (* Every subgraph edge exists in the host between the original ids. *)
    Graph.iter_edges
      (fun _ u v ->
        if not (Graph.mem_edge g orig.(u) orig.(v)) then
          Alcotest.fail "edge not in host")
      sub
  done

let test_sample_too_large () =
  let rng = Rng.make 7 in
  let g, _ = two_components () in
  (* No component has 5 nodes. *)
  match Sample.random_connected_nodes rng g 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

let prop_subgraph_connected =
  QCheck.Test.make ~name:"sampled subgraphs are connected subgraphs" ~count:50
    QCheck.(pair small_int (int_range 3 20))
    (fun (seed, n) ->
      let rng = Rng.make seed in
      let host =
        Netembed_topology.Brite.generate (Rng.make (seed + 1))
          (Netembed_topology.Brite.default_barabasi ~n:40)
      in
      let n = min n (Graph.node_count host) in
      let sub, _ = Sample.random_connected_subgraph rng host ~n ~extra_edges:2 in
      Graph.node_count sub = n && Traversal.is_connected sub)

let () =
  Alcotest.run "graph"
    [
      ( "core",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "endpoints/attrs" `Quick test_endpoints_attrs;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "directed" `Quick test_directed;
          Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
          Alcotest.test_case "density" `Quick test_density;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "edges_between table" `Quick test_edges_between_table;
          QCheck_alcotest.to_alcotest prop_pair_index_oracle;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bfs/dfs" `Quick test_bfs_dfs;
          Alcotest.test_case "spanning tree" `Quick test_spanning_tree;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "paths",
        [
          Alcotest.test_case "hops" `Quick test_hops;
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "diameter" `Quick test_diameter;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "degree stats" `Quick test_degree_stats;
          Alcotest.test_case "clustering" `Quick test_clustering;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "connected nodes" `Quick test_random_connected_nodes;
          Alcotest.test_case "connected subgraph" `Quick test_random_connected_subgraph;
          Alcotest.test_case "too large" `Quick test_sample_too_large;
          QCheck_alcotest.to_alcotest prop_subgraph_connected;
        ] );
    ]

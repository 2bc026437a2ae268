module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Expr = Netembed_expr.Expr
module Ast = Netembed_expr.Ast
module Rng = Netembed_rng.Rng
module Bitset = Netembed_bitset.Bitset
open Netembed_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]
let band lo hi = Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

(* Host: a 4-cycle with increasing delays plus one diagonal. *)
let square_host () =
  let g = Graph.create ~name:"square" () in
  let v = Array.init 4 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge g v.(1) v.(2) (delay 20.0));
  ignore (Graph.add_edge g v.(2) v.(3) (delay 30.0));
  ignore (Graph.add_edge g v.(3) v.(0) (delay 40.0));
  ignore (Graph.add_edge g v.(0) v.(2) (delay 25.0));
  g

(* Query: path q0 - q1 - q2 with delay bands. *)
let path_query () =
  let g = Graph.create ~name:"path" () in
  let q = Array.init 3 (fun _ -> Graph.add_node g Attrs.empty) in
  ignore (Graph.add_edge g q.(0) q.(1) (band 5.0 25.0));
  ignore (Graph.add_edge g q.(1) q.(2) (band 15.0 35.0));
  g

let path_problem () =
  Problem.make ~host:(square_host ()) ~query:(path_query ()) Expr.avg_delay_within

(* Random attributed instance for cross-algorithm comparison. *)
let random_instance seed ~host_n ~query_n =
  let rng = Rng.make seed in
  let host = Graph.create () in
  let hv = Array.init host_n (fun _ -> Graph.add_node host Attrs.empty) in
  for i = 1 to host_n - 1 do
    let j = Rng.int rng i in
    ignore (Graph.add_edge host hv.(j) hv.(i) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  for _ = 1 to host_n * 2 do
    let u = Rng.int rng host_n and v = Rng.int rng host_n in
    if u <> v && not (Graph.mem_edge host hv.(u) hv.(v)) then
      ignore (Graph.add_edge host hv.(u) hv.(v) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  let query = Graph.create () in
  let qv = Array.init query_n (fun _ -> Graph.add_node query Attrs.empty) in
  for i = 1 to query_n - 1 do
    let j = Rng.int rng i in
    let center = Rng.uniform rng ~lo:5.0 ~hi:50.0 in
    ignore (Graph.add_edge query qv.(j) qv.(i) (band (center -. 8.0) (center +. 8.0)))
  done;
  Problem.make ~host ~query Expr.avg_delay_within

let mapping_set mappings = List.sort_uniq Mapping.compare mappings

(* ------------------------------------------------------------------ *)
(* Problem                                                             *)
(* ------------------------------------------------------------------ *)

let test_problem_rejects () =
  let host = square_host () in
  let too_big = Netembed_topology.Regular.clique 5 in
  Alcotest.check_raises "query > host" (Invalid_argument "Problem.make: query larger than host")
    (fun () -> ignore (Problem.make ~host ~query:too_big Expr.always));
  let directed = Graph.create ~kind:Graph.Directed () in
  ignore (Graph.add_node directed Attrs.empty);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Problem.make: host and query must share directedness") (fun () ->
      ignore (Problem.make ~host ~query:directed Expr.always))

let test_edge_pair_ok () =
  let p = path_problem () in
  check Alcotest.bool "in band" true
    (Problem.edge_pair_ok p ~qe:0 ~q_src:0 ~q_dst:1 ~he:0 ~r_src:0 ~r_dst:1);
  check Alcotest.bool "out of band" false
    (Problem.edge_pair_ok p ~qe:0 ~q_src:0 ~q_dst:1 ~he:3 ~r_src:3 ~r_dst:0)

let test_node_ok_degree () =
  let host = Netembed_topology.Regular.star 5 in
  let query = Netembed_topology.Regular.star 4 in
  let p = Problem.make ~host ~query Expr.always in
  check Alcotest.bool "hub onto hub" true (Problem.node_ok p ~q:0 ~r:0);
  check Alcotest.bool "hub onto leaf" false (Problem.node_ok p ~q:0 ~r:1);
  let p' = Problem.make ~degree_filter:false ~host ~query Expr.always in
  check Alcotest.bool "filter off" true (Problem.node_ok p' ~q:0 ~r:1)

let test_node_constraint () =
  let host = square_host () in
  Graph.set_node_attrs host 2 (Attrs.of_list [ ("osType", Value.String "linux") ]);
  let query = path_query () in
  let node_constraint = Expr.parse_exn "rSource.osType == 'linux'" in
  let p = Problem.make ~node_constraint ~host ~query Expr.always in
  check Alcotest.bool "node 2 passes" true (Problem.node_ok p ~q:0 ~r:2);
  check Alcotest.bool "node 0 lacks attr" false (Problem.node_ok p ~q:0 ~r:0)

(* ------------------------------------------------------------------ *)
(* Prefilter classification                                            *)
(* ------------------------------------------------------------------ *)

(* One attribute, [x], across a universe that holds every value shape
   a column can meet.  Ordering atoms follow Float.compare's total
   order, as Eval.compare_values does (NaN below every other float,
   equal to itself); equality follows Value.equal (Int 5 = Float 5.0);
   non-numeric values are dirty under an ordering atom and non-boolean
   ones under a bare-attribute atom; the member without [x] is never in
   either set. *)
let prefilter_universe =
  [|
    Some (Value.Int 5);
    Some (Value.Float 2.5);
    Some (Value.Float Float.nan);
    Some (Value.Float Float.infinity);
    Some (Value.Float Float.neg_infinity);
    Some (Value.Bool true);
    Some (Value.Bool false);
    Some (Value.String "linux");
    Some (Value.String "bsd");
    Some (Value.Range (1.0, 3.0));
    None;
    Some (Value.Float 5.0);
  |]

let test_prefilter_sets () =
  let module Bounds = Netembed_expr.Bounds in
  let store =
    Prefilter.create
      (Prefilter.store ~size:(Array.length prefilter_universe) ~attrs:(fun i ->
           match prefilter_universe.(i) with
           | None -> Attrs.of_list [ ("y", Value.Int 0) ]
           | Some v -> Attrs.of_list [ ("x", v) ]))
  in
  let cmp cmp bound = Bounds.Cmp { subject = Ast.R_source; attr = "x"; cmp; bound } in
  let eq value = Bounds.Eq { subject = Ast.R_source; attr = "x"; value } in
  let has value = Bounds.Has_bool { subject = Ast.R_source; attr = "x"; value } in
  let numeric = [ 0; 1; 2; 3; 4; 11 ] and non_numeric = [ 5; 6; 7; 8; 9 ] in
  let non_bool = [ 0; 1; 2; 3; 4; 7; 8; 9; 11 ] in
  let table =
    [ "x < 5",          cmp Bounds.Lt 5.0,              [ 1; 2; 4 ],        non_numeric
    ; "x <= 5",         cmp Bounds.Le 5.0,              [ 0; 1; 2; 4; 11 ], non_numeric
    ; "x > 5",          cmp Bounds.Gt 5.0,              [ 3 ],              non_numeric
    ; "x >= 5",         cmp Bounds.Ge 5.0,              [ 0; 3; 11 ],       non_numeric
    ; "x < 2.5",        cmp Bounds.Lt 2.5,              [ 2; 4 ],           non_numeric
    ; "x <= inf",       cmp Bounds.Le Float.infinity,   numeric,            non_numeric
    ; "x > inf",        cmp Bounds.Gt Float.infinity,   [],                 non_numeric
    ; "x >= -inf",      cmp Bounds.Ge Float.neg_infinity, [ 0; 1; 3; 4; 11 ], non_numeric
    ; "x > -inf",       cmp Bounds.Gt Float.neg_infinity, [ 0; 1; 3; 11 ],  non_numeric
    ; "x < nan",        cmp Bounds.Lt Float.nan,        [],                 non_numeric
    ; "x <= nan",       cmp Bounds.Le Float.nan,        [ 2 ],              non_numeric
    ; "x >= nan",       cmp Bounds.Ge Float.nan,        numeric,            non_numeric
    ; "x == 5",         eq (Value.Int 5),               [ 0; 11 ],          []
    ; "x == 2.5",       eq (Value.Float 2.5),           [ 1 ],              []
    ; "x == nan",       eq (Value.Float Float.nan),     [ 2 ],              []
    ; "x == 7",         eq (Value.Int 7),               [],                 []
    ; "x == 'linux'",   eq (Value.String "linux"),      [ 7 ],              []
    ; "x == 'plan9'",   eq (Value.String "plan9"),      [],                 []
    ; "x == true",      eq (Value.Bool true),           [ 5 ],              []
    ; "x == false",     eq (Value.Bool false),          [ 6 ],              []
    ; "x == [1,3]",     eq (Value.Range (1.0, 3.0)),    [ 9 ],              []
    ; "x == [1,4]",     eq (Value.Range (1.0, 4.0)),    [],                 []
    ; "x",              has true,                       [ 5 ],              non_bool
    ; "!x",             has false,                      [ 6 ],              non_bool
    ; "absent >= 0",
      Bounds.Cmp { subject = Ast.R_source; attr = "z"; cmp = Bounds.Ge; bound = 0.0 },
                                                        [],                 []
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, atom, pass, dirty) ->
      let s = Prefilter.sets store atom in
      check Alcotest.(list int) (name ^ ": pass") pass
        (Netembed_bitset.Bitset.elements s.Prefilter.pass);
      check Alcotest.(list int) (name ^ ": dirty") dirty
        (Netembed_bitset.Bitset.elements s.Prefilter.dirty))
    table

(* netembed_expr_compiles_total counts residual specializations: a
   cache miss bumps it once, a hit and a problem built over a handed-on
   residual table ([?compiled]) leave it flat. *)
let test_compiles_counter () =
  let p = path_problem () in
  let before = Problem.specializations_total () in
  ignore (Problem.residual p 0 ~q_src:0 ~q_dst:1);
  ignore (Problem.residual p 1 ~q_src:1 ~q_dst:2);
  check Alcotest.int "two misses" (before + 2) (Problem.specializations_total ());
  ignore (Problem.residual p 0 ~q_src:0 ~q_dst:1);
  check Alcotest.int "a hit is free" (before + 2) (Problem.specializations_total ());
  Problem.prepare p;
  check Alcotest.int "prepare forces the reverse orientations" (before + 4)
    (Problem.specializations_total ());
  let warm =
    Problem.make ~compiled:(Problem.compiled_residuals p) ~host:p.Problem.host
      ~query:p.Problem.query Expr.avg_delay_within
  in
  Problem.prepare warm;
  check Alcotest.int "handed-on table needs no specialization" (before + 4)
    (Problem.specializations_total ())

(* ------------------------------------------------------------------ *)
(* Filter                                                              *)
(* ------------------------------------------------------------------ *)

(* The cell [F[a, r, b]] as a sorted list. *)
let cell f a r b =
  match Filter.cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b with
  | Some c -> Bitset.elements c
  | None -> []

let test_filter_cells () =
  let p = path_problem () in
  let f = Filter.build ~prefilter:false p in
  check Alcotest.(list int) "cell (q0,0,q1)" [ 1; 2 ] (cell f 0 0 1);
  check Alcotest.(list int) "cell (q1,3,q2)" [ 2 ] (cell f 1 3 2);
  check Alcotest.bool "constraint evals counted" true (Problem.constraint_evals p > 0);
  check Alcotest.bool "cells counted" true (Filter.cell_count f > 0);
  (* The bounds pre-filter must produce the identical matrix while
     skipping evaluations entirely on this fully-extractable
     constraint. *)
  let p2 = path_problem () in
  let f2 = Filter.build ~prefilter:true p2 in
  check Alcotest.(list int) "prefilter: cell (q0,0,q1)" [ 1; 2 ] (cell f2 0 0 1);
  check Alcotest.(list int) "prefilter: cell (q1,3,q2)" [ 2 ] (cell f2 1 3 2);
  check Alcotest.int "prefilter: same cell count" (Filter.cell_count f)
    (Filter.cell_count f2);
  check Alcotest.bool "prefilter skips evaluations" true
    (Problem.constraint_evals p2 < Problem.constraint_evals p)

let test_filter_order_covers () =
  let p = random_instance 5 ~host_n:20 ~query_n:8 in
  let f = Filter.build p in
  let order = Array.copy (Filter.order f) in
  Array.sort compare order;
  check Alcotest.(array int) "order is a permutation" (Array.init 8 Fun.id) order

let test_filter_node_candidates_sound () =
  let p = random_instance 11 ~host_n:12 ~query_n:5 in
  let f = Filter.build p in
  let all = Netembed_baselines.Bruteforce.find_all p in
  List.iter
    (fun m ->
      List.iter
        (fun (q, r) ->
          if not (Bitset.mem (Filter.node_candidates_bits f q) r) then
            Alcotest.failf "host %d missing from node candidates of q%d" r q)
        (Mapping.to_list m))
    all

(* Parallel query edges between one pair must all be satisfiable: a
   cell keeps a partner only if every edge of the pair has a qualifying
   host edge between the two images.  Host 0-1 carries links of delay
   10 and 30, 0-2 only 30, and 1-2, 1-3, 2-3 and 3-4 only 10; the query
   asks for both a [5, 15] and a [25, 35] link between q0 and q1, so
   hosts 2 and 3 keep no q0-q1 cell although the [5, 15] edge alone
   would give them one.  The degree filter keeps q0 and q1 off host 4
   (degree 1). *)
let test_filter_parallel_edges () =
  let host = Graph.create () in
  let h = Array.init 5 (fun _ -> Graph.add_node host Attrs.empty) in
  List.iter
    (fun (u, v, d) -> ignore (Graph.add_edge host h.(u) h.(v) (delay d)))
    [ (0, 1, 10.0); (0, 1, 30.0); (0, 2, 30.0); (1, 2, 10.0); (2, 3, 10.0); (1, 3, 10.0);
      (3, 4, 10.0) ];
  let query = Graph.create () in
  let q = Array.init 3 (fun _ -> Graph.add_node query Attrs.empty) in
  ignore (Graph.add_edge query q.(0) q.(1) (band 5.0 15.0));
  ignore (Graph.add_edge query q.(1) q.(0) (band 25.0 35.0));
  ignore (Graph.add_edge query q.(1) q.(2) (band 5.0 15.0));
  let table =
    [ 0, 0, 1, [ 1 ]
    ; 0, 1, 1, [ 0 ]
    ; 0, 2, 1, []
    ; 0, 3, 1, []
    ; 1, 0, 0, [ 1 ]
    ; 1, 1, 0, [ 0 ]
    ; 1, 2, 0, []
    ; 1, 3, 0, []
    ; 1, 1, 2, [ 0; 2; 3 ]
    ; 1, 3, 2, [ 1; 2; 4 ]
    ; 2, 3, 1, [ 1; 2 ]
    ; 2, 4, 1, [ 3 ]
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun prefilter ->
      let f =
        Filter.build ~prefilter (Problem.make ~host ~query Expr.avg_delay_within)
      in
      List.iter
        (fun (a, r, b, expected) ->
          check Alcotest.(list int)
            (Printf.sprintf "prefilter=%b cell (q%d,%d,q%d)" prefilter a r b)
            expected
            (cell f a r b))
        table;
      check Alcotest.(list int) "q0 candidates" [ 0; 1 ]
        (Bitset.elements (Filter.node_candidates_bits f 0));
      check Alcotest.int "cells" 13 (Filter.cell_count f))
    [ false; true ]

(* The service keeps 32 filters cached, so a filter's size is part of
   its memory.  Filters for query_mix-shaped requests (8-node subgraph
   queries under delay_range_within on the 100-site PlanetLab trace)
   must hold no more words than the layout they replaced: cells in an
   int-keyed hash table, whose [Obj.reachable_words] figures for the
   same builds (OCaml 5.1, 64-bit) are recorded below. *)
let test_filter_footprint () =
  let module Trace = Netembed_planetlab.Trace in
  let module Query_gen = Netembed_workload.Query_gen in
  let host = Trace.generate (Rng.make 2008) { Trace.default with Trace.sites = 100 } in
  let table =
    [ 1, 3349
    ; 2, 4373
    ; 3, 5129
    ; 4, 5372
    ; 5, 5100
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (seed, hashtable_words) ->
      let case = Query_gen.subgraph (Rng.make seed) ~host ~n:8 () in
      let p = Problem.make ~host ~query:case.Query_gen.query Expr.delay_range_within in
      let f = Filter.build p in
      check Alcotest.bool (Printf.sprintf "seed %d: cells" seed) true (Filter.cell_count f > 0);
      let words = Obj.reachable_words (Obj.repr f) in
      if words > hashtable_words then
        Alcotest.failf "seed %d: filter holds %d words, the hash-table layout %d" seed words
          hashtable_words)
    table;
  (* Tenant-shaped requests (svcbench's tenant_churn) are dense: most
     cells hold several partners.  Each bound is what the build that
     filled cells by copy-on-write from shared singletons held. *)
  let tenant_table =
    [ 1, 2, 664
    ; 2, 3, 4087
    ; 3, 4, 4066
    ; 4, 4, 5318
    ; 5, 6, 8188
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (seed, n, copy_on_write_words) ->
      let p = Netembed_oracle.Filter_cells.tenant_problem (Rng.make seed) ~host ~n in
      let f = Filter.build p in
      let words = Obj.reachable_words (Obj.repr f) in
      if words > copy_on_write_words then
        Alcotest.failf "tenant seed %d: filter holds %d words, the copy-on-write fill %d" seed
          words copy_on_write_words)
    tenant_table

(* ------------------------------------------------------------------ *)
(* Algorithms: agreement & correctness                                 *)
(* ------------------------------------------------------------------ *)

let find_all_via alg p =
  (Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All } alg p)
    .Engine.mappings

let test_three_algorithms_agree_small () =
  let p = path_problem () in
  let ecf = mapping_set (find_all_via Engine.ECF p) in
  let rwb = mapping_set (find_all_via Engine.RWB p) in
  let lns = mapping_set (find_all_via Engine.LNS p) in
  let brute = mapping_set (Netembed_baselines.Bruteforce.find_all p) in
  check Alcotest.int "ECF = brute" (List.length brute) (List.length ecf);
  check Alcotest.bool "ECF set" true (List.for_all2 Mapping.equal brute ecf);
  check Alcotest.bool "RWB set" true (List.for_all2 Mapping.equal brute rwb);
  check Alcotest.bool "LNS set" true (List.for_all2 Mapping.equal brute lns)

let test_agreement_random_instances () =
  (* The central soundness test: on a spread of random instances, all
     three algorithms enumerate exactly the brute-force solution set,
     and every reported mapping passes the independent verifier. *)
  for seed = 1 to 25 do
    let p = random_instance seed ~host_n:10 ~query_n:4 in
    let brute = mapping_set (Netembed_baselines.Bruteforce.find_all p) in
    List.iter
      (fun alg ->
        let got = mapping_set (find_all_via alg p) in
        if List.length got <> List.length brute then
          Alcotest.failf "seed %d: %s found %d, brute force %d" seed
            (Engine.algorithm_name alg) (List.length got) (List.length brute);
        List.iter
          (fun m ->
            match Verify.check p m with
            | Ok () -> ()
            | Error v ->
                Alcotest.failf "seed %d: %s returned invalid mapping (%s)" seed
                  (Engine.algorithm_name alg)
                  (Format.asprintf "%a" Verify.pp_violation v))
          got;
        if not (List.for_all2 Mapping.equal brute got) then
          Alcotest.failf "seed %d: %s mapping set differs" seed
            (Engine.algorithm_name alg))
      Engine.all_algorithms
  done

let test_feasible_by_construction () =
  let rng = Rng.make 31 in
  let host =
    Netembed_topology.Brite.generate (Rng.make 32)
      (Netembed_topology.Brite.default_barabasi ~n:60)
  in
  for _ = 1 to 5 do
    let case = Netembed_workload.Query_gen.subgraph rng ~host ~n:10 () in
    let p =
      Problem.make ~host ~query:case.Netembed_workload.Query_gen.query
        case.Netembed_workload.Query_gen.edge_constraint
    in
    List.iter
      (fun alg ->
        match Engine.find_first alg p with
        | Some m -> check Alcotest.bool "valid" true (Verify.is_valid p m)
        | None ->
            Alcotest.failf "%s missed a guaranteed embedding" (Engine.algorithm_name alg))
      Engine.all_algorithms
  done

let test_infeasible_complete_empty () =
  let rng = Rng.make 41 in
  let host =
    Netembed_topology.Brite.generate (Rng.make 42)
      (Netembed_topology.Brite.default_barabasi ~n:40)
  in
  let case = Netembed_workload.Query_gen.subgraph rng ~host ~n:8 () in
  let infeasible = Netembed_workload.Query_gen.make_infeasible rng case in
  let p =
    Problem.make ~host ~query:infeasible.Netembed_workload.Query_gen.query
      infeasible.Netembed_workload.Query_gen.edge_constraint
  in
  List.iter
    (fun alg ->
      let r = Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All } alg p in
      check Alcotest.bool "complete" true (r.Engine.outcome = Engine.Complete);
      check Alcotest.int "no mappings" 0 (List.length r.Engine.mappings))
    Engine.all_algorithms

let test_directed_embedding () =
  let host = Graph.create ~kind:Graph.Directed () in
  let a = Graph.add_node host Attrs.empty and b = Graph.add_node host Attrs.empty in
  let c = Graph.add_node host Attrs.empty in
  ignore (Graph.add_edge host a b (delay 10.0));
  ignore (Graph.add_edge host c b (delay 10.0));
  let query = Graph.create ~kind:Graph.Directed () in
  let q0 = Graph.add_node query Attrs.empty and q1 = Graph.add_node query Attrs.empty in
  ignore (Graph.add_edge query q0 q1 (band 5.0 15.0));
  let p = Problem.make ~host ~query Expr.avg_delay_within in
  let all = mapping_set (find_all_via Engine.ECF p) in
  check Alcotest.int "two directed embeddings" 2 (List.length all);
  List.iter
    (fun m ->
      check Alcotest.int "target is b" b (Mapping.apply m q1);
      check Alcotest.bool "valid" true (Verify.is_valid p m))
    all;
  check Alcotest.int "LNS directed" 2 (List.length (mapping_set (find_all_via Engine.LNS p)))

let test_asymmetric_constraint () =
  let host = Graph.create () in
  let v = Array.init 3 (fun i ->
      Graph.add_node host (Attrs.of_list [ ("rank", Value.Int i) ])) in
  ignore (Graph.add_edge host v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge host v.(1) v.(2) (delay 10.0));
  let query = Graph.create () in
  let q0 = Graph.add_node query Attrs.empty and q1 = Graph.add_node query Attrs.empty in
  ignore (Graph.add_edge query q0 q1 Attrs.empty);
  let p = Problem.make ~host ~query (Expr.parse_exn "rSource.rank < rTarget.rank") in
  let all = mapping_set (find_all_via Engine.ECF p) in
  check Alcotest.int "two oriented mappings" 2 (List.length all);
  List.iter
    (fun m ->
      check Alcotest.bool "orientation respected" true
        (Mapping.apply m q0 < Mapping.apply m q1))
    all;
  let lns = mapping_set (find_all_via Engine.LNS p) in
  check Alcotest.int "LNS agrees" 2 (List.length lns)

(* ------------------------------------------------------------------ *)
(* Engine modes, budget, outcomes                                      *)
(* ------------------------------------------------------------------ *)

let test_ordering_ablation_agreement () =
  (* The search order affects speed, never the answer set. *)
  for seed = 1 to 8 do
    let p = random_instance (100 + seed) ~host_n:10 ~query_n:4 in
    let sets =
      List.map
        (fun ordering ->
          let filter = Filter.build ~ordering p in
          let budget = Budget.unlimited () in
          let acc = ref [] in
          Dfs.search p filter ~candidate_order:Dfs.Ascending ~budget
            ~on_solution:(fun m ->
              acc := m :: !acc;
              `Continue);
          mapping_set !acc)
        [ Filter.Connected_lemma1; Filter.Lemma1; Filter.Input_order ]
    in
    match sets with
    | [ a; b; c ] ->
        if
          List.length a <> List.length b
          || List.length b <> List.length c
          || (not (List.for_all2 Mapping.equal a b))
          || not (List.for_all2 Mapping.equal b c)
        then Alcotest.failf "seed %d: ordering changed the answer set" seed
    | _ -> assert false
  done

let test_first_mode () =
  let p = path_problem () in
  List.iter
    (fun alg ->
      let r = Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.First } alg p in
      check Alcotest.int "one mapping" 1 (List.length r.Engine.mappings);
      check Alcotest.bool "has first time" true (r.Engine.time_to_first <> None))
    Engine.all_algorithms

let test_at_most_mode () =
  let p = random_instance 3 ~host_n:14 ~query_n:4 in
  let total = List.length (find_all_via Engine.ECF p) in
  if total < 3 then Alcotest.fail "fixture too constrained for At_most test";
  let r =
    Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.At_most 2 }
      Engine.ECF p
  in
  check Alcotest.int "stopped at 2" 2 (List.length r.Engine.mappings)

let test_budget_visited_cap () =
  let p = random_instance 8 ~host_n:20 ~query_n:6 in
  let r =
    Engine.run
      ~options:{ Engine.default_options with Engine.mode = Engine.All; max_visited = Some 5 }
      Engine.ECF p
  in
  check Alcotest.bool "classified as budget-bound" true
    (r.Engine.outcome = Engine.Partial || r.Engine.outcome = Engine.Inconclusive);
  check Alcotest.bool "visited near cap" true (r.Engine.visited <= 6)

let test_budget_standalone () =
  let b = Budget.make ~max_visited:10 () in
  (try
     for _ = 1 to 100 do
       Budget.tick b
     done;
     Alcotest.fail "expected Exhausted"
   with Budget.Exhausted -> ());
  check Alcotest.bool "marked exhausted" true (Budget.exhausted b);
  check Alcotest.int "visited counted" 11 (Budget.visited b);
  let c = Budget.make ~cancelled:(fun () -> true) () in
  (try
     for _ = 1 to 3000 do
       Budget.tick c
     done;
     Alcotest.fail "expected cancellation"
   with Budget.Exhausted -> ());
  check Alcotest.bool "cancelled" true (Budget.exhausted c)

let test_empty_query () =
  let host = square_host () in
  let query = Graph.create () in
  let p = Problem.make ~host ~query Expr.always in
  List.iter
    (fun alg ->
      let r = Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All } alg p in
      check Alcotest.int "one empty mapping" 1 (List.length r.Engine.mappings);
      check Alcotest.int "of size zero" 0 (Mapping.size (List.hd r.Engine.mappings)))
    Engine.all_algorithms

let test_disconnected_query () =
  let host = square_host () in
  let query = Graph.create () in
  let q = Array.init 4 (fun _ -> Graph.add_node query Attrs.empty) in
  ignore (Graph.add_edge query q.(0) q.(1) (band 5.0 15.0));
  ignore (Graph.add_edge query q.(2) q.(3) (band 25.0 35.0));
  let p = Problem.make ~host ~query Expr.avg_delay_within in
  let brute = mapping_set (Netembed_baselines.Bruteforce.find_all p) in
  check Alcotest.bool "instance has solutions" true (brute <> []);
  List.iter
    (fun alg ->
      let got = mapping_set (find_all_via alg p) in
      check Alcotest.int
        (Engine.algorithm_name alg ^ " matches brute force")
        (List.length brute) (List.length got))
    Engine.all_algorithms

let test_rwb_seed_variation () =
  let p = random_instance 9 ~host_n:16 ~query_n:5 in
  let first seed =
    (Engine.run ~options:{ Engine.default_options with Engine.seed } Engine.RWB p)
      .Engine.mappings
  in
  let a1 = first 1 and a1' = first 1 and a2 = first 2 in
  check Alcotest.bool "deterministic per seed" true
    (match (a1, a1') with
    | [ m1 ], [ m2 ] -> Mapping.equal m1 m2
    | [], [] -> true
    | _ -> false);
  List.iter
    (fun ms -> List.iter (fun m -> assert (Verify.is_valid p m)) ms)
    [ a1; a2 ]

let test_residual_for_edge () =
  let p = path_problem () in
  (* The residual for query edge (0,1) folds the band into literals. *)
  let residual = Problem.residual_for_edge p ~q_src:0 ~q_dst:1 in
  check Alcotest.bool "no v-side references left" true
    (Ast.fold_attrs
       (fun obj _ acc ->
         acc
         && match obj with Ast.V_edge | Ast.V_source | Ast.V_target -> false | _ -> true)
       residual true);
  match Problem.residual_for_edge p ~q_src:0 ~q_dst:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no such query edge"

let test_problem_prepare () =
  let p = path_problem () in
  Problem.prepare p;
  (* Residual cache fully populated (2 per edge). *)
  check Alcotest.bool "residuals cached" true
    (Array.for_all Option.is_some p.Problem.residuals);
  (* Idempotent. *)
  Problem.prepare p

let test_engine_wrappers () =
  let p = path_problem () in
  (match Engine.find_first Engine.ECF p with
  | Some m -> check Alcotest.bool "valid" true (Verify.is_valid p m)
  | None -> Alcotest.fail "expected a mapping");
  check Alcotest.int "find_all" 6 (List.length (Engine.find_all Engine.ECF p));
  (* At_most 0 asks for nothing: a request error, not a proof of
     infeasibility. *)
  Alcotest.check_raises "at most zero" (Invalid_argument "Engine.run: At_most needs k >= 1")
    (fun () ->
      ignore
        (Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.At_most 0 }
           Engine.ECF p))

let test_collect_false () =
  let p = path_problem () in
  let r =
    Engine.run
      ~options:{ Engine.default_options with Engine.mode = Engine.All; collect = false }
      Engine.ECF p
  in
  check Alcotest.int "nothing retained" 0 (List.length r.Engine.mappings);
  check Alcotest.int "count kept" 6 r.Engine.found;
  check Alcotest.bool "complete" true (r.Engine.outcome = Engine.Complete);
  (* found mirrors |mappings| when collecting. *)
  let r' =
    Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All }
      Engine.ECF p
  in
  check Alcotest.int "found = |mappings|" (List.length r'.Engine.mappings) r'.Engine.found

let test_algorithm_names () =
  check Alcotest.(list string) "names" [ "ECF"; "RWB"; "LNS" ]
    (List.map Engine.algorithm_name Engine.all_algorithms);
  check Alcotest.string "outcomes" "complete,partial,inconclusive"
    (String.concat ","
       (List.map Engine.outcome_name [ Engine.Complete; Engine.Partial; Engine.Inconclusive ]))

(* ------------------------------------------------------------------ *)
(* Mapping / Verify                                                    *)
(* ------------------------------------------------------------------ *)

let test_mapping_basics () =
  let m = Mapping.of_array [| 3; 1; 4 |] in
  check Alcotest.int "size" 3 (Mapping.size m);
  check Alcotest.int "apply" 4 (Mapping.apply m 2);
  check Alcotest.bool "injective" true (Mapping.is_injective m);
  check Alcotest.bool "not injective" false (Mapping.is_injective (Mapping.of_array [| 1; 1 |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Mapping.apply: out of range")
    (fun () -> ignore (Mapping.apply m 5));
  check Alcotest.(list (pair int int)) "to_list" [ (0, 3); (1, 1); (2, 4) ] (Mapping.to_list m)

let test_verify_violations () =
  let p = path_problem () in
  let violation m =
    match Verify.check p (Mapping.of_array m) with
    | Error v -> Format.asprintf "%a" Verify.pp_violation v
    | Ok () -> "ok"
  in
  check Alcotest.string "valid" "ok" (violation [| 0; 1; 2 |]);
  check Alcotest.bool "wrong size" true (violation [| 0; 1 |] <> "ok");
  check Alcotest.bool "not injective" true (violation [| 0; 0; 2 |] <> "ok");
  check Alcotest.bool "out of range" true (violation [| 0; 1; 9 |] <> "ok");
  check Alcotest.bool "edge unsatisfied" true (violation [| 0; 3; 2 |] <> "ok")

let () =
  Alcotest.run "core"
    [
      ( "problem",
        [
          Alcotest.test_case "rejections" `Quick test_problem_rejects;
          Alcotest.test_case "edge_pair_ok" `Quick test_edge_pair_ok;
          Alcotest.test_case "degree filter" `Quick test_node_ok_degree;
          Alcotest.test_case "node constraint" `Quick test_node_constraint;
        ] );
      ("compile", [ Alcotest.test_case "compiles counter" `Quick test_compiles_counter ]);
      ("prefilter", [ Alcotest.test_case "sets classification" `Quick test_prefilter_sets ]);
      ( "filter",
        [
          Alcotest.test_case "cells" `Quick test_filter_cells;
          Alcotest.test_case "order covers query" `Quick test_filter_order_covers;
          Alcotest.test_case "node candidates sound" `Quick test_filter_node_candidates_sound;
          Alcotest.test_case "parallel query edges" `Quick test_filter_parallel_edges;
          Alcotest.test_case "footprint" `Quick test_filter_footprint;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "agree on fixture" `Quick test_three_algorithms_agree_small;
          Alcotest.test_case "agree on 25 random instances" `Quick test_agreement_random_instances;
          Alcotest.test_case "feasible by construction" `Quick test_feasible_by_construction;
          Alcotest.test_case "infeasible proved" `Quick test_infeasible_complete_empty;
          Alcotest.test_case "directed" `Quick test_directed_embedding;
          Alcotest.test_case "asymmetric constraint" `Quick test_asymmetric_constraint;
          Alcotest.test_case "disconnected query" `Quick test_disconnected_query;
          Alcotest.test_case "ordering ablation agreement" `Quick
            test_ordering_ablation_agreement;
        ] );
      ( "engine",
        [
          Alcotest.test_case "first mode" `Quick test_first_mode;
          Alcotest.test_case "at-most mode" `Quick test_at_most_mode;
          Alcotest.test_case "visited cap" `Quick test_budget_visited_cap;
          Alcotest.test_case "budget" `Quick test_budget_standalone;
          Alcotest.test_case "empty query" `Quick test_empty_query;
          Alcotest.test_case "rwb seeds" `Quick test_rwb_seed_variation;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "basics" `Quick test_mapping_basics;
          Alcotest.test_case "verify violations" `Quick test_verify_violations;
        ] );
      ( "api",
        [
          Alcotest.test_case "residual_for_edge" `Quick test_residual_for_edge;
          Alcotest.test_case "prepare" `Quick test_problem_prepare;
          Alcotest.test_case "engine wrappers" `Quick test_engine_wrappers;
          Alcotest.test_case "collect=false" `Quick test_collect_false;
          Alcotest.test_case "names" `Quick test_algorithm_names;
        ] );
    ]

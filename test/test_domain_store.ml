(* Unit tests for the Domain_store scratch pool, plus the differential
   test of the representation refactor: the bitset-backed search core
   must return exactly the answer of the seed sorted-array
   implementation (the oracle's Sorted_arrays.search) on a spread of seeded
   random problems — mixed directed/undirected, with and without
   node-level filters. *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Expr = Netembed_expr.Expr
module Rng = Netembed_rng.Rng
module Bitset = Netembed_bitset.Bitset
module Sorted_arrays = Netembed_oracle.Sorted_arrays
open Netembed_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Domain_store unit tests                                             *)
(* ------------------------------------------------------------------ *)

let test_store_basics () =
  let s = Domain_store.create ~universe:100 ~depths:4 in
  check Alcotest.int "universe" 100 (Domain_store.universe s);
  check Alcotest.int "depths" 4 (Domain_store.depths s);
  let cell = Bitset.of_list 100 [ 1; 5; 40; 99 ] in
  let dom = Domain_store.load s ~depth:0 cell in
  check Alcotest.(list int) "load copies" [ 1; 5; 40; 99 ] (Bitset.elements dom);
  Bitset.remove dom 5;
  check Alcotest.bool "source untouched by scratch mutation" true (Bitset.mem cell 5);
  Domain_store.restrict s ~depth:0 (Bitset.of_list 100 [ 1; 40; 77 ]);
  check Alcotest.(list int) "restrict intersects" [ 1; 40 ]
    (Bitset.elements (Domain_store.domain s ~depth:0));
  Domain_store.mark_used s 40;
  check Alcotest.int "exclude_used_observed counts" 1
    (Domain_store.exclude_used_observed s ~depth:0);
  check Alcotest.(list int) "exclude_used_observed subtracts" [ 1 ]
    (Bitset.elements (Domain_store.domain s ~depth:0));
  Domain_store.release_used s 40;
  check Alcotest.bool "release clears used" true (Bitset.is_empty (Domain_store.used s));
  (* Depths are independent scratch. *)
  ignore (Domain_store.load_array s ~depth:1 [| 7; 8 |]);
  check Alcotest.(list int) "depth 0 unaffected" [ 1 ]
    (Bitset.elements (Domain_store.domain s ~depth:0));
  let stats = Domain_store.stats s in
  check Alcotest.int "domains counted" 2 stats.Domain_store.domains_built;
  check Alcotest.int "intersections counted" 1 stats.Domain_store.intersections;
  check Alcotest.bool "scratch footprint reported" true (stats.Domain_store.scratch_words > 0)

let test_store_order_buffer () =
  let s = Domain_store.create ~universe:70 ~depths:2 in
  ignore (Domain_store.load_array s ~depth:1 [| 0; 13; 61; 62; 69 |]);
  let count = Domain_store.fill_order_buffer s ~depth:1 in
  check Alcotest.int "count" 5 count;
  let buf = Domain_store.order_buffer s ~depth:1 in
  check Alcotest.(list int) "ascending prefix" [ 0; 13; 61; 62; 69 ]
    (Array.to_list (Array.sub buf 0 count))

let test_store_reset_and_errors () =
  let s = Domain_store.create ~universe:10 ~depths:1 in
  Domain_store.mark_used s 3;
  Domain_store.reset s;
  check Alcotest.bool "reset clears used" true (Bitset.is_empty (Domain_store.used s));
  Alcotest.check_raises "negative universe" (Invalid_argument "Domain_store.create")
    (fun () -> ignore (Domain_store.create ~universe:(-1) ~depths:0));
  (* Dfs rejects stores of the wrong shape. *)
  let host = Netembed_topology.Regular.clique 5 in
  let query = Netembed_topology.Regular.ring 3 in
  let p = Problem.make ~host ~query Expr.always in
  let f = Filter.build p in
  let run store =
    Dfs.search ~store p f ~candidate_order:Dfs.Ascending ~budget:(Budget.unlimited ())
      ~on_solution:(fun _ -> `Continue)
  in
  Alcotest.check_raises "universe mismatch"
    (Invalid_argument "Dfs.search: store universe mismatch") (fun () ->
      run (Domain_store.create ~universe:4 ~depths:3));
  Alcotest.check_raises "too shallow" (Invalid_argument "Dfs.search: store too shallow")
    (fun () -> run (Domain_store.create ~universe:5 ~depths:2))

let test_store_reuse_across_searches () =
  (* A store passed explicitly is reset between searches and yields the
     same answers as private stores. *)
  let host = Netembed_topology.Regular.clique 6 in
  let query = Netembed_topology.Regular.ring 4 in
  let p = Problem.make ~host ~query Expr.always in
  let f = Filter.build p in
  let store = Domain_store.create ~universe:6 ~depths:4 in
  let run () =
    let acc = ref 0 in
    Dfs.search ~store p f ~candidate_order:Dfs.Ascending ~budget:(Budget.unlimited ())
      ~on_solution:(fun _ ->
        incr acc;
        `Continue);
    !acc
  in
  let a = run () in
  let b = run () in
  check Alcotest.int "same count on reuse" a b;
  check Alcotest.bool "found embeddings" true (a > 0)

(* The hot loop allocates nothing per visited node: on an unsat
   problem a search over a warm store allocates the same words whether
   its visit budget is 1,000 or 10,000.  [search] and [search_frame]
   alike, on two fixtures run without blame:
   - a star with seven leaves on the 6-cube, whose hosts have six
     neighbours, with the degree filter off so the search has to find
     that out;
   - a 5-ring on the complete bipartite K(10,10), which has no odd
     cycle: the last ring node intersects two neighbour cells on every
     visit that reaches it. *)
let test_hot_loop_allocation_flat () =
  let module Regular = Netembed_topology.Regular in
  let k10_10 =
    let g = Graph.create () in
    let v = Array.init 20 (fun _ -> Graph.add_node g Attrs.empty) in
    for i = 0 to 9 do
      for j = 10 to 19 do
        ignore (Graph.add_edge g v.(i) v.(j) Attrs.empty)
      done
    done;
    g
  in
  let fixtures =
    [ "star 8 on the 6-cube",
        Problem.make ~degree_filter:false ~host:(Regular.hypercube 6) ~query:(Regular.star 8)
          Expr.always
    ; "ring 5 on K(10,10)", Problem.make ~host:k10_10 ~query:(Regular.ring 5) Expr.always
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (fixture, p) ->
      let f = Filter.build p in
      let store =
        Domain_store.create ~universe:(Graph.node_count p.Problem.host)
          ~depths:(Graph.node_count p.Problem.query)
      in
      let frame =
        let root = (Filter.order f).(0) in
        { Dfs.prefix = [||]; candidates = Bitset.to_array (Filter.node_candidates_bits f root) }
      in
      let on_solution _ = Alcotest.failf "%s has a mapping" fixture in
      let candidate_order = Dfs.Ascending in
      let searches =
        [ "search", (fun budget -> Dfs.search ~store p f ~candidate_order ~budget ~on_solution)
        ; "search_frame", (fun budget -> Dfs.search_frame ~store p f ~frame ~candidate_order ~budget ~on_solution)
        ] [@ocamlformat "disable"]
      in
      List.iter
        (fun (name, search) ->
          let name = Printf.sprintf "%s, %s" fixture name in
          let words cap =
            let budget = Budget.make ~max_visited:cap () in
            let before = Gc.minor_words () in
            (try search budget with Budget.Exhausted -> ());
            if Budget.visited budget <= cap then
              Alcotest.failf "%s: unsat before %d visits" name cap;
            Gc.minor_words () -. before
          in
          ignore (words 1_000) (* warm the store *);
          check (Alcotest.float 0.0) (name ^ ": words at 1k = words at 10k visits")
            (words 1_000) (words 10_000))
        searches)
    fixtures

(* ------------------------------------------------------------------ *)
(* Differential: bitset engine vs seed sorted-array implementation     *)
(* ------------------------------------------------------------------ *)

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]

let band lo hi =
  Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

let cap c = Attrs.of_list [ ("cap", Value.Int c) ]

(* Random problem: connected-ish host with random extra edges, random
   spanning-tree query with delay bands; optionally directed, optionally
   carrying a node-capacity filter. *)
let random_problem seed ~directed ~node_filtered =
  let rng = Rng.make seed in
  let host_n = 8 + Rng.int rng 6 in
  let query_n = 3 + Rng.int rng 3 in
  let kind = if directed then Graph.Directed else Graph.Undirected in
  let node_attrs () = if node_filtered then cap (Rng.int rng 4) else Attrs.empty in
  let host = Graph.create ~kind () in
  let hv = Array.init host_n (fun _ -> Graph.add_node host (node_attrs ())) in
  for i = 1 to host_n - 1 do
    let j = Rng.int rng i in
    let u, v = if directed && Rng.bool rng then (i, j) else (j, i) in
    ignore (Graph.add_edge host hv.(u) hv.(v) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  for _ = 1 to host_n * 2 do
    let u = Rng.int rng host_n and v = Rng.int rng host_n in
    if u <> v && not (Graph.mem_edge host hv.(u) hv.(v)) then
      ignore (Graph.add_edge host hv.(u) hv.(v) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  let query = Graph.create ~kind () in
  let qv =
    Array.init query_n (fun _ ->
        Graph.add_node query (if node_filtered then cap (Rng.int rng 3) else Attrs.empty))
  in
  for i = 1 to query_n - 1 do
    let j = Rng.int rng i in
    let u, v = if directed && Rng.bool rng then (i, j) else (j, i) in
    let center = Rng.uniform rng ~lo:5.0 ~hi:50.0 in
    ignore (Graph.add_edge query qv.(u) qv.(v) (band (center -. 10.0) (center +. 10.0)))
  done;
  let node_constraint =
    if node_filtered then Some (Expr.parse_exn "rSource.cap >= vSource.cap") else None
  in
  Problem.make ?node_constraint ~host ~query Expr.avg_delay_within

let mapping_set ms = List.sort_uniq Mapping.compare ms

(* The seed implementation, run to exhaustion. *)
let legacy_all p =
  let v = Sorted_arrays.views p (Filter.build p) in
  let acc = ref [] in
  Sorted_arrays.search v p ~candidate_order:Dfs.Ascending ~budget:(Budget.unlimited ())
    ~on_solution:(fun m ->
      acc := m :: !acc;
      `Continue);
  (mapping_set !acc, List.length !acc)

let legacy_first p =
  let v = Sorted_arrays.views p (Filter.build p) in
  let acc = ref None in
  Sorted_arrays.search v p ~candidate_order:Dfs.Ascending ~budget:(Budget.unlimited ())
    ~on_solution:(fun m ->
      acc := Some m;
      `Stop);
  !acc

let variants =
  [
    (false, false, "undirected");
    (false, true, "undirected+node-filter");
    (true, false, "directed");
    (true, true, "directed+node-filter");
  ]

let test_differential_all () =
  (* ~50 seeded problems across the four variants: identical mapping
     sets, counts and outcome for ECF in All mode. *)
  let nonempty = ref 0 in
  List.iter
    (fun (directed, node_filtered, label) ->
      for seed = 1 to 13 do
        let p = random_problem seed ~directed ~node_filtered in
        let legacy_set, legacy_found = legacy_all p in
        let r =
          Engine.run
            ~options:{ Engine.default_options with Engine.mode = Engine.All }
            Engine.ECF p
        in
        let bitset_set = mapping_set r.Engine.mappings in
        if r.Engine.outcome <> Engine.Complete then
          Alcotest.failf "%s seed %d: bitset run not complete" label seed;
        if r.Engine.found <> legacy_found then
          Alcotest.failf "%s seed %d: found %d vs legacy %d" label seed r.Engine.found
            legacy_found;
        if List.length bitset_set <> List.length legacy_set then
          Alcotest.failf "%s seed %d: set size differs" label seed;
        if not (List.for_all2 Mapping.equal legacy_set bitset_set) then
          Alcotest.failf "%s seed %d: mapping sets differ" label seed;
        if legacy_found > 0 then incr nonempty;
        (* Every reported mapping passes the independent verifier. *)
        List.iter
          (fun m ->
            if not (Verify.is_valid p m) then
              Alcotest.failf "%s seed %d: invalid mapping" label seed)
          r.Engine.mappings
      done)
    variants;
  (* The spread must actually exercise the search, not just prove
     infeasibility everywhere. *)
  check Alcotest.bool "enough feasible instances" true (!nonempty >= 10)

let test_differential_first () =
  (* Deterministic ECF First: both representations must report the very
     same first solution (ascending enumeration visits the identical
     tree). *)
  List.iter
    (fun (directed, node_filtered, label) ->
      for seed = 1 to 13 do
        let p = random_problem seed ~directed ~node_filtered in
        let legacy = legacy_first p in
        let bitset =
          (Engine.run
             ~options:{ Engine.default_options with Engine.mode = Engine.First }
             Engine.ECF p)
            .Engine.mappings
        in
        match (legacy, bitset) with
        | None, [] -> ()
        | Some m, [ m' ] ->
            if not (Mapping.equal m m') then
              Alcotest.failf "%s seed %d: first solutions differ" label seed
        | Some _, [] -> Alcotest.failf "%s seed %d: bitset path missed the solution" label seed
        | None, _ :: _ -> Alcotest.failf "%s seed %d: bitset path invented a solution" label seed
        | _, _ :: _ :: _ -> Alcotest.failf "%s seed %d: First returned several" label seed
      done)
    variants

let test_differential_visited_prefix () =
  (* Under a visited-node budget both paths truncate at the same point:
     the budget-limited prefixes coincide, mapping for mapping. *)
  for seed = 1 to 8 do
    let p = random_problem (100 + seed) ~directed:false ~node_filtered:false in
    let cap = 40 in
    let run search =
      let f = Filter.build p in
      let acc = ref [] in
      (try
         search p f ~candidate_order:Dfs.Ascending
           ~budget:(Budget.make ~max_visited:cap ())
           ~on_solution:(fun m ->
             acc := m :: !acc;
             `Continue)
       with Budget.Exhausted -> ());
      List.rev !acc
    in
    let legacy = run (fun p f -> Sorted_arrays.search (Sorted_arrays.views p f) p) in
    let bitset = run (fun p f -> Dfs.search p f) in
    if List.length legacy <> List.length bitset then
      Alcotest.failf "seed %d: prefix lengths differ" seed;
    if not (List.for_all2 Mapping.equal legacy bitset) then
      Alcotest.failf "seed %d: budget-limited prefixes differ" seed
  done

let test_engine_reports_domain_stats () =
  let p = random_problem 7 ~directed:false ~node_filtered:false in
  List.iter
    (fun alg ->
      let r =
        Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All } alg p
      in
      match r.Engine.domain_stats with
      | None -> Alcotest.failf "%s: no domain stats" (Engine.algorithm_name alg)
      | Some s ->
          check Alcotest.bool
            (Engine.algorithm_name alg ^ " universe")
            true
            (s.Domain_store.universe = Graph.node_count p.Problem.host);
          if r.Engine.visited > 1 && alg <> Engine.RWB then
            check Alcotest.bool
              (Engine.algorithm_name alg ^ " built domains")
              true (s.Domain_store.domains_built > 0))
    Engine.all_algorithms

let () =
  Alcotest.run "domain_store"
    [
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "order buffer" `Quick test_store_order_buffer;
          Alcotest.test_case "reset and errors" `Quick test_store_reset_and_errors;
          Alcotest.test_case "reuse across searches" `Quick test_store_reuse_across_searches;
          Alcotest.test_case "hot loop allocation flat" `Quick test_hot_loop_allocation_flat;
        ] );
      ( "differential",
        [
          Alcotest.test_case "ECF All set equality (52 problems)" `Quick
            test_differential_all;
          Alcotest.test_case "ECF First identical (52 problems)" `Quick
            test_differential_first;
          Alcotest.test_case "budget-limited prefix equality" `Quick
            test_differential_visited_prefix;
          Alcotest.test_case "engine reports domain stats" `Quick
            test_engine_reports_domain_stats;
        ] );
    ]

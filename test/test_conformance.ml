(* Differential conformance harness for the parallel search: on seeded
   random problems, work-stealing ECF, static-partition ECF and
   sequential ECF must return identical mapping sets (sorted canonical
   form) and agreeing verdicts, at every tested domain count.  This is
   the executable form of the frame-disjointness argument: subtrees
   under distinct frames partition the permutations tree, so no
   scheduling decision may change the answer — only its order.

   The domain counts exercised are {1, 2, 4} plus the DOMAINS
   environment variable when set (CI runs the suite at DOMAINS=1 and
   DOMAINS=4 on runners with different core counts). *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Expr = Netembed_expr.Expr
module Rng = Netembed_rng.Rng
module Parallel = Netembed_parallel.Parallel
module Explain = Netembed_explain.Explain
open Netembed_core

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]

let band lo hi =
  Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]

let domains_under_test =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "DOMAINS" with
  | None -> base
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> List.sort_uniq compare (d :: base)
      | Some _ | None -> base)

(* Random connected host + random connected query with delay bands.
   Instance shape varies with the seed; roughly a quarter of the
   instances draw near-degenerate bands, so the suite also covers
   agreeing [unsat] verdicts. *)
let instance seed =
  let rng = Rng.make seed in
  let host_n = 8 + Rng.int rng 8 in
  let query_n = 3 + Rng.int rng 3 in
  let tight = Rng.int rng 4 = 0 in
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
    let halfwidth = if tight then 0.5 else 10.0 in
    ignore
      (Graph.add_edge query qv.(j) qv.(i) (band (center -. halfwidth) (center +. halfwidth)))
  done;
  Problem.make ~host ~query Expr.avg_delay_within

let canon ms = List.sort_uniq Mapping.compare ms

let equal_sets a b =
  List.length a = List.length b && List.for_all2 Mapping.equal a b

let strategy_name = function
  | Parallel.Static -> "static"
  | Parallel.Work_stealing -> "work-stealing"

let conformance_prop seed =
  let p = instance seed in
  let seq_result =
    Engine.run
      ~options:{ Engine.default_options with Engine.mode = Engine.All }
      Engine.ECF p
  in
  let seq = canon seq_result.Engine.mappings in
  let seq_verdict = Engine.verdict seq_result in
  List.iter
    (fun d ->
      List.iter
        (fun strategy ->
          let st = Parallel.ecf_all_stats ~strategy ~domains:d p in
          let par = canon st.Parallel.mappings in
          let verdict =
            Engine.verdict_of st.Parallel.outcome (List.length st.Parallel.mappings)
          in
          if verdict <> seq_verdict then
            QCheck.Test.fail_reportf
              "seed %d, %s, domains=%d: verdict %s, sequential says %s" seed
              (strategy_name strategy) d verdict seq_verdict;
          if not (equal_sets seq par) then
            QCheck.Test.fail_reportf
              "seed %d, %s, domains=%d: %d mappings, sequential found %d" seed
              (strategy_name strategy) d (List.length par) (List.length seq))
        [ Parallel.Static; Parallel.Work_stealing ])
    domains_under_test;
  true

let conformance_test =
  QCheck.Test.make ~count:50 ~name:"ws = static = sequential (mapping sets + verdicts)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    conformance_prop

(* The same invariant on a handful of pinned shapes that random draws
   can miss: a single-node query (no split possible), a query as large
   as the host (tight permutation), and a disconnected query (the
   second component restarts the neighbour intersection). *)
let pinned_instance = function
  | `Single_node ->
      let host = Netembed_topology.Regular.ring ~edge:(delay 10.0) 5 in
      let query = Graph.create () in
      ignore (Graph.add_node query Attrs.empty);
      Problem.make ~host ~query Expr.avg_delay_within
  | `Full_size ->
      let host = Netembed_topology.Regular.ring ~edge:(delay 10.0) 5 in
      let query = Graph.create () in
      let qv = Array.init 5 (fun _ -> Graph.add_node query Attrs.empty) in
      for i = 0 to 4 do
        ignore (Graph.add_edge query qv.(i) qv.((i + 1) mod 5) (band 5.0 15.0))
      done;
      Problem.make ~host ~query Expr.avg_delay_within
  | `Disconnected ->
      let host = Netembed_topology.Regular.ring ~edge:(delay 10.0) 6 in
      let query = Graph.create () in
      let a = Graph.add_node query Attrs.empty
      and b = Graph.add_node query Attrs.empty
      and c = Graph.add_node query Attrs.empty
      and d = Graph.add_node query Attrs.empty in
      ignore (Graph.add_edge query a b (band 5.0 15.0));
      ignore (Graph.add_edge query c d (band 5.0 15.0));
      Problem.make ~host ~query Expr.avg_delay_within

let test_pinned_shapes () =
  List.iter
    (fun shape ->
      let p = pinned_instance shape in
      let seq = canon (Engine.find_all Engine.ECF p) in
      List.iter
        (fun d ->
          List.iter
            (fun strategy ->
              let st = Parallel.ecf_all_stats ~strategy ~domains:d p in
              Alcotest.(check bool)
                "complete" true
                (st.Parallel.outcome = Engine.Complete);
              Alcotest.(check bool)
                "same set" true
                (equal_sets seq (canon st.Parallel.mappings)))
            [ Parallel.Static; Parallel.Work_stealing ])
        domains_under_test)
    [ `Single_node; `Full_size; `Disconnected ]

(* Deeper split horizons change which frames are expanded vs searched;
   the result set must not notice. *)
let test_split_depth_invariance () =
  let p = instance 4242 in
  let seq = canon (Engine.find_all Engine.ECF p) in
  List.iter
    (fun split_depth ->
      let st =
        Parallel.ecf_all_stats ~strategy:Parallel.Work_stealing ~domains:4
          ~split_depth p
      in
      Alcotest.(check bool)
        (Printf.sprintf "split_depth %d" split_depth)
        true
        (equal_sets seq (canon st.Parallel.mappings)))
    [ 0; 1; 2; 3; 100 ]

(* ------------------------------------------------------------------ *)
(* Pre-filter differential                                             *)
(* ------------------------------------------------------------------ *)

(* The interpreter with and without the Bounds pre-filter (atoms swept
   over unboxed attribute columns before any evaluation) must return
   identical mapping sets and verdicts on every instance.  The
   instances deliberately mix numeric bands, string equalities,
   booleans, disjunctions (which the Bounds extraction cannot decide —
   survivors fall back to evaluation) and missing attributes, so all
   three paths through the pre-filter are exercised: decide-accept,
   decide-drop and dirty-fallback. *)

let os_names = [| "linux"; "bsd"; "plan9" |]

let rich_host rng n =
  let host = Graph.create () in
  let hv =
    Array.init n (fun _ ->
        let attrs =
          Attrs.of_list
            ([
               ("cpuMhz", Value.Float (500.0 +. Rng.uniform rng ~lo:0.0 ~hi:2500.0));
               ("up", Value.Bool (Rng.int rng 10 <> 0));
             ]
            @
            (* one host in eight has no osType at all: strict node
               constraints must reject it, accepts-mode edge atoms
               must route it through the dirty fallback *)
            if Rng.int rng 8 = 0 then []
            else [ ("osType", Value.String os_names.(Rng.int rng 3)) ])
        in
        Graph.add_node host attrs)
  in
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    ignore (Graph.add_edge host hv.(j) hv.(i) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  for _ = 1 to n * 2 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.mem_edge host hv.(u) hv.(v)) then
      ignore (Graph.add_edge host hv.(u) hv.(v) (delay (Rng.uniform rng ~lo:5.0 ~hi:50.0)))
  done;
  host

let edge_constraints =
  [|
    (* pure numeric band: fully decided by the prefilter *)
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay";
    (* band + string equality on the endpoints *)
    "rEdge.avgDelay <= vEdge.maxDelay && rSource.osType == vSource.osType";
    (* disjunction: extraction is incomplete, everything re-evaluates *)
    "rEdge.avgDelay <= vEdge.maxDelay || rEdge.avgDelay < 8";
    (* boolean atom + band *)
    "rSource.up && rTarget.up && rEdge.avgDelay >= vEdge.minDelay";
    (* arithmetic around the attribute: no atom, generic eval only *)
    "rEdge.avgDelay * 2 <= vEdge.maxDelay + vEdge.maxDelay";
  |]

(* Node constraints reach every path of the node plan: decided by
   atoms alone, a negated boolean ([Has_bool false]), a disjunction (no
   atoms: every host is dirty and evaluates), a query-side attribute
   that half the query nodes lack (the plan is infeasible for those),
   and an [rEdge] atom (the plan is bypassed for per-host evaluation;
   with no edge in scope it rejects every host). *)
let node_constraints =
  [|
    None;
    Some "rSource.cpuMhz >= 900";
    Some "rSource.up && rSource.cpuMhz >= vSource.cpuMhz";
    Some "rSource.osType == \"linux\"";
    Some "!rSource.up && rSource.cpuMhz >= 700";
    Some "rSource.cpuMhz >= 2000 || rSource.osType == \"bsd\"";
    Some "rSource.osType == vSource.osType";
    Some "rEdge.avgDelay < 100 && rSource.cpuMhz >= 900";
  |]

let rich_instance seed =
  let rng = Rng.make (seed * 7919) in
  let host = rich_host rng (8 + Rng.int rng 8) in
  let query_n = 3 + Rng.int rng 3 in
  let tight = Rng.int rng 4 = 0 in
  let query = Graph.create () in
  let qv =
    Array.init query_n (fun _ ->
        let attrs =
          Attrs.of_list
            ([ ("cpuMhz", Value.Float (600.0 +. Rng.uniform rng ~lo:0.0 ~hi:1000.0)) ]
            @
            if Rng.int rng 2 = 0 then
              [ ("osType", Value.String os_names.(Rng.int rng 3)) ]
            else [])
        in
        Graph.add_node query attrs)
  in
  for i = 1 to query_n - 1 do
    let j = Rng.int rng i in
    let center = Rng.uniform rng ~lo:5.0 ~hi:50.0 in
    let halfwidth = if tight then 0.5 else 10.0 in
    ignore
      (Graph.add_edge query qv.(j) qv.(i) (band (center -. halfwidth) (center +. halfwidth)))
  done;
  let edge_c = Expr.parse_exn edge_constraints.(Rng.int rng (Array.length edge_constraints)) in
  let node_c =
    Option.map Expr.parse_exn
      node_constraints.(Rng.int rng (Array.length node_constraints))
  in
  Problem.make ?node_constraint:node_c ~host ~query edge_c

let prefilter_prop seed =
  let run ~prefilter =
    let p = rich_instance seed in
    let options =
      { Engine.default_options with Engine.mode = Engine.All; prefilter }
    in
    let r = Engine.run ~options Engine.ECF p in
    (canon r.Engine.mappings, Engine.verdict r)
  in
  let oracle, oracle_verdict = run ~prefilter:false in
  let got, verdict = run ~prefilter:true in
  if verdict <> oracle_verdict then
    QCheck.Test.fail_reportf "seed %d, interp+prefilter: verdict %s, interpreter says %s"
      seed verdict oracle_verdict;
  if not (equal_sets oracle got) then
    QCheck.Test.fail_reportf
      "seed %d, interp+prefilter: %d mappings, interpreter found %d" seed
      (List.length got) (List.length oracle);
  true

let prefilter_conformance_test =
  QCheck.Test.make ~count:60
    ~name:"interp = interp+prefilter (mapping sets + verdicts)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    prefilter_prop

(* Stronger than equal mapping sets: the filter itself.  Prefilter on
   and off must build the same expression-(1) candidate set for every
   query node, the same cell for every (query node, query node, host
   node) triple and the same blame tallies. *)
let filter_prop seed =
  let build ~prefilter =
    let p = rich_instance seed in
    let blame = Explain.Blame.create () in
    (p, Filter.build ~prefilter ~blame p, blame)
  in
  let p, oracle, oracle_blame = build ~prefilter:false in
  let _, got, blame = build ~prefilter:true in
  let nq = Graph.node_count p.Problem.query and nr = Graph.node_count p.Problem.host in
  let elements = Option.map Netembed_bitset.Bitset.elements in
  for a = 0 to nq - 1 do
    if not
         (Netembed_bitset.Bitset.equal
            (Filter.node_candidates_bits oracle a)
            (Filter.node_candidates_bits got a))
    then QCheck.Test.fail_reportf "seed %d: node candidates of q%d differ" seed a;
    let tallies b = List.sort compare (Explain.Blame.by_node b a) in
    if tallies oracle_blame <> tallies blame then
      QCheck.Test.fail_reportf "seed %d: blame tallies of q%d differ" seed a;
    for b = 0 to nq - 1 do
      for r = 0 to nr - 1 do
        let cell f = elements (Filter.cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b) in
        if cell oracle <> cell got then
          QCheck.Test.fail_reportf "seed %d: cell (q%d, r%d, q%d) differs" seed a r b
      done
    done
  done;
  true

let filter_conformance_test =
  QCheck.Test.make ~count:60
    ~name:"interp = interp+prefilter (filter cells + node candidates + blame)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    filter_prop

let () =
  Alcotest.run "conformance"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest conformance_test;
          Alcotest.test_case "pinned shapes" `Quick test_pinned_shapes;
          Alcotest.test_case "split-depth invariance" `Quick test_split_depth_invariance;
        ] );
      ( "prefilter",
        [
          QCheck_alcotest.to_alcotest prefilter_conformance_test;
          QCheck_alcotest.to_alcotest filter_conformance_test;
        ] );
    ]

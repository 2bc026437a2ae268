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
module Eval = Netembed_expr.Eval
open Netembed_core

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]

(* The cell [F[a, r, b]] of a build, [None] when it is empty. *)
let cell_bits f ~q_assigned ~r_assigned ~q_next =
  match Filter.cell_bits_exn f ~q_assigned ~r_assigned ~q_next with
  | c -> Some c
  | exception Not_found -> None

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

(* Values at the edges of the numeric order, stamped into the host's
   numeric attributes on some seeds: the pre-filter's word-parallel
   sweeps route NaN (below every float under Float.compare), signed
   zeros (equal) and infinities without a per-member compare. *)
let edge_floats = [| Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity |]

(* On one seed in three, about a quarter of the host links get an
   [edge_floats] delay and about a quarter of the hosts a stamped
   cpuMhz: an [edge_floats] value or, one host in sixteen, the string
   "n/a", which no ordering atom can classify (the dirty path:
   evaluation raises, with or without the pre-filter).  On one seed in five the
   host has 63-78 nodes, so node columns span two bitset words and
   edge columns several.  Stamped seeds also give about a quarter of
   the query links a NaN maxDelay, a NaN atom bound.  The choices come
   from their own generator, so the other seeds keep their instances. *)
let stamp_edge_values rng host =
  Graph.iter_edges
    (fun e _ _ ->
      if Rng.int rng 4 = 0 then
        Graph.set_edge_attrs host e
          (Attrs.add "avgDelay"
             (Value.Float edge_floats.(Rng.int rng (Array.length edge_floats)))
             (Graph.edge_attrs host e)))
    host;
  Graph.iter_nodes
    (fun v ->
      let stamp =
        match Rng.int rng 16 with
        | 0 -> Some (Value.String "n/a")
        | 1 | 2 | 3 -> Some (Value.Float edge_floats.(Rng.int rng (Array.length edge_floats)))
        | _ -> None
      in
      Option.iter
        (fun x -> Graph.set_node_attrs host v (Attrs.add "cpuMhz" x (Graph.node_attrs host v)))
        stamp)
    host

(* With [unclassified], one host link's avgDelay and one host's [up]
   become the string "n/a", which no atom can classify: the link is in
   its plan's admissible set but not in its clean set, and the host
   leaves an [rSource.up] plan undecided.  Even a complete plan must
   then evaluate them, and the evaluation raises.  Such instances take
   a one-atom edge constraint and no node constraint: with a second
   atom, the pre-filter may drop the pair before the interpreter would
   raise on it (see {!Prefilter.sets}), so the build and the oracle
   raise alike only when nothing else rejects the pair. *)
let unclassified_constraints = [| "rEdge.avgDelay <= vEdge.maxDelay"; "rSource.up" |]

let stamp_unclassified rng host =
  let n_a = Value.String "n/a" in
  let e = Rng.int rng (Graph.edge_count host) and v = Rng.int rng (Graph.node_count host) in
  Graph.set_edge_attrs host e (Attrs.add "avgDelay" n_a (Graph.edge_attrs host e));
  Graph.set_node_attrs host v (Attrs.add "up" n_a (Graph.node_attrs host v))

let rich_instance ?(unclassified = false) seed =
  let rng = Rng.make (seed * 7919) in
  let shape = Rng.make ((seed * 7919) + 1) in
  let stamped = Rng.int shape 3 = 0 and large = Rng.int shape 5 = 0 in
  let host = rich_host rng (if large then 63 + Rng.int shape 16 else 8 + Rng.int rng 8) in
  if stamped then stamp_edge_values shape host;
  if unclassified then stamp_unclassified (Rng.make ((seed * 7919) + 2)) host;
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
    (* a NaN bound: Float.compare keeps only NaN delays below it *)
    let hi = if stamped && Rng.int shape 4 = 0 then Float.nan else center +. halfwidth in
    ignore (Graph.add_edge query qv.(j) qv.(i) (band (center -. halfwidth) hi))
  done;
  let edge_c = Expr.parse_exn edge_constraints.(Rng.int rng (Array.length edge_constraints)) in
  let node_c =
    Option.map Expr.parse_exn
      node_constraints.(Rng.int rng (Array.length node_constraints))
  in
  if unclassified then
    Problem.make ~host ~query (Expr.parse_exn unclassified_constraints.(seed mod 2))
  else Problem.make ?node_constraint:node_c ~host ~query edge_c

(* A stamped "n/a" cpuMhz makes some node constraints raise; both
   sides must then raise the interpreter's error. *)
let outcome f = match f () with v -> Ok v | exception Eval.Eval_error msg -> Error msg

let both_ok seed oracle got =
  match (oracle, got) with
  | Ok o, Ok g -> Some (o, g)
  | Error a, Error b when a = b -> None
  | _ ->
      let show = function Ok _ -> "a result" | Error msg -> "error " ^ msg in
      QCheck.Test.fail_reportf "seed %d: interpreter gave %s, interp+prefilter %s" seed
        (show oracle) (show got)

let prefilter_prop seed =
  let run ~prefilter () =
    let p = rich_instance seed in
    let options =
      { Engine.default_options with Engine.mode = Engine.All; prefilter }
    in
    let r = Engine.run ~options Engine.ECF p in
    (canon r.Engine.mappings, Engine.verdict r)
  in
  match both_ok seed (outcome (run ~prefilter:false)) (outcome (run ~prefilter:true)) with
  | None -> true
  | Some ((oracle, oracle_verdict), (got, verdict)) ->
      if verdict <> oracle_verdict then
        QCheck.Test.fail_reportf
          "seed %d, interp+prefilter: verdict %s, interpreter says %s" seed verdict
          oracle_verdict;
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
  let build ~prefilter () =
    let p = rich_instance seed in
    let blame = Explain.Blame.create () in
    (p, Filter.build ~prefilter ~blame p, blame)
  in
  match both_ok seed (outcome (build ~prefilter:false)) (outcome (build ~prefilter:true)) with
  | None -> true
  | Some ((p, oracle, oracle_blame), (_, got, blame)) ->
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
            let cell f = elements (cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b) in
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

(* The build against the brute-force F of [Filter_cells], which shares
   none of the fill: prefilter and blame on, every cell, every node's
   candidates, and the blame table entry for entry in fold order (the
   order certificates list tied causes in).  Both must raise the
   interpreter's error on the same instances. *)
module Filter_cells = Netembed_oracle.Filter_cells

let against_oracle ~what p_of =
  let built () =
    let p = p_of () in
    let blame = Explain.Blame.create () in
    (p, Filter.build ~blame p, blame)
  in
  match (outcome (fun () -> Filter_cells.build (p_of ())), outcome built) with
  | Error _, Error _ -> true
  | Ok _, Error msg -> QCheck.Test.fail_reportf "%s: build raised %s, the oracle did not" what msg
  | Error msg, Ok _ -> QCheck.Test.fail_reportf "%s: oracle raised %s, the build did not" what msg
  | Ok oracle, Ok (p, f, blame) ->
      let nq = Graph.node_count p.Problem.query and nr = Graph.node_count p.Problem.host in
      let module B = Netembed_bitset.Bitset in
      for a = 0 to nq - 1 do
        if not (B.equal (Filter_cells.node_candidates oracle a) (Filter.node_candidates_bits f a))
        then QCheck.Test.fail_reportf "%s: node candidates of q%d differ" what a;
        for b = 0 to nq - 1 do
          if a <> b then
            for r = 0 to nr - 1 do
              let want = B.elements (Filter_cells.cell oracle ~a ~r ~b) in
              let got =
                match cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b with
                | None -> []
                | Some c -> B.elements c
              in
              if want <> got then
                QCheck.Test.fail_reportf "%s: cell (q%d, r%d, q%d) holds [%s], F has [%s]" what
                  a r b
                  (String.concat " " (List.map string_of_int got))
                  (String.concat " " (List.map string_of_int want))
            done
        done
      done;
      let want = Filter_cells.blame oracle in
      let show bl =
        String.concat "; "
          (List.map
             (fun q ->
               String.concat ", "
                 (List.map
                    (fun (c, n) -> Printf.sprintf "q%d %s %d" q (Explain.Cause.to_string c) n)
                    (Explain.Blame.by_node bl q)))
             (List.init nq Fun.id))
      in
      if show want <> show blame || Explain.Blame.totals want <> Explain.Blame.totals blame
      then QCheck.Test.fail_reportf "%s: blame [%s], oracle [%s]" what (show blame) (show want);
      (* Equal counts in another insertion order can still list tied
         causes differently: the tables must be the same value. *)
      if Marshal.to_string want [] <> Marshal.to_string blame [] then
        QCheck.Test.fail_reportf "%s: blame recorded in another order than the oracle's" what;
      true

let oracle_rich_test =
  QCheck.Test.make ~count:40 ~name:"Filter.build = brute-force F (rich instances)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed -> against_oracle ~what:(Printf.sprintf "seed %d" seed) (fun () -> rich_instance seed))

let oracle_unclassified_test =
  QCheck.Test.make ~count:40 ~name:"Filter.build = brute-force F (unclassified values)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      against_oracle ~what:(Printf.sprintf "seed %d, unclassified values" seed) (fun () ->
          rich_instance ~unclassified:true seed))

(* Tenant-shaped queries on the 100-site trace: wide delay bands admit a
   third of the links, so most cells hold several partners. *)
let trace100 =
  lazy
    (Netembed_planetlab.Trace.generate (Rng.make 2008)
       { Netembed_planetlab.Trace.default with Netembed_planetlab.Trace.sites = 100 })

let tenant_instance seed =
  let rng = Rng.make seed in
  Filter_cells.tenant_problem rng ~host:(Lazy.force trace100) ~n:(3 + Rng.int rng 4)

let oracle_tenant_test =
  QCheck.Test.make ~count:8 ~name:"Filter.build = brute-force F (tenant queries, 100 sites)"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100_000))
    (fun seed ->
      against_oracle ~what:(Printf.sprintf "tenant seed %d" seed) (fun () -> tenant_instance seed))

(* The tenant property exercises multi-partner cells only if the
   instances are dense: over a fixed seed set, most non-empty cells
   must hold two or more partners. *)
let test_tenant_density () =
  let multi = ref 0 and nonempty = ref 0 in
  for seed = 1 to 8 do
    let p = tenant_instance seed in
    let f = Filter.build p in
    let nq = Graph.node_count p.Problem.query and nr = Graph.node_count p.Problem.host in
    for a = 0 to nq - 1 do
      for b = 0 to nq - 1 do
        for r = 0 to nr - 1 do
          match cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b with
          | None -> ()
          | Some c ->
              incr nonempty;
              if Netembed_bitset.Bitset.cardinal c >= 2 then incr multi
        done
      done
    done
  done;
  if 2 * !multi <= !nonempty then
    Alcotest.failf "%d of %d non-empty tenant cells hold two or more partners" !multi !nonempty

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
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest oracle_rich_test;
          QCheck_alcotest.to_alcotest oracle_unclassified_test;
          QCheck_alcotest.to_alcotest oracle_tenant_test;
          Alcotest.test_case "tenant cells are dense" `Quick test_tenant_density;
        ] );
    ]

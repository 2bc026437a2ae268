module Rng = Netembed_rng.Rng
module Telemetry = Netembed_telemetry.Telemetry
module Explain = Netembed_explain.Explain
module Graph = Netembed_graph.Graph
module Bitset = Netembed_bitset.Bitset
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Eval = Netembed_expr.Eval
module Ast = Netembed_expr.Ast

type algorithm = ECF | RWB | LNS

let algorithm_name = function ECF -> "ECF" | RWB -> "RWB" | LNS -> "LNS"
let all_algorithms = [ ECF; RWB; LNS ]

type mode = First | All | At_most of int

type outcome = Complete | Partial | Inconclusive

let outcome_name = function
  | Complete -> "complete"
  | Partial -> "partial"
  | Inconclusive -> "inconclusive"

type options = {
  mode : mode;
  timeout : float option;
  max_visited : int option;
  seed : int;
  collect : bool;
  explain : bool;
  prefilter : bool;
}

let default_options =
  {
    mode = First;
    timeout = None;
    max_visited = None;
    seed = 42;
    collect = true;
    explain = false;
    prefilter = true;
  }

type result = {
  mappings : Mapping.t list;
  found : int;
  outcome : outcome;
  elapsed : float;
  time_to_first : float option;
  visited : int;
  filter_evals : int;
  domain_stats : Domain_store.stats option;
  telemetry : Telemetry.snapshot;
  report : Explain.Certificate.t option;
  filter : Filter.t option;
}

(* The wire/service verdict vocabulary: [outcome] alone conflates
   "exhausted the space and found nothing" (a proof of infeasibility)
   with "found everything asked for"; the verdict splits them. *)
let verdict_of outcome found =
  match outcome with
  | Complete -> if found = 0 then "unsat" else "complete"
  | Partial -> "partial"
  | Inconclusive -> "exhausted"

let verdict r = verdict_of r.outcome r.found

(* Process-wide per-algorithm counters, registered once at module init
   so the exposition shows all three algorithms from the start.  Each
   run adds its totals after the search finishes — never from the hot
   path. *)
let global_counters =
  List.map
    (fun a ->
      let labels = [ ("algorithm", algorithm_name a) ] in
      let reg = Telemetry.default_registry in
      ( a,
        Telemetry.Registry.counter reg ~labels
          ~help:"Search-tree nodes visited" "netembed_visited_nodes_total",
        Telemetry.Registry.counter reg ~labels
          ~help:"Feasible mappings found" "netembed_mappings_found_total",
        Telemetry.Registry.counter reg ~labels
          ~help:"Constraint-expression evaluations (all phases)"
          "netembed_constraint_evals_total" ))
    all_algorithms

(* ------------------------------------------------------------------ *)
(* Certificate assembly (explain mode)                                 *)
(* ------------------------------------------------------------------ *)

(* Display labels: planetlab hosts carry a "name" attribute, GraphML
   imports an "id"; synthetic graphs get the positional fallback. *)
let node_label g n fallback_prefix =
  let attrs = Graph.node_attrs g n in
  match Attrs.string "name" attrs with
  | Some s -> s
  | None -> (
      match Attrs.string "id" attrs with
      | Some s -> s
      | None -> Printf.sprintf "%s%d" fallback_prefix n)

let host_label (p : Problem.t) r = node_label p.host r "r"
let query_label (p : Problem.t) q = node_label p.query q "q"

let host_node_items (p : Problem.t) =
  List.init (Graph.node_count p.host) (fun r ->
      (* Synthesize the degree as an attribute so the degree-filter
         requirement is checkable like any numeric one. *)
      let attrs = Attrs.add "degree" (Value.Int p.host_degree.(r)) (Graph.node_attrs p.host r) in
      (r, host_label p r, attrs))

(* Per blamed query node: turn the dominant cause into concrete
   attribute requirements and rank the hosts (or host edges) that almost
   meet them — the "needs cpuMhz >= 3000; best host has 2400" lines. *)
let blamed_entry (p : Problem.t) q causes =
  let dominant = match causes with (c, _) :: _ -> Some c | [] -> None in
  let reqs, near =
    match dominant with
    | Some (Explain.Cause.Node_constraint | Explain.Cause.Degree_filter) ->
        let from_constraint =
          match p.node_constraint with
          | None -> []
          | Some c ->
              let attrs_q = Graph.node_attrs p.query q in
              let residual =
                Eval.specialize ~v_edge:Attrs.empty ~v_source:attrs_q ~v_target:attrs_q c
              in
              Explain.requirements ~on:[ Ast.R_source; Ast.R_target ] residual
        in
        let degree_req =
          if dominant = Some Explain.Cause.Degree_filter then
            [
              {
                Explain.subject = Ast.R_source;
                attr = "degree";
                op = `Ge;
                bound = float_of_int p.query_degree.(q);
              };
            ]
          else []
        in
        let reqs = degree_req @ from_constraint in
        (reqs, Explain.near_misses ~reqs ~items:(host_node_items p) ~limit:3)
    | Some (Explain.Cause.Edge_constraint (a, b)) -> (
        match Problem.query_edges_between p a b with
        | [] -> ([], [])
        | (qe, forward) :: _ ->
            let q_src, q_dst = if forward then (a, b) else (b, a) in
            let residual =
              Eval.specialize
                ~v_edge:(Graph.edge_attrs p.query qe)
                ~v_source:(Graph.node_attrs p.query q_src)
                ~v_target:(Graph.node_attrs p.query q_dst)
                p.edge_constraint
            in
            let reqs = Explain.requirements ~on:[ Ast.R_edge ] residual in
            let items =
              Array.to_list (Graph.edges p.host)
              |> List.map (fun (he, u, v) ->
                     ( he,
                       Printf.sprintf "%s-%s" (host_label p u) (host_label p v),
                       Graph.edge_attrs p.host he ))
            in
            (reqs, Explain.near_misses ~reqs ~items ~limit:3))
    | _ -> ([], [])
  in
  {
    Explain.Certificate.node = q;
    node_label = query_label p q;
    causes;
    requirements = reqs;
    near;
  }

(* The minimal certified set: query nodes whose expression-(1) domain is
   already empty (each alone proves infeasibility).  When the conflict
   only appears deeper in the search, fall back to the most-blamed
   nodes. *)
let select_blamed (p : Problem.t) filter bl =
  let nq = Graph.node_count p.query in
  let empties =
    match filter with
    | None -> []
    | Some f ->
        List.filter
          (fun q -> Bitset.is_empty (Filter.node_candidates_bits f q))
          (List.init nq (fun q -> q))
  in
  let chosen =
    match empties with
    | [] -> List.filteri (fun i _ -> i < 3) (Explain.Blame.nodes bl)
    | l -> l
  in
  List.map (fun q -> blamed_entry p q (Explain.Blame.by_node bl q)) chosen

let hot_spot_of (p : Problem.t) filter store =
  let bts = Domain_store.backtracks_by_depth store in
  let wps = Domain_store.wipeouts_by_depth store in
  let best = ref (-1) and best_score = ref 0 in
  Array.iteri
    (fun d n ->
      let score = n + (if d < Array.length wps then wps.(d) else 0) in
      if score > !best_score then begin
        best := d;
        best_score := score
      end)
    bts;
  if !best < 0 then None
  else
    let d = !best in
    let node =
      match filter with
      | Some f when d < Array.length (Filter.order f) -> (Filter.order f).(d)
      | _ -> -1
    in
    Some
      {
        Explain.Certificate.depth = d;
        node;
        node_label = (if node >= 0 then query_label p node else "");
        backtracks = bts.(d);
        wipeouts = (if d < Array.length wps then wps.(d) else 0);
      }

let assemble_certificate ~(problem : Problem.t) ~algorithm ~filter ~blame ~recorder
    ~store ~outcome ~found ~visited =
  let verdict = verdict_of outcome found in
  let message =
    match outcome with
    | Complete when found = 0 ->
        "search space exhausted without a feasible embedding: the query is \
         infeasible on this host"
    | Complete -> Printf.sprintf "found %d feasible embedding(s)" found
    | Partial ->
        Printf.sprintf "budget exhausted after %d embedding(s); enumeration incomplete"
          found
    | Inconclusive ->
        Printf.sprintf
          "budget exhausted after %d visited nodes without an embedding; \
           infeasibility not proved"
          visited
  in
  let blamed = if found = 0 then select_blamed problem filter blame else [] in
  let notes =
    (match algorithm with
    | LNS ->
        [
          "LNS blames lazily: counts are per rejected (node, host) test, not per \
           filtered candidate";
        ]
    | ECF | RWB -> [])
    @
    match outcome with
    | Inconclusive ->
        [ "not a proof: raise the budget or timeout to distinguish unsat from hard" ]
    | Complete | Partial -> []
  in
  Explain.Certificate.make ~blamed
    ?hot_spot:(hot_spot_of problem filter store)
    ~notes
    ~flight:(Explain.Recorder.events recorder)
    ~verdict message

let run ?(options = default_options) ?filter ?trace
    ?(phases = Telemetry.Phase.make_timings ()) algorithm problem =
  let store =
    Domain_store.create
      ~universe:(Netembed_graph.Graph.node_count problem.Problem.host)
      ~depths:(Netembed_graph.Graph.node_count problem.Problem.query)
  in
  let budget =
    Budget.make ?timeout:options.timeout ?max_visited:options.max_visited
      ~depth_counts:(Domain_store.depth_counts store) ()
  in
  let blame = if options.explain then Some (Explain.Blame.create ()) else None in
  let recorder = if options.explain then Some (Explain.Recorder.create ()) else None in
  (match recorder with Some r -> Domain_store.attach_recorder store r | None -> ());
  let nq = Netembed_graph.Graph.node_count problem.Problem.query in
  let found = ref [] in
  let count = ref 0 in
  let time_to_first = ref None in
  let limit = match options.mode with First -> 1 | All -> max_int | At_most k -> max k 0 in
  let on_solution m =
    if !time_to_first = None then time_to_first := Some (Budget.elapsed budget);
    (match recorder with
    | None -> ()
    | Some r -> Explain.Recorder.solution r ~depth:nq);
    if options.collect then found := m :: !found;
    incr count;
    if !count >= limit then `Stop else `Continue
  in
  (* The problem's evaluation counter is shared across runs (and across
     the filter build and the searchers), so per-run figures are
     deltas. *)
  let evals_before = Problem.constraint_evals problem in
  let filter_used = ref None in
  let ran_out =
    try
      if limit = 0 then raise Exit;
      (match algorithm with
      | ECF | RWB ->
          let filter =
            (* A caller-supplied filter (the service's cross-request
               cache) skips the dominant sequential build phase — and
               with it the filter's blame pass: certificates on this
               path attribute only search-time eliminations. *)
            match filter with
            | Some f -> f
            | None ->
                (* Forcing specialization first splits its cost (the
                   "compile" phase) out of the build proper. *)
                Telemetry.time_phase phases ?trace Telemetry.Phase.Compile (fun () ->
                    Problem.prepare problem);
                Telemetry.time_phase phases ?trace Telemetry.Phase.Filter_build (fun () ->
                    Filter.build ~prefilter:options.prefilter ?blame problem)
          in
          filter_used := Some filter;
          let candidate_order =
            match algorithm with
            | ECF -> Dfs.Ascending
            | RWB -> Dfs.Random (Rng.make options.seed)
            | LNS -> assert false
          in
          Telemetry.time_phase phases ?trace Telemetry.Phase.Search (fun () ->
              Dfs.search ~store ?blame problem filter ~candidate_order ~budget
                ~on_solution)
      | LNS ->
          Telemetry.time_phase phases ?trace Telemetry.Phase.Search (fun () ->
              Lns.search ~store ?blame problem ~budget ~on_solution));
      false
    with
    | Budget.Exhausted -> true
    | Exit -> false (* At_most 0: nothing requested, trivially complete *)
  in
  let mappings = List.rev !found in
  let outcome =
    if ran_out then if mappings = [] then Inconclusive else Partial
    else Complete
  in
  let constraint_evals = Problem.constraint_evals problem - evals_before in
  let elapsed = Budget.elapsed budget in
  let visited = Budget.visited budget in
  let stats = Domain_store.stats store in
  let telemetry =
    {
      Telemetry.algorithm = algorithm_name algorithm;
      outcome = verdict_of outcome !count;
      visited;
      found = !count;
      elapsed_s = elapsed;
      time_to_first_s = !time_to_first;
      constraint_evals;
      domains_built = stats.Domain_store.domains_built;
      intersections = stats.Domain_store.intersections;
      backtracks = stats.Domain_store.backtracks;
      (* depth_hist / domain_size_hist fold the store's exact count
         arrays into fresh histograms, so no copy is needed. *)
      max_depth = Telemetry.Histogram.max_observed (Domain_store.depth_hist store);
      depth_histogram = Domain_store.depth_hist store;
      domain_size_histogram = Domain_store.domain_size_hist store;
      phases;
    }
  in
  (match List.find_opt (fun (a, _, _, _) -> a = algorithm) global_counters with
  | Some (_, visited_c, found_c, evals_c) ->
      Telemetry.Counter.add visited_c visited;
      Telemetry.Counter.add found_c !count;
      Telemetry.Counter.add evals_c constraint_evals
  | None -> ());
  let report =
    match (blame, recorder) with
    | Some bl, Some rec_ ->
        Some
          (assemble_certificate ~problem ~algorithm ~filter:!filter_used ~blame:bl
             ~recorder:rec_ ~store ~outcome ~found:!count ~visited)
    | _ -> None
  in
  {
    mappings;
    found = !count;
    outcome;
    elapsed;
    time_to_first = !time_to_first;
    visited;
    filter_evals = constraint_evals;
    domain_stats = Some stats;
    telemetry;
    report;
    filter = !filter_used;
  }

let find_first ?timeout algorithm problem =
  let options = { default_options with mode = First; timeout } in
  match (run ~options algorithm problem).mappings with [] -> None | m :: _ -> Some m

let find_all ?timeout algorithm problem =
  let options = { default_options with mode = All; timeout } in
  (run ~options algorithm problem).mappings

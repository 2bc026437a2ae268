(* NETEMBED benchmark harness.

   Part 1 — Bechamel micro/meso benchmarks: one Test.make per evaluation
   family of the paper (figs. 8-15) on small fixed instances, plus
   kernel benches (bitset algebra, constraint evaluation, filter
   construction) and baseline comparisons.

   Part 2 — figure regeneration: the same row printers the paper's
   figures were plotted from, at the reduced default scale
   (bin/experiments.exe --full runs the paper-scale sweep).

   Run with:  dune exec bench/main.exe
   Skip part 2 with:  dune exec bench/main.exe -- --micro-only
   Filter-build layer rows only:  dune exec bench/main.exe -- --filter-build-only
   GraphML read layer rows only:  dune exec bench/main.exe -- --graphml-only *)

open Bechamel
open Toolkit

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Bitset = Netembed_bitset.Bitset
module Rng = Netembed_rng.Rng
module Trace = Netembed_planetlab.Trace
module Brite = Netembed_topology.Brite
module Expr = Netembed_expr.Expr
module Eval = Netembed_expr.Eval
module Problem = Netembed_core.Problem
module Engine = Netembed_core.Engine
module Filter = Netembed_core.Filter
module Sorted_arrays = Netembed_oracle.Sorted_arrays
module Query_gen = Netembed_workload.Query_gen
module Figures = Netembed_workload.Figures
module Ledger = Netembed_ledger.Ledger
module Json = Netembed_telemetry.Json
module Explain = Netembed_explain.Explain

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once; the staged closures only search)       *)
(* ------------------------------------------------------------------ *)

let small_scale =
  { Figures.default_scale with Figures.label = "bench"; timeout = 2.0 }

let planetlab = lazy (Figures.planetlab_host small_scale)

let problem_of (case : Query_gen.case) host =
  Problem.make ~host ~query:case.Query_gen.query case.Query_gen.edge_constraint

(* A fixture's problem again, sharing its specialized residuals but
   with host column stores of its own that hold no column yet.  A
   problem keeps the columns its first filter build reads, so a row
   that samples one problem over and over would price that column
   build only once; rows that build a filter or a certificate per
   sample take [fresh] so every sample pays it. *)
let fresh (p : Problem.t) =
  Problem.make ?node_constraint:p.Problem.node_constraint ~degree_filter:p.Problem.degree_filter
    ~compiled:(Problem.compiled_residuals p) ~host:p.Problem.host ~query:p.Problem.query
    p.Problem.edge_constraint

(* LNS builds no filter and reads no column, so its rows keep sampling
   the fixture itself. *)
let sample_problem alg p = if alg = Engine.LNS then p else fresh p

let pl_subgraph_problem =
  lazy
    (let host = Lazy.force planetlab in
     problem_of (Query_gen.subgraph (Rng.make 1) ~host ~n:20 ()) host)

let pl_infeasible_problem =
  lazy
    (let host = Lazy.force planetlab in
     let rng = Rng.make 2 in
     problem_of (Query_gen.make_infeasible rng (Query_gen.subgraph rng ~host ~n:20 ())) host)

let brite_problem =
  lazy
    (let host = Brite.generate (Rng.make 3) (Brite.default_barabasi ~n:200) in
     problem_of (Query_gen.brite_query (Rng.make 4) ~host ~n:30) host)

let clique_problem =
  lazy
    (let host = Lazy.force planetlab in
     problem_of (Query_gen.clique ~k:6 ~delay_lo:10.0 ~delay_hi:100.0) host)

let composite_problem =
  lazy
    (let host = Lazy.force planetlab in
     problem_of
       (Query_gen.composite (Rng.make 5) ~root:Netembed_topology.Regular.Ring
          ~groups:3 ~group:Netembed_topology.Regular.Star ~group_size:5
          ~constraints:Query_gen.Regular_bands)
       host)

let first alg problem () =
  ignore
    (Engine.run
       ~options:{ Engine.default_options with Engine.mode = Engine.First; timeout = Some 2.0 }
       alg (sample_problem alg problem))

let all alg problem () =
  ignore
    (Engine.run
       ~options:{ Engine.default_options with Engine.mode = Engine.All; timeout = Some 2.0 }
       alg (sample_problem alg problem))

let staged f = Staged.stage f

(* ------------------------------------------------------------------ *)
(* Test inventory                                                      *)
(* ------------------------------------------------------------------ *)

let kernel_tests =
  let bitset_a = Bitset.of_list 296 (List.init 148 (fun i -> 2 * i)) in
  let bitset_b = Bitset.of_list 296 (List.init 99 (fun i -> 3 * i)) in
  let residual = Expr.delay_range_within in
  let env =
    Eval.env
      ~v_edge:(Attrs.of_list [ ("minDelay", Value.Float 10.0); ("maxDelay", Value.Float 90.0) ])
      ~r_edge:(Attrs.of_list [ ("minDelay", Value.Float 12.0); ("maxDelay", Value.Float 80.0) ])
      ~v_source:Attrs.empty ~v_target:Attrs.empty ~r_source:Attrs.empty
      ~r_target:Attrs.empty
  in
  [
    Test.make ~name:"kernel/bitset_inter"
      (staged (fun () -> ignore (Bitset.inter bitset_a bitset_b)));
    Test.make ~name:"kernel/expr_eval"
      (staged (fun () -> ignore (Eval.accepts env residual)));
    Test.make ~name:"kernel/filter_build_n20"
      (staged (fun () -> ignore (Filter.build (fresh (Lazy.force pl_subgraph_problem)))));
  ]

let figure_tests =
  [
    (* Fig 8/9: subgraph queries on PlanetLab. *)
    Test.make ~name:"fig8/ecf_all_n20" (staged (all Engine.ECF (Lazy.force pl_subgraph_problem)));
    Test.make ~name:"fig8/rwb_first_n20" (staged (first Engine.RWB (Lazy.force pl_subgraph_problem)));
    Test.make ~name:"fig8/lns_first_n20" (staged (first Engine.LNS (Lazy.force pl_subgraph_problem)));
    (* Fig 10: infeasible queries. *)
    Test.make ~name:"fig10/ecf_nomatch_n20" (staged (all Engine.ECF (Lazy.force pl_infeasible_problem)));
    (* Fig 11/12: BRITE hosts. *)
    Test.make ~name:"fig11/ecf_all_brite200" (staged (all Engine.ECF (Lazy.force brite_problem)));
    Test.make ~name:"fig12/lns_first_brite200" (staged (first Engine.LNS (Lazy.force brite_problem)));
    (* Fig 13: cliques. *)
    Test.make ~name:"fig13/ecf_all_clique6" (staged (all Engine.ECF (Lazy.force clique_problem)));
    Test.make ~name:"fig13/lns_first_clique6" (staged (first Engine.LNS (Lazy.force clique_problem)));
    (* Fig 14: composite queries. *)
    Test.make ~name:"fig14/ecf_first_composite" (staged (first Engine.ECF (Lazy.force composite_problem)));
    Test.make ~name:"fig14/lns_first_composite" (staged (first Engine.LNS (Lazy.force composite_problem)));
  ]

let symmetry_tests =
  (* Automorphism compaction on the fig-13 worst case: a clique's
     feasible set collapses by |S_k|. *)
  let clique5 =
    lazy
      (let host = Lazy.force planetlab in
       let case = Query_gen.clique ~k:5 ~delay_lo:10.0 ~delay_hi:100.0 in
       let p = problem_of case host in
       let ms =
         (Engine.run
            ~options:{ Engine.default_options with Engine.mode = Engine.At_most 720; timeout = Some 2.0 }
            Engine.RWB p)
           .Engine.mappings
       in
       let auts = Option.get (Netembed_core.Symmetry.automorphisms case.Query_gen.query) in
       (auts, ms))
  in
  [
    Test.make ~name:"symmetry/dedupe_clique5"
      (staged (fun () ->
           let auts, ms = Lazy.force clique5 in
           ignore (Netembed_core.Symmetry.dedupe auts ms)));
  ]

let baseline_tests =
  [
    Test.make ~name:"baseline/bruteforce_first_n20"
      (staged (fun () ->
           ignore
             (Netembed_baselines.Bruteforce.find_first ~timeout:2.0
                (Lazy.force pl_subgraph_problem))));
    Test.make ~name:"baseline/annealing_n20"
      (staged (fun () ->
           ignore
             (Netembed_baselines.Annealing.find_first ~rng:(Rng.make 9)
                (Lazy.force pl_subgraph_problem))));
    Test.make ~name:"baseline/sword_first_n20"
      (staged (fun () ->
           ignore (Netembed_baselines.Sword.find_first (Lazy.force pl_subgraph_problem))));
  ]

(* Ablations of the design choices DESIGN.md calls out: the connected
   Lemma-1 search order, the degree filter, and root-partitioned
   multicore search.  Measured on a search-dominated instance (n=60
   first match): on n=20 the filter construction dwarfs the search and
   every variant looks alike. *)
let ablation_problem =
  lazy
    (let host = Lazy.force planetlab in
     problem_of (Query_gen.subgraph (Rng.make 13) ~host ~n:60 ~extra_edges:20 ()) host)

let ablation_tests =
  let dfs_first ordering p () =
    let p = fresh p in
    let filter = Filter.build ~ordering p in
    let budget = Netembed_core.Budget.make ~timeout:2.0 () in
    try
      Netembed_core.Dfs.search p filter ~candidate_order:Netembed_core.Dfs.Ascending
        ~budget ~on_solution:(fun _ -> `Stop)
    with Netembed_core.Budget.Exhausted -> ()
  in
  let rep_first search p () =
    let p = fresh p in
    let filter = Filter.build p in
    let budget = Netembed_core.Budget.make ~timeout:2.0 () in
    try
      search p filter ~candidate_order:Netembed_core.Dfs.Ascending ~budget
        ~on_solution:(fun _ -> `Stop)
    with Netembed_core.Budget.Exhausted -> ()
  in
  let no_degree_filter =
    lazy
      (let p = Lazy.force ablation_problem in
       Problem.make ~degree_filter:false ~host:p.Problem.host ~query:p.Problem.query
         p.Problem.edge_constraint)
  in
  [
    Test.make ~name:"ablation/order_connected_n60"
      (staged (fun () -> dfs_first Filter.Connected_lemma1 (Lazy.force ablation_problem) ()));
    Test.make ~name:"ablation/order_lemma1_n60"
      (staged (fun () -> dfs_first Filter.Lemma1 (Lazy.force ablation_problem) ()));
    Test.make ~name:"ablation/order_input_n60"
      (staged (fun () -> dfs_first Filter.Input_order (Lazy.force ablation_problem) ()));
    Test.make ~name:"ablation/degree_filter_off"
      (staged (first Engine.ECF (Lazy.force no_degree_filter)));
    Test.make ~name:"ablation/rep_bitset_n60"
      (staged (fun () ->
           rep_first
             (fun p f -> Netembed_core.Dfs.search p f)
             (Lazy.force ablation_problem) ()));
    Test.make ~name:"ablation/rep_arrays_n60"
      (staged (fun () ->
           rep_first
             (fun p f -> Sorted_arrays.search (Sorted_arrays.views p f) p)
             (Lazy.force ablation_problem) ()));
  ]

(* ------------------------------------------------------------------ *)
(* Gc-aware measurements + JSON emission                               *)
(*                                                                     *)
(* Bechamel reports time only; the representation refactor's win is    *)
(* allocation, so these rows also record Gc minor/promoted words and   *)
(* land in BENCH_RESULTS.json for cross-PR trajectories.               *)
(* ------------------------------------------------------------------ *)

type gc_row = {
  row_name : string;
  row_ms : float;
  row_minor_words : float;
  row_promoted_words : float;
  row_visited : int;
  row_found : int;
  row_repeat : int;
}

let gc_rows : gc_row list ref = ref []

let words_per_visit r =
  if r.row_visited > 0 then r.row_minor_words /. float_of_int r.row_visited else 0.0

(* [f ()] must return (visited search nodes, solutions found).  Minor
   words come from [Gc.minor_words], which counts every allocation; the
   minor count of [Gc.quick_stat] moves only at a minor collection on
   OCaml 5, so rows read through it were quantized to whole minor
   heaps. *)
let measure_gc ~name ?(repeat = 1) f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let visited = ref 0 and found = ref 0 in
  for _ = 1 to repeat do
    let v, c = f () in
    visited := !visited + v;
    found := !found + c
  done;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int repeat in
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let row =
    {
      row_name = name;
      row_ms = ms;
      row_minor_words = (m1 -. m0) /. float_of_int repeat;
      row_promoted_words =
        (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. float_of_int repeat;
      row_visited = !visited / repeat;
      row_found = !found / repeat;
      row_repeat = repeat;
    }
  in
  gc_rows := row :: !gc_rows;
  row

(* [?max_visited]: a visit budget for a run that would otherwise end
   on the 2 s timeout, so its visited and minor words repeat exactly
   from run to run; the timeout stays as a guard. *)
let engine_gc_row ?max_visited name alg mode problem =
  measure_gc ~name (fun () ->
      let r =
        Engine.run
          ~options:
            {
              Engine.default_options with
              Engine.mode;
              timeout = Some 2.0;
              max_visited;
              collect = false;
            }
          alg (sample_problem alg problem)
      in
      (r.Engine.visited, r.Engine.found))

(* Scheduler-ablation rows: static root partitioning vs work stealing
   on a root-skewed instance.  This container may expose a single CPU,
   in which case the domains time-slice and wall clock cannot show a
   parallel win; what the scheduler controls either way is the load
   balance, so each row also records the per-domain visited-node
   breakdown and an estimated makespan — the critical path a multi-core
   run would pay, priced at this run's measured per-visit cost
   (makespan_est = wall_ms / visited_total * visited_max_domain). *)
let sched_rows : Json.t list ref = ref []

let bench_json_file = "BENCH_RESULTS.json"

(* Rewrites only the keys this harness owns; the sections other tools
   write into the same file (service_load, online_churn, the
   hand-recorded runtime_ablation) are kept as data. *)
(* What a section of rows was measured under: the commit, core count
   and OCaml version. *)
let provenance () =
  let commit =
    match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
    | ic ->
        let c = try input_line ic with End_of_file -> "unknown" in
        ignore (Unix.close_process_in ic);
        c
  in
  [ ("commit", Json.String commit);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version) ]

let write_gc_json () =
  let ms x = Json.Float (Json.round 3 x) in
  let words x = Json.Int (Float.to_int (Float.round x)) in
  let gc_row r =
    Json.(Obj [ ("name", String r.row_name); ("ms", ms r.row_ms);
                ("minor_words", words r.row_minor_words);
                ("promoted_words", words r.row_promoted_words);
                ("visited", Int r.row_visited); ("found", Int r.row_found);
                ("minor_words_per_visit", Float (round 2 (words_per_visit r)));
                ("repeats", Int r.row_repeat) ])
  in
  let note =
    "wall_ms is measured on this machine (domains time-slice when cores are scarce); \
     makespan_est_ms = wall_ms / visited_total * max(visited_by_domain) prices the critical \
     path an unshared-core run would pay"
  in
  match
    Json.update_file bench_json_file
      [ ("benches", Json.List (List.rev_map gc_row !gc_rows));
        ( "benches_provenance",
          Json.Obj
            (("note",
              Json.String
                "each benches row: ms and words are means over its repeats runs")
            :: provenance ()) );
        ("scheduler_ablation_note", Json.String note);
        ("scheduler_ablation", Json.List (List.rev !sched_rows)) ]
  with
  | Ok () -> Printf.printf "# Gc-aware rows written to %s\n\n" bench_json_file
  | Error e -> prerr_endline ("bench: " ^ e); exit 1

(* The representation ablation proper: old sorted-array candidate sets
   vs bitset scratch domains on the same all-matches ECF enumeration.
   A shared visited-node cap makes both paths do identical work (the
   ascending search visits the identical tree), so wall time and minor
   words are directly comparable. *)
let representation_ablation () =
  Printf.printf
    "# Representation ablation (all-matches ECF, shared filter, visited cap)\n%!";
  let run_case label p ~cap =
    let filter = Filter.build p in
    let views = Sorted_arrays.views p filter in
    let store =
      Netembed_core.Domain_store.create
        ~universe:(Graph.node_count p.Problem.host)
        ~depths:(Graph.node_count p.Problem.query)
    in
    let run_path search () =
      let budget = Netembed_core.Budget.make ~max_visited:cap () in
      let found = ref 0 in
      (try
         search p filter ~candidate_order:Netembed_core.Dfs.Ascending ~budget
           ~on_solution:(fun _ ->
             incr found;
             `Continue)
       with Netembed_core.Budget.Exhausted -> ());
      (Netembed_core.Budget.visited budget, !found)
    in
    let arrays =
      measure_gc
        ~name:(Printf.sprintf "representation/%s/sorted_arrays" label)
        ~repeat:3
        (run_path (fun p _ -> Sorted_arrays.search views p))
    in
    let bitset =
      measure_gc
        ~name:(Printf.sprintf "representation/%s/bitset" label)
        ~repeat:3
        (run_path (fun p f -> Netembed_core.Dfs.search ~store p f))
    in
    let speedup = if bitset.row_ms > 0.0 then arrays.row_ms /. bitset.row_ms else 0.0 in
    let alloc_ratio =
      if words_per_visit bitset > 0.0 then words_per_visit arrays /. words_per_visit bitset
      else infinity
    in
    Printf.printf
      "  %-22s arrays %8.1f ms %10.0f minor w (%6.1f w/visit) | bitset %8.1f ms \
       %10.0f minor w (%6.1f w/visit) | speedup %.2fx, %.0fx fewer w/visit (%d \
       visited, %d found)\n%!"
      label arrays.row_ms arrays.row_minor_words (words_per_visit arrays) bitset.row_ms
      bitset.row_minor_words (words_per_visit bitset) speedup alloc_ratio
      bitset.row_visited bitset.row_found
  in
  let host = Lazy.force planetlab in
  (* The headline case: a tight clique band admits many partial
     assignments but few complete cliques, so the run is pure
     backtracking and minor words per visited node measure the candidate
     representation alone, with no per-solution mapping allocation
     (shared by both paths) diluting the ratio. *)
  run_case "clique6_tight"
    (problem_of (Query_gen.clique ~k:6 ~delay_lo:10.0 ~delay_hi:35.0) host)
    ~cap:120_000;
  run_case "clique7_tight"
    (problem_of (Query_gen.clique ~k:7 ~delay_lo:10.0 ~delay_hi:50.0) host)
    ~cap:120_000;
  run_case "subgraph_n60"
    (Lazy.force ablation_problem)
    ~cap:60_000;
  run_case "clique5"
    (problem_of (Query_gen.clique ~k:5 ~delay_lo:10.0 ~delay_hi:100.0) host)
    ~cap:60_000;
  Printf.printf "\n"

(* Pre-filter ablation: the filter build of clique7_tight with plain
   interpreter evaluation of every (query edge, host edge) pair, and
   with the Bounds pre-filter's column sweeps first.  The build
   is the evaluation-dominated phase, so it isolates what the
   pre-filter buys: row "visited" counts constraint evaluations, so
   minor words per visit is allocation per evaluation.  The [_node]
   rows build the same problem with a node constraint over the
   PlanetLab site attributes, which the pre-filter decides per query
   node over the host node columns instead of evaluating it per (query
   node, host node) pair.  The steady-state row at the end prices one
   evaluation on one hot pair with no build structures in the
   measurement window.  The rows keep their historical "evaluator/"
   prefix. *)
let prefilter_ablation () =
  Printf.printf "# Pre-filter ablation (clique7_tight filter build: interp vs interp+prefilter)\n%!";
  let host = Lazy.force planetlab in
  let case = Query_gen.clique ~k:7 ~delay_lo:10.0 ~delay_hi:50.0 in
  let node_constraint = Expr.parse_exn "rSource.cpuMhz >= 1400 && rSource.osType == 'linux-2.6'" in
  let build ?node_constraint name ~prefilter =
    measure_gc ~name ~repeat:3 (fun () ->
        let p =
          Problem.make ?node_constraint ~host ~query:case.Query_gen.query
            case.Query_gen.edge_constraint
        in
        let before = Problem.constraint_evals p in
        ignore (Filter.build ~prefilter p);
        (Problem.constraint_evals p - before, 0))
  in
  let vs a b = if b.row_ms > 0.0 then a.row_ms /. b.row_ms else 0.0 in
  List.iter
    (fun (suffix, node_constraint) ->
      let interp = build ?node_constraint ("evaluator/filter_build/interp" ^ suffix) ~prefilter:false in
      let prefiltered =
        build ?node_constraint ("evaluator/filter_build/interp_prefilter" ^ suffix) ~prefilter:true
      in
      Printf.printf
        "  %-16s%8.1f ms %10.0f minor w (%7d evals)\n\
        \  %-16s%8.1f ms %10.0f minor w (%7d evals)  %.2fx vs interp\n%!"
        ("interp" ^ suffix) interp.row_ms interp.row_minor_words interp.row_visited
        ("+prefilter" ^ suffix) prefiltered.row_ms prefiltered.row_minor_words
        prefiltered.row_visited (vs interp prefiltered))
    [ ("", None); ("_node", Some node_constraint) ];
  (* Steady-state per-evaluation cost: one problem, one host edge pair,
     re-evaluated hot.  Warm up first so the lazy residual is built
     outside the window. *)
  let evals = 100_000 in
  let p = Problem.make ~host ~query:case.Query_gen.query case.Query_gen.edge_constraint in
  let qe, q_src, q_dst = (Graph.edges p.Problem.query).(0) in
  let he, r_src, r_dst = (Graph.edges p.Problem.host).(0) in
  let eval () = Problem.edge_pair_ok p ~qe ~q_src ~q_dst ~he ~r_src ~r_dst in
  for _ = 1 to 1000 do
    ignore (eval ())
  done;
  let hot =
    measure_gc ~name:"evaluator/steady_state_interp+gc" (fun () ->
        for _ = 1 to evals do
          ignore (eval ())
        done;
        (evals, 0))
  in
  Printf.printf
    "  steady state (%d evals of one residual): %8.1f ms (%4.0f ns/eval) %9.0f minor words\n\n%!"
    evals hot.row_ms
    (hot.row_ms *. 1e6 /. float_of_int evals)
    hot.row_minor_words

(* Layer rows: [layer_repeat] samples of one operation, reported as
   min/median/max, in a BENCH_RESULTS.json section that records the
   commit, core count, OCaml version and repeat count. *)
let layer_repeat = 15

let sample_ms f =
  let s =
    Array.init layer_repeat (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  Array.sort Float.compare s;
  s

(* [?words]: the words one operation allocates, printed and recorded
   after the times. *)
let layer_row ?words name unit s =
  let r x = Json.Float (Json.round 4 x) in
  let n = Array.length s in
  Printf.printf "  %-46s min %9.4f  median %9.4f  max %9.4f %s%s\n%!" name s.(0) s.(n / 2)
    s.(n - 1) unit
    (match words with Some w -> Printf.sprintf "  %9.0f words" w | None -> "");
  Json.Obj
    ([ ("name", Json.String name); ("unit", Json.String unit); ("min", r s.(0));
       ("median", r s.(n / 2)); ("max", r s.(n - 1)) ]
    @
    match words with
    | Some w -> [ ("words", Json.Int (Float.to_int (Float.round w))) ]
    | None -> [])

(* Words allocated so far: [Gc.minor_words] is exact, where the minor
   count of [Gc.counters] only moves at a minor collection on OCaml 5;
   [major -. promoted] adds the blocks allocated directly in the major
   heap, where large strings and arrays go. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The words [n] calls of [f] allocate, per call. *)
let words_per_call ?(n = 1) f =
  let before = allocated_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (allocated_words () -. before) /. float_of_int n

let write_layer_section key ~note rows =
  let section =
    Json.Obj
      ((("note", Json.String note) :: provenance ())
      @ [ ("repeats", Json.Int layer_repeat); ("rows", Json.List rows) ])
  in
  (match Json.update_file bench_json_file [ (key, section) ] with
  | Ok () -> Printf.printf "# %s rows written to %s\n" key bench_json_file
  | Error e -> prerr_endline ("bench: " ^ e); exit 1);
  Printf.printf "\n%!"

(* The filter build layer by layer, with its spread: the four
   pre-filter ablation builds above, timed one build per sample, the
   two pre-filter builds again with the model's columns warm, and
   one [Cmp] atom's pass set over the 296-site edge column, built by the
   member-by-member Float.compare sweep the pre-filter used to run (kept
   here as the reference) and by the word-parallel [Bitset.select].
   Writes the [filter_build] section of BENCH_RESULTS.json with the
   commit, core count, OCaml version and repeat count it was measured
   under.  Run alone with --filter-build-only. *)
let closure_sweep ~mask (col : float array) keep x =
  let out = Bitset.create (Bitset.universe_size mask) in
  Bitset.iter (fun i -> if keep (Float.compare col.(i) x) then Bitset.add out i) mask;
  out

let filter_build_layers () =
  Printf.printf "# Filter build per layer (PlanetLab 296-site trace)\n%!";
  let host = Lazy.force planetlab in
  let case = Query_gen.clique ~k:7 ~delay_lo:10.0 ~delay_hi:50.0 in
  let node_constraint = Expr.parse_exn "rSource.cpuMhz >= 1400 && rSource.osType == 'linux-2.6'" in
  let build ?node_constraint ~prefilter () =
    let p =
      Problem.make ?node_constraint ~host ~query:case.Query_gen.query
        case.Query_gen.edge_constraint
    in
    ignore (Filter.build ~prefilter p)
  in
  (* The same build over a service model's snapshot, with the
     substrate's columns already built by one build before sampling:
     what a cold filter-cache miss pays once the model holds them. *)
  let model = Netembed_service.Model.create host in
  let snapshot = Netembed_service.Model.residual_snapshot model in
  let columns = Netembed_service.Model.columns model snapshot in
  let build_warm ?node_constraint () =
    let p =
      Problem.make ?node_constraint ~columns ~host:snapshot ~query:case.Query_gen.query
        case.Query_gen.edge_constraint
    in
    ignore (Filter.build ~prefilter:true p)
  in
  (* Dense cells: 10-node tenant-shaped queries (svcbench's tenant_churn
     shape, bands of 10-40% around sampled links' delays) admit about a
     third of the links per query edge, so most cells hold many
     partners.  Each sample builds one of [dense_queries] fresh
     problems, the [_blame] row with explain blame as the service
     builds. *)
  let dense_queries =
    Array.init layer_repeat (fun i ->
        Netembed_oracle.Filter_cells.tenant_problem (Rng.make (i + 1)) ~host ~n:10)
  in
  let dense_build ~blame =
    let next = ref 0 in
    fun () ->
      let p0 = dense_queries.(!next mod layer_repeat) in
      incr next;
      let p =
        Problem.make ?node_constraint:p0.Problem.node_constraint ~host ~query:p0.Problem.query
          p0.Problem.edge_constraint
      in
      let blame = if blame then Some (Netembed_explain.Explain.Blame.create ()) else None in
      ignore (Filter.build ?blame p)
  in
  let dense =
    List.map
      (fun (suffix, blame) ->
        let words = words_per_call ~n:layer_repeat (dense_build ~blame) in
        layer_row ~words ("evaluator/filter_build/dense_tenant_n10" ^ suffix) "ms"
          (sample_ms (dense_build ~blame)))
      [ ("", false); ("_blame", true) ]
  in
  let builds =
    List.concat_map
      (fun (suffix, node_constraint) ->
        let interp =
          layer_row ("evaluator/filter_build/interp" ^ suffix) "ms"
            (sample_ms (build ?node_constraint ~prefilter:false))
        in
        let fresh =
          layer_row ("evaluator/filter_build/interp_prefilter" ^ suffix) "ms"
            (sample_ms (build ?node_constraint ~prefilter:true))
        in
        build_warm ?node_constraint ();
        [ interp;
          fresh;
          layer_row ("evaluator/filter_build/interp_prefilter_warm" ^ suffix) "ms"
            (sample_ms (build_warm ?node_constraint)) ])
      [ ("", None); ("_node", Some node_constraint) ]
  in
  (* [rEdge.avgDelay <= x] at the column's median: half the links pass.
     Each sample sweeps [sweeps] times; the row is microseconds per
     sweep. *)
  let m = Graph.edge_count host in
  let mask = Bitset.create m and col = Array.make m 0.0 in
  for e = 0 to m - 1 do
    match Attrs.float "avgDelay" (Graph.edge_attrs host e) with
    | Some d ->
        Bitset.add mask e;
        col.(e) <- d
    | None -> ()
  done;
  let x =
    let sorted = Array.copy col in
    Array.sort Float.compare sorted;
    sorted.(m / 2)
  in
  let sweeps = 1000 in
  let per_sweep f = Array.map (fun ms -> ms *. 1000.0 /. float_of_int sweeps) (sample_ms f) in
  let closure =
    per_sweep (fun () ->
        for _ = 1 to sweeps do
          ignore (closure_sweep ~mask col (fun s -> s <= 0) x)
        done)
  in
  let word =
    per_sweep (fun () ->
        for _ = 1 to sweeps do
          ignore (Bitset.select ~mask col Bitset.Le x)
        done)
  in
  if not (Bitset.equal (closure_sweep ~mask col (fun s -> s <= 0) x) (Bitset.select ~mask col Bitset.Le x))
  then failwith "prefilter/sweep_pl296: word-parallel and reference sweeps disagree";
  let sweep_rows =
    [ layer_row "prefilter/sweep_pl296/closure" "us" closure;
      layer_row "prefilter/sweep_pl296/word" "us" word ]
  in
  write_layer_section "filter_build"
    ~note:
      (Printf.sprintf
         "per-sample spread over %d samples: each evaluator row times one Problem.make + \
          Filter.build of clique7_tight (ms), the _warm rows over a service model's \
          snapshot whose host columns an earlier build filled, the dense_tenant rows one \
          build of a 10-node tenant-shaped query per sample (a different query each \
          sample, with the words one build allocates); each prefilter row one \
          rEdge.avgDelay <= median pass set over the %d-link edge column (us, mean of %d \
          sweeps per sample)"
         layer_repeat m sweeps)
    (builds @ dense @ sweep_rows)

(* GraphML in, per layer: [Graphml.read_file] of PlanetLab substrates
   at svcbench's 100 sites and the paper's 296 (svcbench's generator:
   seed 2008 and a seeded link bandwidth), [Model.of_graphml_file] of
   the same files (the read plus the model over the graph it read), and
   [Wire.decode_command] of one 8-node EMBED frame, whose query travels
   as GraphML.  Each row also records the words one call allocates.
   Writes the [graphml] section of BENCH_RESULTS.json.  Run alone with
   --graphml-only. *)
let graphml_layers () =
  let module Graphml = Netembed_graphml.Graphml in
  let module Model = Netembed_service.Model in
  let module Request = Netembed_service.Request in
  let module Wire = Netembed_service.Wire in
  Printf.printf "# GraphML read and wire decode\n%!";
  let substrate sites =
    let rng = Rng.make 2008 in
    let g = Trace.generate rng { Trace.default with Trace.sites } in
    Array.iter
      (fun (e, _, _) ->
        let bw = float_of_int (100 + (10 * Rng.int rng 91)) in
        Graph.set_edge_attrs g e (Attrs.add "bandwidth" (Value.Float bw) (Graph.edge_attrs g e)))
      (Graph.edges g);
    g
  in
  (* The rows of one file: read_file, then of_graphml_file. *)
  let file_rows sites host =
    let path = Filename.temp_file "netembed_bench" ".graphml" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Graphml.write_file host path;
        let bytes = (Unix.stat path).Unix.st_size in
        if Graph.edge_count (Graphml.read_file path) <> Graph.edge_count host then
          failwith "graphml: read_file lost edges";
        let row name f =
          let words = words_per_call f in
          layer_row ~words (Printf.sprintf "%s/pl%d" name sites) "ms"
            (sample_ms (fun () -> ignore (Sys.opaque_identity (f ()))))
        in
        let read = row "graphml/read_file" (fun () -> Graphml.read_file path) in
        let model = row "model/of_graphml_file" (fun () -> Model.of_graphml_file path) in
        ( [ read; model ],
          Printf.sprintf "pl%d: %d bytes, %d links" sites bytes (Graph.edge_count host) ))
  in
  let host100 = substrate 100 in
  let r100 = file_rows 100 host100 in
  let r296 = file_rows 296 (substrate 296) in
  let frame =
    let case = Query_gen.subgraph (Rng.make 7) ~host:host100 ~n:8 () in
    Wire.encode_command
      (Wire.Submit
         (Request.make ~algorithm:Engine.ECF ~mode:(Engine.At_most 8) ~query:case.Query_gen.query
            (Expr.to_string case.Query_gen.edge_constraint)))
  in
  (match Wire.decode_command frame with
  | Ok (Wire.Submit _) -> ()
  | Ok _ | Error _ -> failwith "graphml: the EMBED frame does not decode");
  let decodes = 100 in
  let decode =
    Array.map
      (fun ms -> ms /. float_of_int decodes)
      (sample_ms (fun () ->
           for _ = 1 to decodes do
             ignore (Wire.decode_command frame)
           done))
  in
  let decode_row =
    layer_row
      ~words:(words_per_call ~n:decodes (fun () -> Wire.decode_command frame))
      "wire/decode_command/embed8" "ms" decode
  in
  write_layer_section "graphml"
    ~note:
      (Printf.sprintf
         "per-sample spread over %d samples: each read_file row reads one PlanetLab GraphML \
          file (%s; %s), and each of_graphml_file row reads it into a service model; the \
          decode row is one %d-byte 8-node EMBED frame through Wire.decode_command (ms, mean \
          of %d decodes per sample); words: what one read, load or decode allocates, \
          counted as minor words plus words allocated directly in the major heap"
         layer_repeat (snd r100) (snd r296) (String.length frame) decodes)
    (fst r100 @ fst r296 @ [ decode_row ])

(* Explain-mode ablation: the same capped clique7_tight enumeration
   with the blame/flight-recorder instrumentation off vs on.  The off
   row must stay within noise of the uninstrumented engine (the
   instrumented domain path is selected once per run, so the plain path
   carries no extra branches); the on row prices what the service pays
   by always running with explain enabled. *)
let explain_ablation () =
  Printf.printf "# Explain-mode ablation (all-matches ECF, visited cap)\n%!";
  let host = Lazy.force planetlab in
  let p = problem_of (Query_gen.clique ~k:7 ~delay_lo:10.0 ~delay_hi:50.0) host in
  let run explain () =
    let r =
      Engine.run
        ~options:
          {
            Engine.default_options with
            Engine.mode = Engine.All;
            max_visited = Some 120_000;
            collect = false;
            explain;
          }
        Engine.ECF (fresh p)
    in
    (r.Engine.visited, r.Engine.found)
  in
  let off = measure_gc ~name:"explain/clique7_tight/off" ~repeat:3 (run false) in
  let on = measure_gc ~name:"explain/clique7_tight/on" ~repeat:3 (run true) in
  let overhead =
    if off.row_ms > 0.0 then 100.0 *. ((on.row_ms /. off.row_ms) -. 1.0) else 0.0
  in
  Printf.printf
    "  clique7_tight          off %8.1f ms %10.0f minor w | on %8.1f ms %10.0f \
     minor w | explain-on overhead %+.1f%% (%d visited)\n%!"
    off.row_ms off.row_minor_words on.row_ms on.row_minor_words overhead
    off.row_visited;
  (* The failure certificate: an infeasible 20-node PlanetLab subgraph
     query (negative delay bands on a quarter of its edges), so the
     certificate blames edge constraints and ranks every host edge for
     each blamed node.  The off row is the same run without explain;
     the difference prices blame plus certificate. *)
  let p = Lazy.force pl_infeasible_problem in
  let run explain () =
    let r =
      Engine.run
        ~options:{ Engine.default_options with Engine.mode = Engine.First; explain }
        Engine.ECF (fresh p)
    in
    (r.Engine.visited, r.Engine.found)
  in
  let off = measure_gc ~name:"explain/certificate/pl_infeasible_n20/off" ~repeat:5 (run false) in
  let on = measure_gc ~name:"explain/certificate/pl_infeasible_n20/on" ~repeat:5 (run true) in
  let blamed_edges =
    match
      (Engine.run ~options:{ Engine.default_options with Engine.explain = true } Engine.ECF p)
        .Engine.report
    with
    | None -> 0
    | Some cert ->
        List.length
          (List.filter
             (fun (b : Explain.Certificate.blamed) ->
               match b.Explain.Certificate.causes with
               | (Explain.Cause.Edge_constraint _, _) :: _ -> true
               | _ -> false)
             cert.Explain.Certificate.blamed)
  in
  Printf.printf
    "  certificate pl_inf_n20 off %8.1f ms %10.0f minor w | on %8.1f ms %10.0f \
     minor w | certificate cost %+.1f ms (%d node(s) blame edges)\n\n%!"
    off.row_ms off.row_minor_words on.row_ms on.row_minor_words (on.row_ms -. off.row_ms)
    blamed_edges

(* Trace ablation: the same capped clique7_tight enumeration with
   request-scoped span tracing off vs on.  The filter is prebuilt and
   shared so both rows measure pure search (comparable to the
   representation/clique7_tight/bitset row); the off row must stay
   within noise of it — the untraced path pays only a [None] branch at
   each phase boundary, never per visited node — while the on row
   prices what a --chrome-trace'd request pays. *)
let trace_ablation () =
  Printf.printf
    "# Trace ablation (all-matches ECF, prebuilt filter, visited cap)\n%!";
  let host = Lazy.force planetlab in
  let p = problem_of (Query_gen.clique ~k:7 ~delay_lo:10.0 ~delay_hi:50.0) host in
  let filter = Filter.build p in
  let run trace () =
    let r =
      Engine.run
        ~options:
          {
            Engine.default_options with
            Engine.mode = Engine.All;
            max_visited = Some 120_000;
            collect = false;
          }
        ~filter ?trace Engine.ECF p
    in
    (r.Engine.visited, r.Engine.found)
  in
  let off = measure_gc ~name:"trace/clique7_tight/off" ~repeat:3 (run None) in
  let on =
    measure_gc ~name:"trace/clique7_tight/on" ~repeat:3 (fun () ->
        run (Some (Netembed_telemetry.Telemetry.Trace.create ())) ())
  in
  let overhead =
    if off.row_ms > 0.0 then 100.0 *. ((on.row_ms /. off.row_ms) -. 1.0) else 0.0
  in
  Printf.printf
    "  clique7_tight          off %8.1f ms %10.0f minor w | on %8.1f ms %10.0f \
     minor w | trace-on overhead %+.1f%% (%d visited)\n\n%!"
    off.row_ms off.row_minor_words on.row_ms on.row_minor_words overhead
    off.row_visited

(* ------------------------------------------------------------------ *)
(* Scheduler ablation: static root partitioning vs work stealing       *)
(* ------------------------------------------------------------------ *)

(* A root-skewed instance, the pathology static partitioning cannot
   survive: the query root admits exactly four host candidates (a tier
   attribute gates them), one of which fronts a dense in-band cluster
   while the other three lead nowhere — their edges exist (so the
   degree filter keeps them) but sit far outside the delay band.
   Static partitioning at four domains hands each root to one domain
   and the cluster root's domain does essentially all the work; work
   stealing splits that subtree into frames the idle domains take. *)
let skewed_problem =
  lazy
    (let tier t = [ ("tier", Value.Int t) ] in
     let d v = ("avgDelay", Value.Float v) in
     let host = Graph.create ~name:"skewed-host" () in
     let cluster = Array.init 16 (fun _ -> Graph.add_node host (Attrs.of_list (tier 0))) in
     for i = 0 to 15 do
       for j = i + 1 to 15 do
         ignore
           (Graph.add_edge host cluster.(i) cluster.(j)
              (Attrs.of_list [ d (10.0 +. float_of_int (((i * 7) + (j * 13)) mod 30)) ]))
       done
     done;
     let hot = Graph.add_node host (Attrs.of_list (tier 1)) in
     for i = 0 to 11 do
       ignore (Graph.add_edge host hot cluster.(i) (Attrs.of_list [ d (15.0 +. float_of_int i) ]))
     done;
     for k = 0 to 2 do
       let decoy = Graph.add_node host (Attrs.of_list (tier 1)) in
       for i = 0 to 3 do
         ignore
           (Graph.add_edge host decoy cluster.(((k * 4) + i) mod 16) (Attrs.of_list [ d 20.0 ]))
       done
     done;
     let query = Graph.create ~name:"skewed-query" () in
     let band = Attrs.of_list [ ("minDelay", Value.Float 5.0); ("maxDelay", Value.Float 50.0) ] in
     let root = Graph.add_node query (Attrs.of_list (tier 1)) in
     for _ = 1 to 5 do
       let leaf = Graph.add_node query (Attrs.of_list (tier 0)) in
       ignore (Graph.add_edge query root leaf band)
     done;
     Problem.make
       ~node_constraint:(Expr.parse_exn "rSource.tier >= vSource.tier")
       ~host ~query Expr.avg_delay_within)

let scheduling_ablation () =
  Printf.printf "# Scheduler ablation (root-skewed instance, static vs work stealing)\n%!";
  let p = Lazy.force skewed_problem in
  let filter = Filter.build p in
  let makespans = Hashtbl.create 16 in
  List.iter
    (fun domains ->
      List.iter
        (fun (strategy, sname) ->
          let st =
            Netembed_parallel.Parallel.ecf_all_stats ~strategy ~domains ~timeout:60.0
              ~split_depth:3 ~filter p
          in
          let wall_ms = st.Netembed_parallel.Parallel.elapsed *. 1000.0 in
          let visited = st.Netembed_parallel.Parallel.visited_by_domain in
          let total = Array.fold_left ( + ) 0 visited in
          let maxv = Array.fold_left max 0 visited in
          let makespan =
            if total > 0 then wall_ms /. float_of_int total *. float_of_int maxv
            else wall_ms
          in
          Hashtbl.replace makespans (sname, domains) makespan;
          sched_rows :=
            Json.(Obj [ ("name", String "scheduler/skewed_star5"); ("strategy", String sname);
                        ("domains", Int domains); ("wall_ms", Float (round 3 wall_ms));
                        ("visited_total", Int total); ("visited_max_domain", Int maxv);
                        ("visited_by_domain",
                         List (Array.to_list (Array.map (fun v -> Int v) visited)));
                        ("makespan_est_ms", Float (round 3 makespan));
                        ("steals", Int st.Netembed_parallel.Parallel.steals);
                        ("frames", Int st.Netembed_parallel.Parallel.frames);
                        ("found", Int (List.length st.Netembed_parallel.Parallel.mappings)) ])
            :: !sched_rows;
          Printf.printf
            "  %-14s domains=%d  wall %8.1f ms  visited %7d (max share %7d)  \
             makespan est %8.1f ms  steals %4d  frames %4d  (%d mappings)\n%!"
            sname domains wall_ms total maxv makespan
            st.Netembed_parallel.Parallel.steals st.Netembed_parallel.Parallel.frames
            (List.length st.Netembed_parallel.Parallel.mappings))
        [ (Netembed_parallel.Parallel.Static, "static"); (Netembed_parallel.Parallel.Work_stealing, "work_stealing") ])
    [ 1; 2; 4; 8 ];
  (match
     ( Hashtbl.find_opt makespans ("static", 4),
       Hashtbl.find_opt makespans ("work_stealing", 4) )
   with
  | Some s, Some w when w > 0.0 ->
      Printf.printf
        "  critical-path speedup at 4 domains (static makespan / ws makespan): %.2fx\n%!"
        (s /. w)
  | _ -> ());
  Printf.printf "\n"

(* Cold vs warm filter cache through the service: the same request
   twice against an unchanged model; the warm submit skips the filter
   build.  Rows land in the benches array of BENCH_RESULTS.json. *)
let filter_cache_bench () =
  Printf.printf "# Service filter cache (identical request, unchanged model)\n%!";
  let module Model = Netembed_service.Model in
  let module Service = Netembed_service.Service in
  let module Request = Netembed_service.Request in
  let host = Lazy.force planetlab in
  let svc = Service.create (Model.create host) in
  let query = (Query_gen.subgraph (Rng.make 9) ~host ~n:12 ()).Query_gen.query in
  let request =
    Request.make ~mode:Engine.All ~timeout:5.0 ~query
      "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"
  in
  let submit name =
    measure_gc ~name (fun () ->
        match Service.submit svc request with
        | Error m -> failwith m
        | Ok a ->
            (a.Service.result.Engine.visited, a.Service.result.Engine.found))
  in
  let cold = submit "service/filter_cache_cold" in
  let warm = submit "service/filter_cache_warm" in
  Printf.printf
    "  cold %8.1f ms | warm %8.1f ms  (build skipped, %.1f%% of cold latency)\n\n%!"
    cold.row_ms warm.row_ms
    (if cold.row_ms > 0.0 then 100.0 *. warm.row_ms /. cold.row_ms else 0.0)

(* ------------------------------------------------------------------ *)
(* Multi-tenant churn: the ledger's allocate/release loop              *)
(* ------------------------------------------------------------------ *)

(* Two measurements on the PlanetLab host with 2-node tenants:
   1. the full service loop — residual snapshot, residual-aware search,
      commit — with the oldest tenant released once 16 are live
      (allocations/sec with the search in the loop);
   2. the ledger alone — charge_of_mapping + try_commit + release on a
      fixed mapping — the pure accounting overhead per commit. *)

let churn_query ~cpu ~bw =
  let q = Graph.create () in
  let node_attrs = Attrs.of_list [ ("cpuMhz", Value.Float cpu) ] in
  let a = Graph.add_node q node_attrs in
  let b = Graph.add_node q node_attrs in
  let _ =
    Graph.add_edge q a b
      (Attrs.of_list
         [
           ("minDelay", Value.Float 0.0);
           ("maxDelay", Value.Float 500.0);
           ("bandwidth", Value.Float bw);
         ])
  in
  q

let churn_edge_constraint =
  Expr.parse_exn
    "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay && \
     rEdge.bandwidth >= vEdge.bandwidth"

let churn_node_constraint = Expr.parse_exn "rSource.cpuMhz >= vSource.cpuMhz"

let ledger_churn () =
  Printf.printf "# Multi-tenant ledger churn (PlanetLab host, 2-node tenants)\n%!";
  let host = Lazy.force planetlab in
  let query = churn_query ~cpu:200.0 ~bw:5.0 in
  let ledger = Ledger.of_graph host in
  let live = Queue.create () in
  let rounds = 40 in
  let search_row =
    measure_gc ~name:"ledger/churn_search_commit" (fun () ->
        let committed = ref 0 in
        for _ = 1 to rounds do
          if Queue.length live >= 16 then
            ignore (Ledger.release ledger (Queue.pop live));
          let residual = Ledger.residual_graph ledger in
          let p =
            Problem.make ~node_constraint:churn_node_constraint ~host:residual
              ~query churn_edge_constraint
          in
          match Engine.find_first ~timeout:2.0 Engine.LNS p with
          | None -> ()
          | Some m -> (
              match Ledger.charge_of_mapping ledger ~query m with
              | Error _ -> ()
              | Ok charge -> (
                  match Ledger.try_commit ledger charge with
                  | Ok id ->
                      incr committed;
                      Queue.push id live
                  | Error _ -> ()))
        done;
        (rounds, !committed))
  in
  Printf.printf
    "  search+commit   %4d rounds %8.1f ms  (%.0f allocations/s, %d committed)\n%!"
    rounds search_row.row_ms
    (if search_row.row_ms > 0.0 then
       float_of_int search_row.row_found /. (search_row.row_ms /. 1000.0)
     else 0.0)
    search_row.row_found;
  let ledger2 = Ledger.of_graph host in
  let p0 =
    Problem.make ~node_constraint:churn_node_constraint ~host ~query
      churn_edge_constraint
  in
  match Engine.find_first ~timeout:2.0 Engine.LNS p0 with
  | None -> Printf.printf "  (no feasible mapping; ledger-only row skipped)\n%!"
  | Some m ->
      let pairs = 10_000 in
      let ledger_row =
        measure_gc ~name:"ledger/commit_release_pair" (fun () ->
            let n = ref 0 in
            for _ = 1 to pairs do
              match Ledger.charge_of_mapping ledger2 ~query m with
              | Error _ -> ()
              | Ok charge -> (
                  match Ledger.try_commit ledger2 charge with
                  | Ok id ->
                      ignore (Ledger.release ledger2 id);
                      incr n
                  | Error _ -> ())
            done;
            (pairs, !n))
      in
      Printf.printf
        "  ledger only     %4d pairs  %8.1f ms  (%.2f us per commit+release)\n\n%!"
        pairs ledger_row.row_ms
        (ledger_row.row_ms *. 1000.0 /. float_of_int pairs)

(* ------------------------------------------------------------------ *)
(* Host pair index: the one-time build per substrate                   *)
(* ------------------------------------------------------------------ *)

(* The CSR pair index build on the 296-site trace, which
   [Model.create] pays once per substrate (so it lands in the service's
   set-up time, not in any request).  Each repetition indexes its own
   unindexed copy, made outside the timed region.  Its arrays are too
   large for the minor heap, so the console line also prints the words
   allocated directly in the major heap. *)
let pair_index_bench () =
  Printf.printf "# Host pair index build (PlanetLab 296-site trace)\n%!";
  let host = Lazy.force planetlab in
  let repeat = 3 in
  let fresh = Array.init repeat (fun _ -> fst (Graph.induced_subgraph host (Graph.nodes host))) in
  let next = ref 0 in
  let s0 = Gc.quick_stat () in
  let row =
    measure_gc ~name:"graph/pair_index_pl296" ~repeat (fun () ->
        let g = fresh.(!next) in
        incr next;
        Graph.build_pair_index g;
        (0, 0))
  in
  let s1 = Gc.quick_stat () in
  let direct =
    (s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words))
    /. float_of_int repeat
  in
  Printf.printf
    "  %d links  %8.2f ms  %.0f minor words, %.0f words direct to the major heap\n\n%!"
    (Graph.edge_count host) row.row_ms row.row_minor_words direct

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* The representation ablation, the Gc-aware engine rows, ledger
   churn, the scheduler ablation and the filter cache, then the
   BENCH_RESULTS.json rewrite: Part 1a of the full run, and all of
   --ablation-only. *)
let ablation_suite () =
  representation_ablation ();
  prefilter_ablation ();
  explain_ablation ();
  trace_ablation ();
  ignore (engine_gc_row "fig8/ecf_all_n20+gc" Engine.ECF Engine.All (Lazy.force pl_subgraph_problem));
  ignore (engine_gc_row "fig8/rwb_first_n20+gc" Engine.RWB Engine.First (Lazy.force pl_subgraph_problem));
  ignore (engine_gc_row "fig8/lns_first_n20+gc" Engine.LNS Engine.First (Lazy.force pl_subgraph_problem));
  ignore
    (engine_gc_row ~max_visited:3_000_000 "fig13/ecf_all_clique6+gc" Engine.ECF Engine.All
       (Lazy.force clique_problem));
  ledger_churn ();
  pair_index_bench ();
  scheduling_ablation ();
  filter_cache_bench ();
  write_gc_json ()

let () =
  let micro_only = Array.exists (fun a -> a = "--micro-only") Sys.argv in
  (* --ablation-only: the representation ablation, Gc-aware rows and
     the ledger churn scenario plus the BENCH_RESULTS.json rewrite — a
     ~5 s run for perf-regression checks (CI, before/after comparisons)
     instead of the full suite. *)
  let ablation_only = Array.exists (fun a -> a = "--ablation-only") Sys.argv in
  let t0 = Unix.gettimeofday () in
  if Array.exists (fun a -> a = "--filter-build-only") Sys.argv then begin
    filter_build_layers ();
    exit 0
  end;
  if Array.exists (fun a -> a = "--graphml-only") Sys.argv then begin
    graphml_layers ();
    exit 0
  end;
  if ablation_only then begin
    ablation_suite ();
    Printf.printf "# bench complete in %.1f s\n" (Unix.gettimeofday () -. t0);
    exit 0
  end;
  (* Part 1: micro benchmarks. *)
  let tests = kernel_tests @ figure_tests @ baseline_tests @ ablation_tests @ symmetry_tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Printf.printf "# Bechamel benchmarks (time per run)\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              if est > 1e6 then Printf.printf "  %-36s %10.2f ms/run\n" name (est /. 1e6)
              else Printf.printf "  %-36s %10.0f ns/run\n" name est
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n" name)
        analyzed)
    tests;
  Printf.printf "\n";
  (* Part 1a: the representation ablation and Gc-aware engine rows. *)
  ablation_suite ();
  (* Part 1b: multicore speedup table.  The instance must be
     search-dominated for root partitioning to pay: a clique's
     all-matches enumeration is, a subgraph query's filter-heavy run
     is not. *)
  (* Search-phase scaling: the filter is built once and shared (its
     construction is sequential — Amdahl's bite on filter-heavy
     instances); the domains then enumerate a clique's large feasible
     set from partitioned roots. *)
  let speedup_problem =
    let host = Lazy.force planetlab in
    problem_of (Query_gen.clique ~k:4 ~delay_lo:10.0 ~delay_hi:60.0) host
  in
  let shared_filter = Filter.build speedup_problem in
  Printf.printf
    "# Parallel ECF search-phase speedup (clique-4 enumeration, shared filter)\n%!";
  let baseline = ref 0.0 in
  List.iter
    (fun domains ->
      let t = Unix.gettimeofday () in
      let mappings, _ =
        Netembed_parallel.Parallel.ecf_all ~domains ~timeout:30.0
          ~filter:shared_filter speedup_problem
      in
      let dt = Unix.gettimeofday () -. t in
      if domains = 1 then baseline := dt;
      Printf.printf "  domains=%d  %8.1f ms  (%d mappings, speedup %.2fx)\n%!" domains
        (dt *. 1000.0) (List.length mappings)
        (if dt > 0.0 then !baseline /. dt else 0.0))
    [ 1; 2; 4 ];
  Printf.printf "\n";
  (* Racing RWB: independent searches with different seeds, first
     solution cancels the rest — multicore as variance reduction on
     high-variance first-match searches (clique-8). *)
  let race_problem =
    let host = Lazy.force planetlab in
    problem_of (Query_gen.clique ~k:8 ~delay_lo:10.0 ~delay_hi:100.0) host
  in
  Printf.printf "# Racing RWB first match (clique-8 in PlanetLab)\n%!";
  List.iter
    (fun domains ->
      let t = Unix.gettimeofday () in
      let won =
        Netembed_parallel.Parallel.rwb_race ~domains ~timeout:30.0 ~seed:5 (fresh race_problem)
      in
      Printf.printf "  racers=%d  %8.1f ms  (%s)\n%!" domains
        ((Unix.gettimeofday () -. t) *. 1000.0)
        (match won with Some _ -> "found" | None -> "none"))
    [ 1; 2; 4 ];
  Printf.printf "\n";
  (* Part 2: regenerate every figure at default scale. *)
  if not micro_only then Figures.all Figures.default_scale;
  Printf.printf "# bench complete in %.1f s\n" (Unix.gettimeofday () -. t0)

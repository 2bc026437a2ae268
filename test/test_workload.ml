module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Rng = Netembed_rng.Rng
module Stats = Netembed_workload.Stats
module Table = Netembed_workload.Table
module Query_gen = Netembed_workload.Query_gen
module Figures = Netembed_workload.Figures
module Trace = Netembed_planetlab.Trace
module Json = Netembed_telemetry.Json
open Netembed_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check Alcotest.int "n" 4 s.Stats.n;
  check (Alcotest.float 1e-9) "mean" 2.5 s.Stats.mean;
  check (Alcotest.float 1e-9) "median" 2.5 s.Stats.median;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 4.0 s.Stats.max;
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 s.Stats.stddev;
  let single = Stats.summarize [ 7.0 ] in
  check (Alcotest.float 1e-9) "single stddev" 0.0 single.Stats.stddev;
  check (Alcotest.float 1e-9) "odd median" 2.0 (Stats.summarize [ 3.0; 1.0; 2.0 ]).Stats.median;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize []))

let test_percentile () =
  let xs = [ 10.0; 20.0; 30.0; 40.0; 50.0 ] in
  check (Alcotest.float 1e-9) "p0 = min" 10.0 (Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "p50 = median" 30.0 (Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "p100 = max" 50.0 (Stats.percentile 1.0 xs);
  check (Alcotest.float 1e-9) "unsorted input" 30.0 (Stats.percentile 0.5 [ 50.0; 10.0; 30.0; 40.0; 20.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile 0.5 []));
  Alcotest.check_raises "out of range" (Invalid_argument "Stats.percentile: p outside [0,1]")
    (fun () -> ignore (Stats.percentile 1.5 xs))

let test_csv () =
  let path = Filename.temp_file "netembed" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Table.print_csv ~out:oc ~header:[ "a"; "b" ]
        [ [ "1"; "x,y" ]; [ "2"; "say \"hi\"" ] ];
      close_out oc;
      let ic = open_in path in
      let l1 = input_line ic and l2 = input_line ic and l3 = input_line ic in
      close_in ic;
      check Alcotest.string "header" "a,b" l1;
      check Alcotest.string "comma quoted" "1,\"x,y\"" l2;
      check Alcotest.string "quote doubled" "2,\"say \"\"hi\"\"\"" l3)

let test_fraction () =
  check (Alcotest.float 1e-9) "half" 0.5 (Stats.fraction (fun x -> x > 0) [ 1; -1; 2; -2 ]);
  check (Alcotest.float 1e-9) "empty" 0.0 (Stats.fraction (fun _ -> true) [])

let test_table () =
  let buf_path = Filename.temp_file "netembed" ".tbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove buf_path)
    (fun () ->
      let oc = open_out buf_path in
      Table.print_series ~out:oc ~title:"t" ~header:[ "a"; "bb" ]
        [ [ "1"; "2" ]; [ "333"; "4" ] ];
      close_out oc;
      let ic = open_in buf_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check Alcotest.bool "title comment" true (List.nth lines 0 = "# t");
      check Alcotest.bool "has rows" true (List.length lines >= 4));
  check Alcotest.string "cell_ms" "1500.0" (Table.cell_ms 1.5);
  check Alcotest.string "cell_pct" "50.0" (Table.cell_pct 0.5)

(* ------------------------------------------------------------------ *)
(* Query generators                                                    *)
(* ------------------------------------------------------------------ *)

let host () = Trace.generate (Rng.make 3) { Trace.default with Trace.sites = 60 }

let test_subgraph_feasible () =
  let rng = Rng.make 4 in
  let host = host () in
  for _ = 1 to 5 do
    let case = Query_gen.subgraph rng ~host ~n:8 () in
    check Alcotest.int "size" 8 (Graph.node_count case.Query_gen.query);
    check Alcotest.bool "hint" true (case.Query_gen.feasible_hint = Some true);
    let p = Problem.make ~host ~query:case.Query_gen.query case.Query_gen.edge_constraint in
    check Alcotest.bool "actually feasible" true (Engine.find_first Engine.ECF p <> None)
  done

let test_make_infeasible () =
  let rng = Rng.make 5 in
  let host = host () in
  let case = Query_gen.subgraph rng ~host ~n:8 () in
  let bad = Query_gen.make_infeasible rng case in
  check Alcotest.bool "hint" true (bad.Query_gen.feasible_hint = Some false);
  (* Topology unchanged. *)
  check Alcotest.int "same nodes" (Graph.node_count case.Query_gen.query)
    (Graph.node_count bad.Query_gen.query);
  check Alcotest.int "same edges" (Graph.edge_count case.Query_gen.query)
    (Graph.edge_count bad.Query_gen.query);
  let p = Problem.make ~host ~query:bad.Query_gen.query bad.Query_gen.edge_constraint in
  let r = Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All } Engine.ECF p in
  check Alcotest.bool "proved infeasible" true
    (r.Engine.outcome = Engine.Complete && r.Engine.mappings = [])

let test_clique_case () =
  let case = Query_gen.clique ~k:5 ~delay_lo:10.0 ~delay_hi:100.0 in
  check Alcotest.int "nodes" 5 (Graph.node_count case.Query_gen.query);
  check Alcotest.int "edges" 10 (Graph.edge_count case.Query_gen.query);
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs case.Query_gen.query e in
      check (Alcotest.option (Alcotest.float 0.0)) "lo" (Some 10.0) (Attrs.float "minDelay" a);
      check (Alcotest.option (Alcotest.float 0.0)) "hi" (Some 100.0) (Attrs.float "maxDelay" a))
    case.Query_gen.query

let test_composite_cases () =
  let rng = Rng.make 6 in
  let case =
    Query_gen.composite rng ~root:Netembed_topology.Regular.Ring ~groups:3
      ~group:Netembed_topology.Regular.Star ~group_size:4
      ~constraints:Query_gen.Regular_bands
  in
  check Alcotest.int "nodes" 12 (Graph.node_count case.Query_gen.query);
  (* Root edges carry the wide-area band. *)
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs case.Query_gen.query e in
      match Attrs.string "level" a with
      | Some "root" ->
          check (Alcotest.option (Alcotest.float 0.0)) "root band" (Some 75.0)
            (Attrs.float "minDelay" a)
      | Some "group" ->
          check (Alcotest.option (Alcotest.float 0.0)) "group band" (Some 1.0)
            (Attrs.float "minDelay" a)
      | Some _ | None -> Alcotest.fail "missing level")
    case.Query_gen.query;
  let irregular =
    Query_gen.composite rng ~root:Netembed_topology.Regular.Star ~groups:3
      ~group:Netembed_topology.Regular.Ring ~group_size:4
      ~constraints:Query_gen.Irregular_bands
  in
  Graph.iter_edges
    (fun e _ _ ->
      let a = Graph.edge_attrs irregular.Query_gen.query e in
      let lo = Option.get (Attrs.float "minDelay" a) in
      let hi = Option.get (Attrs.float "maxDelay" a) in
      if not (25.0 <= lo && lo < hi && hi <= 175.0) then
        Alcotest.failf "irregular band [%g,%g] outside 25-175" lo hi)
    irregular.Query_gen.query

(* ------------------------------------------------------------------ *)
(* Figures (smoke at micro scale)                                      *)
(* ------------------------------------------------------------------ *)

let micro =
  {
    Figures.default_scale with
    Figures.label = "micro";
    timeout = 1.0;
    pl_query_sizes = [ 8; 12 ];
    pl_reps = 1;
    brite_hosts = [ 60 ];
    brite_query_fractions = [ 0.15 ];
    brite_reps = 1;
    clique_sizes = [ 2; 3 ];
    composite_groups = [ 2 ];
    composite_reps = 1;
  }

let devnull f =
  let out = open_out (if Sys.win32 then "NUL" else "/dev/null") in
  Fun.protect ~finally:(fun () -> close_out out) (fun () -> f out)

let test_figures_smoke () =
  devnull (fun out ->
      Figures.fig8 ~out micro;
      Figures.fig10 ~out micro;
      Figures.fig11 ~out micro;
      Figures.fig13 ~out micro;
      Figures.fig14 ~out micro;
      Figures.fig15 ~out micro)

(* Json.update_file: the results file is parsed, the given top-level
   keys replaced or appended, and every other section kept as data. *)

let json_testable = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let temp_results contents =
  let path = Filename.temp_file "results" ".json" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  path

let read_results path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (Json.Obj kvs) -> kvs
  | Ok v -> Alcotest.failf "not an object: %s" (Json.to_string v)
  | Error e -> Alcotest.failf "results file does not parse: %s" e

let update path members =
  match Json.update_file path members with
  | Ok () -> read_results path
  | Error e -> Alcotest.failf "update_file: %s" e

let test_bench_io_update_in_place () =
  let doc =
    {|{
  "benches": [ {"name": "a}b", "ms": 1.5} ],
  "note": "escaped \" brace {",
  "nested": {"service_load": {"rows": [1]}}
}
|}
  in
  let path = temp_results doc in
  let before = read_results path in
  let rows = Json.Obj [ ("rows", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]) ] in
  let after = update path [ ("service_load", rows) ] in
  check Alcotest.(list string) "new key appended"
    [ "benches"; "note"; "nested"; "service_load" ]
    (List.map fst after);
  List.iter
    (fun k ->
      check json_testable (k ^ " survives") (List.assoc k before) (List.assoc k after))
    [ "benches"; "note"; "nested" ];
  check json_testable "inserted section readable" rows (List.assoc "service_load" after);
  (* A re-run replaces in place. *)
  let again = update path [ ("service_load", Json.List []); ("benches", Json.Int 0) ] in
  check Alcotest.(list string) "order kept on replace"
    [ "benches"; "note"; "nested"; "service_load" ]
    (List.map fst again);
  check json_testable "replaced in place" (Json.List []) (List.assoc "service_load" again);
  check json_testable "nested key of the same name untouched"
    (List.assoc "nested" before) (List.assoc "nested" again);
  Sys.remove path;
  (* Empty and missing files become a one-key object. *)
  let empty = temp_results "" in
  check Alcotest.(list (pair string json_testable)) "empty file"
    [ ("k", Json.Int 42) ]
    (update empty [ ("k", Json.Int 42) ]);
  Sys.remove empty;
  check Alcotest.(list (pair string json_testable)) "missing file"
    [ ("k", Json.Int 42) ]
    (update empty [ ("k", Json.Int 42) ]);
  Sys.remove empty

(* The online_churn section the simulator writes must round-trip next
   to the bench and loadgen sections without disturbing them — all
   three owners rewrite the same file. *)
let test_bench_io_online_churn_roundtrip () =
  let path =
    temp_results
      "{\n  \"benches\": [ {\"name\": \"ecf\", \"ms\": 1.5} ],\n\
      \  \"service_load\": {\n    \"rows\": []\n  }\n}\n"
  in
  let before = read_results path in
  let churn =
    Json.(
      Obj
        [
          ("substrate", String "clique-12");
          ( "rows",
            List
              [
                Obj
                  [
                    ("policy", String "defrag_threshold"); ("rate", Float 1.8);
                    ( "acceptance_curve",
                      List [ Obj [ ("t", Float 10.0); ("accepts", Int 3) ] ] );
                  ];
              ] );
        ])
  in
  let after = update path [ ("online_churn", churn) ] in
  check json_testable "online_churn readable" churn (List.assoc "online_churn" after);
  check json_testable "benches survive" (List.assoc "benches" before)
    (List.assoc "benches" after);
  check json_testable "service_load survives" (List.assoc "service_load" before)
    (List.assoc "service_load" after);
  (* A second write (a re-run) replaces in place and still leaves the
     neighbours alone. *)
  let again = update path [ ("online_churn", Json.Obj []) ] in
  check json_testable "replaced" (Json.Obj []) (List.assoc "online_churn" again);
  check json_testable "benches still survive" (List.assoc "benches" before)
    (List.assoc "benches" again);
  Sys.remove path

let test_bench_io_unparseable_kept () =
  let text = "{\n  \"benches\": [1, 2\n" in
  let path = temp_results text in
  (match Json.update_file path [ ("k", Json.Int 1) ] with
  | Ok () -> Alcotest.fail "an unparseable file was overwritten"
  | Error _ -> ());
  check Alcotest.string "bytes kept" text (In_channel.with_open_bin path In_channel.input_all);
  Sys.remove path

let () =
  Alcotest.run "workload"
    [
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "fraction" `Quick test_fraction;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "table" `Quick test_table;
        ] );
      ( "query_gen",
        [
          Alcotest.test_case "subgraph feasible" `Quick test_subgraph_feasible;
          Alcotest.test_case "make_infeasible" `Quick test_make_infeasible;
          Alcotest.test_case "clique" `Quick test_clique_case;
          Alcotest.test_case "composite" `Quick test_composite_cases;
        ] );
      ( "bench io",
        [
          Alcotest.test_case "update in place" `Quick test_bench_io_update_in_place;
          Alcotest.test_case "online_churn round-trip" `Quick
            test_bench_io_online_churn_roundtrip;
          Alcotest.test_case "unparseable file kept" `Quick
            test_bench_io_unparseable_kept;
        ] );
      ( "figures", [ Alcotest.test_case "smoke" `Slow test_figures_smoke ] );
    ]

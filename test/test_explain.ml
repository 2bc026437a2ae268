(* Explainability: constraint blame, failure certificates and the
   flight recorder — unit tests for the kernel plus end-to-end checks
   that a seeded-UNSAT run names the known culprit and that the
   certificate's claims are verifiable against the problem. *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Expr = Netembed_expr.Expr
module Telemetry = Netembed_telemetry.Telemetry
module Explain = Netembed_explain.Explain
module Model = Netembed_service.Model
module Service = Netembed_service.Service
module Request = Netembed_service.Request
module Wire = Netembed_service.Wire
module Json = Netembed_telemetry.Json
open Netembed_core

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let host_node name cpu =
  Attrs.of_list [ ("name", Value.String name); ("cpuMhz", Value.Float cpu) ]

let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ]

(* A 4-cycle of hosts with distinct names and cpu speeds. *)
let cycle_host () =
  let g = Graph.create ~name:"cycle" () in
  let cpus = [| 1200.0; 2400.0; 1800.0; 900.0 |] in
  let v =
    Array.init 4 (fun i ->
        Graph.add_node g (host_node (Printf.sprintf "plab-%d" i) cpus.(i)))
  in
  ignore (Graph.add_edge g v.(0) v.(1) (delay 10.0));
  ignore (Graph.add_edge g v.(1) v.(2) (delay 20.0));
  ignore (Graph.add_edge g v.(2) v.(3) (delay 30.0));
  ignore (Graph.add_edge g v.(3) v.(0) (delay 40.0));
  g

let edge_query () =
  let g = Graph.create ~name:"q" () in
  let a = Graph.add_node g Attrs.empty in
  let b = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g a b Attrs.empty);
  g

let explain_options =
  { Engine.default_options with Engine.mode = Engine.All; explain = true }

let certificate result =
  match result.Engine.report with
  | Some c -> c
  | None -> Alcotest.fail "explain run returned no certificate"

(* ------------------------------------------------------------------ *)
(* Kernel units                                                        *)
(* ------------------------------------------------------------------ *)

let test_blame_ordering () =
  let b = Explain.Blame.create () in
  Explain.Blame.record b ~q:1 Explain.Cause.Node_constraint 5;
  Explain.Blame.record b ~q:1 Explain.Cause.Degree_filter 2;
  Explain.Blame.record b ~q:0 Explain.Cause.Node_constraint 1;
  Explain.Blame.record b ~q:2 Explain.Cause.Host_contention 0 (* no-op *);
  check Alcotest.(list int) "most-blamed node first" [ 1; 0 ]
    (Explain.Blame.nodes b);
  (match Explain.Blame.by_node b 1 with
  | (Explain.Cause.Node_constraint, 5) :: _ -> ()
  | _ -> Alcotest.fail "dominant cause should lead");
  check Alcotest.int "total_for" 7 (Explain.Blame.total_for b 1);
  check
    Alcotest.(list (pair string int))
    "label totals" [ ("node_constraint", 6); ("degree_filter", 2) ]
    (Explain.Blame.label_totals b)

let test_recorder_ring () =
  let r = Explain.Recorder.create ~capacity:4 ~sample_every:1 () in
  for d = 0 to 9 do
    Explain.Recorder.visit r ~depth:d ~host:d ~size:3
  done;
  check Alcotest.int "all pushes counted" 10 (Explain.Recorder.recorded r);
  let events = Explain.Recorder.events r in
  check Alcotest.int "ring keeps capacity" 4 (List.length events);
  check
    Alcotest.(list int)
    "oldest first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Explain.Recorder.event) -> e.Explain.Recorder.depth) events)

let test_recorder_sampling () =
  let r = Explain.Recorder.create ~capacity:64 ~sample_every:8 () in
  for d = 0 to 31 do
    Explain.Recorder.visit r ~depth:d ~host:0 ~size:1
  done;
  Explain.Recorder.wipeout r ~depth:5 ~host:2;
  check Alcotest.int "1/8 visits plus the always-on wipeout" 5
    (Explain.Recorder.recorded r)

let test_requirements_extraction () =
  let ast = Expr.parse_exn "rSource.cpuMhz >= 3000 && 10 > rSource.load" in
  let reqs = Explain.requirements ~on:[ Netembed_expr.Ast.R_source ] ast in
  check Alcotest.int "two conjuncts extracted" 2 (List.length reqs);
  let strings = List.map Explain.requirement_to_string reqs in
  check Alcotest.bool "ge bound" true
    (List.mem "rSource.cpuMhz >= 3000" strings);
  (* 10 > rSource.load reads back as rSource.load < 10. *)
  check Alcotest.bool "flipped operand order" true
    (List.mem "rSource.load < 10" strings)

(* The ranking's columns, as the engine serves them: one
   [Prefilter.column] per attribute over the items' tables. *)
let numeric_column ~size ~attrs attr =
  let c = Prefilter.column ~size ~attrs attr in
  (c.Prefilter.num_set, c.Prefilter.num)

let test_near_misses () =
  let reqs =
    Explain.requirements ~on:[ Netembed_expr.Ast.R_source ]
      (Expr.parse_exn "rSource.cpuMhz >= 3000")
  in
  let labels = [| "slow"; "close"; "fits" |] in
  let cpus = [| 1000.0; 2400.0; 4000.0 |] in
  let attrs i = Attrs.of_list [ ("cpuMhz", Value.Float cpus.(i)) ] in
  match
    Explain.near_misses ~reqs ~count:3 ~column:(numeric_column ~size:3 ~attrs) ~attrs
      ~label:(Array.get labels) ~limit:2
  with
  | best :: _ ->
      check Alcotest.string "smallest shortfall ranks first" "close"
        best.Explain.label;
      check Alcotest.bool "renders the delta" true
        (let s = Explain.near_miss_to_string best in
         String.length s > 0
         &&
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         has "2400")
  | [] -> Alcotest.fail "expected a near miss"

(* The ranking under test over items given as an attribute array: ids
   are the indices and labels are "h<id>". *)
let rank ~reqs ~limit attrs =
  let size = Array.length attrs and attrs = Array.get attrs in
  Explain.near_misses ~reqs ~count:size ~column:(numeric_column ~size ~attrs) ~attrs
    ~label:(Printf.sprintf "h%d") ~limit

(* A near miss as (label, [requirement, actual], satisfied); equality
   goes through [compare] so that NaN actuals compare equal. *)
let near_miss_summary (m : Explain.near_miss) =
  ( m.Explain.label,
    List.map (fun (r, v) -> (Explain.requirement_to_string r, v)) m.Explain.violated,
    m.Explain.satisfied )

let near_miss_summaries =
  let pp_actual ppf = function
    | Some v -> Format.fprintf ppf "%g" v
    | None -> Format.pp_print_string ppf "missing"
  in
  let pp_one ppf (label, violated, sat) =
    Format.fprintf ppf "%s{%a; sat=%d}" label
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (r, v) -> Format.fprintf ppf "%s has %a" r pp_actual v))
      violated sat
  in
  Alcotest.testable
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ") pp_one)
    (fun a b -> compare a b = 0)

let test_near_miss_ranking () =
  let source s = Explain.requirements ~on:[ Netembed_expr.Ast.R_source ] (Expr.parse_exn s) in
  let cpu = source "rSource.cpu >= 1000" in
  let cpu_mem = source "rSource.cpu >= 1000 && rSource.mem >= 1000" in
  let host l = Attrs.of_list l in
  let c v = host [ ("cpu", Value.Float v) ] in
  let cm v w = host [ ("cpu", Value.Float v); ("mem", Value.Float w) ] in
  let cpu_req = "rSource.cpu >= 1000" and mem_req = "rSource.mem >= 1000" in
  let table =
    [ "fewer violations beat a smaller gap", cpu_mem, 3,
        [| cm 999.0 999.0; cm 0.0 2000.0 |],
        [ ("h1", [ (cpu_req, Some 0.0) ], 1);
          ("h0", [ (cpu_req, Some 999.0); (mem_req, Some 999.0) ], 0) ]
    ; "equal keys keep input order", cpu, 4,
        [| c 500.0; c 800.0; c 500.0; c 800.0 |],
        [ ("h1", [ (cpu_req, Some 800.0) ], 0); ("h3", [ (cpu_req, Some 800.0) ], 0);
          ("h0", [ (cpu_req, Some 500.0) ], 0); ("h2", [ (cpu_req, Some 500.0) ], 0) ]
    ; "a missing attribute has gap 1.0 and no actual", cpu, 5,
        [| Attrs.empty; c 0.0; c 500.0; c (-1.0); host [ ("cpu", Value.String "fast") ] |],
        [ ("h2", [ (cpu_req, Some 500.0) ], 0); ("h0", [ (cpu_req, None) ], 0);
          ("h1", [ (cpu_req, Some 0.0) ], 0); ("h4", [ (cpu_req, None) ], 0);
          ("h3", [ (cpu_req, Some (-1.0)) ], 0) ]
    ; "a NaN actual ranks before every finite gap", cpu, 3,
        [| c 500.0; c Float.nan; Attrs.empty |],
        [ ("h1", [ (cpu_req, Some Float.nan) ], 0); ("h0", [ (cpu_req, Some 500.0) ], 0);
          ("h2", [ (cpu_req, None) ], 0) ]
    ; "items that satisfy every requirement are excluded", cpu_mem, 3,
        [| cm 2000.0 1000.0; cm 900.0 1500.0; cm 1000.0 1000.0 |],
        [ ("h1", [ (cpu_req, Some 900.0) ], 1) ]
    ; "limit 0", cpu, 0, [| c 500.0; c 800.0 |], []
    ; "limit 1", cpu, 1, [| c 500.0; c 800.0 |], [ ("h1", [ (cpu_req, Some 800.0) ], 0) ]
    ; "limit above the number of violators", cpu, 10,
        [| c 500.0; c 1200.0; c 800.0 |],
        [ ("h2", [ (cpu_req, Some 800.0) ], 0); ("h0", [ (cpu_req, Some 500.0) ], 0) ]
    ; "empty requirements", [], 3, [| c 500.0; Attrs.empty |], []
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, reqs, limit, attrs, expected) ->
      check near_miss_summaries name expected
        (List.map near_miss_summary (rank ~reqs ~limit attrs)))
    table

(* The list-sort ranking [Explain.near_misses] replaced, kept verbatim
   as the oracle of the one-pass ranking: it builds a record per item
   and stable-sorts them all. *)
module Oracle = struct
  open Explain

  let gap r = function
    | None -> 1.0
    | Some v -> Float.abs (v -. r.bound) /. Float.max 1.0 (Float.abs r.bound)

  let check_item reqs attrs =
    List.fold_left
      (fun (viol, sat) r ->
        match Attrs.float r.attr attrs with
        | Some v when satisfies r v -> (viol, sat + 1)
        | Some v -> ((r, Some v) :: viol, sat)
        | None -> ((r, None) :: viol, sat))
      ([], 0) reqs
    |> fun (viol, sat) -> (List.rev viol, sat)

  let near_misses ~reqs ~items ~limit =
    if reqs = [] then []
    else
      items
      |> List.map (fun (id, label, attrs) ->
             let violated, satisfied = check_item reqs attrs in
             { id; label; violated; satisfied })
      |> List.filter (fun m -> m.violated <> [])
      |> List.sort (fun a b ->
             let c = compare (List.length a.violated) (List.length b.violated) in
             if c <> 0 then c
             else
               let total m =
                 List.fold_left (fun acc (r, v) -> acc +. gap r v) 0.0 m.violated
               in
               compare (total a) (total b))
      |> List.filteri (fun i _ -> i < limit)
end

(* Random items over three attributes, each missing, a string, an Int
   or a Float from a small pool (NaN included) so that keys tie often,
   and 1-3 random requirements on them under all five operators, with
   zero and negative bounds.  The ranking reads [Prefilter.column]s of
   the items; up to 140 items, so the scan crosses word boundaries. *)
let prop_near_misses_match_oracle =
  let pool = [| 0.0; 1.0; 2.0; 5.0; -3.0; 1000.0; Float.nan |] in
  let bounds = [| 0.0; 1.0; 2.0; 2.5; -3.0; 1000.0 |] in
  let names = [| "a"; "b"; "c" |] in
  let ops = [| `Eq; `Ge; `Gt; `Le; `Lt |] in
  let value code =
    if code = 0 then None
    else if code = 1 then Some (Value.String "x")
    else if code = 2 then Some (Value.Int 2)
    else Some (Value.Float pool.(code - 3))
  in
  let item codes =
    Attrs.of_list
      (List.concat
         (List.mapi
            (fun k code -> match value code with Some v -> [ (names.(k), v) ] | None -> [])
            codes))
  in
  let requirement (attr, op, bound) =
    { Explain.subject = Netembed_expr.Ast.R_source; attr = names.(attr); op = ops.(op);
      bound = bounds.(bound) }
  in
  let gen =
    QCheck.Gen.(
      triple
        (list_size
           (oneof [ int_range 0 12; int_range 55 140 ])
           (list_repeat 3 (int_range 0 (Array.length pool + 2))))
        (list_size (int_range 1 3) (triple (int_range 0 2) (int_range 0 4) (int_range 0 5)))
        (int_range 0 5))
  in
  let print =
    QCheck.Print.(triple (list (list int)) (list (triple int int int)) int)
  in
  QCheck.Test.make ~count:500 ~name:"near-miss ranking equals the list-sort oracle"
    (QCheck.make ~print gen)
    (fun (items, reqs, limit) ->
      let attrs = Array.of_list (List.map item items) in
      let reqs = List.map requirement reqs in
      let labelled = ref 0 in
      let label i =
        incr labelled;
        Printf.sprintf "h%d" i
      in
      let size = Array.length attrs in
      let columns = ref 0 in
      let column attr =
        incr columns;
        numeric_column ~size ~attrs:(Array.get attrs) attr
      in
      let got =
        Explain.near_misses ~reqs ~count:size ~column ~attrs:(Array.get attrs) ~label ~limit
      in
      let want =
        Oracle.near_misses ~reqs ~limit
          ~items:(List.mapi (fun i a -> (i, Printf.sprintf "h%d" i, a)) (Array.to_list attrs))
      in
      !labelled <= limit
      && !columns <= List.length reqs
      && compare got want = 0)

(* Words allocated so far: [Gc.minor_words] is exact, where the minor
   count of [Gc.counters] only moves at a minor collection on OCaml 5;
   [major -. promoted] adds the blocks allocated directly in the major
   heap, where large arrays go. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Counted, not timed: ranking reads the columns with no allocation per
   item, so one scan of 3,397 items (svcbench's link count) under two
   requirements allocates the same words as one of 1,000, and few of
   them.  Every item violates both requirements, so every item is a
   candidate for the kept top three. *)
let test_near_miss_scan_words () =
  let reqs =
    Explain.requirements ~on:[ Netembed_expr.Ast.R_edge ]
      (Expr.parse_exn "rEdge.avgDelay <= 1 && rEdge.bandwidth >= 100000")
  in
  let scan count =
    let tables =
      Array.init count (fun i ->
          Attrs.of_list
            [ ("avgDelay", Value.Float (float_of_int (2 + (i * 7919 mod 997))));
              ("bandwidth", Value.Int (100 + (i * 104729 mod 9973))) ])
    in
    let attrs = Array.get tables in
    let columns =
      List.map (fun (r : Explain.requirement) ->
          (r.Explain.attr, numeric_column ~size:count ~attrs r.Explain.attr))
        reqs
    in
    let column attr = List.assoc attr columns in
    let label = Printf.sprintf "h%d" in
    let before = allocated_words () in
    let near = Explain.near_misses ~reqs ~count ~column ~attrs ~label ~limit:3 in
    let words = allocated_words () -. before in
    check Alcotest.int (Printf.sprintf "three near misses of %d" count) 3 (List.length near);
    words
  in
  let small = scan 1000 and large = scan 3397 in
  check (Alcotest.float 0.0) "scan words at 1,000 and 3,397 items" small large;
  if large >= 1000.0 then
    Alcotest.failf "one near-miss scan allocated %.0f words" large

(* A near miss's actual value reaches the certificate JSON at full
   precision: PlanetLab delays carry more than six significant digits. *)
let test_certificate_actual_precision () =
  let req =
    List.hd
      (Explain.requirements ~on:[ Netembed_expr.Ast.R_edge ]
         (Expr.parse_exn "rEdge.avgDelay <= 100"))
  in
  let table =
    [ 123.456789
    ; 1234567.0
    ; 0.1
    ; 1e-7
    ; 98765.4321012
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun actual ->
      let near = { Explain.id = 0; label = "h"; violated = [ (req, Some actual) ]; satisfied = 0 } in
      let cert =
        Explain.Certificate.make ~verdict:"unsat" "no mapping"
          ~blamed:
            [
              {
                Explain.Certificate.node = 0; node_label = "q0"; causes = [];
                requirements = [ req ]; near = [ near ];
              };
            ]
      in
      let field k = function
        | Json.Obj kvs -> List.assoc k kvs
        | v -> Alcotest.failf "not an object: %s" (Json.to_string v)
      in
      let first = function
        | Json.List (x :: _) -> x
        | v -> Alcotest.failf "not a non-empty list: %s" (Json.to_string v)
      in
      match Json.of_string (Explain.Certificate.to_json cert) with
      | Error e -> Alcotest.failf "certificate JSON does not parse: %s" e
      | Ok doc -> (
          match
            doc |> field "blamed" |> first |> field "near_misses" |> first
            |> field "violated" |> first |> field "actual"
          with
          | Json.Float f -> check (Alcotest.float 0.0) (Printf.sprintf "%.17g" actual) actual f
          | v -> Alcotest.failf "actual: %s" (Json.to_string v)))
    table

(* ------------------------------------------------------------------ *)
(* Seeded-UNSAT culprits through the engine                            *)
(* ------------------------------------------------------------------ *)

(* Every host is too slow for the node constraint: the certificate must
   blame Node_constraint and show the fastest host as the near miss. *)
let test_node_constraint_culprit () =
  let problem =
    Problem.make
      ~node_constraint:(Expr.parse_exn "rSource.cpuMhz >= 3000")
      ~host:(cycle_host ()) ~query:(edge_query ()) Expr.always
  in
  let result = Engine.run ~options:explain_options Engine.ECF problem in
  check Alcotest.string "verdict" "unsat" (Engine.verdict result);
  let cert = certificate result in
  (match Explain.Certificate.primary_cause cert with
  | Some Explain.Cause.Node_constraint -> ()
  | c ->
      Alcotest.failf "expected Node_constraint culprit, got %s"
        (match c with Some c -> Explain.Cause.to_string c | None -> "none"));
  match cert.Explain.Certificate.blamed with
  | [] -> Alcotest.fail "no blamed node"
  | (b : Explain.Certificate.blamed) :: _ -> (
      check Alcotest.int "requirement extracted" 1
        (List.length b.Explain.Certificate.requirements);
      match b.Explain.Certificate.near with
      | (best : Explain.near_miss) :: _ ->
          (* plab-1 has 2400 MHz, the closest to the 3000 bound. *)
          check Alcotest.string "best near miss" "plab-1" best.Explain.label
      | [] -> Alcotest.fail "no near-miss hosts")

(* Query edge demands a delay no host edge offers: Edge_constraint. *)
let test_edge_constraint_culprit () =
  let problem =
    Problem.make ~host:(cycle_host ()) ~query:(edge_query ())
      (Expr.parse_exn "rEdge.avgDelay <= 5")
  in
  let result = Engine.run ~options:explain_options Engine.ECF problem in
  check Alcotest.string "verdict" "unsat" (Engine.verdict result);
  let cert = certificate result in
  match Explain.Certificate.primary_cause cert with
  | Some (Explain.Cause.Edge_constraint _) -> ()
  | c ->
      Alcotest.failf "expected Edge_constraint culprit, got %s"
        (match c with Some c -> Explain.Cause.to_string c | None -> "none")

(* A 5-clique query cannot embed in a 4-cycle: degrees are too small. *)
let test_degree_filter_culprit () =
  let host = cycle_host () in
  ignore (Graph.add_node host (host_node "spare" 100.0));
  let query = Netembed_topology.Regular.clique 5 in
  let problem = Problem.make ~host ~query Expr.always in
  let result = Engine.run ~options:explain_options Engine.ECF problem in
  check Alcotest.string "verdict" "unsat" (Engine.verdict result);
  let cert = certificate result in
  match Explain.Certificate.primary_cause cert with
  | Some Explain.Cause.Degree_filter -> ()
  | c ->
      Alcotest.failf "expected Degree_filter culprit, got %s"
        (match c with Some c -> Explain.Cause.to_string c | None -> "none")

(* LNS has no filter phase; its lazy rejections must still attribute. *)
let test_lns_blame () =
  let problem =
    Problem.make
      ~node_constraint:(Expr.parse_exn "rSource.cpuMhz >= 3000")
      ~host:(cycle_host ()) ~query:(edge_query ()) Expr.always
  in
  let result = Engine.run ~options:explain_options Engine.LNS problem in
  check Alcotest.string "verdict" "unsat" (Engine.verdict result);
  let cert = certificate result in
  match Explain.Certificate.primary_cause cert with
  | Some Explain.Cause.Node_constraint -> ()
  | _ -> Alcotest.fail "LNS should blame the node constraint"

(* ------------------------------------------------------------------ *)
(* Certificates over the model's columns                               *)
(* ------------------------------------------------------------------ *)

(* A 4-cycle whose links carry an Int [hops] and, where [delays] has a
   value, a Float [avgDelay]; nodes carry a Float [cpuMhz] (a ledger
   resource, so the model serves its residual column) and an Int
   [cores]. *)
let mixed_host delays =
  let g = Graph.create ~name:"mixed" () in
  let v =
    Array.init 4 (fun i ->
        Graph.add_node g
          (Attrs.of_list
             [ ("name", Value.String (Printf.sprintf "plab-%d" i));
               ("cpuMhz", Value.Float [| 1200.0; 2400.0; 1800.0; 900.0 |].(i));
               ("cores", Value.Int [| 2; 6; 4; 1 |].(i)) ]))
  in
  Array.iteri
    (fun i d ->
      let hops = ("hops", Value.Int (2 + i)) in
      let attrs =
        match d with
        | Some d -> Attrs.of_list [ hops; ("avgDelay", Value.Float d) ]
        | None -> Attrs.of_list [ hops ]
      in
      ignore (Graph.add_edge g v.(i) v.((i + 1) mod 4) attrs))
    delays;
  g

(* Unsat rows: name, link delays, node constraint, edge constraint,
   query. *)
let certificate_rows =
  let all_delays = [| Some 10.0; Some 20.0; Some 30.0; Some 40.0 |] in
  [ "edge-blamed", all_delays, None, "rEdge.avgDelay <= 5", edge_query ()
  ; "node-blamed", all_delays, Some "rSource.cpuMhz >= 3000", "true", edge_query ()
  ; "degree-blamed", all_delays, Some "rSource.cpuMhz >= 1000", "true",
      Netembed_topology.Regular.clique 4
  ; "attribute missing on some links", [| Some 10.0; None; Some 8.0; None |], None,
      "rEdge.avgDelay <= 5", edge_query ()
  ; "int edge attribute", all_delays, None, "rEdge.hops <= 1", edge_query ()
  ; "int node attribute", all_delays, Some "rSource.cores >= 8", "true", edge_query ()
  ] [@ocamlformat "disable"]

(* Each row runs an explain-mode ECF search to unsat twice on one
   residual snapshot of a model: once with the model's columns, once
   with none (the problem then holds its own store over the snapshot).
   Both certificates must print the same JSON, and that JSON must be
   the row's line of [certificates.golden]: "<row name><TAB><JSON>",
   lines starting with '#' skipped. *)
let test_certificate_columns_table () =
  let goldens =
    In_channel.with_open_text "certificates.golden" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           if line = "" || line.[0] = '#' then None
           else
             match String.index_opt line '\t' with
             | Some i ->
                 Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
             | None -> Alcotest.failf "certificates.golden: no tab in %S" line)
  in
  List.iter
    (fun (name, delays, node_constraint, edge_constraint, query) ->
      let model = Model.create (mixed_host delays) in
      let host = Model.residual_snapshot model in
      let columns = Model.columns model host in
      let json columns =
        let problem =
          Problem.make ?node_constraint:(Option.map Expr.parse_exn node_constraint) ?columns
            ~host ~query (Expr.parse_exn edge_constraint)
        in
        let result = Engine.run ~options:explain_options Engine.ECF problem in
        check Alcotest.string (name ^ ": verdict") "unsat" (Engine.verdict result);
        Explain.Certificate.to_json (certificate result)
      in
      let with_model = json (Some columns) in
      check Alcotest.string (name ^ ": model columns vs none") with_model (json None);
      match List.assoc_opt name goldens with
      | Some golden -> check Alcotest.string (name ^ ": golden") golden with_model
      | None -> Alcotest.failf "%s: no golden; this run printed\n%s\t%s" name name with_model)
    certificate_rows

(* Counted: a problem made without stores holds one over its host, so
   the filter build and the certificate read the same columns.  An
   explain run to unsat then allocates exactly the words it allocates
   over stores the caller passed; a certificate that built its own
   store would sweep each blamed column a second time.  The first run
   takes the process's first-use allocations. *)
let test_certificate_one_store () =
  List.iter
    (fun (name, delays, node_constraint, edge_constraint, query) ->
      let host = mixed_host delays in
      let run columns =
        let problem =
          Problem.make ?node_constraint:(Option.map Expr.parse_exn node_constraint) ?columns
            ~host ~query (Expr.parse_exn edge_constraint)
        in
        let before = allocated_words () in
        let result = Engine.run ~options:explain_options Engine.ECF problem in
        let words = allocated_words () -. before in
        check Alcotest.string (name ^ ": verdict") "unsat" (Engine.verdict result);
        words
      in
      ignore (run None);
      let without = run None in
      check (Alcotest.float 0.0)
        (name ^ ": explain run words, own stores vs the caller's")
        without
        (run (Some (Prefilter.of_graph host))))
    certificate_rows

(* ------------------------------------------------------------------ *)
(* UNSAT vs budget-exhausted                                           *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A tight visit budget on a feasible clique gives up without proving
   anything: the verdict (and the telemetry snapshot) must say
   "exhausted", not "unsat". *)
let test_exhausted_vs_unsat () =
  let host = Netembed_topology.Regular.clique 8 in
  let query = Netembed_topology.Regular.clique 7 in
  let problem = Problem.make ~host ~query Expr.always in
  let starved =
    Engine.run
      ~options:
        { explain_options with Engine.max_visited = Some 1; mode = Engine.First }
      Engine.ECF problem
  in
  check Alcotest.string "gave up" "exhausted" (Engine.verdict starved);
  check Alcotest.bool "snapshot says exhausted" true
    (contains
       (Telemetry.snapshot_to_json starved.Engine.telemetry)
       "\"outcome\":\"exhausted\"");
  (match (certificate starved).Explain.Certificate.verdict with
  | "exhausted" -> ()
  | v -> Alcotest.failf "certificate verdict %s" v);
  let impossible =
    Problem.make ~host:(cycle_host ()) ~query:(Netembed_topology.Regular.clique 3)
      (Expr.parse_exn "rEdge.avgDelay <= 5")
  in
  let unsat = Engine.run ~options:explain_options Engine.ECF impossible in
  check Alcotest.string "proved" "unsat" (Engine.verdict unsat);
  check Alcotest.bool "snapshot says unsat" true
    (contains
       (Telemetry.snapshot_to_json unsat.Engine.telemetry)
       "\"outcome\":\"unsat\"")

(* ------------------------------------------------------------------ *)
(* Property: blamed domains are really empty                           *)
(* ------------------------------------------------------------------ *)

(* For a randomized cpu threshold, whenever the certificate claims a
   query node's domain was emptied by node-level causes, re-check
   against the problem: every host must indeed fail node_ok for it. *)
let prop_certificate_domains_empty =
  QCheck.Test.make ~count:60
    ~name:"certificate node-level claims empty the claimed domains"
    QCheck.(pair (int_bound 5000) (int_bound 1000))
    (fun (bound, jitter) ->
      let host = Graph.create () in
      let v =
        Array.init 5 (fun i ->
            Graph.add_node host
              (host_node
                 (Printf.sprintf "h%d" i)
                 (float_of_int (((i * 977) + jitter) mod 4000))))
      in
      for i = 0 to 4 do
        ignore (Graph.add_edge host v.(i) v.((i + 1) mod 5) (delay 10.0))
      done;
      let problem =
        Problem.make
          ~node_constraint:
            (Expr.parse_exn (Printf.sprintf "rSource.cpuMhz >= %d" bound))
          ~host ~query:(edge_query ()) Expr.always
      in
      let result = Engine.run ~options:explain_options Engine.ECF problem in
      match result.Engine.report with
      | None -> false
      | Some cert ->
          Engine.verdict result <> "unsat"
          || List.for_all
               (fun (b : Explain.Certificate.blamed) ->
                 (* Only when every elimination is node-level does the
                    certificate claim node_ok empties the domain. *)
                 let only_node_level =
                   List.for_all
                     (fun (c, _) ->
                       match c with
                       | Explain.Cause.Node_constraint
                       | Explain.Cause.Degree_filter ->
                           true
                       | _ -> false)
                     b.Explain.Certificate.causes
                 in
                 (not only_node_level)
                 ||
                 let q = b.Explain.Certificate.node in
                 let empty = ref true in
                 for r = 0 to Graph.node_count host - 1 do
                   if Problem.node_ok problem ~q ~r then empty := false
                 done;
                 !empty)
               cert.Explain.Certificate.blamed)

(* ------------------------------------------------------------------ *)
(* Service round-trip: EXPLAIN by request id                           *)
(* ------------------------------------------------------------------ *)

let test_service_explain_roundtrip () =
  let registry = Telemetry.Registry.create () in
  let service = Service.create ~registry (Model.create (cycle_host ())) in
  let request =
    Request.make ~node_constraint:"rSource.cpuMhz >= 3000" ~algorithm:Engine.ECF
      ~mode:Engine.All ~query:(edge_query ()) "true"
  in
  (match Service.submit service request with
  | Error e -> Alcotest.failf "submit failed: %s" e
  | Ok answer -> (
      check Alcotest.string "verdict on the answer" "unsat"
        (Engine.verdict answer.Service.result);
      match Service.explain service answer.Service.id with
      | None -> Alcotest.fail "no diagnostics retained"
      | Some entry ->
          check Alcotest.string "entry verdict" "unsat" entry.Service.verdict;
          let cert =
            match entry.Service.certificate with
            | Some c -> c
            | None -> Alcotest.fail "entry without certificate"
          in
          (match Explain.Certificate.primary_cause cert with
          | Some Explain.Cause.Node_constraint -> ()
          | _ -> Alcotest.fail "service certificate names the wrong culprit");
          let frame = Wire.encode_explanation entry in
          check Alcotest.bool "wire frame carries the verdict" true
            (contains frame "verdict=unsat");
          check Alcotest.bool "wire frame carries JSON" true
            (contains frame "\nJSON {")));
  let prometheus = Telemetry.Registry.to_prometheus registry in
  check Alcotest.bool "unsat counter incremented" true
    (contains prometheus
       "netembed_unsat_total{cause=\"node_constraint\"} 1");
  check Alcotest.bool "blame counters exported" true
    (contains prometheus "netembed_blame_eliminations_total")

let test_service_admission_certificate () =
  let host = Graph.create () in
  ignore
    (Graph.add_node host
       (Attrs.of_list
          [ ("name", Value.String "tiny"); ("cpuMhz", Value.Float 100.0) ]));
  ignore
    (Graph.add_node host
       (Attrs.of_list
          [ ("name", Value.String "small"); ("cpuMhz", Value.Float 200.0) ]));
  let registry = Telemetry.Registry.create () in
  let service = Service.create ~registry (Model.create host) in
  let query = Graph.create () in
  ignore (Graph.add_node query (Attrs.of_list [ ("cpuMhz", Value.Float 5000.0) ]));
  let request =
    Request.make ~algorithm:Engine.ECF ~mode:Engine.First ~query "true"
  in
  (match Service.submit service request with
  | Ok _ -> Alcotest.fail "expected an admission rejection"
  | Error e -> check Alcotest.bool "admission error" true (contains e "admission"));
  match Service.last_entry service with
  | None -> Alcotest.fail "admission rejection not logged"
  | Some entry -> (
      check Alcotest.string "verdict" "admission" entry.Service.verdict;
      match entry.Service.certificate with
      | None -> Alcotest.fail "admission entry without certificate"
      | Some cert ->
          check Alcotest.bool "residual note names the best host" true
            (List.exists
               (fun n -> contains n "small")
               cert.Explain.Certificate.notes))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "netembed explain"
    [
      ( "kernel",
        [
          Alcotest.test_case "blame ordering" `Quick test_blame_ordering;
          Alcotest.test_case "recorder ring" `Quick test_recorder_ring;
          Alcotest.test_case "recorder sampling" `Quick test_recorder_sampling;
          Alcotest.test_case "requirement extraction" `Quick
            test_requirements_extraction;
          Alcotest.test_case "near misses" `Quick test_near_misses;
          Alcotest.test_case "near-miss ranking" `Quick test_near_miss_ranking;
          Alcotest.test_case "near-miss scan words" `Quick test_near_miss_scan_words;
          Alcotest.test_case "certificate actual precision" `Quick
            test_certificate_actual_precision;
        ] );
      ( "culprits",
        [
          Alcotest.test_case "node constraint" `Quick test_node_constraint_culprit;
          Alcotest.test_case "edge constraint" `Quick test_edge_constraint_culprit;
          Alcotest.test_case "degree filter" `Quick test_degree_filter_culprit;
          Alcotest.test_case "lns lazy blame" `Quick test_lns_blame;
          Alcotest.test_case "exhausted vs unsat" `Quick test_exhausted_vs_unsat;
          Alcotest.test_case "certificates over model columns" `Quick
            test_certificate_columns_table;
          Alcotest.test_case "one column store per problem" `Quick
            test_certificate_one_store;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_certificate_domains_empty;
          QCheck_alcotest.to_alcotest prop_near_misses_match_oracle;
        ] );
      ( "service",
        [
          Alcotest.test_case "explain round-trip" `Quick
            test_service_explain_roundtrip;
          Alcotest.test_case "admission certificate" `Quick
            test_service_admission_certificate;
        ] );
    ]

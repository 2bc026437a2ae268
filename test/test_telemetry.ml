module Telemetry = Netembed_telemetry.Telemetry
module Counter = Telemetry.Counter
module Gauge = Telemetry.Gauge
module Histogram = Telemetry.Histogram
module Registry = Telemetry.Registry
module Stats = Netembed_workload.Stats
module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Expr = Netembed_expr.Expr
module Json = Netembed_telemetry.Json
module Explain = Netembed_explain.Explain

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Counter.make () in
  Counter.incr c;
  Counter.add c 41;
  check Alcotest.int "value" 42 (Counter.value c);
  (match Counter.add c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative add accepted");
  let d = Counter.make () in
  Counter.add d 8;
  Counter.merge_into ~dst:d c;
  check Alcotest.int "merged" 50 (Counter.value d);
  Counter.reset c;
  check Alcotest.int "reset" 0 (Counter.value c)

let test_gauge () =
  let g = Gauge.make () in
  check (Alcotest.float 0.0) "initial" 0.0 (Gauge.value g);
  Gauge.set g 3.5;
  Gauge.set g (-2.25);
  check (Alcotest.float 0.0) "last write wins" (-2.25) (Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Histogram bucket layout                                             *)
(* ------------------------------------------------------------------ *)

(* Every value must land in the unique bucket whose half-open range
   (prev_upper, upper] contains it. *)
let bucket_invariant v =
  let i = Histogram.bucket_index v in
  let upper = Histogram.bucket_upper i in
  let v' = max 0 v in
  v' <= upper && (i = 0 || v' > Histogram.bucket_upper (i - 1))

let test_bucket_boundaries () =
  (* Exact small values, both sides of every small bucket bound, the
     direct-table limit, and the extremes. *)
  let samples =
    [ min_int; -1; 0; 1; 2; 9; 10; 11; 12; 100; 4095; 4096; 4097; 65535;
      1_000_000; max_int - 1; max_int ]
  in
  List.iter
    (fun v ->
      if not (bucket_invariant v) then
        Alcotest.failf "bucket invariant broken at %d (bucket %d)" v
          (Histogram.bucket_index v))
    samples;
  (* Boundaries proper: every bucket's upper bound maps to that bucket,
     and upper+1 maps to the next. *)
  for i = 0 to Histogram.bucket_count - 2 do
    let u = Histogram.bucket_upper i in
    check Alcotest.int (Printf.sprintf "upper(%d) in own bucket" i) i
      (Histogram.bucket_index u);
    check Alcotest.int (Printf.sprintf "upper(%d)+1 in next bucket" i) (i + 1)
      (Histogram.bucket_index (u + 1))
  done;
  (* Uppers are strictly increasing with ~20% max relative growth. *)
  for i = 1 to Histogram.bucket_count - 2 do
    let p = Histogram.bucket_upper (i - 1) and u = Histogram.bucket_upper i in
    if not (u > p) then Alcotest.failf "uppers not increasing at %d" i;
    if not (u <= max (p + 1) (p * 6 / 5)) then
      Alcotest.failf "bucket %d grows too fast: %d -> %d" i p u
  done;
  check Alcotest.int "catch-all is max_int" max_int
    (Histogram.bucket_upper (Histogram.bucket_count - 1))

let test_observe_extremes () =
  let h = Histogram.make () in
  Histogram.observe h 0;
  Histogram.observe h (-5);
  check Alcotest.int "zero bucket holds both" 2 (Histogram.bucket_value h 0);
  Histogram.observe h max_int;
  check Alcotest.int "count" 3 (Histogram.count h);
  check Alcotest.int "max observed" max_int (Histogram.max_observed h);
  check Alcotest.int "catch-all occupied" 1
    (Histogram.bucket_value h (Histogram.bucket_count - 1));
  check (Alcotest.float 0.0) "p100 is catch-all bound" (float_of_int max_int)
    (Histogram.quantile h 1.0)

(* Value -> bucket -> quantile round-trip: the quantile of the rank a
   value occupies must bound that value within one bucket's relative
   resolution, and must agree with the exact Stats.percentile the same
   way. *)
let test_quantile_round_trip () =
  let rng = Netembed_rng.Rng.make 7 in
  let values =
    Array.init 500 (fun i ->
        if i < 50 then i (* dense small values, exact buckets *)
        else Netembed_rng.Rng.int rng 100_000)
  in
  let h = Histogram.make () in
  Array.iter (Histogram.observe h) values;
  let sample = List.map float_of_int (Array.to_list values) in
  List.iter
    (fun q ->
      let exact = Stats.percentile q sample in
      let bucketed = Histogram.quantile h q in
      if not (bucketed >= exact) then
        Alcotest.failf "q=%.2f: bucketed %.0f below exact %.0f" q bucketed exact;
      if not (bucketed <= (exact *. 1.2) +. 1.0) then
        Alcotest.failf "q=%.2f: bucketed %.0f too far above exact %.0f" q bucketed
          exact)
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ];
  check Alcotest.int "sum preserved" (Array.fold_left ( + ) 0 values)
    (Histogram.sum h);
  (match Histogram.quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile outside [0,1] accepted");
  check (Alcotest.float 0.0) "empty histogram quantile" 0.0
    (Histogram.quantile (Histogram.make ()) 0.5)

let test_histogram_merge () =
  let a = Histogram.make () and b = Histogram.make () and whole = Histogram.make () in
  for v = 0 to 99 do
    Histogram.observe (if v mod 2 = 0 then a else b) v;
    Histogram.observe whole v
  done;
  Histogram.merge_into ~dst:a b;
  check Alcotest.int "merged count" (Histogram.count whole) (Histogram.count a);
  check Alcotest.int "merged sum" (Histogram.sum whole) (Histogram.sum a);
  check Alcotest.int "merged max" (Histogram.max_observed whole)
    (Histogram.max_observed a);
  for i = 0 to Histogram.bucket_count - 1 do
    if Histogram.bucket_value whole i <> Histogram.bucket_value a i then
      Alcotest.failf "bucket %d differs after merge" i
  done

(* ------------------------------------------------------------------ *)
(* Registry and expositions                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_identity_and_kinds () =
  let r = Registry.create () in
  let c1 = Registry.counter r "reqs_total" ~labels:[ ("b", "2"); ("a", "1") ] in
  (* Same name + same label set (any order) is the same counter. *)
  let c2 = Registry.counter r "reqs_total" ~labels:[ ("a", "1"); ("b", "2") ] in
  Counter.incr c1;
  check Alcotest.int "one cell" 1 (Counter.value c2);
  (match Registry.gauge r "reqs_total" ~labels:[ ("a", "1"); ("b", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  (match Registry.counter r "bad name!" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad metric name accepted")

let test_registry_merge () =
  let a = Registry.create () and b = Registry.create () in
  Counter.add (Registry.counter a "c_total") 5;
  Counter.add (Registry.counter b "c_total") 7;
  Gauge.set (Registry.gauge b "g") 9.0;
  Histogram.observe (Registry.histogram b "h") 3;
  Registry.merge_into ~dst:a b;
  check Alcotest.int "counters added" 12 (Counter.value (Registry.counter a "c_total"));
  check (Alcotest.float 0.0) "gauge takes source" 9.0
    (Gauge.value (Registry.gauge a "g"));
  check Alcotest.int "histogram created and merged" 1
    (Histogram.count (Registry.histogram a "h"))

let test_prometheus_exposition () =
  let r = Registry.create () in
  Counter.add (Registry.counter r ~help:"Visits" "v_total" ~labels:[ ("algorithm", "ECF") ]) 3;
  Counter.add (Registry.counter r ~help:"Visits" "v_total" ~labels:[ ("algorithm", "LNS") ]) 4;
  Gauge.set (Registry.gauge r "rev") 2.0;
  let h = Registry.histogram r "lat_us" in
  Histogram.observe h 1;
  Histogram.observe h 7;
  Histogram.observe h 7;
  let text = Registry.to_prometheus r in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  check Alcotest.bool "help line" true (has "# HELP v_total Visits");
  check Alcotest.bool "type line" true (has "# TYPE v_total counter");
  check Alcotest.bool "ECF sample" true (has "v_total{algorithm=\"ECF\"} 3");
  check Alcotest.bool "LNS sample" true (has "v_total{algorithm=\"LNS\"} 4");
  (* Label variants must be contiguous (one family block). *)
  let rec index i = function
    | [] -> -1
    | l :: rest -> if l = "v_total{algorithm=\"ECF\"} 3" then i else index (i + 1) rest
  in
  let ecf_at = index 0 lines in
  check Alcotest.bool "family contiguous" true
    (List.nth lines (ecf_at + 1) = "v_total{algorithm=\"LNS\"} 4");
  check Alcotest.bool "gauge sample" true (has "rev 2");
  (* Histogram: cumulative buckets, +Inf equals count, sum and count. *)
  check Alcotest.bool "bucket le=1" true (has "lat_us_bucket{le=\"1\"} 1");
  check Alcotest.bool "bucket le=7" true (has "lat_us_bucket{le=\"7\"} 3");
  check Alcotest.bool "bucket +Inf" true (has "lat_us_bucket{le=\"+Inf\"} 3");
  check Alcotest.bool "sum" true (has "lat_us_sum 15");
  check Alcotest.bool "count" true (has "lat_us_count 3")

let contains s sub =
  let n = String.length sub in
  let rec find i = i + n <= String.length s && (String.sub s i n = sub || find (i + 1)) in
  find 0

let test_json_exposition () =
  let r = Registry.create () in
  Counter.add (Registry.counter r "c_total") 2;
  Histogram.observe (Registry.histogram r "h") 5;
  let json = Registry.to_json r in
  check Alcotest.bool "counter field" true (contains json "\"c_total\":2");
  check Alcotest.bool "histogram count field" true (contains json "\"count\":1");
  check Alcotest.bool "object shape" true
    (json.[0] = '{' && json.[String.length json - 1] = '}')

(* ------------------------------------------------------------------ *)
(* JSON values: printer, reader, and every emitter parses              *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let test_json_printer () =
  let table =
    [ Json.String "", {|""|}
    ; String "plain ascii 42", {|"plain ascii 42"|}
    ; String "say \"hi\"", {|"say \"hi\""|}
    ; String "a\\b", {|"a\\b"|}
    ; String "line\nbreak", {|"line\nbreak"|}
    ; String "tab\there", {|"tab\there"|}
    ; String "ctl\x01", {|"ctl\u0001"|}
    ; Float 0.1, "0.1"
    ; Float 3.0, "3.0"
    ; Float 1e-7, "1e-07"
    ; Float (1.0 /. 3.0), "0.33333333333333331"
    ; Float nan, "null"
    ; Float infinity, "null"
    ; Float neg_infinity, "null"
    ; Int (-42), "-42"
    ; Obj [ ("a", List [ Int 1; Null; Bool true ]) ], {|{"a":[1,null,true]}|}
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (v, expected) -> check Alcotest.string expected expected (Json.to_string v))
    table

(* Input the printers never produce but other writers (Python's json
   module, hand edits) do: every escape, surrogate pairs, exponents,
   integers past [max_int], whitespace; and malformed documents. *)
let test_json_reader () =
  let table =
    [ {| {"a" : [ 1 , -2.5e3 ] }|}, Ok (Json.Obj [ ("a", List [ Int 1; Float (-2500.0) ]) ])
    ; {|"\u00e9\ud83d\ude00\/\b\f\r"|}, Ok (String "\xc3\xa9\xf0\x9f\x98\x80/\b\012\r")
    ; "[1E2, 4611686018427387904, true, false, null]",
      Ok (List [ Float 100.0; Float 4611686018427387904.0; Bool true; Bool false; Null ])
    ; "[1,]", Error "offset 3: unexpected character"
    ; {|{"a":1} x|}, Error "offset 8: trailing characters"
    ; "\"tab\there\"", Error "offset 4: control character in string"
    ; "", Error "offset 0: unexpected end of input"
    ] [@ocamlformat "disable"]
  in
  let result = Alcotest.(result json string) in
  List.iter (fun (text, expected) -> check result text expected (Json.of_string text)) table

(* Finite floats, and strings over all 256 bytes: every control
   character, the quote, the backslash and bytes >= 0x80. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 8) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  sized_size (0 -- 3)
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite;
               map (fun s -> Json.String s) str;
             ]
         in
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs) (list_size (0 -- 4) (pair str (self (n - 1)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"of_string inverts both printers"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_document v) = Ok v)

let members = function
  | Json.Obj kvs -> kvs
  | v -> Alcotest.failf "not an object: %s" (Json.to_string v)

let parse text =
  match Json.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s in %s" e text

let keys v = List.map fst (members v)
let member k v = List.assoc k (members v)

let test_json_parses_emitters () =
  let strings = Alcotest.(list string) in
  (* Registry: counter, gauge, a histogram with a +Inf bucket, a
     windowed series. *)
  let r = Registry.create () in
  Counter.add (Registry.counter r "c_total") 2;
  Gauge.set (Registry.gauge r "g") 0.25;
  let h = Registry.histogram r ~labels:[ ("k", "v") ] "h" in
  Histogram.observe h 5;
  Histogram.observe h (max_int / 2);
  let w = Registry.windowed r ~scale:1e-6 ~window:10.0 ~slices:5 "w" in
  Telemetry.Windowed.observe w 1234;
  let doc = parse (Registry.to_json r) in
  check strings "registry keys" [ "c_total"; "g"; {|h{k="v"}|}; "w" ] (keys doc);
  let hist = member {|h{k="v"}|} doc in
  check strings "histogram keys"
    [ "count"; "sum"; "max"; "p50"; "p95"; "p99"; "buckets" ]
    (keys hist);
  (match member "buckets" hist with
  | Json.List [ Json.List [ Json.Int 5; Json.Int 1 ]; Json.List [ Json.String "+Inf"; Json.Int 1 ] ] -> ()
  | b -> Alcotest.failf "buckets: %s" (Json.to_string b));
  check strings "windowed keys"
    [ "count"; "sum"; "p50"; "p95"; "p99"; "window_s" ]
    (keys (member "w" doc));
  (* Snapshots, with and without time_to_first_s. *)
  let snapshot time_to_first_s =
    {
      Telemetry.algorithm = "ECF"; outcome = "complete"; visited = 3; found = 1;
      elapsed_s = 0.5; time_to_first_s; constraint_evals = 7; domains_built = 2;
      intersections = 4; backtracks = 1; max_depth = 2;
      depth_histogram = Histogram.make (); domain_size_histogram = Histogram.make ();
      phases = Telemetry.Phase.make_timings ();
    }
  in
  let snapshot_keys ttf =
    [ "algorithm"; "outcome"; "visited"; "found"; "elapsed_s" ]
    @ ttf
    @ [ "constraint_evals"; "domains_built"; "intersections"; "backtracks";
        "max_depth"; "phases"; "depth_histogram"; "domain_size_histogram" ]
  in
  check strings "snapshot keys" (snapshot_keys [])
    (keys (parse (Telemetry.snapshot_to_json (snapshot None))));
  let with_ttf = parse (Telemetry.snapshot_to_json (snapshot (Some 0.25))) in
  check strings "snapshot keys with time_to_first_s"
    (snapshot_keys [ "time_to_first_s" ]) (keys with_ttf);
  (* Phase indices are load-bearing (new phases are appended), so the
     names are pinned literally in index order. *)
  let phase_names =
    [ "parse"; "admission"; "cache_lookup"; "filter_build"; "compile"; "search";
      "ledger_commit"; "encode"; "queue_wait"; "snapshot"; "certificate" ]
  in
  check strings "phase names in index order" phase_names
    (Array.to_list (Array.map Telemetry.Phase.name Telemetry.Phase.all));
  check strings "phases in canonical order" phase_names
    (keys (member "phases" with_ttf));
  (* A certificate with a hot spot, notes and a flight recording. *)
  let recorder = Explain.Recorder.create ~sample_every:1 () in
  Explain.Recorder.visit recorder ~depth:0 ~host:3 ~size:4;
  Explain.Recorder.wipeout recorder ~depth:1 ~host:2;
  Explain.Recorder.backtrack recorder ~depth:1;
  let cert =
    Explain.Certificate.make
      ~blamed:
        [
          {
            Explain.Certificate.node = 0; node_label = "a\"b";
            causes = [ (Explain.Cause.Node_constraint, 3) ]; requirements = []; near = [];
          };
        ]
      ~hot_spot:
        { Explain.Certificate.depth = 1; node = 0; node_label = "a"; backtracks = 2; wipeouts = 1 }
      ~notes:[ "n1" ] ~flight:(Explain.Recorder.events recorder) ~verdict:"unsat"
      "no mapping"
  in
  let c = parse (Explain.Certificate.to_json cert) in
  check strings "certificate keys"
    [ "verdict"; "message"; "blamed"; "hot_spot"; "notes"; "flight" ]
    (keys c);
  (match member "flight" c with
  | Json.List [ visit; wipeout; backtrack ] ->
      check strings "visit event" [ "seq"; "ev"; "depth"; "host"; "domain_size" ] (keys visit);
      check strings "wipeout event" [ "seq"; "ev"; "depth"; "host" ] (keys wipeout);
      check strings "backtrack event" [ "seq"; "ev"; "depth" ] (keys backtrack)
  | f -> Alcotest.failf "flight: %s" (Json.to_string f));
  (* A Chrome trace. *)
  let b = Telemetry.Trace.create () in
  Telemetry.Trace.add b ~name:"search" ~start_us:10.0 ~dur_us:2.5;
  match member "traceEvents" (parse (Telemetry.Trace.to_chrome_json ~trace_id:7 b)) with
  | Json.List [ e ] ->
      check strings "trace event keys"
        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ]
        (keys e)
  | t -> Alcotest.failf "traceEvents: %s" (Json.to_string t)

(* ------------------------------------------------------------------ *)
(* Gauge merge (the parallel-join step)                                *)
(* ------------------------------------------------------------------ *)

let test_gauge_merge () =
  let src = Gauge.make () and dst = Gauge.make () in
  Gauge.set src 4.5;
  Gauge.set dst 1.0;
  Gauge.merge_into ~dst src;
  check (Alcotest.float 0.0) "gauge takes source" 4.5 (Gauge.value dst);
  Gauge.merge_into ~dst src;
  check (Alcotest.float 0.0) "idempotent" 4.5 (Gauge.value dst)

(* ------------------------------------------------------------------ *)
(* Sliding-window histograms                                           *)
(* ------------------------------------------------------------------ *)

module Windowed = Telemetry.Windowed

(* A hand-cranked clock: tests control exactly which slice each
   observation lands in and when slices expire. *)
let fake_clock start =
  let now = ref start in
  (now, fun () -> !now)

let test_windowed_empty () =
  let _now, clock = fake_clock 1000.0 in
  let w = Windowed.create ~clock ~window:60.0 ~slices:6 () in
  check Alcotest.int "empty count" 0 (Windowed.count w);
  check (Alcotest.float 0.0) "empty quantile" 0.0 (Windowed.quantile w 0.95)

let test_windowed_rotation () =
  let now, clock = fake_clock 1000.0 in
  (* 60 s window, 6 slices: each slice covers 10 s. *)
  let w = Windowed.create ~clock ~window:60.0 ~slices:6 () in
  Windowed.observe w 100;
  Windowed.observe w 200;
  check Alcotest.int "both visible" 2 (Windowed.count w);
  (* Straddle a slice boundary: the next observation lands in a fresh
     slice while the previous one is still live. *)
  now := !now +. 10.0;
  Windowed.observe w 300;
  check Alcotest.int "straddling a rotation keeps both slices" 3
    (Windowed.count w);
  (* 65 s after the first two observations (past the window), 55 s
     after the third (still inside): only the third survives — without
     any intervening observe, so reads must filter stale slices
     themselves. *)
  now := !now +. 55.0;
  check Alcotest.int "expired slices dropped" 1 (Windowed.count w);
  now := !now +. 60.0;
  check Alcotest.int "fully drained" 0 (Windowed.count w);
  (* A slice slot is recycled when its absolute slice number comes
     around again: observing now must not resurrect the old counts. *)
  Windowed.observe w 400;
  check Alcotest.int "recycled slot starts clean" 1 (Windowed.count w)

let test_windowed_longer_than_lifetime () =
  (* Window longer than the process has lived: the clock starts near 0
     so every slice since the epoch is within the window — nothing may
     expire. *)
  let now, clock = fake_clock 1.0 in
  let w = Windowed.create ~clock ~window:3600.0 ~slices:6 () in
  Windowed.observe w 1000;
  now := !now +. 5.0;
  Windowed.observe w 1000;
  check Alcotest.int "all observations live" 2 (Windowed.count w);
  (* Nearest-rank quantile on a log-bucketed histogram: the answer is
     the bucket upper bound, within one growth step (x6/5) of the
     value. *)
  let q = Windowed.quantile w 0.5 in
  check Alcotest.bool "quantile within a bucket of the value" true
    (q >= 1000.0 && q <= 1200.0)

let test_windowed_scale () =
  (* scale is a render-time multiplier: observe µs, read seconds. *)
  let _now, clock = fake_clock 42.0 in
  let w = Windowed.create ~clock ~scale:1e-6 ~window:60.0 ~slices:6 () in
  Windowed.observe w 1_000_000;
  let q = Windowed.quantile w 0.99 in
  check Alcotest.bool "scaled to seconds" true (q >= 1.0 && q <= 1.2)

let test_windowed_merge () =
  let now, clock = fake_clock 500.0 in
  let a = Windowed.create ~clock ~window:60.0 ~slices:6 () in
  let b = Windowed.create ~clock ~window:60.0 ~slices:6 () in
  Windowed.observe a 10;
  now := !now +. 10.0;
  Windowed.observe b 20;
  (* The join step of the parallel scheduler: a worker's windowed
     series merges into the dispatcher's from another domain. *)
  Domain.join (Domain.spawn (fun () -> Windowed.merge_into ~dst:a b));
  check Alcotest.int "merged count" 2 (Windowed.count a);
  check Alcotest.int "source untouched" 1 (Windowed.count b);
  let c = Windowed.create ~clock ~window:60.0 ~slices:5 () in
  (match Windowed.merge_into ~dst:a c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "mismatched geometry accepted")

(* ------------------------------------------------------------------ *)
(* Request-scoped trace buffers                                        *)
(* ------------------------------------------------------------------ *)

module Trace_buf = Telemetry.Trace

let test_trace_buffer () =
  let id1 = Trace_buf.fresh_id () in
  let id2 = Trace_buf.fresh_id () in
  check Alcotest.bool "ids fresh and nonzero" true (id1 > 0 && id2 > id1);
  let b = Trace_buf.create () in
  check Alcotest.int "span returns its value" 42
    (Trace_buf.span b "outer" (fun () -> 42));
  Trace_buf.add ~tid:3 b ~name:"worker_span" ~start_us:10.0 ~dur_us:5.0;
  check Alcotest.int "events recorded" 2 (Trace_buf.length b);
  (* span_opt is the zero-cost gate: None must still run the thunk. *)
  check Alcotest.int "span_opt None runs" 7
    (Trace_buf.span_opt None "skipped" (fun () -> 7));
  check Alcotest.int "span_opt None records nothing" 2 (Trace_buf.length b);
  (* A worker buffer merges in keeping its tid — stolen frames
     attribute to the thief's lane but the request's trace. *)
  let w = Trace_buf.create ~tid:7 () in
  Trace_buf.span w "stolen_frame" (fun () -> ());
  Trace_buf.merge_into ~dst:b w;
  check Alcotest.int "merged events" 3 (Trace_buf.length b);
  let tids = ref [] in
  Trace_buf.iter (fun ~name:_ ~tid ~start_us:_ ~dur_us:_ -> tids := tid :: !tids) b;
  List.iter
    (fun t ->
      check Alcotest.bool (Printf.sprintf "tid %d present" t) true
        (List.mem t !tids))
    [ 0; 3; 7 ]

let test_trace_chrome_json () =
  let b = Trace_buf.create () in
  Trace_buf.add b ~name:"request" ~start_us:100.0 ~dur_us:50.0;
  Trace_buf.add ~tid:2 b ~name:"search_frame" ~start_us:110.0 ~dur_us:20.0;
  let id = Trace_buf.fresh_id () in
  let json = Trace_buf.to_chrome_json ~trace_id:id b in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length json && (String.sub json i n = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "traceEvents array" true (has "\"traceEvents\"");
  check Alcotest.bool "complete events" true (has "\"ph\":\"X\"");
  check Alcotest.bool "trace id attributed" true
    (has (Printf.sprintf "\"trace_id\":%d" id));
  check Alcotest.bool "worker tid present" true (has "\"tid\":2");
  check Alcotest.bool "names present" true
    (has "\"name\":\"request\"" && has "\"name\":\"search_frame\"");
  (* Timestamps are shifted to the earliest event. *)
  check Alcotest.bool "timestamps rebased" true (has "\"ts\":0")

(* ------------------------------------------------------------------ *)
(* Engine integration: one snapshot schema for all three algorithms    *)
(* ------------------------------------------------------------------ *)

let small_problem () =
  let delay d = Attrs.of_list [ ("avgDelay", Value.Float d) ] in
  let band lo hi =
    Attrs.of_list [ ("minDelay", Value.Float lo); ("maxDelay", Value.Float hi) ]
  in
  let host = Graph.create ~name:"host" () in
  let v = Array.init 6 (fun _ -> Graph.add_node host Attrs.empty) in
  for i = 0 to 5 do
    ignore (Graph.add_edge host v.(i) v.((i + 1) mod 6) (delay (10.0 +. float_of_int i)))
  done;
  ignore (Graph.add_edge host v.(0) v.(3) (delay 25.0));
  let query = Graph.create ~name:"q" () in
  let q0 = Graph.add_node query Attrs.empty in
  let q1 = Graph.add_node query Attrs.empty in
  let q2 = Graph.add_node query Attrs.empty in
  ignore (Graph.add_edge query q0 q1 (band 5.0 40.0));
  ignore (Graph.add_edge query q1 q2 (band 5.0 40.0));
  Problem.make ~host ~query
    (Expr.parse_exn "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay")

let test_snapshot_all_algorithms () =
  List.iter
    (fun alg ->
      let p = small_problem () in
      let r =
        (* prefilter off: this test pins that every algorithm reports
           its constraint evaluations, so none may be elided *)
        Engine.run
          ~options:
            { Engine.default_options with Engine.mode = Engine.All; prefilter = false }
          alg p
      in
      let s = r.Engine.telemetry in
      check Alcotest.string "algorithm" (Engine.algorithm_name alg)
        s.Telemetry.algorithm;
      check Alcotest.int "visited agrees" r.Engine.visited s.Telemetry.visited;
      check Alcotest.int "found agrees" r.Engine.found s.Telemetry.found;
      check Alcotest.int "evals agree with result" r.Engine.filter_evals
        s.Telemetry.constraint_evals;
      (* The headline satellite: LNS must report constraint evaluations
         now, like the filtered algorithms. *)
      if not (s.Telemetry.constraint_evals > 0) then
        Alcotest.failf "%s reports no constraint evaluations"
          (Engine.algorithm_name alg);
      check Alcotest.int "depth histogram counts every visit" r.Engine.visited
        (Histogram.count s.Telemetry.depth_histogram);
      if not (s.Telemetry.max_depth >= 3) then
        Alcotest.failf "max_depth %d below solution depth" s.Telemetry.max_depth;
      if s.Telemetry.domains_built > 0 && Histogram.count s.Telemetry.domain_size_histogram = 0
      then Alcotest.fail "domains built but size histogram empty";
      (* The JSON snapshot line parses shallowly: one object, the
         algorithm field present. *)
      let json = Telemetry.snapshot_to_json s in
      if String.length json = 0 || json.[0] <> '{' then
        Alcotest.failf "bad snapshot json: %s" json)
    Engine.all_algorithms

let test_backtracks_counted () =
  let p = small_problem () in
  let r =
    Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All }
      Engine.ECF p
  in
  match r.Engine.domain_stats with
  | None -> Alcotest.fail "no domain stats"
  | Some st ->
      check Alcotest.bool "backtracks counted" true
        (st.Netembed_core.Domain_store.backtracks > 0);
      check Alcotest.int "stats and snapshot agree"
        st.Netembed_core.Domain_store.backtracks r.Engine.telemetry.Telemetry.backtracks

(* ------------------------------------------------------------------ *)
(* Runtime sampler                                                     *)
(* ------------------------------------------------------------------ *)

module Runtime = Netembed_telemetry.Runtime

(* The sampler slot is global: double starts and double stops must be
   no-ops, and a restart against a fresh registry (a Service restart)
   must come up clean and publish into the new registry. *)
let test_runtime_sampler_idempotent () =
  let r1 = Registry.create () in
  check Alcotest.bool "not running initially" false (Runtime.running ());
  Runtime.start ~registry:r1 ~interval:0.01 ();
  check Alcotest.bool "running" true (Runtime.running ());
  (* Second start is absorbed by the live slot. *)
  Runtime.start ~registry:r1 ~interval:0.01 ();
  check Alcotest.bool "still one sampler" true (Runtime.running ());
  Runtime.publish_minor_words ();
  Thread.delay 0.08;
  Runtime.stop ();
  check Alcotest.bool "stopped" false (Runtime.running ());
  Runtime.stop ();
  check Alcotest.bool "double stop is a no-op" false (Runtime.running ());
  let gauge reg name = Gauge.value (Registry.gauge reg name) in
  check Alcotest.bool "heap gauge sampled" true
    (gauge r1 "netembed_gc_heap_words" > 0.0);
  let self = string_of_int (Domain.self () :> int) in
  check Alcotest.bool "per-domain allocation gauge published" true
    (Gauge.value
       (Registry.gauge r1
          ~labels:[ ("domain", self) ]
          "netembed_domain_minor_words")
    > 0.0);
  (* Restart against a fresh registry — the Service-restart path. *)
  let r2 = Registry.create () in
  Runtime.start ~registry:r2 ~interval:0.01 ();
  check Alcotest.bool "restarted" true (Runtime.running ());
  Thread.delay 0.05;
  Runtime.stop ();
  check Alcotest.bool "heap gauge sampled after restart" true
    (gauge r2 "netembed_gc_heap_words" > 0.0);
  check Alcotest.bool "bad interval rejected" true
    (try
       Runtime.start ~registry:r2 ~interval:0.0 ();
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "telemetry"
    [
      ( "scalars",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "extremes 0/max_int" `Quick test_observe_extremes;
          Alcotest.test_case "quantile round-trip vs Stats.percentile" `Quick
            test_quantile_round_trip;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "identity and kinds" `Quick test_registry_identity_and_kinds;
          Alcotest.test_case "merge" `Quick test_registry_merge;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition;
          Alcotest.test_case "json exposition" `Quick test_json_exposition;
        ] );
      ( "json",
        [
          Alcotest.test_case "printer table" `Quick test_json_printer;
          Alcotest.test_case "reader table" `Quick test_json_reader;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          Alcotest.test_case "every emitter parses" `Quick test_json_parses_emitters;
        ] );
      ( "gauge merge",
        [ Alcotest.test_case "takes source value" `Quick test_gauge_merge ] );
      ( "windowed",
        [
          Alcotest.test_case "empty window" `Quick test_windowed_empty;
          Alcotest.test_case "rotation and expiry" `Quick test_windowed_rotation;
          Alcotest.test_case "window longer than lifetime" `Quick
            test_windowed_longer_than_lifetime;
          Alcotest.test_case "render-time scale" `Quick test_windowed_scale;
          Alcotest.test_case "cross-domain merge" `Quick test_windowed_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "buffers, spans, merge" `Quick test_trace_buffer;
          Alcotest.test_case "chrome trace json" `Quick test_trace_chrome_json;
        ] );
      ( "engine",
        [
          Alcotest.test_case "snapshot for ECF/RWB/LNS" `Quick
            test_snapshot_all_algorithms;
          Alcotest.test_case "backtracks counted" `Quick test_backtracks_counted;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "sampler start/stop idempotent across restarts"
            `Quick test_runtime_sampler_idempotent;
        ] );
    ]

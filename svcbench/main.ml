(* Closed-loop, single-caller, in-process benchmark of the NETEMBED
   service path.  Every op runs what a server worker runs for one frame:
   Wire.decode_command -> Service.submit -> (Service.allocate_shared /
   Service.free) -> Wire.encode_answer, on seeded request streams that
   were rendered to frames before anything is timed.  No TCP, no extra
   domains.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --workload W --seed N --ops N [--out DIR]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ones; the last stdout line is one JSON result.  --ops runs exactly N
   ops, untimed, and prints only the deterministic counts.  The exit
   code is non-zero when any output fails its check. *)

module Ast = Netembed_expr.Ast
module Expr = Netembed_expr.Expr
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Filter = Netembed_core.Filter
module Verify = Netembed_core.Verify
module Explain = Netembed_explain.Explain
module Ledger = Netembed_ledger.Ledger
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Service = Netembed_service.Service
module Wire = Netembed_service.Wire
module Filter_cache = Netembed_service.Filter_cache
module Telemetry = Netembed_telemetry.Telemetry

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* One op                                                              *)

type outcome = {
  frame : int;
  verdict : string;  (** the service verdict, or "error" / "refused" *)
  found : int;
  visited : int;
  filter_evals : int;
  mappings : Netembed_core.Mapping.t list;
  certified : bool;  (** the answer carries a failure certificate *)
  revision : int;  (** model revision the answer was computed on *)
  alloc : int;  (** allocation id committed, or -1 *)
  freed : int;  (** allocation id released, or -1 *)
}

type instance = {
  inputs : Inputs.t;
  svc : Service.t;
  live : int Queue.t;  (** tenant allocation ids, oldest first *)
  mutable outcomes : outcome list;  (** newest first *)
}

let reservation_guard = Expr.parse_exn "!rSource.reserved"

(* The node constraint exactly as Service.submit conjoins it. *)
let service_node_constraint = function
  | None -> reservation_guard
  | Some c -> Ast.Binop (Ast.And, reservation_guard, c)

(* Replay of Service.submit's internal layers on the current model
   state, timed as [Replay] spans. *)
let replay_submit tr svc (r : Request.t) =
  let model = Service.model svc in
  let span l f = Layers.span (Some tr) l f in
  let host, revision =
    span Layers.Snapshot (fun () -> (Model.residual_snapshot model, Model.revision model))
  in
  ignore (span Layers.Admissible (fun () -> Ledger.admissible (Model.ledger model) ~query:r.query));
  match span Layers.Parse (fun () -> Request.parse_constraints r) with
  | Error _ -> ()
  | Ok (edge_c, node_c) ->
      let hit =
        Filter_cache.find (Service.filter_cache svc) ~revision
          ~signature:
            (Filter_cache.signature ~query:r.query ~constraint_text:r.constraint_text
               ~node_constraint_text:r.node_constraint_text)
      in
      let problem =
        span Layers.Problem_make (fun () ->
            Problem.make ~node_constraint:(service_node_constraint node_c)
              ?compiled:(Option.map snd hit) ~host ~query:r.query edge_c)
      in
      let filter =
        match hit with
        | Some (f, _) -> f
        | None ->
            span Layers.Filter_build (fun () ->
                Problem.prepare problem;
                Filter.build ~blame:(Explain.Blame.create ()) problem)
      in
      let options =
        { Engine.default_options with mode = r.mode; timeout = r.timeout; explain = true }
      in
      ignore (span Layers.Search (fun () -> Engine.run ~options ~filter r.algorithm problem))

let fail_outcome fi verdict =
  { frame = fi; verdict; found = 0; visited = 0; filter_evals = 0; mappings = [];
    certified = false; revision = -1; alloc = -1; freed = -1 }

(* Release the oldest tenant through a FREE frame; the id, or -1. *)
let free_oldest tr inst =
  let id = Queue.pop inst.live in
  let span l f = Layers.span tr l f in
  match span Layers.Decode (fun () -> Wire.decode_command (Wire.encode_command (Wire.Free id))) with
  | Ok (Wire.Free id) when span Layers.Free (fun () -> Service.free inst.svc id) ->
      ignore (span Layers.Encode (fun () -> Wire.encode_freed id));
      id
  | _ -> -1

(* Run stream entry [i]; returns the op's latency in seconds (replay
   time excluded). *)
let run_op ?tr inst i =
  let fi = Inputs.frame_at inst.inputs i in
  let span l f = Layers.span tr l f in
  Option.iter (fun t -> Layers.begin_op t i) tr;
  let t0 = now () in
  let encode f = ignore (span Layers.Encode f) in
  let outcome =
    match span Layers.Decode (fun () -> Wire.decode_command inst.inputs.frames.(fi)) with
    | Ok ((Wire.Submit r | Wire.Allocate r) as cmd) -> (
        Option.iter (fun t -> replay_submit t inst.svc r) tr;
        match span Layers.Submit (fun () -> Service.submit inst.svc r) with
        | Error e ->
            encode (fun () -> Wire.encode_error e);
            fail_outcome fi "error"
        | Ok a -> (
            let res = a.Service.result in
            let o =
              { frame = fi; verdict = Engine.verdict res; found = res.Engine.found;
                visited = res.Engine.visited; filter_evals = res.Engine.filter_evals;
                mappings = res.Engine.mappings; certified = res.Engine.report <> None;
                revision = a.Service.model_revision;
                alloc = -1; freed = -1 }
            in
            match (cmd, res.Engine.mappings) with
            | Wire.Allocate _, m :: _ -> (
                if tr <> None then
                  ignore (span Layers.Charge (fun () ->
                      Ledger.charge_of_mapping (Model.ledger (Service.model inst.svc))
                        ~query:r.query m));
                match span Layers.Allocate (fun () -> Service.allocate_shared inst.svc a m) with
                | Ok id ->
                    encode (fun () -> Wire.encode_answer ~allocation:id a);
                    Queue.push id inst.live;
                    let o = { o with alloc = id } in
                    if Queue.length inst.live <= Inputs.live_tenants then o
                    else begin
                      match free_oldest tr inst with
                      | -1 -> { o with verdict = "free-failed" }
                      | freed -> { o with freed }
                    end
                | Error e ->
                    encode (fun () -> Wire.encode_error ~id:a.Service.id e);
                    { o with verdict = "refused" })
            | _ ->
                encode (fun () -> Wire.encode_answer a);
                o))
    | Ok _ | Error _ -> fail_outcome fi "error"
  in
  let t1 = now () in
  inst.outcomes <- outcome :: inst.outcomes;
  match tr with
  | None -> t1 -. t0
  | Some t ->
      Layers.record t Layers.Op t0 (t1 -. t0);
      t1 -. t0 -. t.Layers.replay_s

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = { total_s : float; load_s : float; create_s : float }

(* GraphML load + Model.create, Service.create, then [warmup] ops. *)
let setup inputs ~warmup =
  Gc.compact ();
  let t0 = now () in
  let model = Model.of_graphml_file inputs.Inputs.host_file in
  let t1 = now () in
  let svc = Service.create ~registry:(Telemetry.Registry.create ()) model in
  let t2 = now () in
  let inst = { inputs; svc; live = Queue.create (); outcomes = [] } in
  for i = 0 to warmup - 1 do
    ignore (run_op inst i)
  done;
  let t3 = now () in
  (inst, { total_s = t3 -. t0; load_s = t1 -. t0; create_s = t2 -. t1 })

(* ------------------------------------------------------------------ *)
(* Timed loop                                                          *)

let max_ops = 200_000

type loop = {
  ops : int;
  wall_s : float;
  by_op : float array;  (** per op, seconds, in stream order *)
  latencies : float array;  (** the same, sorted *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  cache_hits : int;
  cache_misses : int;
}

let cache_counter svc name = Telemetry.Counter.value (Telemetry.Registry.counter (Service.registry svc) name)

(* Ops from stream entry [first] on, until [seconds] have passed or
   [ops] ops have run. *)
let timed_loop ?tr inst ~first ~seconds ~ops =
  let lat = Array.make (min ops max_ops) 0.0 in
  let hits0 = cache_counter inst.svc "netembed_filter_cache_hits_total" in
  let misses0 = cache_counter inst.svc "netembed_filter_cache_misses_total" in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let start = now () in
  let n = ref 0 in
  while !n < Array.length lat && now () -. start < seconds do
    lat.(!n) <- run_op ?tr inst (first + !n);
    incr n
  done;
  let wall_s = now () -. start in
  let g1 = Gc.quick_stat () in
  let by_op = Array.sub lat 0 !n in
  let latencies = Array.copy by_op in
  Array.sort Float.compare latencies;
  {
    ops = !n;
    wall_s;
    by_op;
    latencies;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    cache_hits = cache_counter inst.svc "netembed_filter_cache_hits_total" - hits0;
    cache_misses = cache_counter inst.svc "netembed_filter_cache_misses_total" - misses0;
  }

(* Nearest-rank quantile of sorted samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Correctness, checked after the timed loop                           *)

(* Every returned mapping passes Verify.check against the residual
   substrate it was computed on; planted-feasible frames got a mapping
   (and, for tenants, a commit), planted-infeasible ones got "unsat"
   with a failure certificate;
   tenant_churn's commits and releases replay exactly on a shadow
   model, and utilization is back to 0 once the last tenants are freed.
   Returns the failing ops (and messages). *)
let verify inst =
  let inputs = inst.inputs in
  let outcomes = List.rev inst.outcomes in
  let problems = Hashtbl.create 64 in
  let request fi =
    match Wire.decode_command inputs.Inputs.frames.(fi) with
    | Ok (Wire.Submit r | Wire.Allocate r) -> r
    | _ -> failwith "frame does not decode"
  in
  let problem_for ~host fi =
    let r = request fi in
    match Request.parse_constraints r with
    | Ok (edge_c, node_c) ->
        Problem.make ~node_constraint:(service_node_constraint node_c) ~host ~query:r.query
          edge_c
    | Error m -> failwith m
  in
  let mappings_ok problem o =
    List.for_all (fun m -> Result.is_ok (Verify.check problem m)) o.mappings
  in
  let verdict_ok o =
    if inputs.Inputs.planted_feasible.(o.frame) then o.verdict = "complete" && o.found > 0
    else o.verdict = "unsat" && o.mappings = [] && o.certified
  in
  let failures = ref [] in
  let fail o msg = failures := Printf.sprintf "frame %d: %s" o.frame msg :: !failures in
  (match inputs.Inputs.workload with
  | Inputs.Query_mix | Inputs.Hot_queries ->
      (* Read-only: every answer was computed on one model state. *)
      let model = Service.model inst.svc in
      let host = Model.residual_snapshot model in
      let revision = Model.revision model in
      List.iter
        (fun o ->
          let problem =
            match Hashtbl.find_opt problems o.frame with
            | Some p -> p
            | None ->
                let p = problem_for ~host o.frame in
                Hashtbl.add problems o.frame p;
                p
          in
          if o.revision <> revision then fail o "answer from an unexpected model revision"
          else if not (verdict_ok o) then fail o ("planted verdict not met: " ^ o.verdict)
          else if not (mappings_ok problem o) then fail o "mapping fails Verify.check")
        outcomes
  | Inputs.Tenant_churn ->
      (* Shadow model: same GraphML, same commits and releases in the
         same order, so each answer can be checked against the residual
         substrate it was computed on. *)
      let shadow = Model.of_graphml_file inputs.Inputs.host_file in
      List.iter
        (fun o ->
          let host = Model.residual_snapshot shadow in
          if o.revision <> Model.revision shadow then fail o "answer from an unexpected model revision"
          else if not (verdict_ok o) || o.alloc < 0 then fail o ("tenant refused: " ^ o.verdict)
          else if not (mappings_ok (problem_for ~host o.frame) o) then
            fail o "mapping fails Verify.check";
          (* Replay every commit and release, checked or not, so one bad
             op does not desynchronise the ops after it. *)
          (if o.alloc >= 0 then
             match
               Model.charge_mapping shadow ~query:(request o.frame).query (List.hd o.mappings)
             with
             | Ok id when id = o.alloc -> ()
             | _ -> fail o "commit does not replay on the shadow ledger");
          if o.freed >= 0 && not (Model.release_charge shadow o.freed) then
            fail o "release does not replay on the shadow ledger")
        outcomes;
      Queue.iter
        (fun id ->
          if not (Service.free inst.svc id) then
            failures := Printf.sprintf "tenant %d: free failed at drain" id :: !failures)
        inst.live;
      Queue.clear inst.live;
      List.iter
        (fun (resource, _, used, _) ->
          if used <> 0.0 then
            failures :=
              Printf.sprintf "utilization of %s is %g after the drain" resource used :: !failures)
        (Service.utilization inst.svc));
  List.rev !failures

(* A digest of the verdict sequence: per op, verdict and mapping count. *)
let verdict_digest outcomes =
  let b = Buffer.create 4096 in
  List.iter (fun o -> Printf.bprintf b "%s:%d;" o.verdict o.found) (List.rev outcomes);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Two lines.  [counts]: ops, mappings, nodes visited, constraint
   evaluations, cache hits and the verdict digest repeat exactly for a
   seed and op count.  [gc]: allocated and promoted words repeat only
   to about 1e-5, because replies carry measured times whose printed
   length varies. *)
let counts_lines inputs (lp : loop) outcomes =
  let timed = List.filteri (fun i _ -> i < lp.ops) outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 timed in
  let head =
    Printf.sprintf "%s seed=%d ops=%d" (Inputs.workload_name inputs.Inputs.workload)
      inputs.Inputs.seed lp.ops
  in
  Printf.sprintf
    "counts %s mappings=%d core.visited=%d core.filter_evals=%d cache_hits=%d digest=%s\n\
     gc %s minor_words_per_op=%.1f promoted_words_per_op=%.1f"
    head (sum (fun o -> o.found)) (sum (fun o -> o.visited)) (sum (fun o -> o.filter_evals))
    lp.cache_hits (verdict_digest timed) head
    (lp.minor_words /. float_of_int lp.ops)
    (lp.promoted_words /. float_of_int lp.ops)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let kb = Fun.protect scan ~finally:(fun () -> close_in ic) in
  kb /. 1024.0

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name value unit)
          metrics))

let print_metrics workload metrics =
  List.iter
    (fun (name, value, unit) -> Printf.printf "%s/%s = %.6g %s\n" workload name value unit)
    metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "." and commit = ref "unknown" and ops = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " tenant_churn | query_mix | hot_queries");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--ops", Arg.Set_int ops, " run exactly this many ops and print only the counts");
      ("--out", Arg.Set_string out, " directory for the substrate file and the span trace");
      ("--commit", Arg.Set_string commit, " source revision, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let wl =
    match Inputs.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let dir = !out in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let inputs = Inputs.generate ~dir wl !seed in
  (* Generation garbage is collected before any set-up runs. *)
  Gc.full_major ();
  let wname = Inputs.workload_name wl in
  let counts_only = !ops > 0 in
  let ops = if counts_only then min !ops max_ops else max_ops in
  let seconds = if counts_only then infinity else !seconds in
  (* Set-up runs several times; setup_s is the median, and the last
     instance is the one measured. *)
  let repeats = if counts_only then 1 else 7 in
  let setups = ref [] in
  let last = ref None in
  for _ = 1 to repeats do
    last := None;
    let inst, s = setup inputs ~warmup:inputs.Inputs.warmup in
    setups := s :: !setups;
    last := Some inst
  done;
  let inst = Option.get !last and setups = !setups in
  let lp = timed_loop inst ~first:inputs.Inputs.warmup ~seconds ~ops in
  let failures = verify inst in
  (* The last [lp.ops] outcomes are the timed ones. *)
  let counts = counts_lines inputs lp inst.outcomes in
  if counts_only then begin
    print_endline counts;
    List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
    exit (if failures = [] then 0 else 1)
  end;
  let provenance =
    Printf.sprintf
      "workload=%s seed=%d commit=%s nproc=%d ocaml=%s sites=%d links=%d ops=%d seconds=%g \
       loop=closed,1-caller,in-process"
      wname !seed !commit (Domain.recommended_domain_count ()) Sys.ocaml_version Inputs.sites
      inputs.Inputs.links lp.ops seconds
  in
  Printf.printf "provenance %s\n" provenance;
  print_endline counts;
  let ms s = s *. 1000.0 in
  let p50 = quantile lp.latencies 0.5 in
  let p99 = quantile lp.latencies 0.99 in
  Printf.printf "%s/p99_ms = %.6g ms (not gated; %d samples, %d above it)\n" wname (ms p99) lp.ops
    (lp.ops - int_of_float (Float.ceil (0.99 *. float_of_int lp.ops)));
  (* Where the tail sits: latency by planted class. *)
  let timed = Array.of_list (List.rev (List.filteri (fun i _ -> i < lp.ops) inst.outcomes)) in
  List.iter
    (fun (cls, feasible) ->
      let sel = ref [] in
      Array.iteri
        (fun i o ->
          if inputs.Inputs.planted_feasible.(o.frame) = feasible then sel := lp.by_op.(i) :: !sel)
        timed;
      let sel = Array.of_list !sel in
      Array.sort Float.compare sel;
      if sel <> [||] then
        Printf.printf "class %s: %d ops, p50 %.3f ms, p90 %.3f ms\n" cls (Array.length sel)
          (ms (quantile sel 0.5)) (ms (quantile sel 0.9)))
    [ ("feasible", true); ("infeasible", false) ];
  (* Every op whose outcome [verify] checked: warm-up and timed ops of
     the measured instance, plus the traced run's ops. *)
  let metrics, failures, attempted =
    if !trace = 0 then
      ( [
          ("setup_s", median (List.map (fun s -> s.total_s) setups), "s");
          ("p50_ms", ms p50, "ms");
          ("p90_ms", ms (quantile lp.latencies 0.9), "ms");
          ("ops_per_s", float_of_int lp.ops /. lp.wall_s, "1/s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ],
        failures,
        List.length inst.outcomes )
    else begin
      (* The traced run: the same stream from op 0 on a fresh service,
         every op traced and replayed layer by layer. *)
      let inst', _ = setup inputs ~warmup:0 in
      let tr = Layers.create ~capacity:(1 lsl 18) in
      let lt = timed_loop ~tr inst' ~first:0 ~seconds ~ops in
      let failures = failures @ verify inst' in
      let n = float_of_int lt.ops in
      let per l = ms (Layers.seconds tr l) /. n in
      let replayed = List.fold_left (fun acc l -> acc +. per l) 0.0 Layers.inside_submit in
      let other = per Layers.Submit -. replayed in
      Printf.printf "%s/service.allocate_ms = %.6g ms\n%s/service.free_ms = %.6g ms\n" wname
        (per Layers.Allocate) wname (per Layers.Free);
      (* The replayed layers run outside Service.submit, so they only
         approximate its inside; a replay that costs clearly more than
         the whole call means a layer is mis-measured. *)
      Printf.printf "decomposition submit=%.6g ms = replayed %.6g ms + other %.6g ms (%s)\n"
        (per Layers.Submit) replayed other
        (if other >= -0.05 *. per Layers.Submit then "ok"
         else "replayed layers exceed submit by more than 5%");
      let trace_file = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" wname !seed) in
      Layers.write_chrome tr
        ~provenance:(Printf.sprintf "{\"provenance\": \"%s\"}" provenance)
        trace_file;
      Printf.printf "spans %d written to %s (%d dropped)\n" tr.Layers.spans trace_file
        tr.Layers.dropped;
      let lookups = lt.cache_hits + lt.cache_misses in
      let per_op count = float_of_int count /. float_of_int lp.ops in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 inst'.outcomes in
      ( [
          ("wire.decode_ms", per Layers.Decode, "ms");
          ("wire.encode_ms", per Layers.Encode, "ms");
          ("service.submit_ms", per Layers.Submit, "ms");
          ("service.other_ms", other, "ms");
          ( "service.cache_hit_ratio",
            (if lookups = 0 then 0.0 else float_of_int lt.cache_hits /. float_of_int lookups),
            "ratio" );
          ("model.snapshot_ms", per Layers.Snapshot, "ms");
          ("expr.parse_ms", per Layers.Parse, "ms");
          ("core.problem_ms", per Layers.Problem_make, "ms");
          ("core.filter_build_ms", per Layers.Filter_build, "ms");
          ("core.filter_evals", float_of_int (sum (fun o -> o.filter_evals)) /. n, "count");
          ("core.search_ms", per Layers.Search, "ms");
          ("core.visited", float_of_int (sum (fun o -> o.visited)) /. n, "count");
          ("ledger.charge_ms", per Layers.Admissible +. per Layers.Charge, "ms");
          ("gc.minor_words_per_op", lp.minor_words /. float_of_int lp.ops, "words");
          ("gc.promoted_words_per_op", lp.promoted_words /. float_of_int lp.ops, "words");
          ("gc.majors_per_kop", 1000.0 *. per_op lp.major_collections, "count");
          ("graphml.load_s", median (List.map (fun s -> s.load_s) setups), "s");
          ("service.create_s", median (List.map (fun s -> s.create_s) setups), "s");
          ("trace.overhead_ms", ms (quantile lt.latencies 0.5 -. p50), "ms");
        ],
        failures,
        List.length inst.outcomes + List.length inst'.outcomes )
    end
  in
  Sys.remove inputs.Inputs.host_file;
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  let failed = min attempted (List.length failures) in
  Printf.printf "%s/fail_share = %.6g (%d of %d ops)\n" wname
    (float_of_int failed /. float_of_int attempted) failed attempted;
  print_metrics wname metrics;
  print_endline (json_result ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

(* Metrics kernel.  Metric updates are allocation-free after
   creation: counters and gauges are single mutable cells, histogram
   observation is a table lookup plus a few stores.  See telemetry.mli
   for the contract. *)

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }
  let incr t = t.v <- t.v + 1

  let add t n =
    if n < 0 then invalid_arg "Telemetry.Counter.add: negative increment";
    t.v <- t.v + n

  let value t = t.v
  let reset t = t.v <- 0
  let merge_into ~dst src = dst.v <- dst.v + src.v
end

module Gauge = struct
  type t = { mutable g : float }

  let make () = { g = 0.0 }
  let set t v = t.g <- v
  let value t = t.g

  (* Last write wins, like [set]: at a parallel join the source (a
     worker domain's registry) holds the most recent reading. *)
  let merge_into ~dst src = dst.g <- src.g
end

(* The quantile set every exposition reports — one constant shared by
   the lifetime histogram JSON and the windowed summaries so the two
   cannot drift.  Each entry is (quantile, JSON key). *)
let report_quantiles = [| (0.50, "p50"); (0.95, "p95"); (0.99, "p99") |]

module Histogram = struct
  (* Global bucket layout: inclusive upper bounds growing by
     max(+1, x6/5), i.e. exact up to 10 and ~base-1.2 beyond, with a
     catch-all max_int bucket.  Computed once at module init so every
     histogram is one int array over the same layout and merging is
     element-wise. *)
  let uppers =
    let acc = ref [ 0 ] in
    let u = ref 0 in
    (* Grow while u * 6 cannot overflow; the catch-all max_int bucket
       covers the rest. *)
    while !u <= max_int / 6 do
      u := max (!u + 1) (!u * 6 / 5);
      acc := !u :: !acc
    done;
    Array.of_list (List.rev (max_int :: !acc))

  let bucket_count = Array.length uppers

  let bucket_upper i =
    if i < 0 || i >= bucket_count then invalid_arg "Telemetry.Histogram.bucket_upper";
    uppers.(i)

  (* Hot-path index: a direct table for small values (search depths and
     candidate-domain sizes are far below 4096), binary search above. *)
  let small_limit = 4096

  let small_index =
    let t = Array.make (small_limit + 1) 0 in
    let b = ref 0 in
    for v = 1 to small_limit do
      if v > uppers.(!b) then incr b;
      t.(v) <- !b
    done;
    t

  let bucket_index v =
    if v <= 0 then 0
    else if v <= small_limit then Array.unsafe_get small_index v
    else begin
      (* First bucket whose upper bound admits v. *)
      let lo = ref 0 and hi = ref (bucket_count - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if uppers.(mid) >= v then hi := mid else lo := mid + 1
      done;
      !lo
    end

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_o : int;
  }

  let make () = { buckets = Array.make bucket_count 0; count = 0; sum = 0; max_o = 0 }

  let observe t v =
    let v = if v < 0 then 0 else v in
    let i = bucket_index v in
    Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1);
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max_o then t.max_o <- v

  let observe_n t v n =
    if n < 0 then invalid_arg "Telemetry.Histogram.observe_n";
    if n > 0 then begin
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + n);
      t.count <- t.count + n;
      t.sum <- t.sum + (v * n);
      if v > t.max_o then t.max_o <- v
    end

  let count t = t.count
  let sum t = t.sum
  let max_observed t = t.max_o

  let bucket_value t i =
    if i < 0 || i >= bucket_count then invalid_arg "Telemetry.Histogram.bucket_value";
    t.buckets.(i)

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Telemetry.Histogram.quantile";
    if t.count = 0 then 0.0
    else begin
      (* Nearest-rank, as Stats.percentile: rank in [0, count-1]. *)
      let rank = int_of_float (Float.round (q *. float_of_int (t.count - 1))) in
      let i = ref 0 and cum = ref t.buckets.(0) in
      while !cum <= rank && !i < bucket_count - 1 do
        incr i;
        cum := !cum + t.buckets.(!i)
      done;
      float_of_int uppers.(!i)
    end

  let reset t =
    Array.fill t.buckets 0 bucket_count 0;
    t.count <- 0;
    t.sum <- 0;
    t.max_o <- 0

  let merge_into ~dst src =
    for i = 0 to bucket_count - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    if src.max_o > dst.max_o then dst.max_o <- src.max_o

  let fold_nonzero f t acc =
    let acc = ref acc in
    for i = 0 to bucket_count - 1 do
      if t.buckets.(i) > 0 then acc := f uppers.(i) t.buckets.(i) !acc
    done;
    !acc
end

module Phase = struct
  (* The fixed decomposition of one mapping request.  Indices are the
     layout of [snapshot.phases] and of the service's per-phase
     accumulators, so the order here is load-bearing: new phases are
     appended (Queue_wait sits after Encode even though it happens
     first in wall-clock order; Snapshot and Certificate after it) so
     existing indices never move. *)
  type t =
    | Parse
    | Admission
    | Cache_lookup
    | Filter_build
    | Compile
    | Search
    | Ledger_commit
    | Encode
    | Queue_wait
    | Snapshot
    | Certificate

  let all =
    [|
      Parse; Admission; Cache_lookup; Filter_build; Compile; Search;
      Ledger_commit; Encode; Queue_wait; Snapshot; Certificate;
    |]

  let count = Array.length all

  let index = function
    | Parse -> 0
    | Admission -> 1
    | Cache_lookup -> 2
    | Filter_build -> 3
    | Compile -> 4
    | Search -> 5
    | Ledger_commit -> 6
    | Encode -> 7
    | Queue_wait -> 8
    | Snapshot -> 9
    | Certificate -> 10

  let name = function
    | Parse -> "parse"
    | Admission -> "admission"
    | Cache_lookup -> "cache_lookup"
    | Filter_build -> "filter_build"
    | Compile -> "compile"
    | Search -> "search"
    | Ledger_commit -> "ledger_commit"
    | Encode -> "encode"
    | Queue_wait -> "queue_wait"
    | Snapshot -> "snapshot"
    | Certificate -> "certificate"

  let of_index i =
    if i < 0 || i >= count then invalid_arg "Telemetry.Phase.of_index";
    all.(i)

  let make_timings () = Array.make count 0.0
end

module Trace = struct
  (* Request-scoped tracing.  A trace buffer belongs to one request:
     the service allocates it at submit, the engine and every parallel
     worker append complete spans, and the merged buffer serializes to
     Chrome trace_event JSON.  Buffers are single-writer; workers
     record into their own buffer (tid = worker index) and the owner
     merges at join, so no synchronization is needed. *)

  (* Trace ids are process-global and handed out with one atomic
     fetch-and-add so concurrent dispatchers can stamp requests without
     coordination.  Id 0 is reserved for "not traced". *)
  let next_id = Atomic.make 1
  let fresh_id () = Atomic.fetch_and_add next_id 1

  type event = { name : string; tid : int; start_us : float; dur_us : float }

  type buffer = {
    mutable events : event array;
    mutable len : int;
    default_tid : int;
  }

  let dummy_event = { name = ""; tid = 0; start_us = 0.0; dur_us = 0.0 }

  let create ?(tid = 0) () =
    { events = Array.make 64 dummy_event; len = 0; default_tid = tid }

  let length b = b.len

  (* Absolute microseconds, identical across domains, so spans recorded
     on different workers line up on one timeline. *)
  let now_us () = Unix.gettimeofday () *. 1e6

  let add ?tid b ~name ~start_us ~dur_us =
    let tid = match tid with Some t -> t | None -> b.default_tid in
    if b.len = Array.length b.events then begin
      let bigger = Array.make (2 * b.len) dummy_event in
      Array.blit b.events 0 bigger 0 b.len;
      b.events <- bigger
    end;
    b.events.(b.len) <- { name; tid; start_us; dur_us };
    b.len <- b.len + 1

  let span b name f =
    let t0 = now_us () in
    Fun.protect f ~finally:(fun () ->
        add b ~name ~start_us:t0 ~dur_us:(now_us () -. t0))

  let span_opt b name f =
    match b with None -> f () | Some b -> span b name f

  let merge_into ~dst src =
    for i = 0 to src.len - 1 do
      let e = src.events.(i) in
      add dst ~tid:e.tid ~name:e.name ~start_us:e.start_us ~dur_us:e.dur_us
    done

  let iter f b =
    for i = 0 to b.len - 1 do
      let e = b.events.(i) in
      f ~name:e.name ~tid:e.tid ~start_us:e.start_us ~dur_us:e.dur_us
    done

  let to_chrome_json ?(trace_id = 0) b =
    (* Complete ("ph":"X") events; [ts] is shifted to the earliest
       event so viewers aren't handed epoch-sized timestamps.  Nesting
       falls out of ts/dur containment per (pid, tid). *)
    let t0 = ref infinity in
    for i = 0 to b.len - 1 do
      if b.events.(i).start_us < !t0 then t0 := b.events.(i).start_us
    done;
    let t0 = if b.len = 0 then 0.0 else !t0 in
    let event e =
      Json.(Obj [ ("name", String e.name); ("cat", String "netembed"); ("ph", String "X");
                  ("ts", Float (round 1 (e.start_us -. t0))); ("dur", Float (round 1 e.dur_us));
                  ("pid", Int trace_id); ("tid", Int e.tid);
                  ("args", Obj [ ("trace_id", Int trace_id) ]) ])
    in
    Json.(to_string (Obj [ ("traceEvents", List (List.init b.len (fun i -> event b.events.(i)))) ]))
end

(* The one request clock: a single pair of clock reads feeds both the
   phase cell and, when the request is traced, a span with the same
   start and duration — so the two views of a request cannot drift.
   Exceptions still charge the time. *)
let time_phase cells ?trace phase f =
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      let i = Phase.index phase in
      cells.(i) <- cells.(i) +. dt;
      match trace with
      | None -> ()
      | Some b ->
          Trace.add b ~name:(Phase.name phase) ~start_us:(t0 *. 1e6)
            ~dur_us:(dt *. 1e6))

module Windowed = struct
  (* A sliding-window histogram: a ring of [Histogram.t] slices, each
     covering [window / slices] seconds of a coarse clock.  Observation
     lands in the slice for the current absolute slice number; slices
     whose stamp has fallen out of the window are cleared lazily on the
     next touch, so rotation costs nothing when idle.  Reads merge the
     live slices into a scratch histogram. *)

  type t = {
    slices : Histogram.t array;
    stamps : int array;  (* absolute slice number per slot; -1 = never used *)
    slice_span : float;
    window_s : float;
    clock : unit -> float;
    scale : float;  (* multiplier applied to values at render time *)
    merged_scratch : Histogram.t;
  }

  let create ?(clock = Unix.gettimeofday) ?(scale = 1.0) ~window ~slices () =
    if slices < 1 then invalid_arg "Telemetry.Windowed.create: slices < 1";
    if window <= 0.0 then invalid_arg "Telemetry.Windowed.create: window <= 0";
    {
      slices = Array.init slices (fun _ -> Histogram.make ());
      stamps = Array.make slices (-1);
      slice_span = window /. float_of_int slices;
      window_s = window;
      clock;
      scale;
      merged_scratch = Histogram.make ();
    }

  let slice_count t = Array.length t.slices
  let window t = t.window_s
  let scale t = t.scale
  let clock t = t.clock

  let abs_slice t = int_of_float (t.clock () /. t.slice_span)

  (* The histogram slot for absolute slice [s], recycled (reset and
     restamped) if it still holds an expired slice. *)
  let slot t s =
    let i = s mod Array.length t.slices in
    if t.stamps.(i) <> s then begin
      Histogram.reset t.slices.(i);
      t.stamps.(i) <- s
    end;
    t.slices.(i)

  let observe t v = Histogram.observe (slot t (abs_slice t)) v

  (* Merge every slice still inside the window into the scratch
     histogram.  The result is valid until the next [merged] call on
     the same value. *)
  let merged t =
    let now = abs_slice t in
    let n = Array.length t.slices in
    Histogram.reset t.merged_scratch;
    for i = 0 to n - 1 do
      let s = t.stamps.(i) in
      if s >= 0 && now - s < n then
        Histogram.merge_into ~dst:t.merged_scratch t.slices.(i)
    done;
    t.merged_scratch

  let count t = Histogram.count (merged t)
  let quantile t q = Histogram.quantile (merged t) q *. t.scale

  let merge_into ~dst src =
    if
      Array.length dst.slices <> Array.length src.slices
      || dst.slice_span <> src.slice_span
    then invalid_arg "Telemetry.Windowed.merge_into: mismatched window geometry";
    let now = abs_slice src in
    let n = Array.length src.slices in
    for i = 0 to n - 1 do
      let s = src.stamps.(i) in
      if s >= 0 && now - s < n then
        Histogram.merge_into ~dst:(slot dst s) src.slices.(i)
    done
end

module Registry = struct
  type metric =
    | Counter of Counter.t
    | Gauge of Gauge.t
    | Histogram of Histogram.t
    | Windowed of Windowed.t

  type entry = { name : string; labels : (string * string) list; help : string; metric : metric }

  type t = {
    by_key : (string, entry) Hashtbl.t;
    mutable order : string list;  (** registration order, newest first *)
    (* Registration, enumeration and cross-registry merges mutate the
       name table and must be safe from any domain: the concurrent
       front-end registers label variants (unsat causes, per-phase
       series) lazily from worker domains.  Metric *updates* stay
       lock-free single-writer/racy-reader as before — the lock only
       guards the table and whole-merge atomicity. *)
    lock : Mutex.t;
  }

  let create () = { by_key = Hashtbl.create 32; order = []; lock = Mutex.create () }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

  let valid_name n =
    n <> ""
    && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         n

  let escape_label v =
    String.concat ""
      (List.map
         (function
           | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
         (List.init (String.length v) (String.get v)))

  let render_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
        ^ "}"

  let key name labels = name ^ render_labels labels

  (* The table lookup/insert itself, callable with [t.lock] already
     held (the merge loop) or not (the public accessors). *)
  let register_unlocked t ?(help = "") ?(labels = []) name build describe =
    if not (valid_name name) then
      invalid_arg (Printf.sprintf "Telemetry.Registry: bad metric name %S" name);
    List.iter
      (fun (k, _) ->
        if not (valid_name k) then
          invalid_arg (Printf.sprintf "Telemetry.Registry: bad label name %S" k))
      labels;
    let labels = List.sort compare labels in
    let k = key name labels in
    match Hashtbl.find_opt t.by_key k with
    | Some e -> describe e.metric
    | None ->
        let metric = build () in
        Hashtbl.replace t.by_key k { name; labels; help; metric };
        t.order <- k :: t.order;
        describe metric

  let register t ?help ?labels name build describe =
    locked t (fun () -> register_unlocked t ?help ?labels name build describe)

  let counter t ?help ?labels name =
    register t ?help ?labels name
      (fun () -> Counter (Counter.make ()))
      (function
        | Counter c -> c
        | _ -> invalid_arg ("Telemetry.Registry: " ^ name ^ " is not a counter"))

  let gauge t ?help ?labels name =
    register t ?help ?labels name
      (fun () -> Gauge (Gauge.make ()))
      (function
        | Gauge g -> g
        | _ -> invalid_arg ("Telemetry.Registry: " ^ name ^ " is not a gauge"))

  let histogram t ?help ?labels name =
    register t ?help ?labels name
      (fun () -> Histogram (Histogram.make ()))
      (function
        | Histogram h -> h
        | _ -> invalid_arg ("Telemetry.Registry: " ^ name ^ " is not a histogram"))

  let windowed t ?help ?labels ?clock ?scale ~window ~slices name =
    register t ?help ?labels name
      (fun () -> Windowed (Windowed.create ?clock ?scale ~window ~slices ()))
      (function
        | Windowed w -> w
        | _ ->
            invalid_arg
              ("Telemetry.Registry: " ^ name ^ " is not a windowed histogram"))

  let entries t =
    locked t (fun () -> List.rev_map (fun k -> Hashtbl.find t.by_key k) t.order)

  (* Snapshot the source under its own lock, then apply under the
     destination's — never holding both, so two registries can merge
     into each other without deadlock.  Holding [dst.lock] across the
     whole loop makes each merge atomic with respect to other merges:
     two worker joins adding into the same destination counter cannot
     lose an update. *)
  let merge_into ~dst src =
    let src_entries = entries src in
    locked dst (fun () ->
        List.iter
          (fun e ->
            let unlocked describe build =
              register_unlocked dst ~help:e.help ~labels:e.labels e.name build
                describe
            in
            match e.metric with
            | Counter c ->
                Counter.merge_into
                  ~dst:
                    (unlocked
                       (function
                         | Counter c -> c
                         | _ ->
                             invalid_arg
                               ("Telemetry.Registry: " ^ e.name ^ " is not a counter"))
                       (fun () -> Counter (Counter.make ())))
                  c
            | Gauge g ->
                Gauge.merge_into
                  ~dst:
                    (unlocked
                       (function
                         | Gauge g -> g
                         | _ ->
                             invalid_arg
                               ("Telemetry.Registry: " ^ e.name ^ " is not a gauge"))
                       (fun () -> Gauge (Gauge.make ())))
                  g
            | Histogram h ->
                Histogram.merge_into
                  ~dst:
                    (unlocked
                       (function
                         | Histogram h -> h
                         | _ ->
                             invalid_arg
                               ("Telemetry.Registry: " ^ e.name
                              ^ " is not a histogram"))
                       (fun () -> Histogram (Histogram.make ())))
                  h
            | Windowed w ->
                Windowed.merge_into
                  ~dst:
                    (unlocked
                       (function
                         | Windowed w -> w
                         | _ ->
                             invalid_arg
                               ("Telemetry.Registry: " ^ e.name
                              ^ " is not a windowed histogram"))
                       (fun () ->
                         Windowed
                           (Windowed.create ~clock:(Windowed.clock w)
                              ~scale:(Windowed.scale w) ~window:(Windowed.window w)
                              ~slices:(Windowed.slice_count w) ())))
                  w)
          src_entries)

  (* Prometheus text format 0.0.4.  All samples of a metric family must
     form one contiguous block, so entries are grouped by name (in
     first-registration order) with HELP/TYPE emitted once per name —
     label variants share the header. *)
  let to_prometheus t =
    let buf = Buffer.create 1024 in
    let all = entries t in
    let names =
      List.fold_left
        (fun acc e -> if List.mem e.name acc then acc else e.name :: acc)
        [] all
      |> List.rev
    in
    let grouped =
      List.concat_map (fun n -> List.filter (fun e -> e.name = n) all) names
    in
    let seen_header = Hashtbl.create 16 in
    let header e kind =
      if not (Hashtbl.mem seen_header e.name) then begin
        Hashtbl.replace seen_header e.name ();
        if e.help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" e.name e.help);
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" e.name kind)
      end
    in
    List.iter
      (fun e ->
        match e.metric with
        | Counter c ->
            header e "counter";
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" e.name (render_labels e.labels) (Counter.value c))
        | Gauge g ->
            header e "gauge";
            Buffer.add_string buf
              (Printf.sprintf "%s%s %.17g\n" e.name (render_labels e.labels) (Gauge.value g))
        | Histogram h ->
            header e "histogram";
            let with_le le =
              render_labels (List.sort compare (("le", le) :: e.labels))
            in
            let cum = ref 0 in
            Histogram.fold_nonzero
              (fun upper occupancy () ->
                cum := !cum + occupancy;
                if upper < max_int then
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" e.name (with_le (string_of_int upper)) !cum))
              h ();
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" e.name (with_le "+Inf") (Histogram.count h));
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %d\n" e.name (render_labels e.labels) (Histogram.sum h));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" e.name (render_labels e.labels)
                 (Histogram.count h))
        | Windowed w ->
            (* A windowed histogram renders as a Prometheus summary:
               pre-computed quantiles over the sliding window, values
               scaled by the render multiplier (e.g. µs -> s). *)
            header e "summary";
            let m = Windowed.merged w in
            let sc = Windowed.scale w in
            Array.iter
              (fun (q, _) ->
                Buffer.add_string buf
                  (Printf.sprintf "%s%s %.9g\n" e.name
                     (render_labels
                        (List.sort compare
                           (("quantile", Printf.sprintf "%g" q) :: e.labels)))
                     (Histogram.quantile m q *. sc)))
              report_quantiles;
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %.9g\n" e.name (render_labels e.labels)
                 (float_of_int (Histogram.sum m) *. sc));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" e.name (render_labels e.labels)
                 (Histogram.count m)))
      grouped;
    Buffer.contents buf

  let quantiles quantile =
    Array.to_list (Array.map (fun (q, key) -> (key, Json.Float (quantile q))) report_quantiles)

  let histogram_json h =
    let bucket upper occupancy acc =
      Json.(List [ (if upper = max_int then String "+Inf" else Int upper); Int occupancy ]) :: acc
    in
    Json.(Obj ([ ("count", Int (Histogram.count h)); ("sum", Int (Histogram.sum h));
                 ("max", Int (Histogram.max_observed h)) ]
               @ quantiles (Histogram.quantile h)
               @ [ ("buckets", List (List.rev (Histogram.fold_nonzero bucket h []))) ]))

  let windowed_json w =
    let m = Windowed.merged w and sc = Windowed.scale w in
    Json.(Obj ([ ("count", Int (Histogram.count m));
                 ("sum", Float (float_of_int (Histogram.sum m) *. sc)) ]
               @ quantiles (fun q -> Histogram.quantile m q *. sc)
               @ [ ("window_s", Float (Windowed.window w)) ]))

  let to_json t =
    let value e =
      match e.metric with
      | Counter c -> Json.Int (Counter.value c)
      | Gauge g -> Json.Float (Gauge.value g)
      | Histogram h -> histogram_json h
      | Windowed w -> windowed_json w
    in
    Json.to_string (Json.Obj (List.map (fun e -> (key e.name e.labels, value e)) (entries t)))
end

let default_registry = Registry.create ()

type snapshot = {
  algorithm : string;
  outcome : string;
      (** "complete" (space exhausted), "unsat" (complete with zero
          mappings: proved infeasible), "partial" / "exhausted" (budget
          or timeout hit — gave up, nothing proved) *)
  visited : int;
  found : int;
  elapsed_s : float;
  time_to_first_s : float option;
  constraint_evals : int;
  domains_built : int;
  intersections : int;
  backtracks : int;
  max_depth : int;
  depth_histogram : Histogram.t;
  domain_size_histogram : Histogram.t;
  phases : float array;
}

let snapshot_to_json s =
  (* Phases in canonical order; an array shorter than [Phase.count]
     (a partially-filled snapshot from a lower layer) renders only the
     phases it carries. *)
  let phases =
    List.init (min (Array.length s.phases) Phase.count) (fun i ->
        (Phase.name (Phase.of_index i), Json.Float s.phases.(i)))
  in
  let time_to_first =
    Option.to_list (Option.map (fun t -> ("time_to_first_s", Json.Float t)) s.time_to_first_s)
  in
  Json.(to_string (Obj ([ ("algorithm", String s.algorithm); ("outcome", String s.outcome);
                          ("visited", Int s.visited); ("found", Int s.found);
                          ("elapsed_s", Float s.elapsed_s) ]
                        @ time_to_first
                        @ [ ("constraint_evals", Int s.constraint_evals);
                            ("domains_built", Int s.domains_built);
                            ("intersections", Int s.intersections);
                            ("backtracks", Int s.backtracks); ("max_depth", Int s.max_depth);
                            ("phases", Obj phases);
                            ("depth_histogram", Registry.histogram_json s.depth_histogram);
                            ("domain_size_histogram",
                             Registry.histogram_json s.domain_size_histogram) ])))

module Problem = Netembed_core.Problem
module Filter = Netembed_core.Filter
module Dfs = Netembed_core.Dfs
module Budget = Netembed_core.Budget
module Mapping = Netembed_core.Mapping
module Engine = Netembed_core.Engine
module Domain_store = Netembed_core.Domain_store
module Rng = Netembed_rng.Rng
module Graph = Netembed_graph.Graph
module Bitset = Netembed_bitset.Bitset
module Telemetry = Netembed_telemetry.Telemetry

type strategy =
  | Static
  | Work_stealing

(* Scratch domains are mutable single-searcher state: every spawned
   domain builds its own store inside the domain, so the read-only
   problem and filter are shared but scratch never is. *)
let private_store problem =
  Domain_store.create
    ~universe:(Graph.node_count problem.Problem.host)
    ~depths:(Graph.node_count problem.Problem.query)

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* The runtime supports at most ~128 live domains; requests beyond that
   would make [Domain.spawn] fail outright. *)
let clamp_domains k = max 1 (min k 126)

(* Each spawned domain records into a registry it owns (single-writer),
   filled from its private store and budget after its search returns;
   the spawner merges them into the caller's registry at join.  Metric
   names match the sequential engine's, so merged counts accumulate
   onto the same series. *)
let domain_registry ~algorithm ~budget ~store ~found =
  let reg = Telemetry.Registry.create () in
  let labels = [ ("algorithm", algorithm) ] in
  let visited =
    Telemetry.Registry.counter reg ~labels ~help:"Search-tree nodes visited"
      "netembed_visited_nodes_total"
  in
  Telemetry.Counter.add visited (Budget.visited budget);
  let found_c =
    Telemetry.Registry.counter reg ~labels ~help:"Feasible mappings found"
      "netembed_mappings_found_total"
  in
  Telemetry.Counter.add found_c found;
  let depth_h =
    Telemetry.Registry.histogram reg ~labels
      ~help:"Visits per search depth" "netembed_search_depth"
  in
  Telemetry.Histogram.merge_into ~dst:depth_h (Domain_store.depth_hist store);
  let size_h =
    Telemetry.Registry.histogram reg ~labels
      ~help:"Candidate-domain cardinality per computed domain"
      "netembed_domain_size"
  in
  Telemetry.Histogram.merge_into ~dst:size_h (Domain_store.domain_size_hist store);
  reg

(* Round-robin partition of a sorted candidate array into [k] sorted
   shares. *)
let partition k roots =
  let shares = Array.make k [] in
  Array.iteri (fun i r -> shares.(i mod k) <- r :: shares.(i mod k)) roots;
  Array.map (fun l -> Array.of_list (List.rev l)) shares

type stats = {
  mappings : Mapping.t list;
  outcome : Engine.outcome;
  elapsed : float;
  visited_by_domain : int array;
  steals : int;
  frames : int;
  domain_registries : Telemetry.Registry.t list;
  domain_stats : Domain_store.stats list;
}

let visited_total st = Array.fold_left ( + ) 0 st.visited_by_domain

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

(* A mutex-protected resizable ring.  The owner pushes and pops at the
   back (LIFO — depth-first on its own subtree, keeping the frontier
   small); thieves take from the front (FIFO — the shallowest frames,
   which root the largest remaining subtrees, so one steal buys the
   most work).  Frames are coarse (a frame below the split horizon is a
   whole sequential subtree), so a plain mutex is nowhere near
   contended enough to matter; lock-free Chase-Lev is not worth the
   memory-model subtlety here. *)
module Deque = struct
  type 'a t = {
    lock : Mutex.t;
    dummy : 'a;
    mutable buf : 'a array;
    mutable head : int;  (* index of the oldest element *)
    mutable len : int;
    (* The deques are allocated back to back (one Array.init), and a
       bare 6-word record lets two deques' hot [head]/[len] words land
       in the same cache line — every steal probe then bounces the
       owner's line.  The padding spreads successive records past a
       64-byte line. *)
    mutable pad0 : int;
    mutable pad1 : int;
    mutable pad2 : int;
    mutable pad3 : int;
    mutable pad4 : int;
    mutable pad5 : int;
    mutable pad6 : int;
    mutable pad7 : int;
  }

  let create dummy =
    {
      lock = Mutex.create ();
      dummy;
      buf = Array.make 16 dummy;
      head = 0;
      len = 0;
      pad0 = 0;
      pad1 = 0;
      pad2 = 0;
      pad3 = 0;
      pad4 = 0;
      pad5 = 0;
      pad6 = 0;
      pad7 = 0;
    }

  (* Keep the flambda-less compiler from dropping the padding fields as
     unused. *)
  let _touch t = t.pad0 + t.pad1 + t.pad2 + t.pad3 + t.pad4 + t.pad5 + t.pad6 + t.pad7

  let grow t =
    let n = Array.length t.buf in
    let nb = Array.make (2 * n) t.dummy in
    for i = 0 to t.len - 1 do
      nb.(i) <- t.buf.((t.head + i) mod n)
    done;
    t.buf <- nb;
    t.head <- 0

  let push_back t x =
    Mutex.lock t.lock;
    if t.len = Array.length t.buf then grow t;
    t.buf.((t.head + t.len) mod Array.length t.buf) <- x;
    t.len <- t.len + 1;
    Mutex.unlock t.lock

  let pop_back t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        t.len <- t.len - 1;
        let i = (t.head + t.len) mod Array.length t.buf in
        let x = t.buf.(i) in
        t.buf.(i) <- t.dummy;
        Some x
      end
    in
    Mutex.unlock t.lock;
    r

  let steal_front t =
    Mutex.lock t.lock;
    let r =
      if t.len = 0 then None
      else begin
        let x = t.buf.(t.head) in
        t.buf.(t.head) <- t.dummy;
        t.head <- (t.head + 1) mod Array.length t.buf;
        t.len <- t.len - 1;
        Some x
      end
    in
    Mutex.unlock t.lock;
    r
end

(* ------------------------------------------------------------------ *)
(* Schedulers                                                          *)
(* ------------------------------------------------------------------ *)

let trivial_stats ~mappings ~outcome ~elapsed ~k =
  {
    mappings;
    outcome;
    elapsed;
    visited_by_domain = Array.make k 0;
    steals = 0;
    frames = 0;
    domain_registries = [];
    domain_stats = [];
  }

(* Static root partitioning (the seed strategy): split the root
   candidates round-robin, one domain per NON-EMPTY share.  Empty
   shares (domains > root candidates) spawn nothing — they contribute
   an exhausted-by-construction subtree, so the outcome stays
   [Complete]; spawning them anyway would waste domains and, past the
   runtime's ~128-domain ceiling, crash. *)
let static_run ?trace ~k ~timeout ~registry problem filter =
  let t0 = Unix.gettimeofday () in
  let order = Filter.order filter in
  let roots = Bitset.to_array (Filter.node_candidates_bits filter order.(0)) in
  let shares =
    partition k roots |> Array.to_list
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  if Array.length shares = 0 then
    (* No root candidate at all: the search space is empty, which a
       sequential run proves by exhausting zero branches. *)
    trivial_stats ~mappings:[] ~outcome:Engine.Complete
      ~elapsed:(Unix.gettimeofday () -. t0)
      ~k
  else begin
    let run i share () =
      (* Worker-owned trace buffer (tid = worker index + 1; the
         dispatching domain is tid 0), merged by the spawner at join so
         the request's Chrome trace carries every domain's spans. *)
      let tbuf =
        match trace with
        | None -> None
        | Some _ -> Some (Telemetry.Trace.create ~tid:(i + 1) ())
      in
      let acc = ref [] in
      let store = private_store problem in
      let budget =
        Budget.make ?timeout ~depth_counts:(Domain_store.depth_counts store) ()
      in
      let exhausted =
        try
          Telemetry.Trace.span_opt tbuf "static_share" (fun () ->
              Dfs.search_frame ~store problem filter
                ~frame:{ Dfs.prefix = [||]; candidates = share }
                ~candidate_order:Dfs.Ascending ~budget
                ~on_solution:(fun m ->
                  acc := m :: !acc;
                  `Continue));
          false
        with Budget.Exhausted -> true
      in
      let mappings = List.rev !acc in
      let reg =
        domain_registry ~algorithm:"ECF" ~budget ~store
          ~found:(List.length mappings)
      in
      ( mappings,
        exhausted,
        reg,
        Budget.visited budget,
        Domain_store.stats store,
        tbuf )
    in
    let handles = Array.mapi (fun i share -> Domain.spawn (run i share)) shares in
    let results = Array.map Domain.join handles in
    Array.iter
      (fun (_, _, reg, _, _, tbuf) ->
        Telemetry.Registry.merge_into ~dst:registry reg;
        match (trace, tbuf) with
        | Some dst, Some src -> Telemetry.Trace.merge_into ~dst src
        | _ -> ())
      results;
    let mappings =
      List.concat_map (fun (m, _, _, _, _, _) -> m) (Array.to_list results)
    in
    let any_exhausted = Array.exists (fun (_, e, _, _, _, _) -> e) results in
    let outcome =
      if not any_exhausted then Engine.Complete
      else if mappings = [] then Engine.Inconclusive
      else Engine.Partial
    in
    {
      mappings;
      outcome;
      elapsed = Unix.gettimeofday () -. t0;
      visited_by_domain = Array.map (fun (_, _, _, v, _, _) -> v) results;
      steals = 0;
      frames = 0;
      domain_registries =
        Array.to_list (Array.map (fun (_, _, r, _, _, _) -> r) results);
      domain_stats = Array.to_list (Array.map (fun (_, _, _, _, s, _) -> s) results);
    }
  end

(* Work-stealing scheduler.  The tree is cut into resumable frames
   ({!Dfs.frame}): frames shallower than the split horizon are expanded
   one level (children pushed on the owner's deque, stealable); frames
   at the horizon run to exhaustion as ordinary sequential subtree
   searches.  [pending] counts frames created but not yet fully
   processed — push increments before the frame becomes visible, the
   processing worker decrements after its children (if any) are pushed,
   so [pending = 0] is a race-free global-completion certificate.

   A worker whose budget is exhausted keeps draining frames (dropping
   them unsearched, still decrementing [pending]) so siblings never
   wait on a dead deque; the run is [Partial]/[Inconclusive] then
   anyway.  Idle workers back off to [Unix.sleepf] after a burst of
   failed steals: on machines with fewer cores than domains a spinning
   thief would stall the stop-the-world minor GC of the workers that
   actually hold frames. *)
let ws_run ?trace ~k ~timeout ~split_depth ~registry problem filter =
  let t0 = Unix.gettimeofday () in
  let order = Filter.order filter in
  let nq = Array.length order in
  let split_limit = max 0 (min split_depth (nq - 1)) in
  let dummy = { Dfs.prefix = [||]; candidates = [||] } in
  let deques = Array.init k (fun _ -> Deque.create dummy) in
  let pending = Atomic.make 0 in
  let roots = Bitset.to_array (Filter.node_candidates_bits filter order.(0)) in
  let shares = partition k roots in
  Array.iteri
    (fun i share ->
      if Array.length share > 0 then begin
        Atomic.incr pending;
        Deque.push_back deques.(i) { Dfs.prefix = [||]; candidates = share }
      end)
    shares;
  let run i () =
    (* Worker-owned trace buffer (tid = worker index + 1; the
       dispatching domain is tid 0).  Frames are coarse — a frame at
       the split horizon is a whole sequential subtree — so one span
       per frame stays cheap, and stolen frames record on the thief's
       tid while still belonging to the originating request's trace. *)
    let tbuf =
      match trace with
      | None -> None
      | Some _ -> Some (Telemetry.Trace.create ~tid:(i + 1) ())
    in
    let store = private_store problem in
    let budget =
      Budget.make ?timeout ~depth_counts:(Domain_store.depth_counts store) ()
    in
    let acc = ref [] in
    let steals = ref 0 in
    let backoffs = ref 0 in
    let frames_expanded = ref 0 in
    let exhausted = ref false in
    let my = deques.(i) in
    let handle fr =
      if not !exhausted then
        try
          if Dfs.frame_depth fr >= split_limit then
            Telemetry.Trace.span_opt tbuf "search_frame" (fun () ->
                Dfs.search_frame ~store problem filter ~frame:fr
                  ~candidate_order:Dfs.Ascending ~budget
                  ~on_solution:(fun m ->
                    acc := m :: !acc;
                    `Continue))
          else begin
            let children =
              Telemetry.Trace.span_opt tbuf "expand_frame" (fun () ->
                  Dfs.expand_frame ~store problem filter fr
                    ~on_solution:(fun m -> acc := m :: !acc))
            in
            incr frames_expanded;
            List.iter
              (fun c ->
                Atomic.incr pending;
                Deque.push_back my c)
              children
          end
        with Budget.Exhausted -> exhausted := true
    in
    (* The decrement must survive any exception out of [handle]: a lost
       decrement would leave [pending] positive forever and every other
       worker spinning. *)
    let process fr =
      Fun.protect
        ~finally:(fun () -> ignore (Atomic.fetch_and_add pending (-1)))
        (fun () -> handle fr)
    in
    let rec loop failed_steals =
      match Deque.pop_back my with
      | Some fr ->
          process fr;
          loop 0
      | None ->
          if Atomic.get pending = 0 then ()
          else begin
            let stolen = ref None in
            let j = ref 1 in
            while !stolen = None && !j < k do
              (match Deque.steal_front deques.((i + !j) mod k) with
              | Some fr -> stolen := Some fr
              | None -> ());
              incr j
            done;
            match !stolen with
            | Some fr ->
                incr steals;
                process fr;
                loop 0
            | None ->
                (* Short spin burst, then exponentially longer sleeps
                   (0.2 ms doubling to a 3.2 ms cap).  On machines with
                   fewer cores than domains the thieves time-slice
                   against the workers that hold frames: a thief that
                   spins (or wakes every 0.2 ms) steals the productive
                   worker's quantum and stalls its minor-GC barriers —
                   the measured work-stealing regression at 4-8 domains
                   on scarce cores.  Sleeping thieves cost at most one
                   backoff period of wake-up latency when work does
                   appear. *)
                if failed_steals < 16 then Domain.cpu_relax ()
                else begin
                  incr backoffs;
                  let shift = min 4 ((failed_steals - 16) / 8) in
                  Unix.sleepf (0.0002 *. float_of_int (1 lsl shift))
                end;
                loop (failed_steals + 1)
          end
    in
    loop 0;
    let mappings = List.rev !acc in
    let reg =
      domain_registry ~algorithm:"ECF" ~budget ~store ~found:(List.length mappings)
    in
    let steals_c =
      Telemetry.Registry.counter reg
        ~help:"Search frames stolen from sibling deques by idle domains"
        "netembed_steals_total"
    in
    Telemetry.Counter.add steals_c !steals;
    (* Per-domain labeled series ride the same merge: the scheduler's
       imbalance (who stole, who slept) survives the join instead of
       collapsing into one total. *)
    Telemetry.Counter.add
      (Telemetry.Registry.counter reg
         ~help:"Search frames stolen from sibling deques by idle domains"
         ~labels:[ ("domain", string_of_int i) ]
         "netembed_steals_total")
      !steals;
    Telemetry.Counter.add
      (Telemetry.Registry.counter reg
         ~help:"Sleep backoffs taken by idle domains after failed steal sweeps"
         "netembed_steal_backoffs_total")
      !backoffs;
    Telemetry.Counter.add
      (Telemetry.Registry.counter reg
         ~help:"Sleep backoffs taken by idle domains after failed steal sweeps"
         ~labels:[ ("domain", string_of_int i) ]
         "netembed_steal_backoffs_total")
      !backoffs;
    ( mappings,
      !exhausted,
      reg,
      Budget.visited budget,
      !steals,
      !frames_expanded,
      Domain_store.stats store,
      tbuf )
  in
  let handles = Array.init k (fun i -> Domain.spawn (run i)) in
  let results = Array.map Domain.join handles in
  Array.iter
    (fun (_, _, reg, _, _, _, _, tbuf) ->
      Telemetry.Registry.merge_into ~dst:registry reg;
      match (trace, tbuf) with
      | Some dst, Some src -> Telemetry.Trace.merge_into ~dst src
      | _ -> ())
    results;
  let mappings =
    List.concat_map (fun (m, _, _, _, _, _, _, _) -> m) (Array.to_list results)
  in
  let any_exhausted = Array.exists (fun (_, e, _, _, _, _, _, _) -> e) results in
  let outcome =
    if not any_exhausted then Engine.Complete
    else if mappings = [] then Engine.Inconclusive
    else Engine.Partial
  in
  {
    mappings;
    outcome;
    elapsed = Unix.gettimeofday () -. t0;
    visited_by_domain = Array.map (fun (_, _, _, v, _, _, _, _) -> v) results;
    steals = Array.fold_left (fun a (_, _, _, _, s, _, _, _) -> a + s) 0 results;
    frames = Array.fold_left (fun a (_, _, _, _, _, f, _, _) -> a + f) 0 results;
    domain_registries =
      Array.to_list (Array.map (fun (_, _, r, _, _, _, _, _) -> r) results);
    domain_stats =
      Array.to_list (Array.map (fun (_, _, _, _, _, _, s, _) -> s) results);
  }

let ecf_all_stats ?(strategy = Work_stealing) ?domains ?timeout ?(split_depth = 2)
    ?filter ?(registry = Telemetry.default_registry) ?trace problem =
  let k =
    clamp_domains (match domains with Some d -> d | None -> default_domains ())
  in
  Problem.prepare problem;
  let t0 = Unix.gettimeofday () in
  let filter = match filter with Some f -> f | None -> Filter.build problem in
  let order = Filter.order filter in
  if Array.length order = 0 then
    trivial_stats
      ~mappings:[ Mapping.of_array [||] ]
      ~outcome:Engine.Complete
      ~elapsed:(Unix.gettimeofday () -. t0)
      ~k
  else
    match strategy with
    | Static -> static_run ?trace ~k ~timeout ~registry problem filter
    | Work_stealing ->
        ws_run ?trace ~k ~timeout ~split_depth ~registry problem filter

let ecf_all ?strategy ?domains ?timeout ?split_depth ?filter ?registry ?trace
    problem =
  let st =
    ecf_all_stats ?strategy ?domains ?timeout ?split_depth ?filter ?registry ?trace
      problem
  in
  (st.mappings, st.outcome)

let rwb_race ?domains ?timeout ?(seed = 42) ?(rendezvous = fun _ -> ())
    ?(registry = Telemetry.default_registry) problem =
  let k =
    clamp_domains (match domains with Some d -> d | None -> default_domains ())
  in
  Problem.prepare problem;
  let filter = Filter.build problem in
  let winner : Mapping.t option Atomic.t = Atomic.make None in
  let run i () =
    let store = private_store problem in
    let budget =
      Budget.make ?timeout
        ~cancelled:(fun () -> Atomic.get winner <> None)
        ~depth_counts:(Domain_store.depth_counts store) ()
    in
    let found = ref 0 in
    rendezvous i;
    (try
       Dfs.search ~store problem filter
         ~candidate_order:(Dfs.Random (Rng.make (seed + (1000 * i))))
         ~budget
         ~on_solution:(fun m ->
           incr found;
           ignore (Atomic.compare_and_set winner None (Some m));
           `Stop)
     with Budget.Exhausted -> ());
    domain_registry ~algorithm:"RWB" ~budget ~store ~found:!found
  in
  let handles = Array.init k (fun i -> Domain.spawn (run i)) in
  let regs = Array.map Domain.join handles in
  Array.iter (fun reg -> Telemetry.Registry.merge_into ~dst:registry reg) regs;
  Atomic.get winner

let speedup_probe ?domains problem =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let seq =
    time (fun () ->
        Engine.run ~options:{ Engine.default_options with Engine.mode = Engine.All }
          Engine.ECF problem)
  in
  let par = time (fun () -> ecf_all ?domains problem) in
  (seq, par)

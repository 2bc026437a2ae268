module Bitset = Netembed_bitset.Bitset
module Telemetry = Netembed_telemetry.Telemetry
module Explain = Netembed_explain.Explain

type t = {
  universe : int;
  depths : int;
  scratch : Bitset.t array;
  order_bufs : int array array;
  used : Bitset.t;
  mutable domains_built : int;
  mutable intersections : int;
  (* Telemetry state, preallocated here so instrumented searches stay
     allocation-free in steady state.  Search depth is bounded by
     [depths] and domain cardinality by [universe], so both
     distributions are kept as exact count arrays — one increment per
     visited node, no histogram call on the hot path — and folded into
     log-bucketed Telemetry histograms only at snapshot time. *)
  depth_counts : int array;
  domain_size_counts : int array;
  backtracks : int array;
  wipeouts : int array;
      (** per-depth count of domains that emptied at build time — the
          denominator of backtrack blame *)
  mutable last_used : int;
      (** most recent [mark_used] host, -1 before any — the "chosen
          host" the flight recorder stamps onto events *)
  mutable recorder : Explain.Recorder.t option;
}

type stats = {
  universe : int;
  depths : int;
  scratch_words : int;
  domains_built : int;
  intersections : int;
  backtracks : int;
}

let create ~universe ~depths : t =
  if universe < 0 || depths < 0 then invalid_arg "Domain_store.create";
  {
    universe;
    depths;
    scratch = Array.init depths (fun _ -> Bitset.create universe);
    order_bufs = Array.init depths (fun _ -> Array.make (max 1 universe) 0);
    used = Bitset.create universe;
    domains_built = 0;
    intersections = 0;
    (* +1: the search ticks once more at depth = depths when a complete
       assignment is reached. *)
    depth_counts = Array.make (depths + 1) 0;
    domain_size_counts = Array.make (universe + 1) 0;
    backtracks = Array.make (max 1 depths) 0;
    wipeouts = Array.make (max 1 depths) 0;
    last_used = -1;
    recorder = None;
  }

let universe (t : t) = t.universe
let depths (t : t) = t.depths
let used (t : t) = t.used
let mark_used (t : t) r =
  t.last_used <- r;
  Bitset.add t.used r

let attach_recorder (t : t) r = t.recorder <- Some r
let release_used (t : t) r = Bitset.remove t.used r
let reset (t : t) = Bitset.clear t.used
let domain (t : t) ~depth = t.scratch.(depth)

let load (t : t) ~depth src =
  t.domains_built <- t.domains_built + 1;
  let dst = t.scratch.(depth) in
  Bitset.blit ~dst src;
  dst

let load_array (t : t) ~depth a =
  t.domains_built <- t.domains_built + 1;
  let dst = t.scratch.(depth) in
  Bitset.clear dst;
  Array.iter (Bitset.add dst) a;
  dst

let load_empty (t : t) ~depth =
  t.domains_built <- t.domains_built + 1;
  let dst = t.scratch.(depth) in
  Bitset.clear dst;
  dst

let restrict (t : t) ~depth src =
  t.intersections <- t.intersections + 1;
  Bitset.inter_into ~dst:t.scratch.(depth) src

let depth_counts (t : t) = t.depth_counts

let hist_of_counts counts =
  let h = Telemetry.Histogram.make () in
  Array.iteri (fun v n -> Telemetry.Histogram.observe_n h v n) counts;
  h

let depth_hist (t : t) = hist_of_counts t.depth_counts
let domain_size_hist (t : t) = hist_of_counts t.domain_size_counts

(* Shared tail of the two domain-observation entry points: one store
   for the size count, one increment behind the card = 0 check, and a
   single option branch for the flight recorder — nothing here grows
   with explain mode off. *)
let observed (t : t) ~depth card =
  t.domain_size_counts.(card) <- t.domain_size_counts.(card) + 1;
  if card = 0 && depth < Array.length t.wipeouts then
    t.wipeouts.(depth) <- t.wipeouts.(depth) + 1;
  (match t.recorder with
  | None -> ()
  | Some rec_ ->
      if card = 0 then Explain.Recorder.wipeout rec_ ~depth ~host:t.last_used
      else Explain.Recorder.visit rec_ ~depth ~host:t.last_used ~size:card);
  card

let observe_domain (t : t) ~depth =
  ignore (observed t ~depth (Bitset.cardinal t.scratch.(depth)))

(* Used-host subtraction fused with [observe_domain] for the DFS hot
   path: the diff pass already touches every word, so the domain size
   falls out of it for free instead of costing a second walk per
   visited node. *)
let exclude_used_observed (t : t) ~depth =
  observed t ~depth (Bitset.diff_into_card ~dst:t.scratch.(depth) t.used)

let note_backtrack (t : t) ~depth =
  t.backtracks.(depth) <- t.backtracks.(depth) + 1;
  match t.recorder with
  | None -> ()
  | Some rec_ -> Explain.Recorder.backtrack rec_ ~depth

let backtracks_by_depth (t : t) = t.backtracks
let backtrack_total (t : t) = Array.fold_left ( + ) 0 t.backtracks
let wipeouts_by_depth (t : t) = t.wipeouts

let order_buffer (t : t) ~depth = t.order_bufs.(depth)

let fill_order_buffer (t : t) ~depth =
  let buf = t.order_bufs.(depth) in
  let dom = t.scratch.(depth) in
  (* next_set_bit walk rather than [Bitset.iter]: no closure allocated
     per call — this runs once per visited node under Random order. *)
  let k = ref 0 in
  let r = ref (Bitset.next_set_bit dom 0) in
  while !r >= 0 do
    buf.(!k) <- !r;
    incr k;
    r := Bitset.next_set_bit dom (!r + 1)
  done;
  !k

let stats (t : t) : stats =
  let words_of b = (Bitset.universe_size b + 61) / 62 in
  {
    universe = t.universe;
    depths = t.depths;
    scratch_words =
      Array.fold_left (fun acc b -> acc + max 1 (words_of b)) (max 1 (words_of t.used)) t.scratch;
    domains_built = t.domains_built;
    intersections = t.intersections;
    backtracks = backtrack_total t;
  }

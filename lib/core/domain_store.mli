(** Bitset-backed candidate domains for the search core.

    Expression (2) of the paper — the candidate set of the next query
    node as an intersection of filter cells, minus already-used host
    nodes — is the hot loop of ECF/RWB.  A [Domain_store] owns one
    scratch bitset per search depth over the host-node universe, plus a
    per-depth index buffer for randomized enumeration and the shared
    [used] set, so the whole permutations-tree walk performs O(words)
    in-place set algebra and is allocation-free in steady state.

    A store is single-searcher state: parallel domains share the
    read-only {!Filter} but must each own a store (see
    {!Netembed_parallel}). *)

module Bitset = Netembed_bitset.Bitset

type t

val create : universe:int -> depths:int -> t
(** [create ~universe ~depths] preallocates [depths] scratch domains
    (and index buffers) over host universe [\[0, universe)].
    @raise Invalid_argument when either is negative. *)

val universe : t -> int
val depths : t -> int

val reset : t -> unit
(** Clear the [used] set (the scratch domains are overwritten by the
    next [load]).  Cumulative statistics are retained. *)

(** {1 The used-host set} *)

val used : t -> Bitset.t
(** The set of host nodes currently holding an assignment.  Exposed
    read-only by convention; mutate through {!mark_used} /
    {!release_used}. *)

val mark_used : t -> int -> unit
val release_used : t -> int -> unit

(** {1 Scratch domains}

    The domain at each depth is built by one [load*] call followed by
    any number of [restrict] calls and usually one
    {!exclude_used_observed};
    it stays valid until the next [load*] at the same depth. *)

val domain : t -> depth:int -> Bitset.t
(** The scratch bitset of [depth] in its current state. *)

val load : t -> depth:int -> Bitset.t -> Bitset.t
(** Overwrite the scratch domain with a copy of the given set (e.g. a
    filter cell or node-candidate set) and return it. *)

val load_array : t -> depth:int -> int array -> Bitset.t
(** Overwrite the scratch domain with the elements of the array — how
    a search resumes from a frame's candidate set ({!Dfs.search_frame}). *)

val load_empty : t -> depth:int -> Bitset.t

val restrict : t -> depth:int -> Bitset.t -> unit
(** Intersect the scratch domain with the given set in place. *)

(** {1 Randomized enumeration} *)

val order_buffer : t -> depth:int -> int array
(** The preallocated index buffer of [depth] (length = universe).
    Meaningful up to the count returned by the latest
    {!fill_order_buffer}. *)

val fill_order_buffer : t -> depth:int -> int
(** Write the elements of the scratch domain of [depth] into its index
    buffer (ascending) and return how many there are.  RWB shuffles
    that prefix in place instead of copying the candidate set. *)

(** {1 Telemetry}

    All telemetry state is preallocated by {!create}, so the search
    cores can record into it without allocating in steady state: depth
    is bounded by [depths] and domain cardinality by [universe], so both
    distributions live in exact count arrays (one increment per visited
    node).  The counters survive {!reset} (they are cumulative per
    store); {!depth_hist} and {!domain_size_hist} fold them into fresh
    log-bucketed histograms, which parallel searchers merge at join via
    {!Netembed_telemetry.Telemetry.Histogram.merge_into}. *)

val depth_counts : t -> int array
(** Per-depth visit counters, length [depths + 1] (a complete
    assignment ticks once at [depth = depths]) — fed by
    {!Budget.tick_at} when the engine attaches them to the budget.
    Owned by the store; read-only by convention. *)

val depth_hist : t -> Netembed_telemetry.Telemetry.Histogram.t
(** Distribution of search depths over visited nodes: a fresh histogram
    folded from {!depth_counts} at call time. *)

val domain_size_hist : t -> Netembed_telemetry.Telemetry.Histogram.t
(** Distribution of candidate-domain cardinalities at build time — fed
    by {!observe_domain}; a fresh histogram folded at call time. *)

val observe_domain : t -> depth:int -> unit
(** Record the cardinality of the current scratch domain of [depth]
    into {!domain_size_hist}. *)

val exclude_used_observed : t -> depth:int -> int
(** Subtract the [used] set from the scratch domain in place and
    {!observe_domain} it, in a single pass over the domain's words —
    what the DFS hot path calls per visited node.
    Returns the resulting cardinality (0 = wipeout), which the explain
    path uses for cause attribution; plain searches ignore it. *)

val note_backtrack : t -> depth:int -> unit
(** Count one exhausted candidate enumeration at [depth] (the searcher
    returning to its parent). *)

val backtracks_by_depth : t -> int array
(** The per-depth backtrack counters (owned by the store; read-only by
    convention). *)

val wipeouts_by_depth : t -> int array
(** Per-depth counts of candidate domains found empty at build time —
    together with {!backtracks_by_depth}, the raw material of the
    certificate's hot-spot attribution. *)

val attach_recorder : t -> Netembed_explain.Explain.Recorder.t -> unit
(** Route domain observations ({!observe_domain} /
    {!exclude_used_observed} as sampled visits and wipeouts,
    {!note_backtrack} as backtracks) into a flight recorder.  Costs one
    option branch per observation when never attached. *)

(** {1 Statistics} *)

type stats = {
  universe : int;
  depths : int;
  scratch_words : int;  (** words held by the scratch pool (incl. [used]) *)
  domains_built : int;  (** [load*] calls — one per visited search node with candidates *)
  intersections : int;  (** [restrict] calls — filter-cell intersections performed *)
  backtracks : int;  (** {!note_backtrack} calls — exhausted enumerations *)
}

val stats : t -> stats

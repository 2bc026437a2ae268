(** The shared depth-first search over the permutations tree used by
    both ECF and RWB (paper, sections V-A and V-B).

    Query nodes are examined in the Lemma-1 order of the filter matrix.
    The candidate set of the node at each depth is the intersection of
    the filter cells of its already-assigned query neighbours
    (expression (2)), within its node-level candidates (expression (1))
    and minus already-used host nodes.  ECF enumerates candidates in
    ascending order (deterministic, exhaustive); RWB enumerates them in
    uniformly random order — "by virtue of the randomness with which
    candidate mappings are selected, and the backtracking-nature of the
    search" — and is normally run in first-match mode.

    Candidate domains are bitsets over the host universe, computed
    in-place into a {!Domain_store} scratch pool: one [blit], O(depth)
    [inter_into]/[diff_into] per visited node, no allocation.  One
    domain computation serves every entry point, with or without blame.
    The seed sorted-array implementation, the reference of the
    differential tests and the representation-ablation bench, lives
    with them in [test/oracle]. *)

type candidate_order =
  | Ascending
  | Random of Netembed_rng.Rng.t

type frame = {
  prefix : int array;
      (** Hosts assigned to the first [Array.length prefix] positions of
          the search order ([prefix.(i)] hosts [order.(i)]). *)
  candidates : int array;
      (** Sorted remaining candidate hosts for the order position at
          [Array.length prefix], already excluding the prefix hosts. *)
}
(** A resumable search frame: a node of the permutations tree together
    with the not-yet-tried candidates below it.  Frames with the same
    prefix and disjoint candidate sets — or frames whose prefixes
    diverge — root disjoint subtrees, so a parallel scheduler may search
    them independently and the union of the per-frame result sets equals
    the sequential search. *)

val frame_depth : frame -> int
(** Number of already-assigned order positions ([Array.length prefix]). *)

val expand_frame :
  ?store:Domain_store.t ->
  Problem.t ->
  Filter.t ->
  frame ->
  on_solution:(Mapping.t -> unit) ->
  frame list
(** One-level expansion: one child frame per candidate of the split
    node, each carrying the candidate set of the next order position
    under that assignment (computed exactly as {!search} would).
    Children with empty candidate sets are dropped.  When the split node
    is the last order position, every candidate completes a mapping and
    is emitted through [on_solution] instead; the returned list is then
    empty.  [store] as in {!search} (reset on entry; must not be shared
    with a concurrent searcher).  Does not consume budget. *)

val search_frame :
  ?store:Domain_store.t ->
  ?blame:Netembed_explain.Explain.Blame.t ->
  Problem.t ->
  Filter.t ->
  frame:frame ->
  candidate_order:candidate_order ->
  budget:Budget.t ->
  on_solution:(Mapping.t -> [ `Continue | `Stop ]) ->
  unit
(** Runs the subtree rooted at [frame] to exhaustion: the prefix hosts
    are pre-assigned (and marked used), the split node enumerates
    exactly [frame.candidates], and deeper domains are recomputed as in
    {!search}.  Same contract as {!search} otherwise.
    @raise Budget.Exhausted when the budget runs out. *)

val search :
  ?store:Domain_store.t ->
  ?blame:Netembed_explain.Explain.Blame.t ->
  Problem.t ->
  Filter.t ->
  candidate_order:candidate_order ->
  budget:Budget.t ->
  on_solution:(Mapping.t -> [ `Continue | `Stop ]) ->
  unit
(** Runs to exhaustion of the (pruned) permutations tree, calling
    [on_solution] on every feasible mapping found; stops early if the
    callback answers [`Stop].

    [blame], when given, attributes every domain wipeout to a cause:
    the query edge whose filter cell emptied the intersection, or host
    contention when only the used-host subtraction did.  Without it the
    search reads no pre-subtraction cardinality and records nothing.
    To search a subset of the first node's candidates, run
    {!search_frame} on a frame with an empty prefix.

    [store] supplies the scratch-domain pool, amortizing it across
    repeated searches; it is [reset] on entry.  When omitted, a private
    store is created.  Parallel searchers must pass one store per
    domain — stores are single-searcher state.
    @raise Invalid_argument when [store] has the wrong universe size or
    fewer depths than query nodes.
    @raise Budget.Exhausted when the budget runs out. *)

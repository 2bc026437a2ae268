open Netembed_graph
module Rng = Netembed_rng.Rng
module Bitset = Netembed_bitset.Bitset
module Explain = Netembed_explain.Explain

type candidate_order =
  | Ascending
  | Random of Rng.t

type frame = {
  prefix : int array;
  candidates : int array;
}

let frame_depth fr = Array.length fr.prefix

exception Stop_search

(* Position of each query node in the search order, to find which
   neighbours are already assigned at a given depth; then per depth the
   list of already-assigned neighbour query nodes. *)
let assigned_neighbours_table (p : Problem.t) order nq =
  let position = Array.make (max 1 nq) 0 in
  Array.iteri (fun pos q -> position.(q) <- pos) order;
  Array.init nq (fun depth ->
      let q = order.(depth) in
      List.filter_map
        (fun (w, _) -> if position.(w) < depth then Some w else None)
        (Problem.query_neighbours p q)
      |> List.sort_uniq compare |> Array.of_list)

(* Intersection of the filter cells of the already-assigned neighbours
   [nbrs] of query node [q], loaded into the store's scratch bitset at
   [depth] (expression (2)) — or [q]'s node-level candidates when no
   neighbour is assigned yet (expression (1)).  Returns the neighbour
   whose cell was applied last, which is the one that emptied the
   intersection when it ended empty, or -1 when no neighbour is
   assigned.  Used hosts are NOT subtracted here; callers follow with
   [exclude_used_observed].  All in-place and closure-free: cell
   lookups go through the exception variant so no [Some] is boxed per
   lookup, and the neighbour is an int. *)
let load_intersection store f ~assignment ~nbrs ~depth ~q =
  let n_nbrs = Array.length nbrs in
  if n_nbrs = 0 then begin
    ignore (Domain_store.load store ~depth (Filter.node_candidates_bits f q));
    -1
  end
  else begin
    let w0 = nbrs.(0) in
    match Filter.cell_bits_exn f ~q_assigned:w0 ~r_assigned:assignment.(w0) ~q_next:q with
    | exception Not_found ->
        ignore (Domain_store.load_empty store ~depth);
        w0
    | cell ->
        ignore (Domain_store.load store ~depth cell);
        (* Intersect progressively; bail out on empty. *)
        let dom = Domain_store.domain store ~depth in
        let last = ref w0 in
        let i = ref 1 in
        while !i < n_nbrs && not (Bitset.is_empty dom) do
          let w = nbrs.(!i) in
          (match
             Filter.cell_bits_exn f ~q_assigned:w ~r_assigned:assignment.(w) ~q_next:q
           with
          | exception Not_found -> ignore (Domain_store.load_empty store ~depth)
          | cell -> Domain_store.restrict store ~depth cell);
          last := w;
          incr i
        done;
        !last
  end

(* The entry checks shared by [search_core] and [expand_frame]: the
   store (private, or the caller's, validated and reset) and the
   assignment with [prefix]'s hosts placed on the first order
   positions and marked used. *)
let prepare ~fn ?store (p : Problem.t) order prefix =
  let nq = Graph.node_count p.query in
  let nr = Graph.node_count p.host in
  let store =
    match store with
    | None -> Domain_store.create ~universe:nr ~depths:nq
    | Some s ->
        if Domain_store.universe s <> nr then invalid_arg (fn ^ ": store universe mismatch");
        if Domain_store.depths s < nq then invalid_arg (fn ^ ": store too shallow");
        Domain_store.reset s;
        s
  in
  let assignment = Array.make (max 1 nq) (-1) in
  Array.iteri
    (fun i h ->
      assignment.(order.(i)) <- h;
      Domain_store.mark_used store h)
    prefix;
  (store, assignment)

(* The search proper, generalized to resume from a [frame]: the hosts in
   [start.prefix] are pre-assigned to the first [start_depth] order
   positions and the candidate set at [start_depth] is taken verbatim
   from [start.candidates] instead of being recomputed.  [search] is the
   [start_depth = 0] special case; [search_frame] hands the parallel
   scheduler a way to run any stolen subtree to exhaustion. *)
let search_core ~(start : frame option) ?store ?blame (p : Problem.t) (f : Filter.t)
    ~candidate_order ~budget ~on_solution =
  let nq = Graph.node_count p.query in
  let order = Filter.order f in
  let start_depth = match start with None -> 0 | Some fr -> frame_depth fr in
  if nq > 0 && start_depth >= nq then
    invalid_arg "Dfs.search_core: frame depth beyond query";
  let store, assignment =
    prepare ~fn:"Dfs.search" ?store p order
      (match start with None -> [||] | Some fr -> fr.prefix)
  in
  let assigned_neighbours = assigned_neighbours_table p order nq in
  (* Candidate domain for the node at [depth], computed into the store's
     scratch bitset: neighbour-cell intersection (or the frame's
     candidate set at the resume depth), then subtract used hosts.
     Enumeration below walks [next_set_bit] instead of passing a closure
     to [iter]; the steady-state allocation of the whole search is the
     solution callback's mapping.

     With [blame], a wipeout is attributed to the neighbour whose
     filter cell emptied the intersection (the last one applied, when
     the intersection is empty), or, when the intersection survived and
     only the used-host subtraction killed it, to host contention (with
     the count of contended candidates).  Wipeouts from an empty
     expression-(1) set carry no new information (the filter's own
     blame pass covers them), so they attribute nothing here. *)
  let compute_domain depth =
    let last =
      match start with
      | Some fr when depth = start_depth ->
          ignore (Domain_store.load_array store ~depth fr.candidates);
          -1
      | Some _ | None ->
          load_intersection store f ~assignment ~nbrs:assigned_neighbours.(depth) ~depth
            ~q:order.(depth)
    in
    (match blame with
    | None -> ignore (Domain_store.exclude_used_observed store ~depth)
    | Some bl ->
        let pre_card = Bitset.cardinal (Domain_store.domain store ~depth) in
        if Domain_store.exclude_used_observed store ~depth = 0 then begin
          let q = order.(depth) in
          if pre_card = 0 then begin
            if last >= 0 then
              Explain.Blame.eliminate bl ~q (Explain.Cause.Edge_constraint (q, last))
          end
          else Explain.Blame.record bl ~q Explain.Cause.Host_contention pre_card
        end);
    Domain_store.domain store ~depth
  in
  let rec go depth =
    Budget.tick_at budget ~depth;
    if depth = nq then begin
      match on_solution (Mapping.of_array (Array.copy assignment)) with
      | `Continue -> ()
      | `Stop -> raise Stop_search
    end
    else begin
      let q = order.(depth) in
      let dom = compute_domain depth in
      (* The domain already excludes used hosts, and [used] is restored
         to its entry state between sibling candidates, so no per-
         candidate membership check is needed.  The domain bitset at
         this depth is untouched by deeper recursion (each depth owns
         its scratch), so [next_set_bit] resumes correctly after the
         recursive call.  No unwind protection: on abort (stop /
         budget) the whole search state is discarded. *)
      match candidate_order with
      | Ascending ->
          let r = ref (Bitset.next_set_bit dom 0) in
          while !r >= 0 do
            let h = !r in
            assignment.(q) <- h;
            Domain_store.mark_used store h;
            go (depth + 1);
            Domain_store.release_used store h;
            assignment.(q) <- -1;
            r := Bitset.next_set_bit dom (h + 1)
          done;
          Domain_store.note_backtrack store ~depth
      | Random rng ->
          let buf = Domain_store.order_buffer store ~depth in
          let count = Domain_store.fill_order_buffer store ~depth in
          Rng.shuffle_prefix rng buf count;
          for i = 0 to count - 1 do
            let h = buf.(i) in
            assignment.(q) <- h;
            Domain_store.mark_used store h;
            go (depth + 1);
            Domain_store.release_used store h;
            assignment.(q) <- -1
          done;
          Domain_store.note_backtrack store ~depth
    end
  in
  if nq = 0 then ignore (on_solution (Mapping.of_array [||]))
  else match go start_depth with () -> () | exception Stop_search -> ()

let search ?store ?blame p f ~candidate_order ~budget ~on_solution =
  search_core ~start:None ?store ?blame p f ~candidate_order ~budget ~on_solution

let search_frame ?store ?blame p f ~frame ~candidate_order ~budget ~on_solution =
  search_core ~start:(Some frame) ?store ?blame p f ~candidate_order ~budget
    ~on_solution

(* One-level frame expansion: assign each candidate of the frame's split
   node in turn and materialize the resulting candidate set of the next
   order position as a child frame.  Children with empty domains are
   dropped (the subtree is a wipeout either way), and when the split
   node is the last one each candidate completes a mapping, which is
   emitted through [on_solution] instead.  Subtrees under distinct
   children are disjoint by construction — they fix different hosts for
   the split node — so a scheduler may hand them to different workers
   and the union of their result sets equals the sequential search. *)
let expand_frame ?store (p : Problem.t) (f : Filter.t) frame ~on_solution =
  let nq = Graph.node_count p.query in
  let order = Filter.order f in
  let d = frame_depth frame in
  if nq = 0 then begin
    on_solution (Mapping.of_array [||]);
    []
  end
  else if d >= nq then invalid_arg "Dfs.expand_frame: frame depth beyond query"
  else begin
    let store, assignment = prepare ~fn:"Dfs.expand_frame" ?store p order frame.prefix in
    let q = order.(d) in
    if d + 1 = nq then begin
      (* Split node is the last order position: every remaining
         candidate completes a mapping. *)
      Array.iter
        (fun c ->
          assignment.(q) <- c;
          on_solution (Mapping.of_array (Array.copy assignment)))
        frame.candidates;
      []
    end
    else begin
      let assigned_neighbours = assigned_neighbours_table p order nq in
      let child_depth = d + 1 in
      let nbrs = assigned_neighbours.(child_depth) in
      let qn = order.(child_depth) in
      let children = ref [] in
      Array.iter
        (fun c ->
          assignment.(q) <- c;
          Domain_store.mark_used store c;
          ignore (load_intersection store f ~assignment ~nbrs ~depth:child_depth ~q:qn);
          let card = Domain_store.exclude_used_observed store ~depth:child_depth in
          if card > 0 then begin
            let buf = Domain_store.order_buffer store ~depth:child_depth in
            let count = Domain_store.fill_order_buffer store ~depth:child_depth in
            children :=
              {
                prefix = Array.append frame.prefix [| c |];
                candidates = Array.sub buf 0 count;
              }
              :: !children
          end;
          Domain_store.release_used store c;
          assignment.(q) <- -1)
        frame.candidates;
      List.rev !children
    end
  end

(* The seed search, kept as the reference for the differential tests and
   the representation-ablation bench: candidate sets are fresh
   sorted-array merges at every visited node.  With [Ascending] it
   visits the same tree in the same order as [Dfs.search], so answer
   sets and budget-limited prefixes coincide.  With [Random] the RNG is
   consumed differently (used hosts are shuffled then skipped rather
   than excluded first), so individual first matches may differ. *)

open Netembed_core
module Graph = Netembed_graph.Graph
module Bitset = Netembed_bitset.Bitset
module Rng = Netembed_rng.Rng

(* Sorted-array copies of a filter's cells, built once before any
   search reads them: [cells.(a * nq + b).(r)] is [F[a, r, b]], and
   directions the query does not link hold [[||]]. *)
type views = { filter : Filter.t; cells : int array array array; nodes : int array array }

let views (p : Problem.t) f =
  let nq = Graph.node_count p.query and nr = Graph.node_count p.host in
  let cells = Array.make (nq * nq) [||] in
  for a = 0 to nq - 1 do
    List.iter
      (fun (b, _) ->
        cells.((a * nq) + b) <-
          Array.init nr (fun r ->
              match Filter.cell_bits f ~q_assigned:a ~r_assigned:r ~q_next:b with
              | Some c -> Bitset.to_array c
              | None -> [||]))
      (Problem.query_neighbours p a)
  done;
  let nodes = Array.init nq (fun q -> Bitset.to_array (Filter.node_candidates_bits f q)) in
  { filter = f; cells; nodes }

let inter a b =
  let out = Array.make (min (Array.length a) (Array.length b)) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  Array.sub out 0 !k

exception Stop_search

let search v (p : Problem.t) ~candidate_order ~budget ~on_solution =
  let nq = Graph.node_count p.query in
  let order = Filter.order v.filter in
  let assignment = Array.make (max 1 nq) (-1) in
  let used = Array.make (max 1 (Graph.node_count p.host)) false in
  let position = Array.make (max 1 nq) 0 in
  Array.iteri (fun pos q -> position.(q) <- pos) order;
  let assigned_neighbours =
    Array.init nq (fun depth ->
        Problem.query_neighbours p order.(depth)
        |> List.filter_map (fun (w, _) -> if position.(w) < depth then Some w else None)
        |> List.sort_uniq compare)
  in
  (* Candidate set for the node at [depth]: intersect filter cells of
     assigned neighbours (smallest first), or node-level candidates when
     none is assigned yet.  [used] is filtered during enumeration. *)
  let candidates depth =
    let q = order.(depth) in
    let cell w =
      let row = v.cells.((w * nq) + q) in
      if assignment.(w) < Array.length row then row.(assignment.(w)) else [||]
    in
    match
      List.map cell assigned_neighbours.(depth)
      |> List.sort (fun a b -> compare (Array.length a) (Array.length b))
    with
    | [] -> v.nodes.(q)
    | first :: rest ->
        List.fold_left (fun acc c -> if acc = [||] then acc else inter acc c) first rest
  in
  let rec go depth =
    Budget.tick budget;
    if depth = nq then begin
      match on_solution (Mapping.of_array (Array.copy assignment)) with
      | `Continue -> ()
      | `Stop -> raise Stop_search
    end
    else begin
      let q = order.(depth) in
      let try_candidate r =
        if not used.(r) then begin
          assignment.(q) <- r;
          used.(r) <- true;
          go (depth + 1);
          used.(r) <- false;
          assignment.(q) <- -1
        end
      in
      match candidate_order with
      | Dfs.Ascending -> Array.iter try_candidate (candidates depth)
      | Dfs.Random rng ->
          let shuffled = Array.copy (candidates depth) in
          Rng.shuffle_in_place rng shuffled;
          Array.iter try_candidate shuffled
    end
  in
  if nq = 0 then ignore (on_solution (Mapping.of_array [||]))
  else match go 0 with () -> () | exception Stop_search -> ()

module Rng = Netembed_rng.Rng

let random_node rng g =
  let n = Graph.node_count g in
  if n = 0 then invalid_arg "Sample.random_node: empty graph";
  Rng.int rng n

let random_connected_nodes rng g n =
  if n <= 0 then invalid_arg "Sample.random_connected_nodes: n <= 0";
  if n > Graph.node_count g then
    invalid_arg "Sample.random_connected_nodes: n > node count";
  (* Frontier expansion from a random seed; restart if the seed's
     component is too small. *)
  let attempts = 4 * Graph.node_count g in
  let rec try_from attempt =
    if attempt > attempts then
      invalid_arg "Sample.random_connected_nodes: no component of that size";
    let seed = random_node rng g in
    let in_set = Hashtbl.create n in
    Hashtbl.replace in_set seed ();
    let frontier = ref [] in
    let push_neighbours v =
      List.iter
        (fun (w, _) -> if not (Hashtbl.mem in_set w) then frontier := w :: !frontier)
        (Graph.succ g v)
    in
    push_neighbours seed;
    let rec grow count =
      if count = n then true
      else begin
        let cands =
          Array.of_list (List.filter (fun w -> not (Hashtbl.mem in_set w)) !frontier)
        in
        if Array.length cands = 0 then false
        else begin
          let v = Rng.pick rng cands in
          Hashtbl.replace in_set v ();
          frontier := List.filter (fun w -> w <> v) !frontier;
          push_neighbours v;
          grow (count + 1)
        end
      end
    in
    if grow 1 then begin
      let sel = Array.make n (-1) in
      let i = ref 0 in
      Hashtbl.iter
        (fun v () ->
          sel.(!i) <- v;
          incr i)
        in_set;
      Array.sort compare sel;
      sel
    end
    else try_from (attempt + 1)
  in
  try_from 1

let random_connected_subgraph rng g ~n ~extra_edges =
  let sel = random_connected_nodes rng g n in
  let induced, orig = Graph.induced_subgraph g sel in
  (* Random spanning tree: BFS over a randomly relabelled frontier.  We
     shuffle adjacency exploration by shuffling node ids via a random
     start and randomized neighbour order. *)
  let n_nodes = Graph.node_count induced in
  let seen = Array.make n_nodes false in
  let tree = ref [] in
  let start = Rng.int rng n_nodes in
  let stack = ref [ start ] in
  seen.(start) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        let nbrs = Array.of_list (Graph.succ induced v) in
        Rng.shuffle_in_place rng nbrs;
        Array.iter
          (fun (w, e) ->
            if not seen.(w) then begin
              seen.(w) <- true;
              tree := e :: !tree;
              stack := w :: !stack
            end)
          nbrs
  done;
  let tree_edges = !tree in
  let in_tree = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace in_tree e ()) tree_edges;
  let other =
    Graph.fold_edges
      (fun e _ _ acc -> if Hashtbl.mem in_tree e then acc else e :: acc)
      induced []
  in
  let other = Array.of_list other in
  Rng.shuffle_in_place rng other;
  let extra = min extra_edges (Array.length other) in
  let keep = Array.append (Array.of_list tree_edges) (Array.sub other 0 extra) in
  (* Rebuild on the induced node set with only the kept edges, then map
     node ids back to the original graph. *)
  let all_nodes = Graph.nodes induced in
  let sub, _ = Graph.spanning_subgraph induced all_nodes keep in
  (sub, orig)

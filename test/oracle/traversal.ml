(* Breadth- and depth-first walks and connectivity: the tests check
   generated topologies and sampled subgraphs for connectedness with
   these, independently of the samplers' own frontier walks. *)

module Graph = Netembed_graph.Graph

let neighbours_undirected g v =
  match Graph.kind g with
  | Graph.Undirected -> Graph.succ g v
  | Graph.Directed -> Graph.succ g v @ Graph.pred g v

let bfs_order g start =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  let order = Queue.create () in
  let out = ref [] in
  seen.(start) <- true;
  Queue.push start order;
  while not (Queue.is_empty order) do
    let v = Queue.pop order in
    out := v :: !out;
    List.iter
      (fun (w, _) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.push w order
        end)
      (Graph.succ g v)
  done;
  Array.of_list (List.rev !out)

let dfs_order g start =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  let out = ref [] in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      out := v :: !out;
      List.iter (fun (w, _) -> go w) (Graph.succ g v)
    end
  in
  go start;
  Array.of_list (List.rev !out)

let component_of g start =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  let stack = ref [ start ] in
  let out = ref [] in
  seen.(start) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        out := v :: !out;
        List.iter
          (fun (w, _) ->
            if not seen.(w) then begin
              seen.(w) <- true;
              stack := w :: !stack
            end)
          (neighbours_undirected g v)
  done;
  let arr = Array.of_list !out in
  Array.sort compare arr;
  arr

let components g =
  let n = Graph.node_count g in
  let assigned = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not assigned.(v) then begin
      let comp = component_of g v in
      Array.iter (fun w -> assigned.(w) <- true) comp;
      comps := comp :: !comps
    end
  done;
  let arr = Array.of_list (List.rev !comps) in
  arr

let is_connected g = Graph.node_count g = 0 || Array.length (components g) = 1

let spanning_tree_edges g start =
  let n = Graph.node_count g in
  let seen = Array.make n false in
  let order = Queue.create () in
  let tree = ref [] in
  seen.(start) <- true;
  Queue.push start order;
  while not (Queue.is_empty order) do
    let v = Queue.pop order in
    List.iter
      (fun (w, e) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          tree := e :: !tree;
          Queue.push w order
        end)
      (Graph.succ g v)
  done;
  List.rev !tree

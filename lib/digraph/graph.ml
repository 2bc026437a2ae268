module Attrs = Netembed_attr.Attrs

type kind = Directed | Undirected
type node = int
type edge = int

type t = {
  kind : kind;
  graph_name : string;
  mutable graph_attrs : Attrs.t;
  node_attrs : Attrs.t Vec.t;
  edge_attrs : Attrs.t Vec.t;
  edge_src : int Vec.t;
  edge_dst : int Vec.t;
  (* Adjacency: out.(v) = (neighbour, edge) list in reverse insertion
     order; undirected graphs record each edge in both lists. *)
  out_adj : (int * int) list Vec.t;
  in_adj : (int * int) list Vec.t;
  (* Lazy (u, v) -> edge-list index for O(1) amortized lookup; built on
     first use and invalidated by later mutation. *)
  mutable pair_index : (int * int, int list) Hashtbl.t option;
}

let create ?(kind = Undirected) ?(name = "") () =
  {
    kind;
    graph_name = name;
    graph_attrs = Attrs.empty;
    node_attrs = Vec.create ~dummy:Attrs.empty;
    edge_attrs = Vec.create ~dummy:Attrs.empty;
    edge_src = Vec.create ~dummy:(-1);
    edge_dst = Vec.create ~dummy:(-1);
    out_adj = Vec.create ~dummy:[];
    in_adj = Vec.create ~dummy:[];
    pair_index = None;
  }

let kind t = t.kind
let name t = t.graph_name
let node_count t = Vec.length t.node_attrs
let edge_count t = Vec.length t.edge_attrs

let add_node t attrs =
  let id = node_count t in
  Vec.push t.node_attrs attrs;
  Vec.push t.out_adj [];
  Vec.push t.in_adj [];
  id

let check_node t v ctx =
  if v < 0 || v >= node_count t then invalid_arg (ctx ^ ": unknown node")

let add_edge t u v attrs =
  check_node t u "Graph.add_edge";
  check_node t v "Graph.add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  t.pair_index <- None;
  let id = edge_count t in
  Vec.push t.edge_attrs attrs;
  Vec.push t.edge_src u;
  Vec.push t.edge_dst v;
  Vec.set t.out_adj u ((v, id) :: Vec.get t.out_adj u);
  Vec.set t.in_adj v ((u, id) :: Vec.get t.in_adj v);
  (match t.kind with
  | Undirected ->
      Vec.set t.out_adj v ((u, id) :: Vec.get t.out_adj v);
      Vec.set t.in_adj u ((v, id) :: Vec.get t.in_adj u)
  | Directed -> ());
  id

let set_node_attrs t v attrs =
  check_node t v "Graph.set_node_attrs";
  Vec.set t.node_attrs v attrs

let set_edge_attrs t e attrs =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.set_edge_attrs: unknown edge";
  Vec.set t.edge_attrs e attrs

let set_graph_attrs t attrs = t.graph_attrs <- attrs

let node_attrs t v =
  check_node t v "Graph.node_attrs";
  Vec.get t.node_attrs v

let edge_attrs t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge_attrs: unknown edge";
  Vec.get t.edge_attrs e

let graph_attrs t = t.graph_attrs

let endpoints t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.endpoints: unknown edge";
  (Vec.get t.edge_src e, Vec.get t.edge_dst e)

let edge_source t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge_source: unknown edge";
  Vec.get t.edge_src e

let edge_target t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge_target: unknown edge";
  Vec.get t.edge_dst e

let succ t v =
  check_node t v "Graph.succ";
  Vec.get t.out_adj v

let pred t v =
  check_node t v "Graph.pred";
  Vec.get t.in_adj v

let degree t v = List.length (succ t v)
let out_degree = degree

let in_degree t v =
  check_node t v "Graph.in_degree";
  List.length (Vec.get t.in_adj v)

let pair_index t =
  match t.pair_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (max 16 (2 * edge_count t)) in
      let record u v e =
        Hashtbl.replace idx (u, v)
          (e :: Option.value ~default:[] (Hashtbl.find_opt idx (u, v)))
      in
      for e = edge_count t - 1 downto 0 do
        let u = Vec.get t.edge_src e and v = Vec.get t.edge_dst e in
        record u v e;
        match t.kind with Undirected -> record v u e | Directed -> ()
      done;
      t.pair_index <- Some idx;
      idx

let edges_between t u v =
  check_node t u "Graph.edges_between";
  check_node t v "Graph.edges_between";
  Option.value ~default:[] (Hashtbl.find_opt (pair_index t) (u, v))

let find_edge t u v =
  match edges_between t u v with [] -> None | e :: _ -> Some e

let mem_edge t u v = Option.is_some (find_edge t u v)

let iter_nodes f t =
  for v = 0 to node_count t - 1 do
    f v
  done

let iter_edges f t =
  for e = 0 to edge_count t - 1 do
    f e (Vec.get t.edge_src e) (Vec.get t.edge_dst e)
  done

let fold_nodes f t init =
  let acc = ref init in
  iter_nodes (fun v -> acc := f v !acc) t;
  !acc

let fold_edges f t init =
  let acc = ref init in
  iter_edges (fun e u v -> acc := f e u v !acc) t;
  !acc

let nodes t = Array.init (node_count t) (fun i -> i)

let edges t =
  Array.init (edge_count t) (fun e -> (e, Vec.get t.edge_src e, Vec.get t.edge_dst e))

let copy t =
  let g = create ~kind:t.kind ~name:t.graph_name () in
  g.graph_attrs <- t.graph_attrs;
  iter_nodes (fun v -> ignore (add_node g (node_attrs t v))) t;
  iter_edges (fun e u v -> ignore (add_edge g u v (edge_attrs t e))) t;
  g

let induced_subgraph t sel =
  let n = node_count t in
  let new_id = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      check_node t v "Graph.induced_subgraph";
      if new_id.(v) <> -1 then invalid_arg "Graph.induced_subgraph: duplicate node";
      new_id.(v) <- i)
    sel;
  let g = create ~kind:t.kind ~name:t.graph_name () in
  Array.iter (fun v -> ignore (add_node g (node_attrs t v))) sel;
  iter_edges
    (fun e u v ->
      if new_id.(u) <> -1 && new_id.(v) <> -1 then
        ignore (add_edge g new_id.(u) new_id.(v) (edge_attrs t e)))
    t;
  (g, Array.copy sel)

let spanning_subgraph t sel keep_edges =
  let n = node_count t in
  let new_id = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      check_node t v "Graph.spanning_subgraph";
      if new_id.(v) <> -1 then invalid_arg "Graph.spanning_subgraph: duplicate node";
      new_id.(v) <- i)
    sel;
  let g = create ~kind:t.kind ~name:t.graph_name () in
  Array.iter (fun v -> ignore (add_node g (node_attrs t v))) sel;
  Array.iter
    (fun e ->
      let u, v = endpoints t e in
      if new_id.(u) = -1 || new_id.(v) = -1 then
        invalid_arg "Graph.spanning_subgraph: edge outside selection";
      ignore (add_edge g new_id.(u) new_id.(v) (edge_attrs t e)))
    keep_edges;
  (g, Array.copy sel)

let density t =
  let n = float_of_int (node_count t) in
  let m = float_of_int (edge_count t) in
  if node_count t < 2 then 0.0
  else
    match t.kind with
    | Undirected -> m /. (n *. (n -. 1.0) /. 2.0)
    | Directed -> m /. (n *. (n -. 1.0))

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d nodes, %d edges (%s)"
    (if t.graph_name = "" then "<graph>" else t.graph_name)
    (node_count t) (edge_count t)
    (match t.kind with Undirected -> "undirected" | Directed -> "directed")

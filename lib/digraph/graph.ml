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
  (* Lazy pair index, built on first use, dropped by [add_node] and
     [add_edge], and shared by [copy] (its arrays are never written). *)
  mutable pair_index : pair_index option;
}

(* CSR over node pairs: row [u] is [off.(u) .. off.(u+1) - 1]; [nbr]
   holds the row's neighbours in ascending order and [eid] the edge
   ids, ascending within one neighbour.  Undirected graphs store both
   orientations. *)
and pair_index = {
  off : int array;
  nbr : int array;
  eid : int array;
  deg : int array;  (* row lengths: [degree] of every node *)
  in_deg : int array;  (* [in_degree]; the same array when undirected *)
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
  t.pair_index <- None;
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

(* Two stable counting sorts of the half-edges, taken in edge-id order:
   by target, then by source.  Each row comes out sorted by neighbour
   and, within one neighbour, by edge id. *)
let build_csr t =
  let n = node_count t in
  let iter_half f =
    for e = 0 to edge_count t - 1 do
      let u = Vec.get t.edge_src e and v = Vec.get t.edge_dst e in
      f u v e;
      match t.kind with Undirected -> f v u e | Directed -> ()
    done
  in
  let offsets count =
    let off = Array.make (n + 1) 0 in
    count (fun k -> off.(k + 1) <- off.(k + 1) + 1);
    for k = 1 to n do
      off.(k) <- off.(k) + off.(k - 1)
    done;
    off
  in
  let by_dst = offsets (fun bump -> iter_half (fun _ v _ -> bump v)) in
  let h = by_dst.(n) in
  let src = Array.make h 0 and ids = Array.make h 0 in
  let fill = Array.sub by_dst 0 n in
  iter_half (fun u v e ->
      let i = fill.(v) in
      src.(i) <- u;
      ids.(i) <- e;
      fill.(v) <- i + 1);
  let off = offsets (fun bump -> Array.iter bump src) in
  let nbr = Array.make h 0 and eid = Array.make h 0 in
  let fill = Array.sub off 0 n in
  for v = 0 to n - 1 do
    for i = by_dst.(v) to by_dst.(v + 1) - 1 do
      let j = fill.(src.(i)) in
      nbr.(j) <- v;
      eid.(j) <- ids.(i);
      fill.(src.(i)) <- j + 1
    done
  done;
  let row_lengths off = Array.init n (fun u -> off.(u + 1) - off.(u)) in
  let deg = row_lengths off in
  let in_deg = match t.kind with Undirected -> deg | Directed -> row_lengths by_dst in
  { off; nbr; eid; deg; in_deg }

let pair_index t =
  match t.pair_index with
  | Some idx -> idx
  | None ->
      let idx = build_csr t in
      t.pair_index <- Some idx;
      idx

let build_pair_index t = ignore (pair_index t)
let degrees t = (pair_index t).deg
let in_degrees t = (pair_index t).in_deg

(* The first slot of row [u] whose neighbour is not below [v]. *)
let lower_bound { off; nbr; _ } u v =
  let lo = ref off.(u) and hi = ref off.(u + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if nbr.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

let edges_between t u v =
  check_node t u "Graph.edges_between";
  check_node t v "Graph.edges_between";
  let idx = pair_index t in
  let first = lower_bound idx u v and stop = idx.off.(u + 1) in
  let last = ref first in
  while !last < stop && idx.nbr.(!last) = v do
    incr last
  done;
  let acc = ref [] in
  for i = !last - 1 downto first do
    acc := idx.eid.(i) :: !acc
  done;
  !acc

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
  g.pair_index <- t.pair_index;
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

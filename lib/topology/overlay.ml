open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng

type mesh = Full_mesh | Nearest of int

let delay_weight g e =
  Option.value ~default:1.0 (Attrs.float "avgDelay" (Graph.edge_attrs g e))

let build rng ~underlay ~nodes ~mesh =
  let n = Graph.node_count underlay in
  if nodes < 2 then invalid_arg "Overlay.build: nodes < 2";
  if nodes > n then invalid_arg "Overlay.build: more overlay nodes than routers";
  (match mesh with
  | Nearest k when k < 1 -> invalid_arg "Overlay.build: Nearest k < 1"
  | Nearest _ | Full_mesh -> ());
  (* Sample routers, retrying until all mutually reachable (guaranteed
     to terminate on connected underlays; bounded retries otherwise). *)
  let pick () = Rng.sample_without_replacement rng nodes n in
  let rec sample_reachable attempt =
    if attempt > 50 then invalid_arg "Overlay.build: underlay too disconnected";
    let routers = pick () in
    let dist, _ = Paths.dijkstra underlay ~weight:(delay_weight underlay) routers.(0) in
    if Array.for_all (fun r -> Float.is_finite dist.(r)) routers then routers
    else sample_reachable (attempt + 1)
  in
  let routers = sample_reachable 1 in
  let overlay = Graph.create ~name:(Printf.sprintf "overlay-%d" nodes) () in
  Array.iter
    (fun r ->
      ignore
        (Graph.add_node overlay
           (Attrs.add "router" (Value.Int r) (Graph.node_attrs underlay r))))
    routers;
  (* All-pairs (over the sample) delays and hop counts. *)
  let delays = Array.make_matrix nodes nodes infinity in
  let hops = Array.make_matrix nodes nodes 0 in
  Array.iteri
    (fun i ri ->
      let dist, parent = Paths.dijkstra underlay ~weight:(delay_weight underlay) ri in
      Array.iteri
        (fun j rj ->
          if i <> j then begin
            delays.(i).(j) <- dist.(rj);
            (* Count hops along the parent chain. *)
            let rec count v acc = if v = ri || v < 0 then acc else count parent.(v) (acc + 1) in
            hops.(i).(j) <- count rj 0
          end)
        routers)
    routers;
  let link i j =
    let d = delays.(i).(j) in
    ignore
      (Graph.add_edge overlay i j
         (Attrs.of_list
            [
              ("minDelay", Value.Float (0.9 *. d));
              ("avgDelay", Value.Float d);
              ("maxDelay", Value.Float (1.1 *. d));
              ("hops", Value.Int hops.(i).(j));
            ]))
  in
  (match mesh with
  | Full_mesh ->
      for i = 0 to nodes - 1 do
        for j = i + 1 to nodes - 1 do
          link i j
        done
      done
  | Nearest k ->
      (* Union of each node's k nearest peers (deduplicated). *)
      let wanted = Hashtbl.create (nodes * k) in
      for i = 0 to nodes - 1 do
        let peers = Array.init nodes (fun j -> j) in
        Array.sort (fun a b -> Float.compare delays.(i).(a) delays.(i).(b)) peers;
        let added = ref 0 in
        Array.iter
          (fun j ->
            if j <> i && !added < k then begin
              incr added;
              Hashtbl.replace wanted (min i j, max i j) ()
            end)
          peers
      done;
      Hashtbl.iter (fun (i, j) () -> link i j) wanted);
  overlay

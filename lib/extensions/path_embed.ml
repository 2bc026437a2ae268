open Netembed_graph
open Netembed_core
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value

type closure = {
  augmented : Graph.t;
  (* closure edge id -> underlying host node path *)
  paths : (Graph.edge, Graph.node list) Hashtbl.t;
}

let combine_path_attrs base attrs_list =
  (* Delays add along the path; bandwidth is the bottleneck. *)
  let sum name =
    List.fold_left
      (fun acc a -> match Attrs.float name a with Some v -> acc +. v | None -> acc)
      0.0 attrs_list
  in
  let bottleneck name =
    List.fold_left
      (fun acc a ->
        match Attrs.float name a with Some v -> Float.min acc v | None -> acc)
      infinity attrs_list
  in
  let base = Attrs.add "minDelay" (Value.Float (sum "minDelay")) base in
  let base = Attrs.add "avgDelay" (Value.Float (sum "avgDelay")) base in
  let base = Attrs.add "maxDelay" (Value.Float (sum "maxDelay")) base in
  let bw = bottleneck "bandwidth" in
  if Float.is_finite bw then Attrs.add "bandwidth" (Value.Float bw) base else base

let closure ?(max_hops = 2) host =
  if max_hops < 1 then invalid_arg "Path_embed.closure: max_hops < 1";
  let n = Graph.node_count host in
  (* Best (min total avgDelay) path of <= max_hops edges between every
     pair: bounded BFS/DFS from each source over edge sequences. *)
  let augmented = Graph.create ~kind:(Graph.kind host) ~name:(Graph.name host ^ "+paths") () in
  Graph.iter_nodes (fun v -> ignore (Graph.add_node augmented (Graph.node_attrs host v))) host;
  let paths = Hashtbl.create (4 * Graph.edge_count host) in
  let best : (int, float * Graph.node list * Attrs.t list) Hashtbl.t = Hashtbl.create 64 in
  for src = 0 to n - 1 do
    Hashtbl.reset best;
    (* DFS up to max_hops, tracking the delay-cheapest simple path. *)
    let rec explore node hops cost rev_path rev_attrs =
      if hops < max_hops then
        List.iter
          (fun (next, e) ->
            if not (List.mem next rev_path) then begin
              let attrs = Graph.edge_attrs host e in
              let delay = Option.value ~default:0.0 (Attrs.float "avgDelay" attrs) in
              let cost = cost +. delay in
              let rev_path' = next :: rev_path in
              let rev_attrs' = attrs :: rev_attrs in
              let better =
                match Hashtbl.find_opt best next with
                | Some (prior, _, _) -> cost < prior
                | None -> true
              in
              if better && next <> src then
                Hashtbl.replace best next (cost, List.rev rev_path', List.rev rev_attrs');
              explore next (hops + 1) cost rev_path' rev_attrs'
            end)
          (Graph.succ host node)
    in
    explore src 0 0.0 [ src ] [];
    Hashtbl.iter
      (fun dst (_, path, attrs_list) ->
        (* For undirected graphs, add each pair once. *)
        let skip = Graph.kind host = Graph.Undirected && dst < src in
        if not skip then begin
          let e = Graph.add_edge augmented src dst (combine_path_attrs Attrs.empty attrs_list) in
          Hashtbl.replace paths e path
        end)
      best
  done;
  { augmented; paths }

let host t = t.augmented

let path_of_edge t e =
  match Hashtbl.find_opt t.paths e with
  | Some p -> p
  | None -> invalid_arg "Path_embed.path_of_edge: unknown edge"

let decode t (p : Problem.t) m =
  Graph.fold_edges
    (fun qe q_src q_dst acc ->
      let r_src = Mapping.apply m q_src and r_dst = Mapping.apply m q_dst in
      let he =
        List.find_opt
          (fun he -> Problem.edge_pair_ok p ~qe ~q_src ~q_dst ~he ~r_src ~r_dst)
          (Graph.edges_between t.augmented r_src r_dst)
      in
      match he with
      | None -> acc (* cannot happen for a verified mapping *)
      | Some he ->
          let path = path_of_edge t he in
          (* Orient the decoded path from r_src to r_dst. *)
          let path =
            match path with
            | first :: _ when first = r_src -> path
            | _ -> List.rev path
          in
          (qe, path) :: acc)
    p.Problem.query []
  |> List.rev

let embed_with_paths ?max_hops ?options algorithm ~host:h ~query edge_constraint =
  let t = closure ?max_hops h in
  let p = Problem.make ~host:t.augmented ~query edge_constraint in
  let options =
    Option.value ~default:{ Engine.default_options with Engine.mode = Engine.First }
      options
  in
  match (Engine.run ~options algorithm p).Engine.mappings with
  | [] -> None
  | m :: _ -> Some (m, decode t p m)

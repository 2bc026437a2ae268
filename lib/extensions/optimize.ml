open Netembed_graph
open Netembed_core
module Attrs = Netembed_attr.Attrs

type cost = Problem.t -> Mapping.t -> float

let best_of p ~cost mappings =
  List.fold_left
    (fun best m ->
      let c = cost p m in
      match best with
      | Some (_, bc) when bc <= c -> best
      | _ -> Some (m, c))
    None mappings
  |> Option.map fst

let rank p ~cost mappings =
  List.map (fun m -> (m, cost p m)) mappings
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a b)

let find_best ?options algorithm p ~cost =
  let options =
    match options with
    | Some o -> o
    | None -> { Engine.default_options with Engine.mode = Engine.All }
  in
  let result = Engine.run ~options algorithm p in
  match rank p ~cost result.Engine.mappings with
  | [] -> None
  | best :: _ -> Some best

(* For each query edge, the attribute of the cheapest satisfying host
   edge between the mapped endpoints (several parallel host edges may
   qualify; take the best). *)
let fold_mapped_edges p m f init =
  Graph.fold_edges
    (fun qe q_src q_dst acc ->
      let r_src = Mapping.apply m q_src and r_dst = Mapping.apply m q_dst in
      let candidates =
        List.filter
          (fun he -> Problem.edge_pair_ok p ~qe ~q_src ~q_dst ~he ~r_src ~r_dst)
          (Graph.edges_between p.Problem.host r_src r_dst)
      in
      f acc candidates)
    p.Problem.query init

let edge_delay p he =
  Option.value ~default:0.0 (Attrs.float "avgDelay" (Graph.edge_attrs p.Problem.host he))

let total_avg_delay p m =
  fold_mapped_edges p m
    (fun acc candidates ->
      match candidates with
      | [] -> acc
      | hes -> acc +. List.fold_left (fun best he -> Float.min best (edge_delay p he)) infinity hes)
    0.0

let max_avg_delay p m =
  fold_mapped_edges p m
    (fun acc candidates ->
      match candidates with
      | [] -> acc
      | hes ->
          Float.max acc
            (List.fold_left (fun best he -> Float.min best (edge_delay p he)) infinity hes))
    0.0

let total_host_degree p m =
  List.fold_left
    (fun acc (_, r) -> acc +. float_of_int p.Problem.host_degree.(r))
    0.0 (Mapping.to_list m)

let node_attr_sum name p m =
  List.fold_left
    (fun acc (_, r) ->
      acc
      +. Option.value ~default:0.0 (Attrs.float name (Graph.node_attrs p.Problem.host r)))
    0.0 (Mapping.to_list m)

open Netembed_graph

type degree_stats = {
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  degree_histogram : (int * int) list;
}

let degree_stats g =
  let n = Graph.node_count g in
  if n = 0 then
    { min_degree = 0; max_degree = 0; mean_degree = 0.0; degree_histogram = [] }
  else begin
    let hist = Hashtbl.create 16 in
    let mn = ref max_int and mx = ref 0 and total = ref 0 in
    Graph.iter_nodes
      (fun v ->
        let d = Graph.degree g v in
        mn := min !mn d;
        mx := max !mx d;
        total := !total + d;
        Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d)))
      g;
    let histogram =
      Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      min_degree = !mn;
      max_degree = !mx;
      mean_degree = float_of_int !total /. float_of_int n;
      degree_histogram = histogram;
    }
  end

let clustering_coefficient g =
  let total = ref 0.0 and counted = ref 0 in
  Graph.iter_nodes
    (fun v ->
      let nbrs = List.map fst (Graph.succ g v) in
      let nbrs = List.sort_uniq compare (List.filter (fun w -> w <> v) nbrs) in
      let k = List.length nbrs in
      if k >= 2 then begin
        let links = ref 0 in
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
              List.iter
                (fun b -> if Graph.mem_edge g a b || Graph.mem_edge g b a then incr links)
                rest;
              pairs rest
        in
        pairs nbrs;
        total := !total +. (2.0 *. float_of_int !links /. float_of_int (k * (k - 1)));
        incr counted
      end)
    g;
  if !counted = 0 then 0.0 else !total /. float_of_int !counted

let power_law_exponent g =
  let { degree_histogram; _ } = degree_stats g in
  let points =
    List.filter_map
      (fun (d, c) ->
        if d > 0 && c > 0 then Some (log (float_of_int d), log (float_of_int c))
        else None)
      degree_histogram
  in
  if List.length points < 3 then None
  else begin
    let n = float_of_int (List.length points) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
    let denom = (n *. sxx) -. (sx *. sx) in
    if Float.abs denom < 1e-12 then None else Some (((n *. sxy) -. (sx *. sy)) /. denom)
  end

let pp_degree_stats ppf s =
  Format.fprintf ppf "deg[min=%d max=%d mean=%.2f]" s.min_degree s.max_degree
    s.mean_degree

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Engine = Netembed_core.Engine

type t = {
  query : Graph.t;
  constraint_text : string;
  node_constraint_text : string option;
  algorithm : Engine.algorithm;
  mode : Engine.mode;
  timeout : float option;
}

let make ?node_constraint ?(algorithm = Engine.ECF) ?(mode = Engine.First) ?timeout
    ~query constraint_text =
  { query; constraint_text; node_constraint_text = node_constraint; algorithm; mode; timeout }

let read_constraint_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" && not (String.length line > 0 && line.[0] = '#') then
             lines := line :: !lines
         done
       with End_of_file -> ());
      match List.rev !lines with
      | [] -> "true"
      | lines -> String.concat " && " (List.map (fun l -> "(" ^ l ^ ")") lines))

let parse_constraints t =
  match Netembed_expr.Expr.parse t.constraint_text with
  | Error m -> Error ("edge constraint: " ^ m)
  | Ok edge -> (
      match t.node_constraint_text with
      | None -> Ok (edge, None)
      | Some text -> (
          match Netembed_expr.Expr.parse text with
          | Ok node -> Ok (edge, Some node)
          | Error m -> Error ("node constraint: " ^ m)))

let relax t factor =
  let query = Graph.copy t.query in
  Graph.iter_edges
    (fun e _ _ ->
      let attrs = Graph.edge_attrs query e in
      let widen name direction =
        match Attrs.float name attrs with
        | None -> None
        | Some v -> Some (name, Value.Float (v *. (1.0 +. (direction *. factor))))
      in
      let updates = List.filter_map Fun.id [ widen "minDelay" (-1.0); widen "maxDelay" 1.0 ] in
      if updates <> [] then
        Graph.set_edge_attrs query e
          (List.fold_left (fun acc (k, v) -> Attrs.add k v acc) attrs updates))
    t.query;
  { t with query }

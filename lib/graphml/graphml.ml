module Xml = Netembed_xml.Xml
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
open Netembed_graph

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* The reader builds the graph from {!Xml.scan}'s events; no tree is
   built.  A [<data>] payload goes into its owner's attributes when it
   closes, unless its key is not declared yet: then that payload and
   every later one of the same owner wait for the end of the document.
   Edges are resolved after all nodes.

   A fault does not stop the scan, so an XML error anywhere wins.
   Among GraphML faults the first by [check], then by document order
   ([seq] counts start and end tags), is reported: the order in which a
   reader of the whole tree would meet them. *)

type check = Root | Key_reuse | Keys | Graph_element | Edgedefault | Nodes | Edges | Graph_data

type key = {
  attr_name : string;
  ty : [ `Bool | `Int | `Float | `String ];
  mutable used : bool;  (** a payload was parsed with it *)
}

let parse_key attrs =
  let attr name = List.assoc_opt name attrs in
  let ( let* ) = Result.bind in
  let* id = Option.to_result ~none:"<key> without id" (attr "id") in
  let* () =
    match attr "for" with
    | Some ("node" | "edge" | "graph" | "all") | None -> Ok ()
    | Some other -> Error (Printf.sprintf "unsupported key domain %S" other)
  in
  let* ty =
    match attr "attr.type" with
    | Some "boolean" -> Ok `Bool
    | Some ("int" | "long") -> Ok `Int
    | Some ("float" | "double") -> Ok `Float
    | Some "string" | None -> Ok `String
    | Some other -> Error (Printf.sprintf "unsupported attr.type %S" other)
  in
  Ok (id, { attr_name = Option.value ~default:id (attr "attr.name"); ty; used = false })

(* Fuse the "_lo"/"_hi" float pairs written by [write] back into ranges. *)
let fuse_ranges attrs =
  Attrs.fold
    (fun name v acc ->
      match v with
      | Value.Float lo when Filename.check_suffix name "_lo" -> (
          let base = Filename.chop_suffix name "_lo" in
          match Attrs.float (base ^ "_hi") acc with
          | Some hi when hi >= lo ->
              acc
              |> Attrs.remove (base ^ "_lo")
              |> Attrs.remove (base ^ "_hi")
              |> Attrs.add base (Value.range lo hi)
          | Some _ | None -> acc)
      | _ -> acc)
    attrs attrs

(* A node, an edge or the graph: the payloads parsed so far, and those
   waiting for their key as (seq, key id, payload), newest first. *)
type owner = {
  check : check;
  mutable attrs : Attrs.t;
  mutable waiting : (int * string * string) list;
}

(* An edge as read: the seqs of its start and end tags, its endpoint
   ids and its attributes. *)
type edge = {
  opened : int;
  closed : int;
  source : string option;
  target : string option;
  data : owner;
}

let read src =
  let fault = ref None in
  let fail_at check seq message =
    match !fault with
    | Some (c, s, _) when (c, s) <= (check, seq) -> ()
    | Some _ | None -> fault := Some (check, seq, message)
  in
  let keys = Hashtbl.create 16 in
  let add_payload owner seq (k : key) payload =
    k.used <- true;
    match Value.of_string_as k.ty payload with
    | v -> owner.attrs <- Attrs.add k.attr_name v owner.attrs
    | exception Value.Type_error m ->
        fail_at owner.check seq (Printf.sprintf "bad <data> for key %s: %s" k.attr_name m)
  in
  (* At the end of the document, when the keys are final. *)
  let settle owner =
    List.iter
      (fun (seq, id, payload) ->
        match Hashtbl.find_opt keys id with
        | Some k -> add_payload owner seq k payload
        | None -> fail_at owner.check seq (Printf.sprintf "undeclared key %S" id))
      (List.rev owner.waiting);
    fuse_ranges owner.attrs
  in
  let node_attrs id owner =
    let attrs = settle owner in
    if Attrs.mem "id" attrs then attrs else Attrs.add "id" (Value.String id) attrs
  in
  let fresh check = { check; attrs = Attrs.empty; waiting = [] } in
  let seq = ref 0 and depth = ref 0 in
  let graph = ref None and in_graph = ref false in
  let node_ids = Hashtbl.create 64 and late_nodes = ref [] and edges = ref [] in
  let graph_data = fresh Graph_data and has_graph_data = ref false in
  (* The open <node> and <edge> with their seq, and the open <data>:
     its depth (0 when none), seq, key id, owner and text so far. *)
  let node = ref None and edge = ref None in
  let data_depth = ref 0 and data = ref (0, None, graph_data) and data_text = ref "" in
  let open_data owner attrs =
    data_depth := !depth;
    data := (!seq, List.assoc_opt "key" attrs, owner);
    data_text := ""
  in
  let start tag attrs =
    incr seq;
    incr depth;
    match (!depth, tag) with
    | 1, _ ->
        if tag <> "graphml" then
          fail_at Root 0 (Printf.sprintf "root element is <%s>, expected <graphml>" tag)
    | 2, "key" -> (
        match parse_key attrs with
        | Error m -> fail_at Keys !seq m
        | Ok (id, k) -> (
            match Hashtbl.find_opt keys id with
            | Some old when old.used ->
                if old.attr_name <> k.attr_name || old.ty <> k.ty then
                  fail_at Key_reuse !seq (Printf.sprintf "key %S redeclared after use" id)
            | Some _ | None -> Hashtbl.replace keys id k))
    | 2, "graph" when Option.is_none !graph ->
        let kind =
          match List.assoc_opt "edgedefault" attrs with
          | Some "directed" -> Graph.Directed
          | Some "undirected" | None -> Graph.Undirected
          | Some other ->
              fail_at Edgedefault !seq (Printf.sprintf "unsupported edgedefault %S" other);
              Graph.Undirected
        in
        let name = Option.value ~default:"" (List.assoc_opt "id" attrs) in
        graph := Some (Graph.create ~kind ~name ());
        in_graph := true
    | 3, "node" when !in_graph ->
        let id = List.assoc_opt "id" attrs in
        if Option.is_none id then fail_at Nodes !seq "<node> without id";
        node := Some (id, fresh Nodes)
    | 3, "edge" when !in_graph ->
        let source = List.assoc_opt "source" attrs and target = List.assoc_opt "target" attrs in
        edge := Some (!seq, source, target, fresh Edges)
    | 3, "data" when !in_graph ->
        has_graph_data := true;
        open_data graph_data attrs
    | 4, "data" -> (
        match (!node, !edge) with
        | Some (_, owner), _ | None, Some (_, _, _, owner) -> open_data owner attrs
        | None, None -> ())
    | _ -> ()
  in
  let text s =
    if !data_depth > 0 then data_text := if !data_text = "" then s else !data_text ^ s
  in
  let close_data () =
    data_depth := 0;
    let at, id, owner = !data in
    let payload = String.trim !data_text in
    match id with
    | None -> fail_at owner.check at "<data> without key"
    | Some id -> (
        match (owner.waiting, Hashtbl.find_opt keys id) with
        | [], Some k -> add_payload owner at k payload
        | _ -> owner.waiting <- (at, id, payload) :: owner.waiting)
  in
  let close_node g (id, owner) =
    let name = Option.value ~default:"" id in
    let v =
      if owner.waiting = [] then Graph.add_node g (node_attrs name owner)
      else begin
        let v = Graph.add_node g Attrs.empty in
        late_nodes := (v, name, owner) :: !late_nodes;
        v
      end
    in
    Option.iter
      (fun id ->
        if Hashtbl.mem node_ids id then
          fail_at Nodes !seq (Printf.sprintf "duplicate node id %S" id)
        else Hashtbl.replace node_ids id v)
      id
  in
  let stop _ =
    incr seq;
    (if !depth = !data_depth then close_data ()
     else if !depth = 2 then in_graph := false
     else if !depth = 3 && !in_graph then
       match (!node, !edge, !graph) with
       | Some n, _, Some g ->
           node := None;
           close_node g n
       | None, Some (opened, source, target, data), _ ->
           edge := None;
           edges := { opened; closed = !seq; source; target; data } :: !edges
       | _ -> ());
    decr depth
  in
  Xml.scan ~start ~text ~stop src;
  let endpoint which = function
    | Some v -> (
        match Hashtbl.find_opt node_ids v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "edge endpoint %S is not a node" v))
    | None -> Error (Printf.sprintf "<edge> without %s" which)
  in
  let add_edge g e =
    match (endpoint "source" e.source, endpoint "target" e.target) with
    | Error m, _ | _, Error m -> fail_at Edges e.opened m
    | Ok u, Ok v ->
        let attrs = settle e.data in
        if u = v then
          fail_at Edges e.closed
            (Printf.sprintf "edge from %S to itself" (Option.value ~default:"" e.source))
        else ignore (Graph.add_edge g u v attrs)
  in
  (match !graph with
  | None -> fail_at Graph_element 0 "no <graph> element"
  | Some g ->
      List.iter (fun (v, id, owner) -> Graph.set_node_attrs g v (node_attrs id owner)) !late_nodes;
      List.iter (add_edge g) (List.rev !edges);
      if !has_graph_data then Graph.set_graph_attrs g (settle graph_data));
  match !fault with Some (_, _, message) -> raise (Error message) | None -> Option.get !graph

let read_string s =
  match read s with
  | g -> g
  | exception Xml.Parse_error { line; message } ->
      fail "XML parse error at line %d: %s" line message

let read_file path =
  match read (In_channel.with_open_bin path In_channel.input_all) with
  | g -> g
  | exception Xml.Parse_error { line; message } ->
      fail "XML parse error in %s at line %d: %s" path line message

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* Ranges have no native GraphML type: encode [Range (lo, hi)] under
   attribute "d" as two float keys "d_lo" / "d_hi". *)
let flatten_ranges attrs =
  Attrs.fold
    (fun name v acc ->
      match v with
      | Value.Range (lo, hi) ->
          acc |> Attrs.remove name
          |> Attrs.add (name ^ "_lo") (Value.Float lo)
          |> Attrs.add (name ^ "_hi") (Value.Float hi)
      | _ -> acc)
    attrs attrs

let graphml_type = function
  | Value.Bool _ -> "boolean"
  | Value.Int _ -> "int"
  | Value.Float _ -> "float"
  | Value.String _ -> "string"
  | Value.Range _ -> assert false (* flattened before use *)

let payload = function
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%.17g" f
  | Value.String s -> s
  | Value.Range _ -> assert false

let write_string g =
  (* Collect key declarations per (domain, name) with their type.  A
     GraphML key has exactly one type; if the same attribute name holds
     differently-typed values on different elements, widen the declared
     type (int+float -> float, anything else -> string) so every
     payload stays parseable. *)
  let keys : (string * string, string * string) Hashtbl.t = Hashtbl.create 32 in
  let key_order = ref [] in
  let widen declared fresh =
    if declared = fresh then declared
    else
      match (declared, fresh) with
      | ("int" | "float"), ("int" | "float") -> "float"
      | _ -> "string"
  in
  let declare domain attrs =
    Attrs.iter
      (fun name v ->
        let slot = (domain, name) in
        match Hashtbl.find_opt keys slot with
        | None ->
            let id = Printf.sprintf "k%d" (Hashtbl.length keys) in
            Hashtbl.replace keys slot (id, graphml_type v);
            key_order := slot :: !key_order
        | Some (id, declared) ->
            Hashtbl.replace keys slot (id, widen declared (graphml_type v)))
      attrs
  in
  let node_attrs = Array.init (Graph.node_count g) (fun v -> flatten_ranges (Graph.node_attrs g v)) in
  let edge_attrs = Array.init (Graph.edge_count g) (fun e -> flatten_ranges (Graph.edge_attrs g e)) in
  Array.iter (declare "node") node_attrs;
  Array.iter (declare "edge") edge_attrs;
  let graph_attrs = flatten_ranges (Graph.graph_attrs g) in
  declare "graph" graph_attrs;
  let key_elements =
    List.rev_map
      (fun ((domain, name) as slot) ->
        let id, ty = Hashtbl.find keys slot in
        Xml.Element
          ( "key",
            [ ("id", id); ("for", domain); ("attr.name", name); ("attr.type", ty) ],
            [] ))
      !key_order
  in
  let data_of domain attrs =
    List.map
      (fun (name, v) ->
        let id, _ = Hashtbl.find keys (domain, name) in
        Xml.Element ("data", [ ("key", id) ], [ Xml.Text (payload v) ]))
      (Attrs.to_list attrs)
  in
  let node_id v =
    match Attrs.string "id" (Graph.node_attrs g v) with
    | Some id -> id
    | None -> Printf.sprintf "n%d" v
  in
  let nodes =
    List.init (Graph.node_count g) (fun v ->
        Xml.Element ("node", [ ("id", node_id v) ], data_of "node" node_attrs.(v)))
  in
  let edges =
    List.init (Graph.edge_count g) (fun e ->
        let u, v = Graph.endpoints g e in
        Xml.Element
          ( "edge",
            [ ("id", Printf.sprintf "e%d" e); ("source", node_id u); ("target", node_id v) ],
            data_of "edge" edge_attrs.(e) ))
  in
  let graph_el =
    Xml.Element
      ( "graph",
        [
          ("id", if Graph.name g = "" then "G" else Graph.name g);
          ( "edgedefault",
            match Graph.kind g with
            | Graph.Directed -> "directed"
            | Graph.Undirected -> "undirected" );
        ],
        data_of "graph" graph_attrs @ nodes @ edges )
  in
  let root =
    Xml.Element
      ( "graphml",
        [ ("xmlns", "http://graphml.graphdrawing.org/xmlns") ],
        key_elements @ [ graph_el ] )
  in
  "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" ^ Xml.to_string root ^ "\n"

let write_file g path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (write_string g))

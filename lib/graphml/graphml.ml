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
   built.  A [<data>] payload is parsed when its element closes,
   straight from the source text, into its owner's attributes, unless
   its key is not declared yet: then that payload and every later one
   of the same owner wait for the end of the document.  A node, or an
   edge whose endpoints are known nodes, goes into the graph when it
   closes if nothing of it waits; an edge that cannot, and every edge
   after it, waits for the end, so edges keep their document order.

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
  let attr = Xml.attribute attrs in
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

(* A table of an owner's attributes, whose names [order] lists as its
   payloads came: a later owner whose payloads name the same attributes
   in the same order gets its table as an [Attrs.map] of this one,
   allocating only what it keeps.  The map visits the names in table
   order; [positions] gives, for each, the payload that sets it (the
   last one naming it). *)
type shape = { table : Attrs.t; has_lo : bool; order : string array; positions : int array }

(* A node, an edge or the graph: its attributes in document order
   ([count] names and values; a later name wins), then those waiting
   for their key as (seq, key id, payload), newest first.  The open
   node or edge is one record reused from element to element. *)
type owner = {
  check : check;
  mutable count : int;
  mutable names : string array;
  mutable values : Value.t array;
  mutable waiting : (int * string * string) list;
  mutable shape : shape;
}

let no_shape = { table = Attrs.empty; has_lo = false; order = [||]; positions = [||] }
let owner check = { check; count = 0; names = [||]; values = [||]; waiting = []; shape = no_shape }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let push o name v =
  if o.count = Array.length o.names then begin
    let n = max 8 (2 * o.count) in
    o.names <- grow o.names n "";
    o.values <- grow o.values n v
  end;
  (* Owners written alike name the same attributes in the same places:
     skip the write barrier then. *)
  if o.names.(o.count) != name then o.names.(o.count) <- name;
  o.values.(o.count) <- v;
  o.count <- o.count + 1

(* An owner that outlives its element. *)
let keep o =
  { o with names = Array.sub o.names 0 o.count; values = Array.sub o.values 0 o.count }

(* Whether the owner's names come exactly in its shape's [order]. *)
let rec in_order o order i = i = o.count || (o.names.(i) == order.(i) && in_order o order (i + 1))

(* Where [Attrs.map] takes an owner's values from: [positions] in
   [values], the [next]th one next. *)
type cursor = {
  mutable values : Value.t array;
  mutable positions : int array;
  mutable next : int;
}

let next_value c _ _ =
  c.next <- c.next + 1;
  c.values.(c.positions.(c.next - 1))

(* The owner's attributes.  One whose payloads came in its shape's
   order gets the shape's table with its own values, which [next]
   hands out in the order [Attrs.map] visits the names: [next] is
   [next_value c].  Any other folds its payloads into a table, which
   becomes the owner's shape. *)
let attrs_of c ~next o =
  let shape = o.shape in
  let attrs =
    if o.count = Array.length shape.order && in_order o shape.order 0 then begin
      c.values <- o.values;
      c.positions <- shape.positions;
      c.next <- 0;
      Attrs.map next shape.table
    end
    else begin
      let table = ref Attrs.empty in
      for i = 0 to o.count - 1 do
        table := Attrs.add o.names.(i) o.values.(i) !table
      done;
      let order = Array.sub o.names 0 o.count in
      let last = Hashtbl.create o.count in
      Array.iteri (fun i name -> Hashtbl.replace last name i) order;
      o.shape <-
        {
          table = !table;
          has_lo = Attrs.fold (fun n _ lo -> lo || String.ends_with ~suffix:"_lo" n) !table false;
          order;
          positions =
            Array.of_list (List.map (fun (n, _) -> Hashtbl.find last n) (Attrs.to_list !table));
        };
      !table
    end
  in
  if o.shape.has_lo then fuse_ranges attrs else attrs

(* Which of a node or an edge is open. *)
type element = No_element | Node | Edge

(* The whitespace of [String.trim], which trims a payload. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* An edge that waits for the end of the document: the seqs of its
   start and end tags, its endpoint ids and its attributes. *)
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
  let add_payload owner seq (k : key) s pos len =
    k.used <- true;
    match Value.of_substring_as k.ty s pos len with
    | v -> push owner k.attr_name v
    | exception Value.Type_error m ->
        fail_at owner.check seq (Printf.sprintf "bad <data> for key %s: %s" k.attr_name m)
  in
  let cursor = { values = [||]; positions = [||]; next = 0 } in
  let next = next_value cursor in
  let attrs_of owner = attrs_of cursor ~next owner in
  (* The node's id comes last, unless a payload set "id": the tree
     reader's order, which gives its tables their shape. *)
  let node_attrs id owner =
    let attrs = attrs_of owner in
    if Attrs.mem "id" attrs then attrs else Attrs.add "id" (Value.String id) attrs
  in
  (* At the end of the document, when the keys are final. *)
  let settle owner =
    List.iter
      (fun (seq, id, payload) ->
        match Hashtbl.find_opt keys id with
        | Some k -> add_payload owner seq k payload 0 (String.length payload)
        | None -> fail_at owner.check seq (Printf.sprintf "undeclared key %S" id))
      (List.rev owner.waiting);
    owner.waiting <- []
  in
  let seq = ref 0 and depth = ref 0 in
  let graph = ref None and in_graph = ref false in
  let node_ids = Hashtbl.create 64 and late_nodes = ref [] and edges = ref [] in
  let graph_data = owner Graph_data and has_graph_data = ref false in
  (* The open <node> or <edge> and its owner record: a node's id, an
     edge's start tag seq and endpoint ids, each [""] with its [_at] -1
     when the attribute is missing. *)
  let elem = ref No_element and node_owner = owner Nodes and edge_owner = owner Edges in
  let node_id = ref "" and node_id_at = ref (-1) in
  let opened = ref 0 and source = ref "" and target = ref "" in
  let source_at = ref (-1) and target_at = ref (-1) in
  (* The open <data>: its depth (0 when none; 3 for the graph's own,
     4 for the open node's or edge's), seq and key id (with [key_at] -1
     when it has none), and its text: one slice, of [src] unless it
     was [decoded], or the runs so far in [text_buf] once there are
     several. *)
  let data_depth = ref 0 and data_seq = ref 0 and data_key = ref "" and key_at = ref (-1) in
  let runs = ref 0 and text_pos = ref 0 and text_len = ref 0 in
  let is_decoded = ref false and decoded = ref "" in
  let text_buf = Buffer.create 64 in
  let open_data attrs =
    data_depth := !depth;
    data_seq := !seq;
    key_at := Xml.find_attribute attrs "key";
    if !key_at >= 0 then data_key := Xml.attribute_value attrs !key_at;
    runs := 0;
    text_pos := 0;
    text_len := 0
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
            | Some _ | None ->
                Hashtbl.replace keys id k))
    | 2, "graph" when Option.is_none !graph ->
        let kind =
          match Xml.attribute attrs "edgedefault" with
          | Some "directed" -> Graph.Directed
          | Some "undirected" | None -> Graph.Undirected
          | Some other ->
              fail_at Edgedefault !seq (Printf.sprintf "unsupported edgedefault %S" other);
              Graph.Undirected
        in
        let name = Option.value ~default:"" (Xml.attribute attrs "id") in
        graph := Some (Graph.create ~kind ~name ());
        in_graph := true
    | 3, "node" when !in_graph ->
        node_id_at := Xml.find_attribute attrs "id";
        node_id := if !node_id_at < 0 then "" else Xml.attribute_value attrs !node_id_at;
        if !node_id_at < 0 then fail_at Nodes !seq "<node> without id";
        node_owner.count <- 0;
        elem := Node
    | 3, "edge" when !in_graph ->
        edge_owner.count <- 0;
        opened := !seq;
        source_at := Xml.find_attribute attrs "source";
        if !source_at >= 0 then source := Xml.attribute_value attrs !source_at;
        target_at := Xml.find_attribute attrs "target";
        if !target_at >= 0 then target := Xml.attribute_value attrs !target_at;
        elem := Edge
    | 3, "data" when !in_graph ->
        has_graph_data := true;
        open_data attrs
    | 4, "data" when !elem <> No_element -> open_data attrs
    | _ -> ()
  in
  let text s pos len =
    if !data_depth > 0 then begin
      if !runs = 1 then begin
        Buffer.clear text_buf;
        Buffer.add_substring text_buf (if !is_decoded then !decoded else src) !text_pos !text_len
      end;
      if !runs = 0 then begin
        is_decoded := s != src;
        if !is_decoded then decoded := s;
        text_pos := pos;
        text_len := len
      end
      else Buffer.add_substring text_buf s pos len;
      incr runs
    end
  in
  let close_data () =
    let owner =
      if !data_depth = 3 then graph_data else if !elem = Node then node_owner else edge_owner
    in
    let at = !data_seq in
    data_depth := 0;
    let s =
      if !runs = 0 then ""
      else if !runs > 1 then begin
        text_pos := 0;
        text_len := Buffer.length text_buf;
        Buffer.contents text_buf
      end
      else if !is_decoded then !decoded
      else src
    in
    (* Trimmed as [String.trim] would. *)
    let pos = ref !text_pos and stop = ref (!text_pos + !text_len) in
    while !pos < !stop && is_blank s.[!pos] do
      incr pos
    done;
    while !stop > !pos && is_blank s.[!stop - 1] do
      decr stop
    done;
    let pos = !pos and len = !stop - !pos in
    if !key_at < 0 then fail_at owner.check at "<data> without key"
    else
      match (owner.waiting, Hashtbl.find keys !data_key) with
      | [], k -> add_payload owner at k s pos len
      | _ :: _, _ | (exception Not_found) ->
          owner.waiting <- (at, !data_key, String.sub s pos len) :: owner.waiting
  in
  let close_node g owner =
    let v =
      if owner.waiting = [] then Graph.add_node g (node_attrs !node_id owner)
      else begin
        let v = Graph.add_node g Attrs.empty in
        late_nodes := (v, !node_id, keep owner) :: !late_nodes;
        owner.waiting <- [];
        v
      end
    in
    if !node_id_at >= 0 then
      if Hashtbl.mem node_ids !node_id then
        fail_at Nodes !seq (Printf.sprintf "duplicate node id %S" !node_id)
      else Hashtbl.replace node_ids !node_id v
  in
  let node at id = if at < 0 then -1 else try Hashtbl.find node_ids id with Not_found -> -1 in
  let close_edge g owner =
    let u = node !source_at !source and v = node !target_at !target in
    if !edges = [] && owner.waiting = [] && u >= 0 && v >= 0 then begin
      let attrs = attrs_of owner in
      if u = v then fail_at Edges !seq (Printf.sprintf "edge from %S to itself" !source)
      else ignore (Graph.add_edge g u v attrs)
    end
    else begin
      let id at s = if at < 0 then None else Some s in
      edges :=
        {
          opened = !opened;
          closed = !seq;
          source = id !source_at !source;
          target = id !target_at !target;
          data = keep owner;
        }
        :: !edges;
      owner.waiting <- []
    end
  in
  let stop _ =
    incr seq;
    (if !depth = !data_depth then close_data ()
     else if !depth = 2 then in_graph := false
     else if !depth = 3 && !in_graph then
       match (!elem, !graph) with
       | Node, Some g ->
           elem := No_element;
           close_node g node_owner
       | Edge, Some g ->
           elem := No_element;
           close_edge g edge_owner
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
        settle e.data;
        let attrs = attrs_of e.data in
        if u = v then
          fail_at Edges e.closed
            (Printf.sprintf "edge from %S to itself" (Option.value ~default:"" e.source))
        else ignore (Graph.add_edge g u v attrs)
  in
  (match !graph with
  | None -> fail_at Graph_element 0 "no <graph> element"
  | Some g ->
      List.iter
        (fun (v, id, owner) ->
          settle owner;
          Graph.set_node_attrs g v (node_attrs id owner))
        !late_nodes;
      List.iter (add_edge g) (List.rev !edges);
      if !has_graph_data then begin
        settle graph_data;
        Graph.set_graph_attrs g (attrs_of graph_data)
      end);
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

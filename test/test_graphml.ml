module Graph = Netembed_graph.Graph
module Graphml = Netembed_graphml.Graphml
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Xml = Netembed_xml.Xml
module Tree = Netembed_oracle.Xml_tree

let check = Alcotest.check

(* The oracle: the tree-walking reader that [Graphml.read_string]
   replaced.  It reads the document as an [Xml.t] tree, collects every
   <key> first, then the nodes, the edges and the graph's own data. *)
module Oracle = struct
  let fail fmt = Printf.ksprintf (fun s -> raise (Graphml.Error s)) fmt

  type key = { attr_name : string; ty : [ `Bool | `Int | `Float | `String ] }

  let parse_key el =
    let id = match Tree.attr "id" el with Some v -> v | None -> fail "<key> without id" in
    let attr_name = Option.value ~default:id (Tree.attr "attr.name" el) in
    (match Tree.attr "for" el with
    | Some ("node" | "edge" | "graph" | "all") | None -> ()
    | Some other -> fail "unsupported key domain %S" other);
    let ty =
      match Tree.attr "attr.type" el with
      | Some "boolean" -> `Bool
      | Some ("int" | "long") -> `Int
      | Some ("float" | "double") -> `Float
      | Some "string" | None -> `String
      | Some other -> fail "unsupported attr.type %S" other
    in
    (id, { attr_name; ty })

  let parse_value k payload =
    try Value.of_string_as k.ty payload
    with Value.Type_error m -> fail "bad <data> for key %s: %s" k.attr_name m

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

  let data_attrs keys el =
    List.fold_left
      (fun acc data ->
        match Tree.attr "key" data with
        | None -> fail "<data> without key"
        | Some id -> (
            match Hashtbl.find_opt keys id with
            | None -> fail "undeclared key %S" id
            | Some k -> Attrs.add k.attr_name (parse_value k (Tree.text_content data)) acc))
      Attrs.empty
      (Tree.find_children "data" el)
    |> fuse_ranges

  let read_root root =
    if Tree.tag root <> "graphml" then
      fail "root element is <%s>, expected <graphml>" (Tree.tag root);
    let keys = Hashtbl.create 16 in
    List.iter
      (fun el ->
        let id, k = parse_key el in
        Hashtbl.replace keys id k)
      (Tree.find_children "key" root);
    let graph_el =
      match Tree.first_child "graph" root with Some g -> g | None -> fail "no <graph> element"
    in
    let kind =
      match Tree.attr "edgedefault" graph_el with
      | Some "directed" -> Graph.Directed
      | Some "undirected" | None -> Graph.Undirected
      | Some other -> fail "unsupported edgedefault %S" other
    in
    let name = Option.value ~default:"" (Tree.attr "id" graph_el) in
    let g = Graph.create ~kind ~name () in
    let node_ids = Hashtbl.create 64 in
    List.iter
      (fun el ->
        let id = match Tree.attr "id" el with Some v -> v | None -> fail "<node> without id" in
        let attrs = data_attrs keys el in
        let attrs =
          if Attrs.mem "id" attrs then attrs else Attrs.add "id" (Value.String id) attrs
        in
        let v = Graph.add_node g attrs in
        if Hashtbl.mem node_ids id then fail "duplicate node id %S" id;
        Hashtbl.replace node_ids id v)
      (Tree.find_children "node" graph_el);
    List.iter
      (fun el ->
        let endpoint which =
          match Tree.attr which el with
          | Some v -> (
              match Hashtbl.find_opt node_ids v with
              | Some n -> n
              | None -> fail "edge endpoint %S is not a node" v)
          | None -> fail "<edge> without %s" which
        in
        let u = endpoint "source" and v = endpoint "target" in
        ignore (Graph.add_edge g u v (data_attrs keys el)))
      (Tree.find_children "edge" graph_el);
    (match Tree.find_children "data" graph_el with
    | [] -> ()
    | _ -> Graph.set_graph_attrs g (data_attrs keys graph_el));
    g

  let read_string s =
    match Tree.parse_string s with
    | root -> read_root root
    | exception Xml.Parse_error { line; message } ->
        fail "XML parse error at line %d: %s" line message
end

(* What a reader made of a document, comparable with [compare], so
   that a NaN payload equals itself. *)
let outcome read doc =
  match read doc with
  | g ->
      Ok
        ( Graph.kind g,
          Graph.name g,
          Attrs.to_list (Graph.graph_attrs g),
          List.init (Graph.node_count g) (fun v -> Attrs.to_list (Graph.node_attrs g v)),
          List.init (Graph.edge_count g) (fun e ->
              (Graph.endpoints g e, Attrs.to_list (Graph.edge_attrs g e))) )
  | exception Graphml.Error m -> Error m

let show_outcome = function
  | Ok (_, _, _, nodes, edges) ->
      Printf.sprintf "graph (%d nodes, %d edges)" (List.length nodes) (List.length edges)
  | Error m -> "Error " ^ m

let sample_graph () =
  let g = Graph.create ~name:"sample" () in
  let a =
    Graph.add_node g
      (Attrs.of_list
         [ ("osType", Value.String "linux-2.6"); ("cpuMhz", Value.Int 2000) ])
  in
  let b = Graph.add_node g (Attrs.of_list [ ("osType", Value.String "linux-2.4") ]) in
  let c = Graph.add_node g Attrs.empty in
  ignore
    (Graph.add_edge g a b
       (Attrs.of_list [ ("avgDelay", Value.Float 12.5); ("up", Value.Bool true) ]));
  ignore (Graph.add_edge g b c (Attrs.of_list [ ("band", Value.range 1.0 9.0) ]));
  g

let test_roundtrip () =
  let g = sample_graph () in
  let h = Graphml.read_string (Graphml.write_string g) in
  check Alcotest.int "nodes" 3 (Graph.node_count h);
  check Alcotest.int "edges" 2 (Graph.edge_count h);
  check (Alcotest.option Alcotest.string) "node attr" (Some "linux-2.6")
    (Attrs.string "osType" (Graph.node_attrs h 0));
  check (Alcotest.option (Alcotest.float 0.0)) "int attr" (Some 2000.0)
    (Attrs.float "cpuMhz" (Graph.node_attrs h 0));
  check (Alcotest.option (Alcotest.float 0.0)) "edge float" (Some 12.5)
    (Attrs.float "avgDelay" (Graph.edge_attrs h 0));
  check Alcotest.bool "bool attr" true
    (Value.equal (Attrs.find_exn "up" (Graph.edge_attrs h 0)) (Value.Bool true));
  (* Range values survive through the _lo/_hi convention. *)
  check Alcotest.bool "range attr" true
    (Value.equal (Attrs.find_exn "band" (Graph.edge_attrs h 1)) (Value.range 1.0 9.0))

let test_directed_roundtrip () =
  let g = Graph.create ~kind:Graph.Directed () in
  let a = Graph.add_node g Attrs.empty and b = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g a b Attrs.empty);
  let h = Graphml.read_string (Graphml.write_string g) in
  check Alcotest.bool "directed" true (Graph.kind h = Graph.Directed);
  check Alcotest.bool "a->b" true (Graph.mem_edge h 0 1);
  check Alcotest.bool "not b->a" false (Graph.mem_edge h 1 0)

let test_read_handwritten () =
  let doc =
    {|<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="edge" attr.name="avgDelay" attr.type="double"/>
  <key id="d1" for="node" attr.name="osType" attr.type="string"/>
  <graph id="G" edgedefault="undirected">
    <node id="alpha"><data key="d1">linux</data></node>
    <node id="beta"/>
    <edge id="e0" source="alpha" target="beta"><data key="d0">42.0</data></edge>
  </graph>
</graphml>|}
  in
  let g = Graphml.read_string doc in
  check Alcotest.int "nodes" 2 (Graph.node_count g);
  check Alcotest.string "graph name" "G" (Graph.name g);
  (* Node ids preserved as an attribute. *)
  check (Alcotest.option Alcotest.string) "id attr" (Some "alpha")
    (Attrs.string "id" (Graph.node_attrs g 0));
  check (Alcotest.option (Alcotest.float 0.0)) "edge data" (Some 42.0)
    (Attrs.float "avgDelay" (Graph.edge_attrs g 0))

let expect_error doc name =
  match Graphml.read_string doc with
  | exception Graphml.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected Graphml.Error" name

let test_errors () =
  expect_error "<graphml><graph><node/></graph></graphml>" "node without id";
  expect_error
    "<graphml><graph><node id=\"a\"/><node id=\"a\"/></graph></graphml>"
    "duplicate node id";
  expect_error
    "<graphml><graph><node id=\"a\"/><edge source=\"a\" target=\"zz\"/></graph></graphml>"
    "dangling endpoint";
  expect_error
    "<graphml><graph><node id=\"a\"><data key=\"nope\">1</data></node></graph></graphml>"
    "undeclared key";
  expect_error "<notgraphml/>" "wrong root";
  expect_error "<graphml></graphml>" "no graph";
  expect_error "not xml at all" "not xml"

let test_file_io () =
  let g = sample_graph () in
  let path = Filename.temp_file "netembed" ".graphml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graphml.write_file g path;
      let h = Graphml.read_file path in
      check Alcotest.int "nodes" (Graph.node_count g) (Graph.node_count h);
      check Alcotest.int "edges" (Graph.edge_count g) (Graph.edge_count h))

let test_node_id_reuse () =
  (* Ids read from a file are reused on write. *)
  let doc =
    {|<graphml><graph edgedefault="undirected">
      <node id="custom-name"/><node id="other"/>
      <edge source="custom-name" target="other"/>
    </graph></graphml>|}
  in
  let g = Graphml.read_string doc in
  let out = Graphml.write_string g in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "id preserved" true (contains out "custom-name")

(* Property: random attributed graphs survive a write/read cycle. *)

let gen_graph =
  let open QCheck.Gen in
  (* Each key name has a fixed type (as a real schema would); the
     mixed-type case is covered by the widening unit test below. *)
  let gen_attrs =
    let* i = opt (int_range (-100) 100) in
    let* f = opt (map (fun f -> Float.of_int f /. 4.0) (int_range 0 1000)) in
    let* b = opt bool in
    let* s = opt (map (fun s -> "s" ^ string_of_int s) (int_range 0 50)) in
    return
      (Attrs.of_list
         (List.filter_map Fun.id
            [
              Option.map (fun v -> ("ki", Value.Int v)) i;
              Option.map (fun v -> ("kf", Value.Float v)) f;
              Option.map (fun v -> ("kb", Value.Bool v)) b;
              Option.map (fun v -> ("ks", Value.String v)) s;
            ]))
  in
  let* n = int_range 1 12 in
  let* node_attrs = list_repeat n gen_attrs in
  let* extra = int_range 0 20 in
  let* edge_ends = list_repeat extra (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  let* edge_attrs = list_repeat extra gen_attrs in
  let g = Graph.create ~name:"rand" () in
  List.iter (fun a -> ignore (Graph.add_node g a)) node_attrs;
  List.iter2
    (fun (u, v) a -> if u <> v then ignore (Graph.add_edge g u v a))
    edge_ends edge_attrs;
  return g

let attrs_equal_modulo_id a b =
  (* Import adds an "id" node attribute; ignore it. *)
  Attrs.equal (Attrs.remove "id" a) (Attrs.remove "id" b)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"graphml roundtrip on random graphs" ~count:200
    (QCheck.make gen_graph)
    (fun g ->
      let h = Graphml.read_string (Graphml.write_string g) in
      Graph.node_count g = Graph.node_count h
      && Graph.edge_count g = Graph.edge_count h
      && List.for_all
           (fun v -> attrs_equal_modulo_id (Graph.node_attrs g v) (Graph.node_attrs h v))
           (List.init (Graph.node_count g) Fun.id)
      && List.for_all
           (fun e ->
             Graph.endpoints g e = Graph.endpoints h e
             && Attrs.equal (Graph.edge_attrs g e) (Graph.edge_attrs h e))
           (List.init (Graph.edge_count g) Fun.id))

let test_type_widening () =
  (* The same attribute name with conflicting types must still produce
     a readable document: int+float widens to float, others to string. *)
  let g = Graph.create () in
  let a = Graph.add_node g (Attrs.of_list [ ("n", Value.Int 3); ("m", Value.Int 1) ]) in
  let b = Graph.add_node g (Attrs.of_list [ ("n", Value.Float 2.5); ("m", Value.Bool true) ]) in
  ignore (Graph.add_edge g a b Attrs.empty);
  let h = Graphml.read_string (Graphml.write_string g) in
  (* int+float -> float: numeric equality preserved. *)
  check (Alcotest.option (Alcotest.float 1e-9)) "n on a" (Some 3.0)
    (Attrs.float "n" (Graph.node_attrs h a));
  check (Alcotest.option (Alcotest.float 1e-9)) "n on b" (Some 2.5)
    (Attrs.float "n" (Graph.node_attrs h b));
  (* int+bool -> string: stringified but readable. *)
  check (Alcotest.option Alcotest.string) "m on a" (Some "1")
    (Attrs.string "m" (Graph.node_attrs h a));
  check (Alcotest.option Alcotest.string) "m on b" (Some "true")
    (Attrs.string "m" (Graph.node_attrs h b))

(* The streaming reader against the oracle: equal graphs, or the same
   [Graphml.Error] message. *)
let test_equivalence () =
  let keys =
    {|<key id="c" for="node" attr.name="cpu" attr.type="int"/>
      <key id="s" for="node" attr.name="os" attr.type="string"/>
      <key id="w" for="edge" attr.name="delay" attr.type="double"/>
      <key id="lo" for="edge" attr.name="band_lo" attr.type="double"/>
      <key id="hi" for="edge" attr.name="band_hi" attr.type="double"/>|}
  in
  let doc ?(edgedefault = "undirected") body =
    Printf.sprintf {|<graphml>%s<graph id="G" edgedefault="%s">%s</graph></graphml>|} keys
      edgedefault body
  in
  let table =
    [ "key declared after the nodes",
      {|<graphml><graph><node id="a"><data key="c">7</data></node><node id="b"/>
        <edge source="a" target="b"><data key="w">1.5</data></edge></graph>
        <key id="c" for="node" attr.name="cpu" attr.type="int"/>
        <key id="w" for="edge" attr.name="delay" attr.type="double"/></graphml>|};
      "late key before a declared one on the same owner",
      {|<graphml><key id="a" attr.name="x" attr.type="int"/><graph>
        <node id="n"><data key="late">1</data><data key="a">2</data></node></graph>
        <key id="late" attr.name="x" attr.type="int"/></graphml>|};
      "key redeclared before use", 
      {|<graphml><key id="a" attr.name="x" attr.type="int"/><key id="a" attr.name="y"/>
        <graph><node id="n"><data key="a">2</data></node></graph></graphml>|};
      "edges before their endpoint nodes",
      doc {|<edge source="b" target="a"><data key="w">3</data></edge>
            <node id="a"/><node id="b"/><edge source="a" target="c"/><node id="c"/>|};
      "data nested below the owner is ignored",
      doc {|<node id="a"><info><data key="c">9</data></info><data key="s">x</data></node>
            <node id="b"><node id="inner"/></node>|};
      "data nested in data adds its text",
      doc {|<node id="a"><data key="s">1<data key="c">2</data>3</data></node>|};
      "CDATA and entity payloads",
      doc {|<node id="a&amp;b"><data key="s"><![CDATA[a<b]]> &amp; &#x41;&#66;</data></node>|};
      "payload with surrounding whitespace",
      doc {|<node id="a"><data key="c">
               42  </data><data key="s">  linux 2.6 </data></node>|};
      "comments split a payload",
      doc {|<node id="a"><data key="s">lin<!-- x -->ux</data></node>|};
      "_lo and _hi fuse into a range",
      doc {|<node id="a"/><node id="b"/>
            <edge source="a" target="b"><data key="lo">1</data><data key="hi">9</data></edge>|};
      "a lone _lo stays a float",
      doc {|<node id="a"/><node id="b"/>
            <edge source="a" target="b"><data key="lo">1</data></edge>|};
      "_lo above _hi stays two floats",
      doc {|<node id="a"/><node id="b"/>
            <edge source="a" target="b"><data key="lo">9</data><data key="hi">1</data></edge>|};
      "graph-level data",
      doc {|<data key="s">top</data><node id="a"/>|};
      "a second graph is ignored",
      {|<graphml><graph><node id="a"/></graph><graph><node/></graph></graphml>|};
      "a key inside the graph is ignored",
      {|<graphml><graph><key id="k"/><node id="a"><data key="k">1</data></node></graph></graphml>|};
      "directed graph", doc ~edgedefault:"directed"
        {|<node id="a"/><node id="b"/><edge source="a" target="b"/><edge source="b" target="a"/>|};
      "undirected graph", doc {|<node id="a"/><node id="b"/><edge source="b" target="a"/>|};
      "no edgedefault", {|<graphml><graph><node id="a"/></graph></graphml>|};
      "duplicate node id", doc {|<node id="a"/><node id="a"/>|};
      "node without id", doc {|<node/>|};
      "undeclared key", doc {|<node id="a"><data key="nope">1</data></node>|};
      "data without key", doc {|<node id="a"><data>1</data></node>|};
      "bad payload for its type", doc {|<node id="a"><data key="c">fast</data></node>|};
      "wrong root element", {|<notgraphml><graph/></notgraphml>|};
      "no graph", {|<graphml><key id="k"/></graphml>|};
      "unsupported edgedefault", {|<graphml><graph edgedefault="sideways"/></graphml>|};
      "unsupported key type", {|<graphml><key id="k" attr.type="complex"/><graph/></graphml>|};
      "unsupported key domain", {|<graphml><key id="k" for="hyperedge"/><graph/></graphml>|};
      "key without id", {|<graphml><key/><graph/></graphml>|};
      "unknown edge endpoint", doc {|<node id="a"/><edge source="a" target="zz"/>|};
      "edge without source", doc {|<node id="a"/><edge target="a"/>|};
      "edge without either endpoint", doc {|<edge/>|};
      "an edge fault in front of a node fault",
      doc {|<edge source="a" target="zz"/><node id="a"/><node id="a"/>|};
      "a late key fault in front of a node fault",
      {|<graphml><graph><node id="a"/><node id="a"/></graph><key id="k" attr.type="x"/></graphml>|};
      "an edge endpoint fault before its payload fault",
      doc {|<node id="a"/><edge source="a" target="zz"><data key="w">slow</data></edge>|};
      "an XML fault after a GraphML fault", {|<notgraphml><a></b></notgraphml>|};
      "truncated document", String.sub (doc {|<node id="a"/>|}) 0 40;
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, doc) ->
      let expected = outcome Oracle.read_string doc and got = outcome Graphml.read_string doc in
      if compare expected got <> 0 then
        Alcotest.failf "%s: oracle %s, reader %s" name (show_outcome expected)
          (show_outcome got))
    table

(* The reader adds a node or an edge when it closes, unless an edge
   names a node that comes later: then that edge and every edge after
   it wait for the end of the document.  Edge ids must still follow
   document order, as the oracle numbers them. *)
let test_late_endpoints () =
  let key = {|<key id="w" for="edge" attr.name="delay" attr.type="double"/>|} in
  let doc body = Printf.sprintf "<graphml>%s<graph>%s</graph></graphml>" key body in
  List.iter
    (fun (name, doc) ->
      let expected = outcome Oracle.read_string doc and got = outcome Graphml.read_string doc in
      if compare expected got <> 0 then
        Alcotest.failf "%s: oracle %s, reader %s" name (show_outcome expected)
          (show_outcome got))
    [ "an edge to a later node, then one between known nodes",
      doc {|<node id="a"/><edge source="a" target="b"><data key="w">1</data></edge>
            <node id="b"/><node id="c"/><edge source="a" target="c"><data key="w">2</data></edge>|};
      "a key declared after an edge that uses it, then a plain edge",
      {|<graphml><graph><node id="a"/><node id="b"/><node id="c"/>
        <edge source="a" target="b"><data key="late">1</data></edge>
        <edge source="b" target="c"/></graph>
        <key id="late" for="edge" attr.name="x" attr.type="int"/></graphml>|};
    ] [@ocamlformat "disable"]

(* Documents the tree reader did not survive: it let Invalid_argument
   out.  Each must be a Graphml.Error, and through the wire decoder an
   Error reply. *)
let hostile =
  [ "self-loop",
    {|<graphml><graph><node id="n0"/><edge source="n0" target="n0"/></graph></graphml>|},
    {|edge from "n0" to itself|};
    "character reference past U+10FFFF",
    "<graphml><graph>\n<node id=\"n0\"/>\n<node id=\"&#x110000;\"/></graph></graphml>",
    "XML parse error at line 3: bad character reference &#x110000;";
    "surrogate character reference",
    "<graphml><graph><node id=\"&#xD800;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#xD800;";
    "negative character reference",
    "<graphml><graph><node id=\"&#-1;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#-1;";
    "character reference &#0x41;",
    "<graphml><graph><node id=\"&#0x41;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#0x41;";
    "character reference &#6_5;",
    "<graphml><graph><node id=\"&#6_5;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#6_5;";
    "character reference &#0b1000001;",
    "<graphml><graph><node id=\"&#0b1000001;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#0b1000001;";
    "character reference &#x;",
    "<graphml><graph><node id=\"&#x;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#x;";
    "character reference &#+65;",
    "<graphml><graph><node id=\"&#+65;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#+65;";
    "character reference &#X41;",
    "<graphml><graph><node id=\"&#X41;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#X41;";
    "character reference &#x-41;",
    "<graphml><graph><node id=\"&#x-41;\"/></graph></graphml>",
    "XML parse error at line 1: bad character reference &#x-41;";
    "content after the root element",
    "<graphml><graph/></graphml>\n<!-- fine --> trailing junk <b>",
    "XML parse error at line 2: content after the root element";
    "a second root element",
    "<graphml><graph/></graphml><graphml/>",
    "XML parse error at line 1: content after the root element";
    "a doctype after the root element",
    "<graphml><graph/></graphml><!DOCTYPE graphml>",
    "XML parse error at line 1: content after the root element";
    "int payload 0x1F",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">0x1F</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "0x1F"|};
    "int payload 1_000",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">1_000</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "1_000"|};
    "int payload 0o17",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">0o17</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "0o17"|};
    "int payload 0b101",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">0b101</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "0b101"|};
    "int payload --1",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">--1</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "--1"|};
    "int payload +",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c">+</data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "+"|};
    "int payload 1 2",
    {|<graphml><key id="c" for="node" attr.name="cpu" attr.type="int"/><graph><node id="a"><data key="c"> 1 2 </data></node></graph></graphml>|},
    {|bad <data> for key cpu: cannot parse "1 2"|};
    "key redeclared after use",
    {|<graphml><key id="d" attr.type="int"/><graph><node id="a"><data key="d">1</data></node>
      </graph><key id="d" attr.type="string"/></graphml>|},
    {|key "d" redeclared after use|};
  ] [@ocamlformat "disable"]

let test_hostile () =
  List.iter
    (fun (name, doc, message) ->
      match Graphml.read_string doc with
      | _ -> Alcotest.failf "%s: read without error" name
      | exception Graphml.Error m -> check Alcotest.string name message m)
    hostile

(* Property: the streaming reader and the oracle agree on what the
   writer makes of random attributed graphs: every value type, floats
   that do not print as plain digits, strings that need escaping, and
   ranges. *)
let gen_attributed_graph =
  let open QCheck.Gen in
  let gen_value =
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f)
          (oneof [ float; oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ] ]);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.String s)
          (string_size
             ~gen:(oneofl [ 'a'; ' '; '<'; '>'; '&'; '\''; '"'; '\xc3'; '\xa9'; ';'; '#' ])
             (int_range 0 8));
        map2 (fun a b -> Value.range (Float.min a b) (Float.max a b)) (float_range (-1e3) 1e3)
          (float_range (-1e3) 1e3);
      ]
  in
  let gen_attrs =
    map Attrs.of_list
      (list_size (int_range 0 4) (pair (oneofl [ "a"; "b"; "d_lo"; "d_hi"; "id" ]) gen_value))
  in
  let* kind = oneofl [ Graph.Directed; Graph.Undirected ] in
  let* n = int_range 1 8 in
  let* node_attrs = list_repeat n gen_attrs in
  let* ends = list_size (int_range 0 12) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  let* edge_attrs = list_repeat (List.length ends) gen_attrs in
  let* graph_attrs = gen_attrs in
  let g = Graph.create ~kind ~name:"rand" () in
  List.iter (fun a -> ignore (Graph.add_node g a)) node_attrs;
  List.iter2 (fun (u, v) a -> if u <> v then ignore (Graph.add_edge g u v a)) ends edge_attrs;
  Graph.set_graph_attrs g graph_attrs;
  return g

let prop_reader_matches_oracle =
  QCheck.Test.make ~name:"streaming reader = oracle on written graphs" ~count:300
    (QCheck.make gen_attributed_graph)
    (fun g ->
      let doc = Graphml.write_string g in
      let expected = outcome Oracle.read_string doc in
      compare expected (outcome Graphml.read_string doc) = 0
      || QCheck.Test.fail_reportf "oracle %s\n%s" (show_outcome expected) doc)

(* Property: the reader builds each attribute table in the oracle's
   order, so the tables have the oracle's shape, not only its bindings.
   A table's shape sets what every later [Attrs.add] to it costs, and
   the model restamps node and link tables on every residual snapshot. *)
let prop_tables_match_oracle_shape =
  let tables g =
    Marshal.to_string
      ( List.init (Graph.node_count g) (Graph.node_attrs g),
        List.init (Graph.edge_count g) (Graph.edge_attrs g),
        Graph.graph_attrs g )
      [ Marshal.No_sharing ]
  in
  QCheck.Test.make ~name:"streaming reader tables = oracle tables" ~count:300
    (QCheck.make gen_attributed_graph)
    (fun g ->
      let doc = Graphml.write_string g in
      String.equal (tables (Oracle.read_string doc)) (tables (Graphml.read_string doc))
      || QCheck.Test.fail_reportf "tables differ on\n%s" doc)

(* Property: the same agreement on random documents, faults included:
   keys, nodes, edges and data in any order and nesting, with missing
   or dangling ids and bad payloads.  A document that redeclares a key
   after a payload used it is left out (the tree reader applied the
   last declaration to every payload; the streaming reader rejects the
   document), and so is a self-loop (the tree reader raised
   Invalid_argument). *)
let gen_document =
  let open QCheck.Gen in
  let attr name values =
    map (function "" -> "" | v -> Printf.sprintf " %s=%S" name v) (oneofl ("" :: values))
  in
  let key =
    map (String.concat "")
      (flatten_l
         [ return "<key"; attr "id" [ "a"; "b"; "c" ]; attr "for" [ "node"; "edge"; "bad" ];
           attr "attr.name" [ "x"; "y"; "r_lo"; "r_hi" ];
           attr "attr.type" [ "int"; "double"; "boolean"; "bad" ]; return "/>" ])
  in
  let data =
    map2 (Printf.sprintf "<data%s>%s</data>")
      (attr "key" [ "a"; "b"; "c"; "z" ])
      (oneofl [ ""; "1"; " 2 "; "3.5"; "true"; "x"; "<![CDATA[4]]>"; "1<i>2</i>";
                {|<data key="a">5</data>|}; "nan"; "-0" ])
  in
  let datas = map (String.concat "") (list_size (int_bound 3) data) in
  let node = map2 (Printf.sprintf "<node%s>%s</node>") (attr "id" [ "n1"; "n2"; "n3" ]) datas in
  let edge =
    map3 (Printf.sprintf "<edge%s%s>%s</edge>") (attr "source" [ "n1"; "n2"; "n9" ])
      (attr "target" [ "n1"; "n3"; "n9" ]) datas
  in
  let graph =
    map3 (Printf.sprintf "<graph%s%s>%s</graph>")
      (attr "edgedefault" [ "directed"; "undirected"; "x" ])
      (attr "id" [ "G" ])
      (map (String.concat "")
         (list_size (int_bound 7) (oneof [ node; node; edge; edge; data; key ])))
  in
  frequency
    [ (1, return "<other/>");
      (9, map (fun parts -> "<graphml>" ^ String.concat "" parts ^ "</graphml>")
            (list_size (int_bound 4) (oneof [ key; key; graph ]))) ]
  [@@ocamlformat "disable"]

let prop_documents_match_oracle =
  QCheck.Test.make ~name:"streaming reader = oracle on random documents" ~count:2000
    (QCheck.make ~print:Fun.id gen_document)
    (fun doc ->
      let got = outcome Graphml.read_string doc in
      match (got, outcome Oracle.read_string doc) with
      | Error m, _ when String.ends_with ~suffix:"redeclared after use" m -> QCheck.assume_fail ()
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | _, expected ->
          compare expected got = 0
          || QCheck.Test.fail_reportf "oracle %s, reader %s" (show_outcome expected)
               (show_outcome got))

let () =
  Alcotest.run "graphml"
    [
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "directed" `Quick test_directed_roundtrip;
          Alcotest.test_case "handwritten" `Quick test_read_handwritten;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "node id reuse" `Quick test_node_id_reuse;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
          Alcotest.test_case "type widening" `Quick test_type_widening;
          (* Kept in this group: a longer group name would narrow the
             name column and cut existing test names shorter. *)
          Alcotest.test_case "equal to the tree reader" `Quick test_equivalence;
          Alcotest.test_case "hostile documents" `Quick test_hostile;
          Alcotest.test_case "late endpoints keep edge order" `Quick test_late_endpoints;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_reader_matches_oracle;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_documents_match_oracle;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
            prop_tables_match_oracle_shape;
        ] );
    ]

(** GraphML import/export — the paper's network representation
    (section VI-A): "we have adopted the GraphML standard as a more
    general way to describe the networks ... the top-level element is
    the graph and its children are the node and edge elements", with
    arbitrary typed attributes declared by [<key>] elements.

    Mapping rules:
    - [<key attr.type>] of [boolean|int|long|float|double|string]
      becomes the corresponding {!Netembed_attr.Value.t}; [long] maps to
      [Int], [double] to [Float].
    - [<data>] payloads of the form ["[lo,hi]"] under string keys whose
      name ends in ["Range"] stay strings; true range values are
      written as two float keys by {!write} using the ["_lo"]/["_hi"]
      suffix convention and re-fused by {!read}.
    - [edgedefault] selects {!Netembed_graph.Graph.kind}.
    - node ids are preserved in a ["id"] node attribute on import and
      re-used on export when present.

    Reading builds the graph from {!Netembed_xml.Xml.scan}'s events in
    one pass, without an XML tree.  [<key>]s may come after the
    elements that use them, and edges before their endpoint nodes.
    Only [<data>] elements that are direct children of a node, an edge
    or the first [<graph>] are read; a payload is the trimmed text
    inside its element. *)

exception Error of string

val read_string : string -> Netembed_graph.Graph.t
(** Reads a GraphML document.

    Every fault in the document raises [Error], never another
    exception: malformed XML (the message names the line), a wrong
    root, a [<key>] or [<data>] that cannot be used, a missing or
    duplicate node id, an edge endpoint that is not a node, and an edge
    from a node to itself.  A key id declared again, differently, after
    a payload was read with it is an error too.  When a document has
    several faults, an XML fault is reported first; then the first of
    these in this order: a wrong root, a redeclared key, a bad [<key>],
    no [<graph>], a bad [edgedefault], node faults, edge faults, faults
    in the graph's own data, each group in document order.
    @raise Error on malformed GraphML. *)

val read_file : string -> Netembed_graph.Graph.t
(** [read_string] of the file's contents, with the path in an XML
    fault's message.
    @raise Error on malformed GraphML.
    @raise Sys_error when the file cannot be read. *)

val write_string : Netembed_graph.Graph.t -> string
val write_file : Netembed_graph.Graph.t -> string -> unit

(** Minimal XML 1.0 reader/writer — just enough to carry GraphML.

    Supported: elements, attributes (single- or double-quoted), text
    nodes, comments, processing instructions and CDATA (skipped or
    captured as text), the five predefined entities and numeric
    character references.  Not supported (rejected): DTDs with internal
    subsets, namespaces beyond treating prefixed names as opaque
    strings.  This is a substrate, not a general XML library.

    Reading is one tokenizer, {!scan}, which reports the document as
    start, text and end events; the GraphML reader consumes them
    directly, without a tree.  Writing prints a {!t}.  (A tree-building
    reader over {!scan} is kept with the tests, in [test/oracle].) *)

type t =
  | Element of string * (string * string) list * t list
      (** tag, attributes in document order, children *)
  | Text of string

exception Parse_error of { line : int; message : string }
(** [line] is 1 plus the number of newlines before the byte at which
    the fault was found: the line of the offending construct, or the
    last line when the input ends too early. *)

type attributes
(** The attributes of the start tag that {!scan} is reporting, read
    through the functions below during the [start] call that received
    them: the scanner reuses their storage for the next tag. *)

val attribute_count : attributes -> int

val attribute_name : attributes -> int -> string
(** [attribute_name a i] is the name of the [i]th attribute, counting
    from 0 in document order.
    @raise Invalid_argument unless [0 <= i < attribute_count a]. *)

val attribute_value : attributes -> int -> string
(** The [i]th attribute's value, entities decoded.  Values of up to 16
    bytes go through a small cache of the scanner's, so a repeated
    value is usually the same string.
    @raise Invalid_argument unless [0 <= i < attribute_count a]. *)

val find_attribute : attributes -> string -> int
(** The index of the first attribute with this name, or [-1]. *)

val attribute : attributes -> string -> string option
(** The value of the first attribute with this name. *)

val scan :
  start:(string -> attributes -> unit) ->
  text:(string -> int -> int -> unit) ->
  stop:(string -> unit) ->
  string ->
  unit
(** [scan ~start ~text ~stop src] walks the document in [src] once, in
    order.  [start tag attrs] opens an element and [stop tag] closes
    it; an empty-element tag [<a/>] gives both.  [text s pos len] is a
    run of character data between two pieces of markup, or the content
    of a CDATA section: the [len] bytes of [s] from [pos].  [s] is
    [src] itself unless the run held an entity, which is decoded into
    a fresh string; so is an attribute value.  Tags and attribute
    names are shared strings.  Runs that are only whitespace are
    skipped, except in CDATA.  Comments, processing instructions and
    a doctype are skipped.  After the root element only whitespace,
    comments and processing instructions may follow.

    The callbacks run as the scanner goes: when a fault is found,
    those for everything before it have already run.
    @raise Parse_error on malformed input, including anything else
    after the root element, and a character reference that is not
    [&#] with decimal digits or [&#x] with hex digits, or that is not a
    Unicode scalar value. *)

val to_string : ?indent:bool -> t -> string
(** Serialize with escaping; [indent] (default true) pretty-prints
    element-only content. *)

val escape : string -> string
(** Entity-escape a string for use as attribute or text content. *)

(* A tree-building XML reader over [Xml.scan]: the whole document as
   an [Xml.t], with accessors to walk it.  The library's own reader
   (GraphML) consumes the scanner's events directly; the tests keep
   this one to check the scanner and to read GraphML the old way. *)

module Xml = Netembed_xml.Xml

type t = Xml.t = Element of string * (string * string) list * t list | Text of string

let parse_string src =
  (* Open elements, innermost first, each with its children reversed. *)
  let open_ = ref [] and root = ref (Text "") in
  let add node =
    match !open_ with (_, _, kids) :: _ -> kids := node :: !kids | [] -> root := node
  in
  Xml.scan src
    ~start:(fun tag attrs ->
      let attrs =
        List.init (Xml.attribute_count attrs) (fun i ->
            (Xml.attribute_name attrs i, Xml.attribute_value attrs i))
      in
      open_ := (tag, attrs, ref []) :: !open_)
    ~text:(fun s pos len -> add (Text (String.sub s pos len)))
    ~stop:(fun _ ->
      match !open_ with
      | (tag, attrs, kids) :: rest ->
          open_ := rest;
          add (Element (tag, attrs, List.rev !kids))
      | [] -> ());
  !root

let parse_file path = parse_string (In_channel.with_open_bin path In_channel.input_all)

let write_file ?indent path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
      output_string oc (Xml.to_string ?indent t);
      output_char oc '\n')

let tag = function
  | Element (t, _, _) -> t
  | Text _ -> invalid_arg "Xml_tree.tag: text node"

let attr name = function
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ -> None

let children = function Element (_, _, c) -> c | Text _ -> []

let child_elements t =
  List.filter (function Element _ -> true | Text _ -> false) (children t)

(* Child elements with the given tag, in order. *)
let find_children name t =
  List.filter (function Element (tag, _, _) -> tag = name | Text _ -> false) (children t)

let first_child name t = match find_children name t with [] -> None | c :: _ -> Some c

(* Concatenated text descendants, trimmed. *)
let text_content t =
  let rec go = function
    | Text s -> s
    | Element (_, _, children) -> String.concat "" (List.map go children)
  in
  String.trim (go t)

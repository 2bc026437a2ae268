type t =
  | Element of string * (string * string) list * t list
  | Text of string

exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

(* The scanner walks [src] by index and tracks no line: an error counts
   the newlines before the offset it is raised at.  Names and short
   attribute values repeat (tags, key ids, node ids), so [names], a
   direct-mapped cache, hands out one string per distinct slice.

   The attributes of the current start tag live in the [attr_] arrays,
   reused from tag to tag: where a name starts in [src] (it ends at the
   next character that cannot be in a name), and a value's slice of
   [src] ([attr_start], [attr_len]) or, when it had to be decoded
   ([attr_start] is -1), the decoded string.  The open elements are
   [open_tags.(0 .. depth - 1)], and [last_tag] is the tag of the last
   start tag: siblings often share it, and then it is not looked up. *)
type state = {
  src : string;
  len : int;
  mutable pos : int;
  names : string array;
  mutable attr_count : int;
  mutable attr_name : int array;
  mutable attr_start : int array;
  mutable attr_len : int array;
  mutable attr_decoded : string array;
  mutable open_tags : string array;
  mutable depth : int;
  mutable last_tag : string;
}

type attributes = state

let error st message =
  let line = ref 1 in
  for i = 0 to min st.pos st.len - 1 do
    if st.src.[i] = '\n' then incr line
  done;
  raise (Parse_error { line = !line; message })

let[@inline] is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The whitespace of [String.trim]: text made only of it is dropped. *)
let[@inline] is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let is_digit c = c >= '0' && c <= '9'
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let name_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> '\001'
      | _ -> '\000')

let[@inline] is_name_char c = String.unsafe_get name_chars (Char.code c) <> '\000'

(* Callers check that [src] holds [String.length s] bytes from [pos]. *)
let rec matches src pos s i =
  i = String.length s
  || String.unsafe_get src (pos + i) = String.unsafe_get s i
     && matches src pos s (i + 1)

(* Does the source continue with [s] at the current position? *)
let at st s = st.pos + String.length s <= st.len && matches st.src st.pos s 0

let expect st s =
  if at st s then st.pos <- st.pos + String.length s
  else error st (Printf.sprintf "expected %S" s)

let expect_char st c =
  if st.pos < st.len && st.src.[st.pos] = c then st.pos <- st.pos + 1
  else error st (Printf.sprintf "expected %S" (String.make 1 c))

let skip_spaces st =
  let i = ref st.pos in
  while !i < st.len && is_space (String.unsafe_get st.src !i) do
    incr i
  done;
  st.pos <- !i

(* Moves past the next occurrence of [s]. *)
let skip_past st s =
  while not (at st s) do
    if st.pos >= st.len then error st "unexpected end of input";
    st.pos <- st.pos + 1
  done;
  st.pos <- st.pos + String.length s

let interned_max = 16

(* [start] and [n] are a slice of [src]. *)
let intern st start n =
  if n > interned_max then String.sub st.src start n
  else begin
    let h = ref n in
    for i = start to start + n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get st.src i)
    done;
    let slot = !h land (Array.length st.names - 1) in
    let s = st.names.(slot) in
    if String.length s = n && matches st.src start s 0 then s
    else begin
      let s = String.sub st.src start n in
      st.names.(slot) <- s;
      s
    end
  end

(* Moves past a name and returns where it starts. *)
let skip_name st =
  let start = st.pos in
  let i = ref start in
  while !i < st.len && is_name_char (String.unsafe_get st.src !i) do
    incr i
  done;
  st.pos <- !i;
  if !i = start then error st "expected a name";
  start

let read_name st =
  let start = skip_name st in
  intern st start (st.pos - start)

let rec entity_end st start i =
  if i >= st.len then begin
    st.pos <- st.len;
    error st "unexpected end of input"
  end
  else if st.src.[i] = ';' then i
  else if i - start >= 10 then begin
    st.pos <- i + 1;
    error st "entity too long"
  end
  else entity_end st start (i + 1)

(* Decodes the entity at the current '&' into [buf]. *)
let add_entity st buf =
  let start = st.pos + 1 in
  let semi = entity_end st start start in
  let ent = String.sub st.src start (semi - start) in
  st.pos <- semi + 1;
  match ent with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ when String.length ent > 1 && ent.[0] = '#' -> (
      (* [int_of_string] alone would also take a sign, '_' and 0x, 0o
         or 0b prefixes. *)
      let hex = ent.[1] = 'x' in
      let skip = if hex then 2 else 1 in
      let digits = String.sub ent skip (String.length ent - skip) in
      match
        if digits <> "" && String.for_all (if hex then is_hex_digit else is_digit) digits
        then int_of_string_opt (if hex then "0x" ^ digits else digits)
        else None
      with
      | Some code when Uchar.is_valid code -> Buffer.add_utf_8_uchar buf (Uchar.of_int code)
      | Some _ | None -> error st (Printf.sprintf "bad character reference &%s;" ent))
  | _ -> error st (Printf.sprintf "unknown entity &%s;" ent)

(* Advances to the next [stop] or '&'. *)
let span st stop =
  let i = ref st.pos in
  while
    !i < st.len
    &&
    let c = String.unsafe_get st.src !i in
    c <> stop && c <> '&'
  do
    incr i
  done;
  st.pos <- !i;
  if !i >= st.len then error st "unexpected end of input in text"

(* The characters from [start] up to the next [stop], with entities
   decoded; the current position is at the first '&' after [start]. *)
let decoded st start stop =
  let buf = Buffer.create (st.pos - start + 16) in
  Buffer.add_substring buf st.src start (st.pos - start);
  while
    if st.pos >= st.len then error st "unexpected end of input in text";
    st.src.[st.pos] <> stop
  do
    if st.src.[st.pos] = '&' then add_entity st buf
    else begin
      Buffer.add_char buf st.src.[st.pos];
      st.pos <- st.pos + 1
    end
  done;
  Buffer.contents buf

let grow a fill = Array.append a (Array.make (Array.length a) fill)

(* Reads one attribute into slot [attr_count]. *)
let read_attribute st =
  let name = skip_name st in
  skip_spaces st;
  expect_char st '=';
  skip_spaces st;
  if st.pos >= st.len then error st "unexpected end of input";
  let quote = st.src.[st.pos] in
  st.pos <- st.pos + 1;
  if quote <> '"' && quote <> '\'' then error st "expected quoted attribute value";
  let start = st.pos in
  span st quote;
  let i = st.attr_count in
  if i = Array.length st.attr_name then begin
    st.attr_name <- grow st.attr_name 0;
    st.attr_start <- grow st.attr_start 0;
    st.attr_len <- grow st.attr_len 0;
    st.attr_decoded <- grow st.attr_decoded ""
  end;
  st.attr_name.(i) <- name;
  if st.src.[st.pos] = quote then begin
    st.attr_start.(i) <- start;
    st.attr_len.(i) <- st.pos - start
  end
  else begin
    st.attr_decoded.(i) <- decoded st start quote;
    st.attr_start.(i) <- -1
  end;
  st.attr_count <- i + 1;
  st.pos <- st.pos + 1

let rec attributes st =
  skip_spaces st;
  if st.pos >= st.len then error st "unexpected end of input in tag";
  match st.src.[st.pos] with
  | '/' | '>' -> ()
  | _ ->
      read_attribute st;
      attributes st

let attribute_count st = st.attr_count

let check_index st i fn =
  if i < 0 || i >= st.attr_count then invalid_arg ("Xml." ^ fn)

let rec name_end st i =
  if i < st.len && is_name_char (String.unsafe_get st.src i) then name_end st (i + 1) else i

let attribute_name st i =
  check_index st i "attribute_name";
  let start = st.attr_name.(i) in
  intern st start (name_end st start - start)

let attribute_value st i =
  check_index st i "attribute_value";
  if st.attr_start.(i) < 0 then st.attr_decoded.(i)
  else intern st st.attr_start.(i) st.attr_len.(i)

let rec find_from st name i =
  if i = st.attr_count then -1
  else
    let start = st.attr_name.(i) and n = String.length name in
    if
      start + n <= st.len && matches st.src start name 0
      && not (start + n < st.len && is_name_char (String.unsafe_get st.src (start + n)))
    then i
    else find_from st name (i + 1)

let find_attribute st name = find_from st name 0

let attribute st name =
  match find_attribute st name with -1 -> None | i -> Some (attribute_value st i)

(* At the '<' of a start tag: reads the tag, reports it, and opens it
   unless it is empty. *)
let open_element st ~start ~stop =
  st.pos <- st.pos + 1;
  let first = skip_name st in
  let n = st.pos - first in
  let tag =
    if String.length st.last_tag = n && matches st.src first st.last_tag 0 then st.last_tag
    else begin
      st.last_tag <- intern st first n;
      st.last_tag
    end
  in
  st.attr_count <- 0;
  attributes st;
  if st.src.[st.pos] = '/' then begin
    expect st "/>";
    start tag st;
    stop tag
  end
  else begin
    st.pos <- st.pos + 1;
    start tag st;
    if st.depth = Array.length st.open_tags then st.open_tags <- grow st.open_tags "";
    (* Siblings share a tag: skip the write barrier then. *)
    if st.open_tags.(st.depth) != tag then st.open_tags.(st.depth) <- tag;
    st.depth <- st.depth + 1
  end

(* After the "</" of the end tag that must close [tag]. *)
let close_element st tag =
  let n = String.length tag in
  if at st tag && not (st.pos + n < st.len && is_name_char st.src.[st.pos + n]) then
    st.pos <- st.pos + n
  else begin
    let closing = read_name st in
    error st (Printf.sprintf "mismatched closing tag </%s> for <%s>" closing tag)
  end;
  skip_spaces st;
  expect_char st '>'

let text_run st text =
  let start = st.pos in
  let i = ref start in
  while !i < st.len && is_blank (String.unsafe_get st.src !i) do
    incr i
  done;
  let blank = !i in
  st.pos <- !i;
  span st '<';
  if st.src.[st.pos] = '<' then begin
    if st.pos > blank then text st.src start (st.pos - start)
  end
  else
    let s = decoded st start '<' in
    if String.trim s <> "" then text s 0 (String.length s)

let rec skip_doctype st =
  if st.pos >= st.len then error st "unexpected end of input";
  let c = st.src.[st.pos] in
  st.pos <- st.pos + 1;
  if c = '[' then error st "DTD internal subsets are not supported"
  else if c <> '>' then skip_doctype st

(* Whitespace, processing instructions and comments around the root
   element. *)
let rec skip_misc st =
  skip_spaces st;
  if at st "<?" then begin
    skip_past st "?>";
    skip_misc st
  end
  else if at st "<!--" then begin
    skip_past st "-->";
    skip_misc st
  end

let scan ~start ~text ~stop src =
  let st =
    {
      src;
      len = String.length src;
      pos = 0;
      names = Array.make 256 "";
      attr_count = 0;
      attr_name = Array.make 4 0;
      attr_start = Array.make 4 0;
      attr_len = Array.make 4 0;
      attr_decoded = Array.make 4 "";
      open_tags = Array.make 8 "";
      depth = 0;
      last_tag = "";
    }
  in
  skip_misc st;
  if at st "<!DOCTYPE" then begin
    skip_doctype st;
    skip_misc st
  end;
  if not (at st "<") then error st "expected a root element";
  open_element st ~start ~stop;
  while st.depth > 0 do
    if st.pos >= st.len then error st "unexpected end of input in text"
    else if st.src.[st.pos] <> '<' then text_run st text
    else
      match if st.pos + 1 < st.len then st.src.[st.pos + 1] else ' ' with
      | '/' ->
          st.pos <- st.pos + 2;
          let tag = st.open_tags.(st.depth - 1) in
          close_element st tag;
          st.depth <- st.depth - 1;
          stop tag
      | '!' when at st "<!--" -> skip_past st "-->"
      | '!' when at st "<![CDATA[" ->
          st.pos <- st.pos + 9;
          let first = st.pos in
          skip_past st "]]>";
          text src first (st.pos - 3 - first)
      | '?' -> skip_past st "?>"
      | _ -> open_element st ~start ~stop
  done;
  skip_misc st;
  if st.pos < st.len then error st "content after the root element"

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(indent = true) t =
  let buf = Buffer.create 1024 in
  let rec emit depth t =
    let pad () =
      if indent then begin
        if Buffer.length buf > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * depth) ' ')
      end
    in
    match t with
    | Text s -> Buffer.add_string buf (escape s)
    | Element (tag, attrs, children) ->
        pad ();
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k (escape v)))
          attrs;
        if children = [] then Buffer.add_string buf "/>"
        else begin
          Buffer.add_char buf '>';
          let only_elements = List.for_all (function Element _ -> true | Text _ -> false) children in
          List.iter (fun c -> emit (depth + 1) c) children;
          if indent && only_elements then begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf (String.make (2 * depth) ' ')
          end;
          Buffer.add_string buf (Printf.sprintf "</%s>" tag)
        end
  in
  emit 0 t;
  Buffer.contents buf

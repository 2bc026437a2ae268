type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if not (String.exists (fun c -> c = '.' || c = 'e') s) then Buffer.add_string buf ".0"
  end

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when c < ' ' -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_seq buf sep add items =
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; add x) items

let add_member buf colon add (k, v) =
  add_string buf k;
  Buffer.add_string buf colon;
  add v

(* The one-line form; [colon] and [comma] are the separators, so the
   compact form and the results-file rows share it. *)
let rec add_line ~colon ~comma buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_string buf s
  | List l ->
      Buffer.add_char buf '[';
      add_seq buf comma (add_line ~colon ~comma buf) l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      add_seq buf comma (add_member buf colon (add_line ~colon ~comma buf)) kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_line ~colon:":" ~comma:"," buf v;
  Buffer.contents buf

let rec tall = function
  | List l -> List.exists (function List _ | Obj _ -> true | _ -> false) l
  | Obj kvs -> List.exists (fun (_, v) -> tall v) kvs
  | _ -> false

let to_document v =
  let buf = Buffer.create 4096 in
  let row = add_line ~colon:": " ~comma:", " buf in
  let rec add indent v =
    let block opening closing add_item items =
      let pad = "\n" ^ String.make (indent + 2) ' ' in
      Buffer.add_string buf opening;
      add_seq buf "," (fun x -> Buffer.add_string buf pad; add_item x) items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ closing)
    in
    match v with
    | List l when tall v -> block "[" "]" row l
    | Obj kvs when tall v -> block "{" "}" (add_member buf ": " (add (indent + 2))) kvs
    | v -> row v
  in
  add 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let round n x =
  let scale = 10.0 ** float_of_int n in
  Float.round (x *. scale) /. scale

exception Syntax of int * string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () = match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; ws () | _ -> () in
  let eat c = ws (); if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v) else fail "bad literal"
  in
  let span ok =
    let p = !pos in
    while ok (peek ()) do incr pos done;
    String.sub s p (!pos - p)
  in
  let hex4 () =
    let p = !pos in
    let h = span (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> !pos < p + 4 | _ -> false) in
    if String.length h < 4 then fail "bad \\u escape";
    int_of_string ("0x" ^ h)
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      if c < ' ' then fail "control character in string";
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n' | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r' | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012' | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'u' ->
              (* A high surrogate takes the low one that must follow. *)
              let u = hex4 () in
              let u =
                if u land 0xFC00 <> 0xD800 then u
                else begin
                  word "\\u" ();
                  let lo = hex4 () in
                  if lo land 0xFC00 <> 0xDC00 then fail "bad surrogate pair";
                  0x10000 + ((u land 0x3FF) lsl 10) + (lo land 0x3FF)
                end
              in
              if not (Uchar.is_valid u) then fail "bad \\u escape";
              Buffer.add_utf_8_uchar b (Uchar.of_int u)
          | _ -> fail "bad escape");
          go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let text = span (function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text) in
    match (integral, int_of_string_opt text, float_of_string_opt text) with
    | true, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _ -> fail "bad number"
  in
  let items close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' -> incr pos; more acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (items '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr pos; List (items ']' value)
    | '"' -> String (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail (if !pos >= n then "unexpected end of input" else "unexpected character")
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let update_file path members =
  let old =
    if not (Sys.file_exists path) then Ok []
    else
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error e -> Error e
      | text when String.trim text = "" -> Ok []
      | text -> (
          match of_string text with
          | Ok (Obj kvs) -> Ok kvs
          | Ok _ -> Error (path ^ ": not a JSON object")
          | Error e -> Error (path ^ ": " ^ e))
  in
  Result.bind old (fun old ->
      let update (k, v) = (k, Option.value (List.assoc_opt k members) ~default:v) in
      let added = List.filter (fun (k, _) -> not (List.mem_assoc k old)) members in
      let doc = to_document (Obj (List.map update old @ added)) in
      try Ok (Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc))
      with Sys_error e -> Error e)

type token =
  | IDENT of string
  | NUMBER of float
  | STRING of string
  | TRUE | FALSE
  | AND | OR | NOT
  | EQ | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH
  | LPAREN | RPAREN | COMMA | DOT
  | EOF

type position = { offset : int; line : int; column : int }

(* Offsets are what the scanner naturally tracks; line/column are what a
   human (and the service's error payload) wants.  Recomputing from the
   source on the error path keeps the happy path allocation-free. *)
let position src offset =
  let offset = max 0 (min offset (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { offset; line = !line; column = offset - !bol + 1 }

exception Lex_error of { pos : position; message : string }

let error src pos message = raise (Lex_error { pos = position src pos; message })

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let emit tok pos = tokens := (tok, pos) :: !tokens in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c then begin
      (* number: digits [. digits] [e [+-] digits] *)
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        let save = !i in
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        if !i < n && is_digit src.[!i] then
          while !i < n && is_digit src.[!i] do
            incr i
          done
        else i := save (* not an exponent after all *)
      end;
      let text = String.sub src start (!i - start) in
      match float_of_string_opt text with
      | Some f -> emit (NUMBER f) start
      | None -> error src start (Printf.sprintf "bad number %S" text)
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let text = String.sub src start (!i - start) in
      let tok =
        match text with "true" -> TRUE | "false" -> FALSE | _ -> IDENT text
      in
      emit tok start
    end
    else if c = '\'' || c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = c then begin
          closed := true;
          incr i
        end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if not !closed then error src start "unterminated string literal";
      emit (STRING (Buffer.contents buf)) start
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "&&" -> emit AND start; i := !i + 2
      | "||" -> emit OR start; i := !i + 2
      | "==" -> emit EQ start; i := !i + 2
      | "!=" -> emit NEQ start; i := !i + 2
      | "<=" -> emit LE start; i := !i + 2
      | ">=" -> emit GE start; i := !i + 2
      | _ -> (
          incr i;
          match c with
          | '!' -> emit NOT start
          | '<' -> emit LT start
          | '>' -> emit GT start
          | '+' -> emit PLUS start
          | '-' -> emit MINUS start
          | '*' -> emit STAR start
          | '/' -> emit SLASH start
          | '(' -> emit LPAREN start
          | ')' -> emit RPAREN start
          | ',' -> emit COMMA start
          | '.' -> emit DOT start
          | c -> error src start (Printf.sprintf "unexpected character %C" c))
    end
  done;
  emit EOF n;
  List.rev !tokens

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUMBER f -> Printf.sprintf "number %g" f
  | STRING s -> Printf.sprintf "string %S" s
  | TRUE -> "true"
  | FALSE -> "false"
  | AND -> "&&"
  | OR -> "||"
  | NOT -> "!"
  | EQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | EOF -> "end of input"

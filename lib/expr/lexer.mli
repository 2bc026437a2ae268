(** Tokenizer for the constraint expression language.

    The paper implements this with JFlex; we hand-roll the equivalent
    scanner.  Tokens carry their source offset for error reporting. *)

type token =
  | IDENT of string
  | NUMBER of float
  | STRING of string   (** single- or double-quoted literal *)
  | TRUE | FALSE
  | AND | OR | NOT
  | EQ | NEQ | LT | LE | GT | GE
  | PLUS | MINUS | STAR | SLASH
  | LPAREN | RPAREN | COMMA | DOT
  | EOF

type position = { offset : int; line : int; column : int }
(** A resolved source location: byte [offset] into the constraint text,
    with 1-based [line] and [column] derived from it. *)

val position : string -> int -> position
(** [position src offset] resolves a byte offset against the source it
    was produced from (offsets out of range are clamped). *)

exception Lex_error of { pos : position; message : string }

val tokenize : string -> (token * int) list
(** All tokens with their start offsets, ending with [EOF].
    @raise Lex_error on an unrecognized character or unterminated
    string. *)

val token_name : token -> string

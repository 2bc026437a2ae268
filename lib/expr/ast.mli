(** Abstract syntax of the NETEMBED constraint expression language
    (paper, section VI-B): Java-style boolean expressions over the
    attributes of the virtual/real edge under comparison and its
    endpoints (Table I). *)

type obj =
  | V_edge   (** [vEdge] — the query-network edge *)
  | R_edge   (** [rEdge] — the hosting-network edge *)
  | V_source (** [vSource] — query edge source node *)
  | V_target
  | R_source
  | R_target

type binop =
  | Or | And
  | Eq | Neq | Lt | Le | Gt | Ge
  | Add | Sub | Mul | Div

type unop = Not | Neg

type t =
  | Bool of bool
  | Num of float
  | Str of string
  | Lit of Netembed_attr.Value.t
      (** internal: produced by {!Eval.specialize}, never by the parser *)
  | Attr of obj * string  (** dot access, e.g. [vEdge.avgDelay] *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Call of string * t list
      (** [abs], [sqrt], [min], [max], [floor], [ceil], [isBoundTo] *)

val obj_name : obj -> string
val obj_of_name : string -> obj option

val precedence : binop -> int
(** Higher binds tighter; Java precedence: [||] 1, [&&] 2, [==]/[!=] 3,
    relational 4, additive 5, multiplicative 6. *)

val to_string : t -> string
(** Re-printable concrete syntax (fully parenthesized where needed);
    [parse (to_string e)] yields an AST equal to [e]. *)

val equal : t -> t -> bool

val fold_attrs : (obj -> string -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every attribute reference; used to report which attributes
    a query's constraint requires of the hosting network. *)

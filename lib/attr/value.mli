(** Typed attribute values.

    Hosting and query networks are "characterized" by attributes on their
    nodes and links (paper, section IV): measured metrics represented as
    numeric values or ranges, and categorical classes such as
    ["Link (n1,n2) is 802.11g"].  This module is the value universe shared
    by the graph substrate, GraphML I/O and the constraint expression
    interpreter. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Range of float * float  (** inclusive [lo, hi]; invariant lo <= hi *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Coercions}

    The constraint language is dynamically typed in the style of Java
    expressions over boxed values: numeric contexts accept [Int], [Float]
    and booleans never coerce.  All coercion failures raise
    {!Type_error}. *)

exception Type_error of string

val to_float : t -> float
(** [to_float v] is the numeric value of [v].  [Int] widens to float;
    [Range] is rejected (ranges are accessed through {!range_lo} /
    {!range_hi}).  @raise Type_error on non-numeric values. *)

val to_bool : t -> bool
(** @raise Type_error if [v] is not [Bool]. *)

val range_lo : t -> float
(** Lower bound of a [Range]; a plain numeric value is treated as the
    degenerate range [v, v].  @raise Type_error on non-numeric values. *)

val range_hi : t -> float
(** Upper bound, symmetric to {!range_lo}. *)

val is_numeric : t -> bool

(** {1 Construction} *)

val range : float -> float -> t
(** [range lo hi] builds a range value.  @raise Invalid_argument if
    [lo > hi] or either bound is NaN. *)

val of_string_as : [ `Bool | `Int | `Float | `String ] -> string -> t
(** Parse a GraphML data payload according to the declared key type.
    @raise Type_error if the payload does not parse. *)

val type_name : t -> string
(** Human-readable type tag, used in error messages. *)

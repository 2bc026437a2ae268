(** JSON values, their printers and a reader: the one place that decides
    how the service writes JSON.  Certificates, [/metrics.json],
    [--stats], Chrome traces and [BENCH_RESULTS.json] are all built as
    {!t} and printed here.

    Floats print as the shorter of [%.15g] and [%.17g] that reads back
    to the same double, always with a [.] or an exponent so they read
    back as {!Float}; non-finite values print as [null].  Strings escape
    the double quote, the backslash and every byte below 0x20; other
    bytes, UTF-8 included, pass through. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

val to_string : t -> string
(** Compact, no whitespace: the wire, metrics and trace form. *)

val to_document : t -> string
(** The results-file form, newline-terminated.  A container holding a
    list of containers, directly or through a member, is laid out one
    member per line (two-space indent); everything else, each row of
    such a list included, prints on one line with [": "] and [", "]. *)

val of_string : string -> (t, string) result
(** Parse one value.  A number with a fraction or an exponent, or one
    too large for [int], reads as {!Float}, any other as {!Int}; [\u]
    escapes decode to UTF-8.  Errors name the byte offset. *)

val round : int -> float -> float
(** [round n x]: [x] to [n] decimal places, for figures that mean
    nothing beyond that precision (printed with at most [n] decimals). *)

val update_file : string -> (string * t) list -> (unit, string) result
(** Rewrite the JSON object in a file with each given top-level key
    bound to its value: existing keys are replaced in place, new ones
    appended in order, all others kept as data; printed with
    {!to_document}.  A missing or blank file counts as [{}].  A file
    that does not parse as an object yields [Error] and is left
    untouched. *)

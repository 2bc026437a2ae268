(** Facade over the constraint expression language: parse once, evaluate
    per edge pair.  See {!Ast}, {!Parser}, {!Eval} for the pieces. *)

type t = Ast.t

val parse : string -> (t, string) result
val parse_exn : string -> t
(** @raise Invalid_argument with the parse error message. *)

val to_string : t -> string
val accepts : Eval.env -> t -> bool
val always : t
(** The constant-true constraint (an unconstrained query: pure subgraph
    isomorphism, the paper's worst case). *)

(** {1 Stock constraints used throughout the evaluation} *)

val delay_range_within : t
(** ["rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"]
    — the paper's PlanetLab experiment constraint ("the real link delay
    range is within the specified query-link delay range"). *)

val avg_delay_within : t
(** ["rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"]
    — the looser variant constraining only the measured average (used by
    the clique and composite experiments, which specify one band). *)

val delay_tolerance : float -> t
(** [delay_tolerance 0.10] is the paper's ±10% example:
    ["vEdge.avgDelay >= 0.90*rEdge.avgDelay && vEdge.avgDelay <= 1.10*rEdge.avgDelay"]. *)

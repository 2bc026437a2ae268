(** Query requests: the user-facing specification of a virtual network
    (paper, section III component 2).

    A request bundles the query topology (a graph, typically parsed from
    GraphML), the constraint expression (supplied {e separately} from
    the topology, "so adjustments can be easily made without modifying
    the virtual network description"), the algorithm choice and the
    answer mode/budget. *)

type t = {
  query : Netembed_graph.Graph.t;
  constraint_text : string;
  node_constraint_text : string option;
  algorithm : Netembed_core.Engine.algorithm;
  mode : Netembed_core.Engine.mode;
  timeout : float option;
}

val make :
  ?node_constraint:string ->
  ?algorithm:Netembed_core.Engine.algorithm ->
  ?mode:Netembed_core.Engine.mode ->
  ?timeout:float ->
  query:Netembed_graph.Graph.t ->
  string ->
  t
(** [make ~query constraint_text]; algorithm defaults to ECF, mode to
    [First], no timeout. *)

val read_constraint_file : string -> string
(** Read a constraint file: blank lines and [#]-comments dropped, the
    remaining lines conjoined with [&&]; a file with none reads as
    ["true"].  The CLI's [--constraint @FILE] syntax. *)

val parse_constraints : t -> (Netembed_expr.Ast.t * Netembed_expr.Ast.t option, string) result
(** Parse both constraint texts. *)

val relax : t -> float -> t
(** [relax t factor] widens every numeric ["minDelay"]/["maxDelay"]
    range attribute on query links by the factor (e.g. [0.2] widens by
    ±20%) — the negotiation step of the interactive scenario ("begin
    with more stringent constraints and relax them if there is no
    compliant mapping"). *)

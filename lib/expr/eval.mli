(** Evaluator for constraint expressions.

    "The constraint expression is evaluated when comparing every edge of
    the virtual network with every edge of the hosting network.  If such
    an evaluation returns a true value, the mapping between these edges
    is accepted." (paper, section VI-B)

    An environment supplies the six objects of Table I as attribute
    tables.  Evaluation is dynamically typed with Java-like semantics:
    numbers mix freely, strings compare with [==]/[!=] and ordering,
    booleans only combine logically.

    Missing attributes: a reference to an attribute the network does not
    carry makes the whole constraint evaluate to [false] under
    {!accepts} (the edge pair simply cannot be certified), except inside
    [isBoundTo] whose defined semantics is "unconstrained when the query
    does not carry the attribute".  {!eval} raises instead, for callers
    that want strictness.

    Evaluation order is defined, not incidental: operands evaluate left
    to right; arithmetic operands convert to numbers as soon as each is
    evaluated; comparison operands are both evaluated before the
    (type-checking) comparison; division checks for a zero divisor after
    evaluating both sides; call arguments evaluate left to right before
    the arity or function-name check, except that [isBoundTo] checks its
    arity before touching either argument.  The order decides which
    class of error ([Eval_error] vs [Missing_attr]) an input raises, and
    so whether {!accepts} rejects it or raises; the evaluation-order
    table in the expression tests pins it. *)

type env = {
  v_edge : Netembed_attr.Attrs.t;
  r_edge : Netembed_attr.Attrs.t;
  v_source : Netembed_attr.Attrs.t;
  v_target : Netembed_attr.Attrs.t;
  r_source : Netembed_attr.Attrs.t;
  r_target : Netembed_attr.Attrs.t;
}

val env :
  v_edge:Netembed_attr.Attrs.t -> r_edge:Netembed_attr.Attrs.t ->
  v_source:Netembed_attr.Attrs.t -> v_target:Netembed_attr.Attrs.t ->
  r_source:Netembed_attr.Attrs.t -> r_target:Netembed_attr.Attrs.t -> env

exception Eval_error of string
exception Missing_attr of Ast.obj * string

val eval : env -> Ast.t -> Netembed_attr.Value.t
(** @raise Eval_error on type errors, division by zero, unknown
    functions or bad arity.
    @raise Missing_attr on a reference to an absent attribute (outside
    [isBoundTo]). *)

val accepts : env -> Ast.t -> bool
(** [accepts env e] is the edge-pair acceptance test: true iff [e]
    evaluates to [Bool true].  Missing attributes yield [false]; type
    errors still raise {!Eval_error} (they indicate a malformed query,
    not a non-matching edge). *)

val swap_r_orientation : env -> env
(** Exchange [r_source]/[r_target] — used to test the reverse
    orientation of an undirected hosting edge. *)

val specialize :
  v_edge:Netembed_attr.Attrs.t ->
  v_source:Netembed_attr.Attrs.t ->
  v_target:Netembed_attr.Attrs.t ->
  Ast.t -> Ast.t
(** Partial evaluation for filter construction: substitute the (fixed)
    query-side attributes into the expression and fold every subtree
    that became closed.  [accepts env (specialize ... e)] agrees with
    [accepts env e] whenever the v-side tables of [env] match the ones
    given here. *)

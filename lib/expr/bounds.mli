(** Static bounds extraction: sound per-object attribute atoms.

    Walking a constraint's conjunctive spine ([&&] only) yields atoms
    of the form "this object's attribute compares thus with this
    constant" — e.g. [rSource.cpuMhz >= 900], [rEdge.os == 'linux'],
    [!rSource.reserved].  Each atom is {e sound} for acceptance
    filtering: if the atom is {b Fail} for an edge or node (the
    attribute is present with a definite non-matching value, or absent),
    then {!Eval.accepts} is false for every environment binding that
    object this way, so the candidate can be dropped without running
    the constraint.  The filter layer exploits this by sweeping
    unboxed attribute columns into bitsets before falling back to
    generic {!Eval} evaluation on the survivors, and the explain path blames
    near-misses through the same atoms (one extraction, two users —
    this replaces the ad-hoc numeric-requirement walk {!Explain} used
    to carry).

    Caveat, matching {!Eval.accepts}: dropping a candidate early can
    suppress an [Eval_error] another conjunct would have raised for
    that candidate (the interpreter propagates such errors, it does not
    reject).  Well-typed constraints — everything the stock library and
    the differential suite generate — are unaffected, and a value whose
    {e own} atom cannot be decided ({b Unknown}) is never dropped, so
    the surviving evaluation raises exactly what the interpreter
    would. *)

type cmp = Lt | Le | Gt | Ge

type atom =
  | Cmp of { subject : Ast.obj; attr : string; cmp : cmp; bound : float }
      (** ordering against a numeric constant, [compare_values]
          semantics: decided by [Float.compare] for numeric values,
          {b Unknown} for present non-numeric values (generic
          evaluation would raise) *)
  | Eq of { subject : Ast.obj; attr : string; value : Netembed_attr.Value.t }
      (** equality with a constant, [eval_eq] / [Value.equal]
          semantics: always decided, mixed types are simply unequal *)
  | Has_bool of { subject : Ast.obj; attr : string; value : bool }
      (** a bare ([rSource.up]) or negated ([!rSource.reserved])
          attribute used as the conjunct itself; {b Unknown} for
          present non-boolean values *)

type t = {
  atoms : atom list;  (** in conjunct order *)
  complete : bool;
      (** true when the constraint is {e exactly} the conjunction of
          [atoms] — then a candidate passing every atom definitively
          needs no generic evaluation at all *)
}

val of_ast : Ast.t -> t
(** Extract from a (typically residual/specialized) expression.
    Conjuncts that are not recognizable atoms contribute nothing and
    clear [complete]; the result is always sound, sometimes empty. *)

val atom_subject : atom -> Ast.obj * string

val satisfied : atom -> Netembed_attr.Value.t -> [ `Pass | `Fail | `Unknown ]
(** Classify a {e present} attribute value against an atom.  [`Fail]
    licenses dropping the candidate; [`Unknown] means generic
    evaluation must decide (and may raise).  An {e absent} attribute is
    always a safe drop — every atom rejects it. *)

val interval : t -> Ast.obj -> string -> float * float
(** The implied closed numeric interval for one attribute,
    [(neg_infinity, infinity)] when unconstrained — the derived
    "attribute intervals" view used by documentation and explain
    summaries.  Only {!Cmp} and numeric {!Eq} atoms narrow it. *)

val pp_atom : Format.formatter -> atom -> unit
(** Constraint-language syntax, e.g. [rSource.cpuMhz >= 900]. *)

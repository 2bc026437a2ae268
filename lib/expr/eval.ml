module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value

type env = {
  v_edge : Attrs.t;
  r_edge : Attrs.t;
  v_source : Attrs.t;
  v_target : Attrs.t;
  r_source : Attrs.t;
  r_target : Attrs.t;
}

let env ~v_edge ~r_edge ~v_source ~v_target ~r_source ~r_target =
  { v_edge; r_edge; v_source; v_target; r_source; r_target }

exception Eval_error of string
exception Missing_attr of Ast.obj * string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let table env = function
  | Ast.V_edge -> env.v_edge
  | Ast.R_edge -> env.r_edge
  | Ast.V_source -> env.v_source
  | Ast.V_target -> env.v_target
  | Ast.R_source -> env.r_source
  | Ast.R_target -> env.r_target

let lookup env obj name =
  match Attrs.find name (table env obj) with
  | Some v -> v
  | None -> raise (Missing_attr (obj, name))

let as_number v =
  try Value.to_float v
  with Value.Type_error m -> fail "numeric operation: %s" m

let as_boolean v =
  try Value.to_bool v
  with Value.Type_error m -> fail "boolean operation: %s" m

let compare_values a b =
  match (a, b) with
  | Value.String x, Value.String y -> String.compare x y
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      Float.compare (as_number a) (as_number b)
  | _ ->
      fail "cannot compare %s with %s" (Value.type_name a) (Value.type_name b)

let rec eval env (e : Ast.t) : Value.t =
  match e with
  | Ast.Bool b -> Value.Bool b
  | Ast.Num f -> Value.Float f
  | Ast.Str s -> Value.String s
  | Ast.Lit v -> v
  | Ast.Attr (obj, name) -> lookup env obj name
  | Ast.Unop (Ast.Not, e) -> Value.Bool (not (as_boolean (eval env e)))
  | Ast.Unop (Ast.Neg, e) -> Value.Float (-.as_number (eval env e))
  | Ast.Binop (Ast.And, a, b) ->
      (* Short-circuit, Java-style. *)
      if as_boolean (eval env a) then Value.Bool (as_boolean (eval env b))
      else Value.Bool false
  | Ast.Binop (Ast.Or, a, b) ->
      if as_boolean (eval env a) then Value.Bool true
      else Value.Bool (as_boolean (eval env b))
  | Ast.Binop (Ast.Eq, a, b) -> Value.Bool (eval_eq env a b)
  | Ast.Binop (Ast.Neq, a, b) -> Value.Bool (not (eval_eq env a b))
  | Ast.Binop (Ast.Lt, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      Value.Bool (compare_values va vb < 0)
  | Ast.Binop (Ast.Le, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      Value.Bool (compare_values va vb <= 0)
  | Ast.Binop (Ast.Gt, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      Value.Bool (compare_values va vb > 0)
  | Ast.Binop (Ast.Ge, a, b) ->
      let va = eval env a in
      let vb = eval env b in
      Value.Bool (compare_values va vb >= 0)
  | Ast.Binop (Ast.Add, a, b) ->
      let x = as_number (eval env a) in
      let y = as_number (eval env b) in
      Value.Float (x +. y)
  | Ast.Binop (Ast.Sub, a, b) ->
      let x = as_number (eval env a) in
      let y = as_number (eval env b) in
      Value.Float (x -. y)
  | Ast.Binop (Ast.Mul, a, b) ->
      let x = as_number (eval env a) in
      let y = as_number (eval env b) in
      Value.Float (x *. y)
  | Ast.Binop (Ast.Div, a, b) ->
      let x = as_number (eval env a) in
      let y = as_number (eval env b) in
      if y = 0.0 then fail "division by zero";
      Value.Float (x /. y)
  | Ast.Call ("isBoundTo", [ a; b ]) -> Value.Bool (eval_is_bound_to env a b)
  | Ast.Call ("isBoundTo", args) ->
      fail "isBoundTo expects 2 arguments, got %d" (List.length args)
  | Ast.Call (f, args) ->
      (* Arguments evaluate left to right, before arity or name checks
         (the documented evaluation order; see eval.mli). *)
      let vals = List.rev (List.fold_left (fun acc a -> eval env a :: acc) [] args) in
      eval_call env f vals

and eval_eq env a b =
  let va = eval env a in
  let vb = eval env b in
  match (va, vb) with
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
      Float.equal (as_number va) (as_number vb)
  | _ -> Value.equal va vb

(* isBoundTo(query-side, host-side): if the query side names an attribute
   the query network does not carry, the node is unconstrained (paper:
   only nodes *with* the attribute are forced to match). *)
and eval_is_bound_to env a b =
  match eval env a with
  | exception Missing_attr ((Ast.V_edge | Ast.V_source | Ast.V_target), _) -> true
  | va -> (
      match eval env b with
      | exception Missing_attr _ -> false
      | vb -> Value.equal va vb)

and eval_call _env f args =
  let arity n =
    if List.length args <> n then
      fail "%s expects %d argument%s, got %d" f n (if n = 1 then "" else "s")
        (List.length args)
  in
  let num i = as_number (List.nth args i) in
  match f with
  | "abs" ->
      arity 1;
      Value.Float (Float.abs (num 0))
  | "sqrt" ->
      arity 1;
      let x = num 0 in
      if x < 0.0 then fail "sqrt of negative number";
      Value.Float (sqrt x)
  | "min" ->
      arity 2;
      let x = num 0 in
      let y = num 1 in
      Value.Float (Float.min x y)
  | "max" ->
      arity 2;
      let x = num 0 in
      let y = num 1 in
      Value.Float (Float.max x y)
  | "floor" ->
      arity 1;
      Value.Float (Float.floor (num 0))
  | "ceil" ->
      arity 1;
      Value.Float (Float.ceil (num 0))
  | other -> fail "unknown function %S" other

let accepts env e =
  match eval env e with
  | Value.Bool b -> b
  | v -> fail "constraint evaluated to %s, expected bool" (Value.type_name v)
  | exception Missing_attr _ -> false

let swap_r_orientation env = { env with r_source = env.r_target; r_target = env.r_source }

(* ------------------------------------------------------------------ *)
(* Staged evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* Filter-matrix construction evaluates the same constraint against the
   same query edge for *every* hosting edge (|EQ| * |ER| pairs).
   [specialize] substitutes the query-side attribute lookups once and
   folds any subtree that became closed, so the per-host-edge residual
   only touches r-side attributes.

   Soundness notes:
   - only *present* v-attributes are substituted; a missing one stays an
     [Attr] node so [accepts] still sees [Missing_attr] at runtime
     (short-circuiting may legitimately avoid it);
   - [isBoundTo] whose first argument is a missing v-attribute folds to
     [true], matching [eval_is_bound_to];
   - subtrees whose evaluation raises (division by zero, type errors)
     are left as residuals so the error surfaces exactly as in the
     unstaged interpreter. *)
let specialize ~v_edge ~v_source ~v_target e =
  let venv =
    {
      v_edge;
      v_source;
      v_target;
      r_edge = Attrs.empty;
      r_source = Attrs.empty;
      r_target = Attrs.empty;
    }
  in
  let rec subst (e : Ast.t) : Ast.t =
    match e with
    | Ast.Bool _ | Ast.Num _ | Ast.Str _ | Ast.Lit _ -> e
    | Ast.Attr ((Ast.V_edge | Ast.V_source | Ast.V_target) as obj, name) -> (
        match Attrs.find name (table venv obj) with
        | Some v -> Ast.Lit v
        | None -> e)
    | Ast.Attr ((Ast.R_edge | Ast.R_source | Ast.R_target), _) -> e
    | Ast.Unop (op, a) -> fold (Ast.Unop (op, subst a))
    | Ast.Binop (op, a, b) -> fold (Ast.Binop (op, subst a, subst b))
    | Ast.Call ("isBoundTo", [ a; b ]) -> (
        let a' = subst a in
        match a' with
        | Ast.Attr ((Ast.V_edge | Ast.V_source | Ast.V_target), _) ->
            (* v-side attribute absent: unconstrained. *)
            Ast.Bool true
        | a' -> Ast.Call ("isBoundTo", [ a'; subst b ]))
    | Ast.Call (f, args) -> fold (Ast.Call (f, List.map subst args))
  and fold e =
    (* Fold only subtrees that are closed and evaluate cleanly. *)
    let closed = Ast.fold_attrs (fun _ _ _ -> false) e true in
    if not closed then e
    else match eval venv e with v -> Ast.Lit v | exception _ -> e
  in
  subst e

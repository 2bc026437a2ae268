module Value = Netembed_attr.Value

type cmp = Lt | Le | Gt | Ge

type atom =
  | Cmp of { subject : Ast.obj; attr : string; cmp : cmp; bound : float }
  | Eq of { subject : Ast.obj; attr : string; value : Value.t }
  | Has_bool of { subject : Ast.obj; attr : string; value : bool }

type t = { atoms : atom list; complete : bool }

(* A numeric constant in (possibly folded) expression position. *)
let const_num = function
  | Ast.Num f -> Some f
  | Ast.Lit (Value.Int i) -> Some (float_of_int i)
  | Ast.Lit (Value.Float f) -> Some f
  | _ -> None

(* Any constant at all, as a Value. *)
let const_value = function
  | Ast.Num f -> Some (Value.Float f)
  | Ast.Str s -> Some (Value.String s)
  | Ast.Bool b -> Some (Value.Bool b)
  | Ast.Lit v -> Some v
  | _ -> None

let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le

let cmp_of_binop = function
  | Ast.Lt -> Some Lt
  | Ast.Le -> Some Le
  | Ast.Gt -> Some Gt
  | Ast.Ge -> Some Ge
  | _ -> None

(* One conjunct -> at most one atom.  [None] means "not recognizable":
   the conjunct still holds whatever it holds, we just cannot pre-filter
   on it. *)
let atom_of (e : Ast.t) : atom option =
  match e with
  | Ast.Attr (subject, attr) -> Some (Has_bool { subject; attr; value = true })
  | Ast.Unop (Ast.Not, Ast.Attr (subject, attr)) ->
      Some (Has_bool { subject; attr; value = false })
  | Ast.Binop (Ast.Eq, Ast.Attr (subject, attr), rhs) -> (
      match const_value rhs with
      | Some value -> Some (Eq { subject; attr; value })
      | None -> None)
  | Ast.Binop (Ast.Eq, lhs, Ast.Attr (subject, attr)) -> (
      match const_value lhs with
      | Some value -> Some (Eq { subject; attr; value })
      | None -> None)
  | Ast.Binop (op, Ast.Attr (subject, attr), rhs) -> (
      match (cmp_of_binop op, const_num rhs) with
      | Some cmp, Some bound -> Some (Cmp { subject; attr; cmp; bound })
      | _ -> None)
  | Ast.Binop (op, lhs, Ast.Attr (subject, attr)) -> (
      match (cmp_of_binop op, const_num lhs) with
      | Some cmp, Some bound -> Some (Cmp { subject; attr; cmp = flip cmp; bound })
      | _ -> None)
  | Ast.Call ("isBoundTo", [ lhs; Ast.Attr (subject, attr) ]) -> (
      (* Post-specialization shape: the query side is a literal, so the
         call means "the hosting attribute exists and Value.equals it". *)
      match const_value lhs with
      | Some value -> Some (Eq { subject; attr; value })
      | None -> None)
  | _ -> None

let of_ast (e : Ast.t) : t =
  let rec spine e (atoms, complete) =
    match e with
    | Ast.Binop (Ast.And, a, b) -> spine b (spine a (atoms, complete))
    | Ast.Bool true | Ast.Lit (Value.Bool true) ->
        (* a trivially-true conjunct constrains nothing and hides
           nothing *)
        (atoms, complete)
    | e -> (
        match atom_of e with
        | Some a -> (a :: atoms, complete)
        | None -> (atoms, false))
  in
  let atoms, complete = spine e ([], true) in
  { atoms = List.rev atoms; complete }

let atom_subject = function
  | Cmp { subject; attr; _ } | Eq { subject; attr; _ } | Has_bool { subject; attr; _ }
    ->
      (subject, attr)

let satisfied atom (v : Value.t) =
  match atom with
  | Cmp { cmp; bound; _ } -> (
      match v with
      | Value.Int _ | Value.Float _ ->
          let c = Float.compare (Value.to_float v) bound in
          let ok =
            match cmp with Lt -> c < 0 | Le -> c <= 0 | Gt -> c > 0 | Ge -> c >= 0
          in
          if ok then `Pass else `Fail
      | Value.Bool _ | Value.String _ | Value.Range _ ->
          (* compare_values would raise: keep the candidate so generic
             evaluation surfaces the same error *)
          `Unknown)
  | Eq { value; _ } -> if Value.equal v value then `Pass else `Fail
  | Has_bool { value; _ } -> (
      match v with
      | Value.Bool b -> if b = value then `Pass else `Fail
      | Value.Int _ | Value.Float _ | Value.String _ | Value.Range _ -> `Unknown)

let interval t obj attr =
  List.fold_left
    (fun ((lo, hi) as acc) atom ->
      match atom with
      | Cmp { subject; attr = a; cmp; bound }
        when subject = obj && String.equal a attr && not (Float.is_nan bound) -> (
          match cmp with
          | Ge | Gt -> (Float.max lo bound, hi)
          | Le | Lt -> (lo, Float.min hi bound))
      | Eq { subject; attr = a; value = Value.Int i }
        when subject = obj && String.equal a attr ->
          let f = float_of_int i in
          (Float.max lo f, Float.min hi f)
      | Eq { subject; attr = a; value = Value.Float f }
        when subject = obj && String.equal a attr && not (Float.is_nan f) ->
          (Float.max lo f, Float.min hi f)
      | _ -> acc)
    (Float.neg_infinity, Float.infinity)
    t.atoms

let cmp_name = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp_atom ppf = function
  | Cmp { subject; attr; cmp; bound } ->
      Format.fprintf ppf "%s.%s %s %g" (Ast.obj_name subject) attr (cmp_name cmp) bound
  | Eq { subject; attr; value = Value.String s } ->
      Format.fprintf ppf "%s.%s == '%s'" (Ast.obj_name subject) attr s
  | Eq { subject; attr; value } ->
      Format.fprintf ppf "%s.%s == %s" (Ast.obj_name subject) attr
        (Value.to_string value)
  | Has_bool { subject; attr; value = true } ->
      Format.fprintf ppf "%s.%s" (Ast.obj_name subject) attr
  | Has_bool { subject; attr; value = false } ->
      Format.fprintf ppf "!%s.%s" (Ast.obj_name subject) attr

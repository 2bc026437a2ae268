module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ast = Netembed_expr.Ast
module Bounds = Netembed_expr.Bounds
module Bitset = Netembed_bitset.Bitset

(* One attribute's values across the whole universe: numeric values in
   an unboxed column indexed by member (meaningful where [num_set]
   holds), booleans and strings bucketed, the rare range-valued entries
   listed.  Nothing is sorted: an atom's pass set is one linear sweep. *)
type column = {
  present : Bitset.t;
  num_set : Bitset.t;
  num : float array;
  true_set : Bitset.t;
  false_set : Bitset.t;
  strings : (string, Bitset.t) Hashtbl.t;
  others : (Value.t * int) list;
}

type sets = { pass : Bitset.t; dirty : Bitset.t }

type t = {
  size : int;
  attrs : int -> Attrs.t;
  columns : (string, column) Hashtbl.t;
  atom_cache : (Bounds.atom, sets) Hashtbl.t;
}

let create ~size ~attrs =
  { size; attrs; columns = Hashtbl.create 8; atom_cache = Hashtbl.create 16 }

let size t = t.size

let column t name =
  match Hashtbl.find_opt t.columns name with
  | Some c -> c
  | None ->
      let present = Bitset.create t.size in
      let num_set = Bitset.create t.size in
      let num = Array.make t.size 0.0 in
      let true_set = Bitset.create t.size in
      let false_set = Bitset.create t.size in
      let strings = Hashtbl.create 8 in
      let others = ref [] in
      for i = 0 to t.size - 1 do
        match Attrs.find name (t.attrs i) with
        | None -> ()
        | Some v -> (
            Bitset.add present i;
            match v with
            | Value.Int n ->
                Bitset.add num_set i;
                num.(i) <- float_of_int n
            | Value.Float f ->
                Bitset.add num_set i;
                num.(i) <- f
            | Value.Bool true -> Bitset.add true_set i
            | Value.Bool false -> Bitset.add false_set i
            | Value.String s ->
                let bucket =
                  match Hashtbl.find_opt strings s with
                  | Some b -> b
                  | None ->
                      let b = Bitset.create t.size in
                      Hashtbl.replace strings s b;
                      b
                in
                Bitset.add bucket i
            | Value.Range _ -> others := (v, i) :: !others)
      done;
      let c = { present; num_set; num; true_set; false_set; strings; others = !others } in
      Hashtbl.replace t.columns name c;
      c

(* The numeric members whose value [v] satisfies [keep (Float.compare v
   x)] — Float.compare's total order, the one Eval.compare_values uses
   (NaN below every other float, equal to itself). *)
let sweep size c x keep =
  let out = Bitset.create size in
  Bitset.iter (fun i -> if keep (Float.compare c.num.(i) x) then Bitset.add out i) c.num_set;
  out

let empty_set size = Bitset.create size

let compute_sets t atom =
  match atom with
  | Bounds.Cmp { cmp; bound; attr; _ } ->
      let c = column t attr in
      let keep =
        match cmp with
        | Bounds.Lt -> fun s -> s < 0
        | Bounds.Le -> fun s -> s <= 0
        | Bounds.Gt -> fun s -> s > 0
        | Bounds.Ge -> fun s -> s >= 0
      in
      let pass = sweep t.size c bound keep in
      (* present but non-numeric: generic evaluation must decide (it
         will raise, matching the interpreter) *)
      let dirty = Bitset.diff c.present c.num_set in
      { pass; dirty }
  | Bounds.Eq { value; attr; _ } -> (
      let c = column t attr in
      let dirty = empty_set t.size in
      match value with
      | Value.Int _ | Value.Float _ ->
          { pass = sweep t.size c (Value.to_float value) (fun s -> s = 0); dirty }
      | Value.Bool true -> { pass = Bitset.copy c.true_set; dirty }
      | Value.Bool false -> { pass = Bitset.copy c.false_set; dirty }
      | Value.String s ->
          let pass =
            match Hashtbl.find_opt c.strings s with
            | Some b -> Bitset.copy b
            | None -> empty_set t.size
          in
          { pass; dirty }
      | Value.Range _ ->
          let pass = empty_set t.size in
          List.iter
            (fun (v, i) -> if Value.equal v value then Bitset.add pass i)
            c.others;
          { pass; dirty })
  | Bounds.Has_bool { value; attr; _ } ->
      let c = column t attr in
      let pass = Bitset.copy (if value then c.true_set else c.false_set) in
      let dirty = Bitset.copy c.present in
      Bitset.diff_into ~dst:dirty c.true_set;
      Bitset.diff_into ~dst:dirty c.false_set;
      { pass; dirty }

let sets t atom =
  match Hashtbl.find_opt t.atom_cache atom with
  | Some s -> s
  | None ->
      let s = compute_sets t atom in
      Hashtbl.replace t.atom_cache atom s;
      s

(* ------------------------------------------------------------------ *)
(* Per-residual plans                                                  *)
(* ------------------------------------------------------------------ *)

type restriction = { admissible : Bitset.t; clean : Bitset.t }

type plan = {
  edge : restriction option;
  src : restriction option;
  tgt : restriction option;
  complete : bool;
  infeasible : bool;
}

let unrestricted = { edge = None; src = None; tgt = None; complete = false; infeasible = false }

let add_restriction t acc atom =
  let { pass; dirty } = sets t atom in
  match acc with
  | None ->
      let admissible = Bitset.copy pass in
      Bitset.union_into ~dst:admissible dirty;
      Some { admissible; clean = Bitset.copy pass }
  | Some r ->
      let adm = Bitset.copy pass in
      Bitset.union_into ~dst:adm dirty;
      Bitset.inter_into ~dst:r.admissible adm;
      Bitset.inter_into ~dst:r.clean pass;
      acc

let plan ~edges ~nodes (b : Bounds.t) =
  let acc =
    List.fold_left
      (fun acc atom ->
        if acc.infeasible then acc
        else
          match fst (Bounds.atom_subject atom) with
          | Ast.R_edge -> { acc with edge = add_restriction edges acc.edge atom }
          | Ast.R_source -> { acc with src = add_restriction nodes acc.src atom }
          | Ast.R_target -> { acc with tgt = add_restriction nodes acc.tgt atom }
          | Ast.V_edge | Ast.V_source | Ast.V_target ->
              (* The residual still references a query-side attribute:
                 specialization leaves those in place only when the
                 query does not carry the attribute, so at filter time
                 (query tables out of scope, empty in the evaluation
                 environment) the atom's conjunct rejects every
                 candidate. *)
              { acc with infeasible = true })
      { unrestricted with complete = b.Bounds.complete }
      b.Bounds.atoms
  in
  acc

let admits r i = match r with None -> true | Some { admissible; _ } -> Bitset.mem admissible i
let clean r i = match r with None -> true | Some { clean; _ } -> Bitset.mem clean i

let admits_pair p ~he ~r_src ~r_dst =
  (not p.infeasible) && admits p.edge he && admits p.src r_src && admits p.tgt r_dst

let decides_pair p ~he ~r_src ~r_dst =
  p.complete && clean p.edge he && clean p.src r_src && clean p.tgt r_dst

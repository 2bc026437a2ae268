module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ast = Netembed_expr.Ast
module Bounds = Netembed_expr.Bounds
module Bitset = Netembed_bitset.Bitset

(* One attribute's values across the whole universe: numeric values in
   an unboxed column indexed by member (meaningful where [num_set]
   holds), booleans and strings bucketed, the rare range-valued entries
   listed.  Nothing is sorted: an atom's pass set is one word-parallel
   sweep of the column ({!Bitset.select}). *)
type column = {
  present : Bitset.t;
  num_set : Bitset.t;
  num : float array;
  true_set : Bitset.t;
  false_set : Bitset.t;
  strings : (string, Bitset.t) Hashtbl.t;
  others : (Value.t * int) list;
}

(* Members of [overlay] hold the overlay's number whatever their table
   says; the overlay's array becomes the column's [num]. *)
let column ?overlay ~size ~attrs name =
  let present = Bitset.create size in
  let num_set = Bitset.create size in
  let num, overlaid =
    match overlay with
    | None -> (Array.make size 0.0, fun _ -> false)
    | Some (members, values) ->
        Bitset.union_into ~dst:present members;
        Bitset.union_into ~dst:num_set members;
        (values, Bitset.mem members)
  in
  let true_set = Bitset.create size in
  let false_set = Bitset.create size in
  let strings = Hashtbl.create 8 in
  let others = ref [] in
  for i = 0 to size - 1 do
    if not (overlaid i) then
      match Attrs.find name (attrs i) with
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
                    let b = Bitset.create size in
                    Hashtbl.replace strings s b;
                    b
              in
              Bitset.add bucket i
          | Value.Range _ -> others := (v, i) :: !others)
  done;
  { present; num_set; num; true_set; false_set; strings; others = !others }

type store = { size : int; column : string -> column }

(* A list, not a table: every problem holds a store per universe, and
   many never read a column. *)
let store ~size ~attrs =
  let memo = ref [] in
  let column name =
    match List.assoc_opt name !memo with
    | Some c -> c
    | None ->
        let c = column ~size ~attrs name in
        memo := (name, c) :: !memo;
        c
  in
  { size; column }

type stores = { edges : store; nodes : store }

let of_graph g =
  let open Netembed_graph in
  {
    edges = store ~size:(Graph.edge_count g) ~attrs:(Graph.edge_attrs g);
    nodes = store ~size:(Graph.node_count g) ~attrs:(Graph.node_attrs g);
  }

type sets = { pass : Bitset.t; dirty : Bitset.t }

(* A store's columns with this build's atom cache. *)
type t = { store : store; atom_cache : (Bounds.atom, sets) Hashtbl.t }

let create store = { store; atom_cache = Hashtbl.create 16 }
let size t = t.store.size

let compute_sets t atom =
  match atom with
  | Bounds.Cmp { cmp; bound; attr; _ } ->
      let c = t.store.column attr in
      let cmp =
        match cmp with
        | Bounds.Lt -> Bitset.Lt
        | Bounds.Le -> Bitset.Le
        | Bounds.Gt -> Bitset.Gt
        | Bounds.Ge -> Bitset.Ge
      in
      let pass = Bitset.select ~mask:c.num_set c.num cmp bound in
      (* present but non-numeric: generic evaluation must decide (it
         raises, matching the interpreter, unless another atom drops
         the pair first) *)
      let dirty = Bitset.diff c.present c.num_set in
      { pass; dirty }
  | Bounds.Eq { value; attr; _ } -> (
      let c = t.store.column attr in
      let dirty = Bitset.create (size t) in
      match value with
      | Value.Int _ | Value.Float _ ->
          { pass = Bitset.select ~mask:c.num_set c.num Bitset.Eq (Value.to_float value); dirty }
      | Value.Bool true -> { pass = Bitset.copy c.true_set; dirty }
      | Value.Bool false -> { pass = Bitset.copy c.false_set; dirty }
      | Value.String s ->
          let pass =
            match Hashtbl.find_opt c.strings s with
            | Some b -> Bitset.copy b
            | None -> Bitset.create (size t)
          in
          { pass; dirty }
      | Value.Range _ ->
          let pass = Bitset.create (size t) in
          List.iter
            (fun (v, i) -> if Value.equal v value then Bitset.add pass i)
            c.others;
          { pass; dirty })
  | Bounds.Has_bool { value; attr; _ } ->
      let c = t.store.column attr in
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

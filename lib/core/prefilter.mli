(** Derived-attribute pre-filters for the ECF filter build.

    The filter matrix tests every (query edge, host edge) pair — the
    quadratic heart of stage one.  Most rejections, though, follow from
    a single attribute comparison ([rEdge.avgDelay <= 12],
    [rSource.os == 'linux']).  {!Netembed_expr.Bounds} extracts those
    atoms from each specialized residual; this module turns each atom
    into a pair of bitsets over a universe of attribute carriers (host
    edges, or host nodes):

    - [pass]: carriers whose attribute value definitely satisfies the
      atom — computed one 62-bit word at a time over the attribute's
      unboxed, unsorted numeric column ({!Netembed_bitset.Bitset.select})
      under [Float.compare], the order {!Netembed_expr.Eval} compares by
      (or a bucket lookup for strings and booleans);
    - [dirty]: carriers whose value the atom cannot classify (a
      non-numeric value under an ordering atom, say) — generic
      evaluation must run.  It surfaces the interpreter's error only
      when no other atom rejects the pair first: a pair outside some
      other atom's [pass ∪ dirty] is dropped without evaluation.

    A candidate outside [pass ∪ dirty] is dropped without evaluating
    the constraint; a candidate in every atom's [pass] under a
    {e complete} extraction is accepted without evaluating it.  The
    filter build runs edge residuals and node-constraint residuals
    through the same plans.

    Columns and per-atom sets live apart.  A {!store} serves columns
    per attribute; a {!t} adds one build's atom cache on top.  A store
    over a graph ({!of_graph}) lives for one problem: [Problem.make]
    builds it when the caller passes none, and the problem's filter
    builds and unsat certificate read it.  The service's
    model keeps one store per host universe for its substrate: a
    column persists per substrate and attribute revision, not per
    build, and the ledger-tracked resources are served per model
    revision (see [Model.columns] in lib/service). *)

(** {1 Columns} *)

(** One attribute's values across a universe of [size] members: the
    numeric ones in an unboxed column (meaningful where [num_set]
    holds), booleans and strings bucketed, range values listed.  Once
    built, a column is never written: stores hand the same column to
    concurrent builds. *)
type column = private {
  present : Netembed_bitset.Bitset.t;  (** members carrying the attribute *)
  num_set : Netembed_bitset.Bitset.t;  (** members with an [Int] or [Float] value *)
  num : float array;
  true_set : Netembed_bitset.Bitset.t;
  false_set : Netembed_bitset.Bitset.t;
  strings : (string, Netembed_bitset.Bitset.t) Hashtbl.t;  (** value -> members *)
  others : (Netembed_attr.Value.t * int) list;  (** range values with their member *)
}

val column :
  ?overlay:Netembed_bitset.Bitset.t * float array ->
  size:int ->
  attrs:(int -> Netembed_attr.Attrs.t) ->
  string ->
  column
(** [column ~size ~attrs name] reads attribute [name] of members
    [0 .. size-1] through [attrs i], the member's attribute table.
    With [~overlay:(members, values)], every member of [members] holds
    the number [values.(i)] instead, whatever its table says; [values]
    (of length [size]) becomes the column's [num] and must not be
    written afterwards. *)

type store = { size : int; column : string -> column }
(** A column source over one universe (host edges or host nodes). *)

val store : size:int -> attrs:(int -> Netembed_attr.Attrs.t) -> store
(** A store that builds each column on first use through {!column} and
    keeps it for its own lifetime.  Until then it holds no column and
    no table.  Single-threaded. *)

type stores = { edges : store; nodes : store }

val of_graph : Netembed_graph.Graph.t -> stores
(** {!store}s over a graph's edges and nodes. *)

(** {1 Atom sets} *)

type t
(** A store plus one build's atom cache. *)

val create : store -> t

val size : t -> int

type sets = { pass : Netembed_bitset.Bitset.t; dirty : Netembed_bitset.Bitset.t }

val sets : t -> Netembed_expr.Bounds.atom -> sets
(** The atom's pass/dirty classification of every universe member,
    cached per atom.  The returned bitsets are owned by the store:
    read-only. *)

(** {1 Per-residual plans} *)

type restriction = {
  admissible : Netembed_bitset.Bitset.t;  (** ∩ over atoms of [pass ∪ dirty] *)
  clean : Netembed_bitset.Bitset.t;  (** ∩ over atoms of [pass] *)
}

type plan = {
  edge : restriction option;  (** [rEdge]-subject atoms, or [None] *)
  src : restriction option;  (** [rSource]-subject atoms over host nodes *)
  tgt : restriction option;  (** [rTarget]-subject atoms over host nodes *)
  complete : bool;
      (** the residual is exactly its atoms: all-clean candidates need
          no evaluation at all *)
  infeasible : bool;
      (** an atom references a query-side attribute the query does not
          carry — every candidate rejects *)
}

val plan : edges:t -> nodes:t -> Netembed_expr.Bounds.t -> plan
(** Combine one residual's atoms into per-object restrictions against
    an edge universe and a node universe. *)

val admits_pair : plan -> he:int -> r_src:int -> r_dst:int -> bool
(** False means the pair definitely violates some atom: drop without
    evaluating. *)

val decides_pair : plan -> he:int -> r_src:int -> r_dst:int -> bool
(** True means the pair definitely satisfies the whole residual: accept
    without evaluating.  Only ever true for complete extractions. *)

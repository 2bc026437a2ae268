(** Derived-attribute pre-filters for the ECF filter build.

    The filter matrix tests every (query edge, host edge) pair — the
    quadratic heart of stage one.  Most rejections, though, follow from
    a single attribute comparison ([rEdge.avgDelay <= 12],
    [rSource.os == 'linux']).  {!Netembed_expr.Bounds} extracts those
    atoms from each specialized residual; this module turns each atom
    into a pair of bitsets over a universe of attribute carriers (host
    edges, or host nodes):

    - [pass]: carriers whose attribute value definitely satisfies the
      atom — computed by one linear sweep over the attribute's unboxed,
      unsorted numeric column under [Float.compare], the order
      {!Netembed_expr.Eval} compares by (or a bucket lookup for strings
      and booleans);
    - [dirty]: carriers whose value the atom cannot classify (a
      non-numeric value under an ordering atom, say) — generic
      evaluation must run and will surface the interpreter's error.

    A candidate outside [pass ∪ dirty] is dropped without evaluating
    the constraint; a candidate in every atom's [pass] under a
    {e complete} extraction is accepted without evaluating it.  Columns
    and per-atom sets are cached, so a constraint mentioning the same
    attribute across many residuals builds each column once per build.
    The filter build runs edge residuals and node-constraint residuals
    through the same plans. *)

type t
(** A column store over one universe (host edges or host nodes). *)

val create : size:int -> attrs:(int -> Netembed_attr.Attrs.t) -> t
(** [create ~size ~attrs] stores columns over members [0 .. size-1]
    with [attrs i] the attribute table of member [i].  Columns build
    lazily, on the first atom that touches each attribute. *)

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

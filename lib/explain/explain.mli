(** Explainability kernel: constraint blame, near-miss analysis and the
    search flight recorder.

    When an embedding request comes back UNSAT or times out, the raw
    counters of {!Netembed_telemetry} say {e how much} work was done but
    not {e why} it failed.  This library holds the data structures the
    search core records into and the failure-certificate format the
    engine assembles from them:

    - {!Blame}: per (query node, {!Cause.t}) elimination counts — which
      constraint removed how many candidate hosts from which node's
      domain.  Filled by the filter build, the DFS wipeout path and the
      LNS lazy checks when explain mode is on.
    - {!Recorder}: a preallocated ring buffer of recent search events
      (visits sampled at 1/N, wipeouts, backtracks, solutions) — the
      flight recorder dumped on timeout so operators can see the thrash
      point.
    - {!requirements} / {!near_misses}: best-effort extraction of
      ["attr OP number"] obligations from a (specialized) constraint and
      the ranking of hosts that {e almost} satisfy them, producing lines
      like ["n3 needs cpuMhz >= 3000; best host plab-112 has 2400"].
    - {!Certificate}: the failure certificate — verdict, blamed nodes
      with causes and near misses, the hot search depth, and the flight
      dump — with text and JSON renderings.

    The library deliberately knows nothing about {!Netembed_core}
    (problems, filters); query and host nodes are plain ints and labels
    are supplied by the caller, so the core can depend on it. *)

module Cause : sig
  type t =
    | Degree_filter  (** host degree below the query node's degree *)
    | Node_constraint  (** the per-node constraint rejected the host *)
    | Edge_constraint of int * int
        (** no host edge satisfies the constraint of the query edge
            between these two query nodes (blamed node first) *)
    | Host_contention
        (** every surviving candidate was already assigned to another
            query node *)
    | Admission of string
        (** aggregate demand for the named resource exceeds the total
            residual — rejected before search *)
    | Budget  (** the search gave up, nothing was proved *)

  val to_string : t -> string

  val label : t -> string
  (** Low-cardinality metrics label ([degree_filter], [node_constraint],
      [edge_constraint], [host_contention], [admission], [budget]). *)
end

(** Per-(query node, cause) candidate-elimination counts. *)
module Blame : sig
  type t

  val create : unit -> t
  val record : t -> q:int -> Cause.t -> int -> unit
  (** Add [n] eliminations ([n <= 0] is a no-op). *)

  val eliminate : t -> q:int -> Cause.t -> unit
  (** [record t ~q cause 1]. *)

  val is_empty : t -> bool

  val by_node : t -> int -> (Cause.t * int) list
  (** Causes recorded against one query node, most eliminations first. *)

  val totals : t -> (Cause.t * int) list
  (** Aggregated over all nodes, most eliminations first. *)

  val label_totals : t -> (string * int) list
  (** {!totals} aggregated by {!Cause.label} — what the
      blame-by-constraint metrics counters consume. *)

  val total_for : t -> int -> int
  val nodes : t -> int list
  (** Query nodes with any recorded blame, most-blamed first. *)
end

(** Preallocated ring buffer of recent search events. *)
module Recorder : sig
  type kind = Visit | Wipeout | Backtrack | Solution

  type event = {
    seq : int;  (** monotonic event number since creation *)
    kind : kind;
    depth : int;
    host : int;  (** most recently chosen host (-1 when not applicable) *)
    size : int;  (** candidate-domain cardinality (visits only) *)
  }

  type t

  val create : ?capacity:int -> ?sample_every:int -> unit -> t
  (** [capacity] events retained (default 256); visits are sampled at
      1/[sample_every] (default 32) while wipeouts, backtracks and
      solutions are always recorded.
      @raise Invalid_argument when either is < 1. *)

  val visit : t -> depth:int -> host:int -> size:int -> unit
  val wipeout : t -> depth:int -> host:int -> unit
  val backtrack : t -> depth:int -> unit
  val solution : t -> depth:int -> unit

  val recorded : t -> int
  (** Total events pushed (monotonic; the ring holds the last
      [capacity] of them). *)

  val sample_every : t -> int

  val events : t -> event list
  (** Retained events, oldest first. *)
end

(** {1 Requirements and near misses} *)

type requirement = {
  subject : Netembed_expr.Ast.obj;
  attr : string;
  op : [ `Eq | `Ge | `Gt | `Le | `Lt ];
  bound : float;
}
(** One ["attr OP number"] obligation read off a constraint. *)

val requirement_to_string : requirement -> string

val requirements :
  on:Netembed_expr.Ast.obj list -> Netembed_expr.Ast.t -> requirement list
(** The numeric projection of {!Netembed_expr.Bounds.of_ast}, filtered
    to the [on] objects: comparisons that pin an attribute against a
    closed numeric bound.  The filter's attribute pre-sweeps are driven
    by the same extraction, so certificates and filtering agree by
    construction.  Best-effort: disjunctions, arithmetic around the
    attribute, string atoms and bare booleans are skipped. *)

val satisfies : requirement -> float -> bool

type near_miss = {
  id : int;
  label : string;
  violated : (requirement * float option) list;
      (** violated requirements with the actual value ([None] when the
          attribute is missing) *)
  satisfied : int;  (** requirements the item does satisfy *)
}

val near_misses :
  reqs:requirement list ->
  count:int ->
  column:(string -> Netembed_bitset.Bitset.t * float array) ->
  attrs:(int -> Netembed_attr.Attrs.t) ->
  label:(int -> string) ->
  limit:int ->
  near_miss list
(** The items [0 .. count - 1] that violate at least one requirement,
    best first, at most [limit] of them — the "best host has 2400 of
    the 3000 MHz you asked for" lines of a certificate.  An item's id
    is its index.

    [column attr] is called once per requirement and gives the
    attribute's numeric column over the items: [(num_set, num)], where
    [num_set] holds the items whose value is an [Int] or a [Float]
    (universe at least [count]) and [num.(i)] is that value as a float
    (length at least [count]).  It must agree with [attrs]:
    [Attrs.float attr (attrs i)] is [Some num.(i)] exactly when [i] is
    in [num_set] — what [Prefilter.column] builds (lib/core).

    The key is the number of violated requirements (fewest first), then
    the relative shortfall [|v - bound| / max 1 |bound|] summed over the
    violated ones in requirement order, starting from [0.0] (smallest
    first; an item outside [num_set] costs 1.0, and a NaN sum ranks
    ahead of every number, as under [Float.compare]).  Equal keys keep
    id order.  The ranking reads the columns only and allocates nothing
    per item: its words do not grow with [count].  Only the winners are
    read through [attrs] and labelled, so each is called at most
    [limit] times.  [[]] when [reqs] is empty. *)

val near_miss_to_string : near_miss -> string

(** {1 Failure certificates} *)

module Certificate : sig
  type blamed = {
    node : int;
    node_label : string;
    causes : (Cause.t * int) list;  (** most eliminations first *)
    requirements : requirement list;
    near : near_miss list;
  }

  type hot_spot = {
    depth : int;
    node : int;  (** -1 when the searcher has no static depth->node map *)
    node_label : string;
    backtracks : int;
    wipeouts : int;
  }

  type t = {
    verdict : string;
        (** ["unsat"] (proved infeasible), ["exhausted"]/["partial"]
            (gave up), ["admission"] (rejected before search) or
            ["complete"] (diagnostics for a slow but successful run) *)
    message : string;
    blamed : blamed list;
    hot_spot : hot_spot option;
    notes : string list;
    flight : Recorder.event list;
  }

  val make :
    ?blamed:blamed list ->
    ?hot_spot:hot_spot ->
    ?notes:string list ->
    ?flight:Recorder.event list ->
    verdict:string ->
    string ->
    t

  val primary_cause : t -> Cause.t option
  (** The top cause of the top blamed node, when any. *)

  val to_text : t -> string
  (** Multi-line human rendering (what [netembed_cli explain] prints). *)

  val to_json : t -> string
end


(** Optimization over feasible embeddings.

    NETEMBED deliberately separates feasibility from optimality (paper,
    section III): "the solution to a constraint satisfaction problem may
    yield multiple feasible embeddings, in which case the embedding of
    choice would be the one that minimizes a specific cost metric".
    This module is that second stage — and one of the paper's stated
    follow-ups ("What assignment of resources minimizes some cost metric
    or objective function?").

    Costs are plain functions of a mapping, so applications bring their
    own objective; stock metrics cover the common cases. *)

open Netembed_core

type cost = Problem.t -> Mapping.t -> float

val best_of : Problem.t -> cost:cost -> Mapping.t list -> Mapping.t option
(** Minimum-cost mapping (ties: first in list order). *)

val rank : Problem.t -> cost:cost -> Mapping.t list -> (Mapping.t * float) list
(** All mappings with their costs, ascending. *)

val find_best :
  ?options:Engine.options -> Engine.algorithm -> Problem.t -> cost:cost ->
  (Mapping.t * float) option
(** Enumerate embeddings with the engine (mode forced to [All] unless
    the given options say otherwise) and return the cheapest found
    within the budget — the "explore a representative subset ... in
    order to optimize resource allocation over that subset" usage from
    section V-B. *)

(** {1 Stock cost metrics} *)

val total_avg_delay : cost
(** Sum of the mapped host links' ["avgDelay"] over all query links
    (missing attributes count 0): prefer low-latency embeddings. *)

val max_avg_delay : cost
(** Bottleneck latency. *)

val total_host_degree : cost
(** Sum of host degrees of the used nodes — a scarcity proxy: smaller
    means the embedding consumes less-connected (less precious) nodes,
    the [assign]-style "preserve future capacity" objective. *)

val node_attr_sum : string -> cost
(** [node_attr_sum "load"] sums a numeric node attribute over the used
    hosts (missing values count 0). *)

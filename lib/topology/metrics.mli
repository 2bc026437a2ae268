(** Structural graph metrics, used to validate the synthetic topologies
    against their models (BRITE power laws, PlanetLab density) and
    printed by the CLI's [info]. *)

open Netembed_graph

type degree_stats = {
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  degree_histogram : (int * int) list;  (** (degree, #nodes), ascending *)
}

val degree_stats : Graph.t -> degree_stats

val clustering_coefficient : Graph.t -> float
(** Mean local clustering coefficient over nodes of degree >= 2
    (undirected interpretation); 0 when no such node exists. *)

val power_law_exponent : Graph.t -> float option
(** Least-squares slope of log(count) vs log(degree) over the degree
    histogram — a quick check that preferential-attachment topologies
    exhibit a heavy tail.  [None] when fewer than 3 distinct degrees. *)

val pp_degree_stats : Format.formatter -> degree_stats -> unit

open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ledger = Netembed_ledger.Ledger
module Prefilter = Netembed_core.Prefilter
module Bitset = Netembed_bitset.Bitset

(* One host universe's attribute columns (see [columns]).  A column
   is never written once published, so builds read it with no lock.
   - [tracked]: the ledger resources of this element class, with the
     elements that declared each.  [current] holds their columns at
     model revision [tracked_rev]; it is replaced, never updated, and
     only under the model's caller's lock.
   - [static]: every other attribute's column at attribute revision
     [static_rev], filled by builds from their own snapshots; [lock]
     guards the table and [static_rev]. *)
type universe = {
  kind : Ledger.kind;
  size : int;
  tracked : (string * Bitset.t) list;
  mutable tracked_rev : int;
  mutable current : (string * Prefilter.column) list;
  lock : Mutex.t;
  mutable static_rev : int;
  static : (string, Prefilter.column) Hashtbl.t;
}

type t = {
  graph : Graph.t;
  mutable rev : int;
  (* Bumped with [rev] by every attribute change, not by ledger commits. *)
  mutable attr_rev : int;
  ledger : Ledger.t;
  edge_columns : universe;
  node_columns : universe;
}

let universe ledger kind size =
  let tracked =
    List.map
      (fun r ->
        let members = Bitset.create size in
        Ledger.iter_residuals ledger kind r (fun i _ -> Bitset.add members i);
        (r, members))
      (match kind with
      | `Node -> Ledger.node_resources ledger
      | `Edge -> Ledger.edge_resources ledger)
  in
  {
    kind;
    size;
    tracked;
    tracked_rev = -1;
    current = [];
    lock = Mutex.create ();
    static_rev = -1;
    static = Hashtbl.create 8;
  }

(* The model over [graph], which it owns from here on. *)
let own graph =
  (* svcbench's Verify conjoins ["!rSource.reserved"], false if missing. *)
  Graph.iter_nodes
    (fun v ->
      if not (Attrs.mem "reserved" (Graph.node_attrs graph v)) then
        Graph.set_node_attrs graph v
          (Attrs.add "reserved" (Value.Bool false) (Graph.node_attrs graph v)))
    graph;
  (* Links never change after this, so every residual snapshot (a
     [Graph.copy]) shares this one pair index instead of building its
     own. *)
  Graph.build_pair_index graph;
  let ledger = Ledger.of_graph graph in
  {
    graph;
    rev = 0;
    attr_rev = 0;
    ledger;
    edge_columns = universe ledger `Edge (Graph.edge_count graph);
    node_columns = universe ledger `Node (Graph.node_count graph);
  }

let create g = own (Graph.copy g)
let of_graphml_file path = own (Netembed_graphml.Graphml.read_file path)
let snapshot t = t.graph
let revision t = t.rev
let ledger t = t.ledger

let residual_snapshot t = Ledger.residual_graph t.ledger

(* The store of one universe for a snapshot taken at the current
   revision.  A tracked resource's column is its residual on the
   declaring elements and the base table elsewhere, exactly what the
   snapshot carries; it is rebuilt here, under the caller's lock,
   once per model revision.  Any other attribute reads the same in
   the snapshot as in the base graph, so a build fills it from its
   own snapshot and publishes it for the rest of the attribute
   revision; a build holding an older snapshot keeps its column to
   itself. *)
let store t u ~base ~snapshot =
  if u.tracked_rev <> t.rev then begin
    u.current <-
      List.map
        (fun (r, members) ->
          let values = Array.make u.size 0.0 in
          Ledger.iter_residuals t.ledger u.kind r (fun i x -> values.(i) <- x);
          (r, Prefilter.column ~overlay:(members, values) ~size:u.size ~attrs:base r))
        u.tracked;
    u.tracked_rev <- t.rev
  end;
  let attr_rev = t.attr_rev in
  Mutex.protect u.lock (fun () ->
      if u.static_rev <> attr_rev then begin
        Hashtbl.reset u.static;
        u.static_rev <- attr_rev
      end);
  let tracked = u.current in
  let column name =
    match List.assoc_opt name tracked with
    | Some c -> c
    | None -> (
        let published () =
          if u.static_rev = attr_rev then Hashtbl.find_opt u.static name else None
        in
        match Mutex.protect u.lock published with
        | Some c -> c
        | None ->
            let c = Prefilter.column ~size:u.size ~attrs:snapshot name in
            Mutex.protect u.lock (fun () ->
                if u.static_rev = attr_rev then Hashtbl.replace u.static name c);
            c)
  in
  { Prefilter.size = u.size; column }

let columns t snapshot =
  {
    Prefilter.edges =
      store t t.edge_columns ~base:(Graph.edge_attrs t.graph)
        ~snapshot:(Graph.edge_attrs snapshot);
    nodes =
      store t t.node_columns ~base:(Graph.node_attrs t.graph)
        ~snapshot:(Graph.node_attrs snapshot);
  }

let attributes_changed t =
  t.rev <- t.rev + 1;
  t.attr_rev <- t.attr_rev + 1

let update_edge_attrs t e fresh =
  Graph.set_edge_attrs t.graph e (Attrs.union (Graph.edge_attrs t.graph e) fresh);
  attributes_changed t

let update_node_attrs t v fresh =
  Graph.set_node_attrs t.graph v (Attrs.union (Graph.node_attrs t.graph v) fresh);
  attributes_changed t

let charge_mapping t ~query mapping =
  match Ledger.charge_of_mapping t.ledger ~query mapping with
  | Error m -> Error m
  | Ok charge -> (
      match Ledger.try_commit t.ledger charge with
      | Error f -> Error (Ledger.failure_to_string f)
      | Ok id ->
          t.rev <- t.rev + 1;
          Ok id)

let release_charge t id =
  let ok = Ledger.release t.ledger id in
  if ok then t.rev <- t.rev + 1;
  ok

let migrate_charge t id ~query mapping =
  match Ledger.allocation_charge t.ledger id with
  | None -> Error (Printf.sprintf "allocation %d is not live" id)
  | Some _ -> (
      match Ledger.charge_of_mapping t.ledger ~query mapping with
      | Error m -> Error m
      | Ok charge -> (
          match Ledger.migrate t.ledger id charge with
          | Error f -> Error (Ledger.failure_to_string f)
          | Ok id' ->
              t.rev <- t.rev + 1;
              Ok id'))

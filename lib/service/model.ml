open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ledger = Netembed_ledger.Ledger

type t = {
  graph : Graph.t;
  mutable rev : int;
  ledger : Ledger.t;
  (* The reserved nodes, each with its ledger allocation. *)
  locks : (Graph.node, int) Hashtbl.t;
}

let create g =
  let graph = Graph.copy g in
  (* Every node carries an explicit reservation flag so the standard
     node constraint ["!rSource.reserved"] is total. *)
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
  { graph; rev = 0; ledger = Ledger.of_graph graph; locks = Hashtbl.create 16 }
let of_graphml_file path = create (Netembed_graphml.Graphml.read_file path)
let snapshot t = t.graph
let revision t = t.rev
let ledger t = t.ledger

let residual_snapshot t = Ledger.residual_graph ~base:t.graph t.ledger

let update_edge_attrs t e fresh =
  Graph.set_edge_attrs t.graph e (Attrs.union (Graph.edge_attrs t.graph e) fresh);
  t.rev <- t.rev + 1

let update_node_attrs t v fresh =
  Graph.set_node_attrs t.graph v (Attrs.union (Graph.node_attrs t.graph v) fresh);
  t.rev <- t.rev + 1

exception Conflict of Graph.node

let set_reserved_attr t v flag =
  Graph.set_node_attrs t.graph v
    (Attrs.add "reserved" (Value.Bool flag) (Graph.node_attrs t.graph v))

let reserve t nodes =
  (* The pre-scan must catch unknown ids, conflicts with prior
     reservations and a node appearing twice in this very call before
     anything is locked — otherwise a duplicated node double-books
     silently and a bad id leaves the nodes before it locked. *)
  let seen = Hashtbl.create (List.length nodes) in
  List.iter
    (fun v ->
      if v < 0 || v >= Graph.node_count t.graph then
        invalid_arg (Printf.sprintf "Model.reserve: unknown node %d" v);
      if Hashtbl.mem t.locks v || Hashtbl.mem seen v then raise (Conflict v);
      Hashtbl.replace seen v ())
    nodes;
  List.iter
    (fun v ->
      (* A boolean reservation is the degenerate full-capacity charge:
         the node's entire residual is debited in the ledger. *)
      Hashtbl.replace t.locks v (Ledger.lock t.ledger v);
      set_reserved_attr t v true)
    nodes;
  if nodes <> [] then t.rev <- t.rev + 1

let release t nodes =
  List.iter
    (fun v ->
      match Hashtbl.find_opt t.locks v with
      | Some id ->
          ignore (Ledger.release t.ledger id);
          Hashtbl.remove t.locks v;
          set_reserved_attr t v false
      | None -> ())
    nodes;
  if nodes <> [] then t.rev <- t.rev + 1

let reserved t = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) t.locks [])
let is_reserved t v = Hashtbl.mem t.locks v

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

open Netembed_graph
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Mapping = Netembed_core.Mapping
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ledger = Netembed_ledger.Ledger

type lease = {
  hosts : Graph.node list;
  start : float;
  finish : float;
  charges : int list;  (* ledger allocations held for the window *)
}

type t = {
  host : Graph.t;
  ledger : Ledger.t option;
  mutable lease_list : lease list;
}

let create ?ledger host = { host = Graph.copy host; ledger; lease_list = [] }

let leases t = List.sort (fun a b -> Float.compare a.start b.start) t.lease_list

let busy_at t instant =
  List.concat_map
    (fun l -> if l.start <= instant && instant < l.finish then l.hosts else [])
    t.lease_list
  |> List.sort_uniq compare

type placement = { mapping : Mapping.t; start : float; finish : float }

let drop_charges t lease =
  match t.ledger with
  | None -> ()
  | Some ledger -> List.iter (fun id -> ignore (Ledger.release ledger id)) lease.charges

(* The internal gc: leases whose window is over can never influence a
   candidate window again — prune them and credit their charges back. *)
let gc t ~now =
  let expired, live =
    List.partition (fun (l : lease) -> l.finish <= now) t.lease_list
  in
  List.iter (drop_charges t) expired;
  t.lease_list <- live;
  List.length expired

(* Nodes busy at any point of [start, start+duration). *)
let busy_in_window t ~start ~duration =
  List.concat_map
    (fun (l : lease) ->
      if l.start < start +. duration && start < l.finish then l.hosts else [])
    t.lease_list
  |> List.sort_uniq compare

let earliest ?(algorithm = Engine.ECF) ?timeout t ~now ~duration ~query edge_constraint =
  ignore (gc t ~now);
  (* Candidate start times: now, plus each lease expiry after now (the
     available set only grows at those instants). *)
  let candidates =
    now
    :: List.filter_map
         (fun (l : lease) -> if l.finish > now then Some l.finish else None)
         t.lease_list
    |> List.sort_uniq Float.compare
  in
  let try_window start =
    let busy = busy_in_window t ~start ~duration in
    (* Stamp availability and exclude busy nodes through the node
       constraint, so the search itself never proposes them. *)
    let host = Graph.copy t.host in
    Graph.iter_nodes
      (fun v ->
        Graph.set_node_attrs host v
          (Attrs.add "busy" (Value.Bool (List.mem v busy)) (Graph.node_attrs host v)))
      host;
    let node_constraint = Netembed_expr.Expr.parse_exn "!rSource.busy" in
    match Problem.make ~node_constraint ~host ~query edge_constraint with
    | exception Invalid_argument m -> Error m
    | problem -> (
        match Engine.find_first ?timeout algorithm problem with
        | Some mapping -> Ok (Some { mapping; start; finish = start +. duration })
        | None -> Ok None)
  in
  let rec scan = function
    | [] -> Error "no feasible window: the query cannot embed even on the idle network"
    | start :: rest -> (
        match try_window start with
        | Error m -> Error m
        | Ok (Some placement) -> Ok placement
        | Ok None -> scan rest)
  in
  scan candidates

let book t placement =
  let hosts = List.map snd (Mapping.to_list placement.mapping) in
  let charges =
    match t.ledger with
    | None -> []
    | Some ledger ->
        (* A lease is an exclusive hold on its hosts for the window:
           the whole residual of every tracked node resource, credited
           back when the lease is pruned after expiry.  A host with no
           tracked capacity still gets an empty, live allocation. *)
        let hold h =
          let target = Ledger.Node h in
          let charge =
            List.filter_map
              (fun resource ->
                let amount = Ledger.residual ledger target resource in
                if amount > 0.0 then Some { Ledger.target; resource; amount } else None)
              (Ledger.node_resources ledger)
          in
          match Ledger.try_commit ledger charge with
          | Ok id -> id
          | Error f -> invalid_arg ("Schedule.book: " ^ Ledger.failure_to_string f)
        in
        List.map hold hosts
  in
  t.lease_list <-
    { hosts; start = placement.start; finish = placement.finish; charges }
    :: t.lease_list

let release_expired t ~now = gc t ~now

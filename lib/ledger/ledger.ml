open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Mapping = Netembed_core.Mapping

type kind = [ `Node | `Edge ]

type target = Node of Graph.node | Edge of Graph.edge

type line = { target : target; resource : string; amount : float }
type charge = line list

type failure = {
  resource : string;
  kind : kind;
  target : target option;
  requested : float;
  available : float;
}

(* One tracked resource on one element class: parallel arrays indexed by
   the dense node/edge ids. *)
type pool = {
  p_resource : string;
  p_kind : kind;
  p_capacity : float array;
  p_present : bool array;  (* element declared the attribute *)
  p_used : float array;
}

type t = {
  graph : Graph.t;
  node_pools : pool list;
  edge_pools : pool list;
  allocations : (int, charge) Hashtbl.t;
  mutable next_id : int;
  mutable external_id : int option;  (* usage recovered by sync_residual *)
}

let target_name = function
  | Node v -> Printf.sprintf "node %d" v
  | Edge e -> Printf.sprintf "edge %d" e

let failure_to_string f =
  match f.target with
  | Some tgt ->
      Printf.sprintf "over-committed %s on %s: requested %g, available %g" f.resource
        (target_name tgt) f.requested f.available
  | None ->
      Printf.sprintf
        "aggregate %s demand exceeds total residual %s capacity: requested %g, \
         available %g"
        f.resource
        (match f.kind with `Node -> "node" | `Edge -> "edge")
        f.requested f.available

let pool_of_attr graph kind resource =
  let n = match kind with `Node -> Graph.node_count graph | `Edge -> Graph.edge_count graph in
  let capacity = Array.make n 0.0 and present = Array.make n false in
  let attrs i =
    match kind with `Node -> Graph.node_attrs graph i | `Edge -> Graph.edge_attrs graph i
  in
  let any = ref false in
  for i = 0 to n - 1 do
    match Attrs.float resource (attrs i) with
    | Some c when c >= 0.0 ->
        capacity.(i) <- c;
        present.(i) <- true;
        any := true
    | Some _ | None -> ()
  done;
  if !any then
    Some
      {
        p_resource = resource;
        p_kind = kind;
        p_capacity = capacity;
        p_present = present;
        p_used = Array.make n 0.0;
      }
  else None

let of_graph graph =
  {
    graph;
    node_pools = List.filter_map (pool_of_attr graph `Node) [ "cpuMhz"; "memMB" ];
    edge_pools = List.filter_map (pool_of_attr graph `Edge) [ "bandwidth" ];
    allocations = Hashtbl.create 64;
    next_id = 1;
    external_id = None;
  }

let graph t = t.graph
let node_resources t = List.map (fun p -> p.p_resource) t.node_pools
let edge_resources t = List.map (fun p -> p.p_resource) t.edge_pools
let outstanding t = Hashtbl.length t.allocations

let find_pool t target resource =
  let pools = match target with Node _ -> t.node_pools | Edge _ -> t.edge_pools in
  List.find_opt (fun p -> p.p_resource = resource) pools

let index_of = function Node v -> v | Edge e -> e

let check_index t target =
  let idx = index_of target in
  let limit =
    match target with
    | Node _ -> Graph.node_count t.graph
    | Edge _ -> Graph.edge_count t.graph
  in
  if idx < 0 || idx >= limit then
    invalid_arg (Printf.sprintf "Ledger: unknown %s" (target_name target))

let capacity t target resource =
  check_index t target;
  match find_pool t target resource with
  | Some p -> p.p_capacity.(index_of target)
  | None -> 0.0

let used t target resource =
  check_index t target;
  match find_pool t target resource with
  | Some p -> p.p_used.(index_of target)
  | None -> 0.0

let residual t target resource = capacity t target resource -. used t target resource

let top_residuals t ~resource kind limit =
  let pools = match kind with `Node -> t.node_pools | `Edge -> t.edge_pools in
  match List.find_opt (fun p -> p.p_resource = resource) pools with
  | None -> []
  | Some p ->
      let items = ref [] in
      Array.iteri
        (fun i present ->
          if present then begin
            let tgt = match kind with `Node -> Node i | `Edge -> Edge i in
            items := (tgt, p.p_capacity.(i) -. p.p_used.(i)) :: !items
          end)
        p.p_present;
      List.sort (fun (_, a) (_, b) -> compare (b : float) a) !items
      |> List.filteri (fun i _ -> i < limit)

(* Commit comparisons tolerate last-ulp dust from fractional churn; the
   slack is relative to the capacity so it never admits a real
   violation. *)
let slack cap = 1e-9 *. (Float.abs cap +. 1.0)

(* ------------------------------------------------------------------ *)
(* Demand derivation                                                   *)
(* ------------------------------------------------------------------ *)

let charge_of_mapping t ~query mapping =
  let lines = ref [] in
  let n = Mapping.size mapping in
  for q = 0 to n - 1 do
    let attrs = Graph.node_attrs query q in
    List.iter
      (fun p ->
        match Attrs.float p.p_resource attrs with
        | Some d when d > 0.0 ->
            lines := { target = Node (Mapping.apply mapping q); resource = p.p_resource; amount = d } :: !lines
        | Some _ | None -> ())
      t.node_pools
  done;
  let error = ref None in
  if t.edge_pools <> [] then
    Graph.iter_edges
      (fun qe u v ->
        if !error = None then
          let attrs = Graph.edge_attrs query qe in
          let demands =
            List.filter_map
              (fun p ->
                match Attrs.float p.p_resource attrs with
                | Some d when d > 0.0 -> Some (p.p_resource, d)
                | Some _ | None -> None)
              t.edge_pools
          in
          if demands <> [] then
            let ru = Mapping.apply mapping u and rv = Mapping.apply mapping v in
            match Graph.find_edge t.graph ru rv with
            | Some he ->
                List.iter
                  (fun (resource, amount) ->
                    lines := { target = Edge he; resource; amount } :: !lines)
                  demands
            | None ->
                error :=
                  Some
                    (Printf.sprintf
                       "query edge %d demands link capacity but hosts %d and %d share \
                        no direct link"
                       qe ru rv))
      query;
  match !error with Some m -> Error m | None -> Ok (List.rev !lines)

let admissible t ~query =
  let check pools element_count query_attrs =
    List.fold_left
      (fun acc p ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let demand = ref 0.0 in
            for i = 0 to element_count - 1 do
              match Attrs.float p.p_resource (query_attrs i) with
              | Some d when d > 0.0 -> demand := !demand +. d
              | Some _ | None -> ()
            done;
            let free = ref 0.0 and cap = ref 0.0 in
            Array.iteri
              (fun i c ->
                if p.p_present.(i) then begin
                  free := !free +. (c -. p.p_used.(i));
                  cap := !cap +. c
                end)
              p.p_capacity;
            if !demand > !free +. slack !cap then
              Error
                {
                  resource = p.p_resource;
                  kind = p.p_kind;
                  target = None;
                  requested = !demand;
                  available = !free;
                }
            else Ok ())
      (Ok ()) pools
  in
  match
    check t.node_pools (Graph.node_count query) (Graph.node_attrs query)
  with
  | Error _ as e -> e
  | Ok () -> check t.edge_pools (Graph.edge_count query) (Graph.edge_attrs query)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

(* Aggregate a charge's lines per (target, resource): parallel query
   edges can land on the same host edge, and their joint demand must be
   validated as one figure. *)
let aggregate charge =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun l ->
      if l.amount < 0.0 then
        invalid_arg
          (Printf.sprintf "Ledger: negative amount %g for %s on %s" l.amount l.resource
             (target_name l.target));
      let key = (l.target, l.resource) in
      match Hashtbl.find_opt tbl key with
      | Some a -> Hashtbl.replace tbl key (a +. l.amount)
      | None ->
          Hashtbl.add tbl key l.amount;
          order := key :: !order)
    charge;
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) !order

(* Recompute the used figure of one (pool, element) exactly from the
   outstanding allocations, in ascending id order for determinism. *)
let recompute t pool idx =
  let ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.allocations [] |> List.sort compare
  in
  let tgt_matches = function
    | Node v -> pool.p_kind = `Node && v = idx
    | Edge e -> pool.p_kind = `Edge && e = idx
  in
  let sum = ref 0.0 in
  List.iter
    (fun id ->
      List.iter
        (fun (l : line) ->
          if l.resource = pool.p_resource && tgt_matches l.target then
            sum := !sum +. l.amount)
        (Hashtbl.find t.allocations id))
    ids;
  pool.p_used.(idx) <- !sum

let try_commit t charge =
  let agg = aggregate charge in
  (* Validation pass: nothing is written unless every line fits. *)
  let failure =
    List.fold_left
      (fun acc ((target, resource), amount) ->
        match acc with
        | Some _ -> acc
        | None -> (
            check_index t target;
            match find_pool t target resource with
            | None ->
                Some
                  {
                    resource;
                    kind = (match target with Node _ -> `Node | Edge _ -> `Edge);
                    target = Some target;
                    requested = amount;
                    available = 0.0;
                  }
            | Some p ->
                let idx = index_of target in
                let free = p.p_capacity.(idx) -. p.p_used.(idx) in
                if amount > free +. slack p.p_capacity.(idx) then
                  Some
                    {
                      resource;
                      kind = p.p_kind;
                      target = Some target;
                      requested = amount;
                      available = Float.max 0.0 free;
                    }
                else None))
      None agg
  in
  match failure with
  | Some f -> Error f
  | None ->
      List.iter
        (fun ((target, resource), amount) ->
          let p = Option.get (find_pool t target resource) in
          let idx = index_of target in
          p.p_used.(idx) <- p.p_used.(idx) +. amount)
        agg;
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.add t.allocations id charge;
      Ok id

let release t id =
  match Hashtbl.find_opt t.allocations id with
  | None -> false
  | Some charge ->
      Hashtbl.remove t.allocations id;
      if t.external_id = Some id then t.external_id <- None;
      List.iter
        (fun ((target, resource), _) ->
          match find_pool t target resource with
          | Some p -> recompute t p (index_of target)
          | None -> ())
        (aggregate charge);
      true

let allocation_charge t id = Hashtbl.find_opt t.allocations id

let allocation_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.allocations [] |> List.sort compare

let migrate t id charge' =
  match Hashtbl.find_opt t.allocations id with
  | None -> invalid_arg (Printf.sprintf "Ledger.migrate: unknown allocation %d" id)
  | Some old -> (
      ignore (release t id);
      match try_commit t charge' with
      | Ok id' -> Ok id'
      | Error _ as e -> (
          (* Rollback: the old charge was held an instant ago, so
             re-committing it into the capacity its release freed can
             only fail by last-ulp noise, which the commit slack
             absorbs.  The allocation is restored under its original
             id, so the caller's handle stays valid. *)
          match try_commit t old with
          | Ok rid ->
              Hashtbl.remove t.allocations rid;
              Hashtbl.add t.allocations id old;
              e
          | Error f ->
              invalid_arg
                ("Ledger.migrate: rollback failed — " ^ failure_to_string f)))

let credit t charge =
  let agg = aggregate charge in
  match t.external_id with
  | None -> Error "nothing to credit: no external usage recorded"
  | Some ext_id ->
      let ext = Hashtbl.find t.allocations ext_id in
      (* Validate: the external allocation must cover every line. *)
      let covered ((target, resource), amount) =
        let held =
          List.fold_left
            (fun acc (l : line) ->
              if l.target = target && l.resource = resource then acc +. l.amount
              else acc)
            0.0 ext
        in
        if amount > held +. slack held then
          Some
            (Printf.sprintf "cannot credit %g %s on %s: only %g charged" amount
               resource (target_name target) held)
        else None
      in
      let error = List.find_map covered agg in
      (match error with
      | Some m -> Error m
      | None ->
          (* Subtract each aggregated amount from the external lines. *)
          let remaining = Hashtbl.create 16 in
          List.iter (fun (key, amount) -> Hashtbl.replace remaining key amount) agg;
          let ext' =
            List.filter_map
              (fun (l : line) ->
                let key = (l.target, l.resource) in
                match Hashtbl.find_opt remaining key with
                | None -> Some l
                | Some due when due <= 0.0 -> Some l
                | Some due ->
                    if due >= l.amount -. slack l.amount then begin
                      Hashtbl.replace remaining key (due -. l.amount);
                      None
                    end
                    else begin
                      Hashtbl.replace remaining key 0.0;
                      Some { l with amount = l.amount -. due }
                    end)
              ext
          in
          Hashtbl.replace t.allocations ext_id ext';
          List.iter
            (fun ((target, resource), _) ->
              match find_pool t target resource with
              | Some p -> recompute t p (index_of target)
              | None -> ())
            agg;
          Ok ())

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let iter_residuals t kind resource f =
  let pools = match kind with `Node -> t.node_pools | `Edge -> t.edge_pools in
  match List.find_opt (fun p -> p.p_resource = resource) pools with
  | None -> ()
  | Some p ->
      Array.iteri
        (fun i present ->
          if present then f i (Float.max 0.0 (p.p_capacity.(i) -. p.p_used.(i))))
        p.p_present

let residual_graph t =
  let g = Graph.copy t.graph in
  let stamp kind pools set_attrs get_attrs =
    List.iter
      (fun p ->
        iter_residuals t kind p.p_resource (fun i r ->
            set_attrs i (Attrs.add p.p_resource (Value.Float r) (get_attrs i))))
      pools
  in
  stamp `Node t.node_pools (Graph.set_node_attrs g) (Graph.node_attrs g);
  stamp `Edge t.edge_pools (Graph.set_edge_attrs g) (Graph.edge_attrs g);
  g

let sync_residual t g =
  if
    Graph.node_count g <> Graph.node_count t.graph
    || Graph.edge_count g <> Graph.edge_count t.graph
  then invalid_arg "Ledger.sync_residual: residual graph shape differs";
  Hashtbl.reset t.allocations;
  t.external_id <- None;
  let lines = ref [] in
  let absorb pools mk_target get_attrs =
    List.iter
      (fun p ->
        Array.iteri
          (fun i present ->
            if present then begin
              let used_now =
                match Attrs.float p.p_resource (get_attrs i) with
                | Some r ->
                    Float.max 0.0 (Float.min p.p_capacity.(i) (p.p_capacity.(i) -. r))
                | None -> 0.0
              in
              p.p_used.(i) <- used_now;
              if used_now > 0.0 then
                lines :=
                  { target = mk_target i; resource = p.p_resource; amount = used_now }
                  :: !lines
            end)
          p.p_present)
      pools
  in
  absorb t.node_pools (fun i -> Node i) (Graph.node_attrs g);
  absorb t.edge_pools (fun i -> Edge i) (Graph.edge_attrs g);
  if !lines <> [] then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.add t.allocations id !lines;
    t.external_id <- Some id
  end

(* Residual-capacity dispersion of one pool: the share of free capacity
   sitting on *partially-used* elements.  An idle pool and a perfectly
   consolidated one both read 0 (all free capacity lies in untouched
   whole elements); a pool whose free capacity is scattered across
   half-full elements reads towards 1 — free capacity exists but no
   whole-element-sized block of it does, which is exactly the state a
   defragmentation pass undoes. *)
let pool_fragmentation p =
  let free_total = ref 0.0 and free_dispersed = ref 0.0 in
  Array.iteri
    (fun i c ->
      if p.p_present.(i) then begin
        let r = Float.max 0.0 (c -. p.p_used.(i)) in
        free_total := !free_total +. r;
        if p.p_used.(i) > 0.0 then free_dispersed := !free_dispersed +. r
      end)
    p.p_capacity;
  if !free_total <= 0.0 then 0.0 else !free_dispersed /. !free_total

let fragmentation t =
  List.map
    (fun p -> (p.p_resource, p.p_kind, pool_fragmentation p))
    (t.node_pools @ t.edge_pools)

let fragmentation_index t =
  match t.node_pools @ t.edge_pools with
  | [] -> 0.0
  | pools ->
      List.fold_left (fun acc p -> acc +. pool_fragmentation p) 0.0 pools
      /. float_of_int (List.length pools)

let utilization t =
  let summarize p =
    let used_total = ref 0.0 and cap_total = ref 0.0 in
    Array.iteri
      (fun i c ->
        if p.p_present.(i) then begin
          used_total := !used_total +. p.p_used.(i);
          cap_total := !cap_total +. c
        end)
      p.p_capacity;
    (p.p_resource, p.p_kind, !used_total, !cap_total)
  in
  List.map summarize t.node_pools @ List.map summarize t.edge_pools

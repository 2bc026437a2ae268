module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Ledger = Netembed_ledger.Ledger
module Engine = Netembed_core.Engine
module Mapping = Netembed_core.Mapping
module Problem = Netembed_core.Problem
module Parser = Netembed_expr.Parser
module Telemetry = Netembed_telemetry.Telemetry
module Model = Netembed_service.Model
module Service = Netembed_service.Service
module Request = Netembed_service.Request

type policy = Admit_greedy | No_defrag | Defrag_threshold

let policy_name = function
  | Admit_greedy -> "admit_greedy"
  | No_defrag -> "no_defrag"
  | Defrag_threshold -> "defrag_threshold"

let policy_of_string = function
  | "admit_greedy" -> Some Admit_greedy
  | "no_defrag" -> Some No_defrag
  | "defrag_threshold" -> Some Defrag_threshold
  | _ -> None

let all_policies = [ Admit_greedy; No_defrag; Defrag_threshold ]

type victim_order = Smallest_revenue | Highest_blocking

let victim_order_name = function
  | Smallest_revenue -> "smallest_revenue"
  | Highest_blocking -> "highest_blocking"

let victim_order_of_string = function
  | "smallest_revenue" -> Some Smallest_revenue
  | "highest_blocking" -> Some Highest_blocking
  | _ -> None

type config = {
  seed : int;
  policy : policy;
  horizon : float;
  arrival_rate : float;
  hold_shape : float;
  hold_mean : float;
  hold_cap : float;
  size_classes : float array;
  size_skew : float;
  link_fraction : float;
  bandwidth_per_cpu : float;
  candidates : int;
  frag_threshold : float;
  reject_threshold : float;
  reject_window : int;
  max_migrations : int;
  victim_order : victim_order;
  sample_every : float;
  inject_migration_failure : (int -> bool) option;
}

let default_config =
  {
    seed = 42;
    policy = Defrag_threshold;
    horizon = 300.0;
    arrival_rate = 1.0;
    hold_shape = 1.5;
    hold_mean = 40.0;
    hold_cap = 400.0;
    size_classes = [| 300.0; 600.0; 1200.0; 2400.0 |];
    size_skew = 0.9;
    link_fraction = 0.3;
    bandwidth_per_cpu = 0.1;
    candidates = 24;
    frag_threshold = 0.45;
    reject_threshold = 0.3;
    reject_window = 20;
    max_migrations = 4;
    victim_order = Smallest_revenue;
    sample_every = 10.0;
    inject_migration_failure = None;
  }

type sample = {
  s_time : float;
  s_arrivals : int;
  s_accepts : int;
  s_rejects : int;
  s_active : int;
  s_fragmentation : float;
  s_utilization : (string * string * float) list;
}

type stats = {
  arrivals : int;
  accepts : int;
  rejects : int;
  retry_accepts : int;
  departures : int;
  migrations : int;
  migration_failures : int;
  defrag_passes : int;
  offered_revenue : float;
  accepted_revenue : float;
  acceptance_rate : float;
  revenue_acceptance : float;
  final_fragmentation : float;
  peak_fragmentation : float;
  mean_fragmentation : float;
  mean_cpu_utilization : float;
  invariant_violations : int;
  samples : sample list;
  event_log : string list;
}

(* ------------------------------------------------------------------ *)
(* Departure queue: a binary min-heap on (time, tenant id) so equal
   departure times pop in arrival order — part of the replay contract. *)

module Heap = struct
  type entry = { h_time : float; h_id : int }
  type t = { mutable arr : entry array; mutable len : int }

  let dummy = { h_time = 0.0; h_id = 0 }
  let create () = { arr = Array.make 16 dummy; len = 0 }

  let less a b =
    a.h_time < b.h_time || (a.h_time = b.h_time && a.h_id < b.h_id)

  let push h time id =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- { h_time = time; h_id = id };
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      less h.arr.(!i) h.arr.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.arr.(p) in
      h.arr.(p) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := p
    done

  let peek h = if h.len = 0 then None else Some h.arr.(0)

  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && less h.arr.(l) h.arr.(!smallest) then smallest := l;
      if r < h.len && less h.arr.(r) h.arr.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.arr.(!smallest) in
        h.arr.(!smallest) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
end

(* ------------------------------------------------------------------ *)
(* Tenant queries *)

let node_constraint_text = "rSource.cpuMhz >= vSource.cpuMhz"
let edge_constraint_single = "true"
let edge_constraint_pair = "rEdge.bandwidth >= vEdge.bandwidth"

let single_query cpu =
  let g = Graph.create ~name:"tenant" () in
  ignore (Graph.add_node g (Attrs.of_list [ ("cpuMhz", Value.Float cpu) ]));
  g

let pair_query cpu bw =
  let g = Graph.create ~name:"tenant" () in
  let half = Attrs.of_list [ ("cpuMhz", Value.Float (cpu /. 2.0)) ] in
  let a = Graph.add_node g half in
  let b = Graph.add_node g half in
  ignore (Graph.add_edge g a b (Attrs.of_list [ ("bandwidth", Value.Float bw) ]));
  g

(* The injected-failure path submits the victim's query with demands
   scaled far past any substrate, so the ledger commit inside
   Service.migrate must fail and roll back. *)
let impossible_query q =
  let g = Graph.copy q in
  let scale attrs =
    Attrs.map
      (fun _ v ->
        match v with
        | Value.Float f -> Value.Float (f *. 1e6)
        | Value.Int i -> Value.Float (float_of_int i *. 1e6)
        | other -> other)
      attrs
  in
  Graph.iter_nodes (fun v -> Graph.set_node_attrs g v (scale (Graph.node_attrs g v))) g;
  Graph.iter_edges (fun e _ _ -> Graph.set_edge_attrs g e (scale (Graph.edge_attrs g e))) g;
  g

type tenant = {
  t_id : int;
  t_cpu : float;
  t_pair : bool;
  t_hold : float;
  t_revenue : float;
  t_request : Request.t;
  mutable t_alloc : int;
  mutable t_mapping : Mapping.t;
}

let hosts_string m =
  Mapping.to_array m |> Array.to_list |> List.map string_of_int
  |> String.concat "-"

(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  rng : Rng.t;
  service : Service.t;
  ledger : Ledger.t;
  live : (int, tenant) Hashtbl.t;
  heap : Heap.t;
  mutable events : string list;
  mutable now : float;
  mutable n_arrivals : int;
  mutable n_accepts : int;
  mutable n_rejects : int;
  mutable n_retry_accepts : int;
  mutable n_departures : int;
  mutable n_migrations : int;
  mutable n_migration_failures : int;
  mutable n_defrag_passes : int;
  mutable n_violations : int;
  mutable offered : float;
  mutable accepted : float;
  mutable peak_frag : float;
  mutable migration_attempts : int;
  (* trailing first-attempt outcomes, true = rejected *)
  reject_ring : bool array;
  mutable ring_filled : int;
  mutable ring_next : int;
  mutable samples_rev : sample list;
  mutable next_sample : float;
  (* telemetry *)
  c_arrivals : Telemetry.Counter.t;
  c_accepts : Telemetry.Counter.t;
  c_rejects : Telemetry.Counter.t;
  c_departures : Telemetry.Counter.t;
  c_migrations : Telemetry.Counter.t;
  c_migration_failures : Telemetry.Counter.t;
  c_defrag_passes : Telemetry.Counter.t;
  g_fragmentation : Telemetry.Gauge.t;
}

let event st fmt =
  Printf.ksprintf
    (fun line -> st.events <- Printf.sprintf "t=%.6f %s" st.now line :: st.events)
    fmt

let frag st = Ledger.fragmentation_index st.ledger

let observe_frag st =
  let f = frag st in
  if f > st.peak_frag then st.peak_frag <- f;
  Telemetry.Gauge.set st.g_fragmentation f;
  f

(* Over-commit would mean the atomic-commit contract broke mid-run. *)
let check_overcommit st =
  List.iter
    (fun (resource, _kind, used, cap) ->
      if used > cap +. (1e-6 *. (Float.abs cap +. 1.0)) then begin
        st.n_violations <- st.n_violations + 1;
        event st "violation over-commit resource=%s used=%g cap=%g" resource
          used cap
      end)
    (Ledger.utilization st.ledger)

let record_first_attempt st rejected =
  let n = Array.length st.reject_ring in
  if n > 0 then begin
    st.reject_ring.(st.ring_next) <- rejected;
    st.ring_next <- (st.ring_next + 1) mod n;
    if st.ring_filled < n then st.ring_filled <- st.ring_filled + 1
  end

let windowed_reject_rate st =
  if st.ring_filled < 5 then 0.0
  else begin
    let rejected = ref 0 in
    for i = 0 to st.ring_filled - 1 do
      if st.reject_ring.(i) then incr rejected
    done;
    float_of_int !rejected /. float_of_int st.ring_filled
  end

let take_sample st time =
  let util =
    List.map
      (fun (resource, kind, used, cap) ->
        ( resource,
          (match kind with `Node -> "node" | `Edge -> "edge"),
          if cap <= 0.0 then 0.0 else used /. cap ))
      (Ledger.utilization st.ledger)
  in
  st.samples_rev <-
    {
      s_time = time;
      s_arrivals = st.n_arrivals;
      s_accepts = st.n_accepts;
      s_rejects = st.n_rejects;
      s_active = Hashtbl.length st.live;
      s_fragmentation = frag st;
      s_utilization = util;
    }
    :: st.samples_rev

let flush_samples st upto =
  while st.next_sample <= upto do
    take_sample st st.next_sample;
    st.next_sample <- st.next_sample +. st.cfg.sample_every
  done

(* ------------------------------------------------------------------ *)
(* Admission *)

(* Best-fit: land on the hosts with the least free cpu that still fit,
   so big contiguous blocks survive for big tenants.  Deterministic
   tie-break on the mapping itself. *)
let mapping_score st m =
  let total = ref 0.0 in
  Array.iter
    (fun host ->
      total := !total +. Ledger.residual st.ledger (Ledger.Node host) "cpuMhz")
    (Mapping.to_array m);
  !total

let pick_mapping st mappings =
  match (st.cfg.policy, mappings) with
  | _, [] -> None
  | Admit_greedy, first :: _ -> Some first
  | (No_defrag | Defrag_threshold), first :: rest ->
      let best = ref first and best_score = ref (mapping_score st first) in
      List.iter
        (fun m ->
          let s = mapping_score st m in
          if s < !best_score -. 1e-9
             || (Float.abs (s -. !best_score) <= 1e-9 && Mapping.compare m !best < 0)
          then begin
            best := m;
            best_score := s
          end)
        rest;
      Some !best

type attempt = Accepted of int * Mapping.t | No_mapping | Refused of string

let try_admit st tenant =
  match Service.submit st.service tenant.t_request with
  | Error _ -> Refused "admission"
  | Ok answer -> (
      match pick_mapping st answer.Service.result.Engine.mappings with
      | None -> No_mapping
      | Some m -> (
          match Service.allocate_shared st.service answer m with
          | Ok alloc -> Accepted (alloc, m)
          | Error _ -> Refused "commit"))

type admit_outcome = Admitted | Rejected of string

let admit st tenant ~retry =
  match try_admit st tenant with
  | Accepted (alloc, m) ->
      tenant.t_alloc <- alloc;
      tenant.t_mapping <- m;
      Hashtbl.replace st.live tenant.t_id tenant;
      Heap.push st.heap (st.now +. tenant.t_hold) tenant.t_id;
      st.n_accepts <- st.n_accepts + 1;
      if retry then st.n_retry_accepts <- st.n_retry_accepts + 1;
      st.accepted <- st.accepted +. tenant.t_revenue;
      Telemetry.Counter.incr st.c_accepts;
      event st "%s id=%d alloc=%d hosts=%s"
        (if retry then "retry-accept" else "accept")
        tenant.t_id alloc (hosts_string m);
      Admitted
  | No_mapping ->
      if not retry then event st "reject id=%d reason=no_mapping" tenant.t_id;
      Rejected "no_mapping"
  | Refused reason ->
      if not retry then event st "reject id=%d reason=%s" tenant.t_id reason;
      Rejected reason

(* ------------------------------------------------------------------ *)
(* Defragmentation *)

let credit_back graph charge =
  List.iter
    (fun { Ledger.target; resource; amount } ->
      match target with
      | Ledger.Node v ->
          let attrs = Graph.node_attrs graph v in
          let cur = Option.value ~default:0.0 (Attrs.float resource attrs) in
          Graph.set_node_attrs graph v
            (Attrs.add resource (Value.Float (cur +. amount)) attrs)
      | Ledger.Edge e ->
          let attrs = Graph.edge_attrs graph e in
          let cur = Option.value ~default:0.0 (Attrs.float resource attrs) in
          Graph.set_edge_attrs graph e
            (Attrs.add resource (Value.Float (cur +. amount)) attrs))
    charge

let credited_score graph m =
  let total = ref 0.0 in
  Array.iter
    (fun host ->
      let attrs = Graph.node_attrs graph host in
      total := !total +. Option.value ~default:0.0 (Attrs.float "cpuMhz" attrs))
    (Mapping.to_array m);
  !total

let victims st =
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) st.live [] in
  match st.cfg.victim_order with
  | Smallest_revenue ->
      List.sort
        (fun a b ->
          match compare a.t_revenue b.t_revenue with
          | 0 -> compare a.t_id b.t_id
          | c -> c)
        all
  | Highest_blocking ->
      let loosest t =
        Array.fold_left
          (fun acc host ->
            Float.max acc (Ledger.residual st.ledger (Ledger.Node host) "cpuMhz"))
          0.0 (Mapping.to_array t.t_mapping)
      in
      let keyed = List.map (fun t -> (loosest t, t)) all in
      List.map snd
        (List.sort
           (fun (ka, a) (kb, b) ->
             match compare kb ka with 0 -> compare a.t_id b.t_id | c -> c)
           keyed)

let parsed_node_constraint = lazy (Parser.parse node_constraint_text)
let parsed_edge_single = lazy (Parser.parse edge_constraint_single)
let parsed_edge_pair = lazy (Parser.parse edge_constraint_pair)

(* Re-search one victim on the residual graph with its own charge
   credited back, so the move may reuse capacity the victim itself
   vacates — then migrate atomically through the service. *)
let try_migrate st tenant =
  match Service.allocation_charge st.service tenant.t_alloc with
  | None -> false
  | Some charge -> (
      (* A residual snapshot is read-only: credit into a copy. *)
      let host = Graph.copy (Model.residual_snapshot (Service.model st.service)) in
      credit_back host charge;
      let edge_ast =
        Lazy.force
          (if tenant.t_pair then parsed_edge_pair else parsed_edge_single)
      in
      let problem =
        Problem.make
          ~node_constraint:(Lazy.force parsed_node_constraint)
          ~host ~query:tenant.t_request.Request.query edge_ast
      in
      let options =
        {
          Engine.default_options with
          mode = Engine.At_most st.cfg.candidates;
          seed = st.cfg.seed;
        }
      in
      let result = Engine.run ~options Engine.ECF problem in
      let cur_score = credited_score host tenant.t_mapping in
      let best =
        List.fold_left
          (fun acc m ->
            if Mapping.equal m tenant.t_mapping then acc
            else
              let s = credited_score host m in
              match acc with
              | Some (_, best_s) when best_s <= s +. 1e-9 -> acc
              | _ -> Some (m, s))
          None result.Engine.mappings
      in
      match best with
      | Some (m, s) when s < cur_score -. 1e-9 -> (
          st.migration_attempts <- st.migration_attempts + 1;
          let inject =
            match st.cfg.inject_migration_failure with
            | Some f -> f st.migration_attempts
            | None -> false
          in
          let query =
            if inject then impossible_query tenant.t_request.Request.query
            else tenant.t_request.Request.query
          in
          match Service.migrate st.service tenant.t_alloc ~query m with
          | Ok alloc' ->
              event st "migrate id=%d alloc=%d->%d hosts=%s=>%s" tenant.t_id
                tenant.t_alloc alloc'
                (hosts_string tenant.t_mapping)
                (hosts_string m);
              tenant.t_alloc <- alloc';
              tenant.t_mapping <- m;
              st.n_migrations <- st.n_migrations + 1;
              Telemetry.Counter.incr st.c_migrations;
              true
          | Error _ ->
              event st "migrate-fail id=%d alloc=%d (rolled back)" tenant.t_id
                tenant.t_alloc;
              st.n_migration_failures <- st.n_migration_failures + 1;
              Telemetry.Counter.incr st.c_migration_failures;
              false)
      | _ -> false)

let defrag_pass st =
  st.n_defrag_passes <- st.n_defrag_passes + 1;
  Telemetry.Counter.incr st.c_defrag_passes;
  let before = frag st in
  let attempted = ref 0 and moved = ref 0 in
  List.iter
    (fun tenant ->
      if !attempted < st.cfg.max_migrations then begin
        let start = st.migration_attempts in
        if try_migrate st tenant then incr moved;
        if st.migration_attempts > start then incr attempted
      end)
    (victims st);
  let after = observe_frag st in
  event st "defrag pass=%d frag=%.4f->%.4f moved=%d/%d" st.n_defrag_passes
    before after !moved !attempted

(* Defrag only helps fragmentation-limited rejects: the aggregate
   admission check passed (capacity exists somewhere) yet no embedding
   fit, or a picked embedding failed to commit.  Aggregate-capacity
   rejects ("admission") are pure overload — migration cannot create
   capacity, so passes there would just churn the placement. *)
let should_defrag st reason fragmentation =
  st.cfg.policy = Defrag_threshold
  && reason <> "admission"
  && Hashtbl.length st.live > 0
  && (fragmentation >= st.cfg.frag_threshold
     || windowed_reject_rate st >= st.cfg.reject_threshold)

(* ------------------------------------------------------------------ *)
(* Events *)

let on_arrival st tenant =
  st.n_arrivals <- st.n_arrivals + 1;
  Telemetry.Counter.incr st.c_arrivals;
  st.offered <- st.offered +. tenant.t_revenue;
  event st "arrive id=%d cpu=%g kind=%s hold=%.6f" tenant.t_id tenant.t_cpu
    (if tenant.t_pair then "pair" else "single")
    tenant.t_hold;
  (match admit st tenant ~retry:false with
  | Admitted -> record_first_attempt st false
  | Rejected reason ->
      record_first_attempt st true;
      let fragmentation = frag st in
      let retried =
        if should_defrag st reason fragmentation then begin
          event st "defrag-trigger frag=%.4f reject_rate=%.2f" fragmentation
            (windowed_reject_rate st);
          defrag_pass st;
          admit st tenant ~retry:true = Admitted
        end
        else false
      in
      if not retried then begin
        st.n_rejects <- st.n_rejects + 1;
        Telemetry.Counter.incr st.c_rejects
      end);
  ignore (observe_frag st);
  check_overcommit st

let on_departure st id =
  match Hashtbl.find_opt st.live id with
  | None ->
      st.n_violations <- st.n_violations + 1;
      event st "violation departure of unknown tenant id=%d" id
  | Some tenant ->
      Hashtbl.remove st.live id;
      if Service.free st.service tenant.t_alloc then begin
        st.n_departures <- st.n_departures + 1;
        Telemetry.Counter.incr st.c_departures;
        event st "depart id=%d alloc=%d" id tenant.t_alloc
      end
      else begin
        st.n_violations <- st.n_violations + 1;
        event st "violation free of dead allocation id=%d alloc=%d" id
          tenant.t_alloc
      end;
      ignore (observe_frag st);
      check_overcommit st

(* ------------------------------------------------------------------ *)

let draw_tenant st id =
  let cfg = st.cfg in
  let rank = Rng.zipf st.rng ~n:(Array.length cfg.size_classes) ~s:cfg.size_skew in
  let cpu = cfg.size_classes.(rank - 1) in
  let pair = Rng.float st.rng 1.0 < cfg.link_fraction in
  let scale = cfg.hold_mean *. (cfg.hold_shape -. 1.0) /. cfg.hold_shape in
  let hold =
    Rng.bounded_pareto st.rng ~shape:cfg.hold_shape ~scale
      ~cap:(Float.max scale cfg.hold_cap)
  in
  let query, edge_c =
    if pair then (pair_query cpu (cpu *. cfg.bandwidth_per_cpu), edge_constraint_pair)
    else (single_query cpu, edge_constraint_single)
  in
  let request =
    Request.make ~node_constraint:node_constraint_text ~algorithm:Engine.ECF
      ~mode:(Engine.At_most cfg.candidates) ~query edge_c
  in
  {
    t_id = id;
    t_cpu = cpu;
    t_pair = pair;
    t_hold = hold;
    t_revenue = cpu *. hold;
    t_request = request;
    t_alloc = -1;
    t_mapping = Mapping.of_array [||];
  }

let final_checks st =
  if Hashtbl.length st.live <> 0 then begin
    st.n_violations <- st.n_violations + 1;
    event st "violation %d tenants still live after drain" (Hashtbl.length st.live)
  end;
  if Ledger.outstanding st.ledger <> 0 then begin
    st.n_violations <- st.n_violations + 1;
    event st "violation %d allocations outstanding after drain"
      (Ledger.outstanding st.ledger)
  end;
  List.iter
    (fun (resource, _kind, used, _cap) ->
      (* bit-exact restore: release recomputes usage from the remaining
         allocations, so a drained ledger must read exactly 0.0 *)
      if used <> 0.0 then begin
        st.n_violations <- st.n_violations + 1;
        event st "violation residual usage %g on %s after drain" used resource
      end)
    (Ledger.utilization st.ledger)

let run ?registry cfg substrate =
  if cfg.arrival_rate <= 0.0 then invalid_arg "Sim.run: arrival_rate <= 0";
  if Array.length cfg.size_classes = 0 then
    invalid_arg "Sim.run: empty size_classes";
  if cfg.sample_every <= 0.0 then invalid_arg "Sim.run: sample_every <= 0";
  if cfg.candidates < 1 then invalid_arg "Sim.run: candidates < 1";
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.create ()
  in
  let model = Model.create substrate in
  let service = Service.create ~registry model in
  let counter name help = Telemetry.Registry.counter registry ~help name in
  let st =
    {
      cfg;
      rng = Rng.make cfg.seed;
      service;
      ledger = Model.ledger (Service.model service);
      live = Hashtbl.create 64;
      heap = Heap.create ();
      events = [];
      now = 0.0;
      n_arrivals = 0;
      n_accepts = 0;
      n_rejects = 0;
      n_retry_accepts = 0;
      n_departures = 0;
      n_migrations = 0;
      n_migration_failures = 0;
      n_defrag_passes = 0;
      n_violations = 0;
      offered = 0.0;
      accepted = 0.0;
      peak_frag = 0.0;
      migration_attempts = 0;
      reject_ring = Array.make (max 1 cfg.reject_window) false;
      ring_filled = 0;
      ring_next = 0;
      samples_rev = [];
      next_sample = cfg.sample_every;
      c_arrivals = counter "netembed_sim_arrivals_total" "tenant arrivals";
      c_accepts = counter "netembed_sim_accepts_total" "tenants admitted";
      c_rejects = counter "netembed_sim_rejects_total" "tenants turned away";
      c_departures = counter "netembed_sim_departures_total" "tenants departed";
      c_migrations = counter "netembed_sim_migrations_total" "defrag migrations";
      c_migration_failures =
        counter "netembed_sim_migration_failures_total"
          "defrag migrations rolled back";
      c_defrag_passes = counter "netembed_sim_defrag_passes_total" "defrag passes";
      g_fragmentation =
        Telemetry.Registry.gauge registry
          ~help:"residual-capacity dispersion, 0 = consolidated"
          "netembed_sim_fragmentation";
    }
  in
  let next_arrival = ref (Rng.exponential st.rng ~mean:(1.0 /. cfg.arrival_rate)) in
  let next_id = ref 0 in
  let running = ref true in
  while !running do
    let arrival =
      match !next_arrival with t when t <= cfg.horizon -> Some t | _ -> None
    in
    let departure = Heap.peek st.heap in
    match (arrival, departure) with
    | None, None -> running := false
    | arr, dep ->
        (* departures first on ties: capacity frees before the next ask *)
        let take_departure =
          match (arr, dep) with
          | _, None -> false
          | None, Some _ -> true
          | Some at, Some d -> d.Heap.h_time <= at
        in
        if take_departure then begin
          let d = Heap.pop st.heap in
          flush_samples st d.Heap.h_time;
          st.now <- d.Heap.h_time;
          on_departure st d.Heap.h_id
        end
        else begin
          let at = Option.get arr in
          flush_samples st at;
          st.now <- at;
          incr next_id;
          let tenant = draw_tenant st !next_id in
          on_arrival st tenant;
          next_arrival :=
            at +. Rng.exponential st.rng ~mean:(1.0 /. cfg.arrival_rate)
        end
  done;
  final_checks st;
  let final_frag = observe_frag st in
  let samples = List.rev st.samples_rev in
  let mean over =
    match samples with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun acc s -> acc +. over s) 0.0 samples
        /. float_of_int (List.length samples)
  in
  let cpu_util s =
    match
      List.find_opt (fun (r, k, _) -> r = "cpuMhz" && k = "node") s.s_utilization
    with
    | Some (_, _, u) -> u
    | None -> 0.0
  in
  {
    arrivals = st.n_arrivals;
    accepts = st.n_accepts;
    rejects = st.n_rejects;
    retry_accepts = st.n_retry_accepts;
    departures = st.n_departures;
    migrations = st.n_migrations;
    migration_failures = st.n_migration_failures;
    defrag_passes = st.n_defrag_passes;
    offered_revenue = st.offered;
    accepted_revenue = st.accepted;
    acceptance_rate =
      (if st.n_arrivals = 0 then 0.0
       else float_of_int st.n_accepts /. float_of_int st.n_arrivals);
    revenue_acceptance =
      (if st.offered <= 0.0 then 0.0 else st.accepted /. st.offered);
    final_fragmentation = final_frag;
    peak_fragmentation = st.peak_frag;
    mean_fragmentation = mean (fun s -> s.s_fragmentation);
    mean_cpu_utilization = mean cpu_util;
    invariant_violations = st.n_violations;
    samples;
    event_log = List.rev st.events;
  }

let summary cfg stats =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let pct num den = if den <= 0.0 then 0.0 else 100.0 *. num /. den in
  line "online churn simulation";
  line "  policy                %s" (policy_name cfg.policy);
  line "  seed                  %d" cfg.seed;
  line "  horizon               %g virtual s (rate %g/s)" cfg.horizon
    cfg.arrival_rate;
  line "  arrivals              %d" stats.arrivals;
  line "  accepted              %d (%.1f%%)" stats.accepts
    (pct (float_of_int stats.accepts) (float_of_int stats.arrivals));
  line "  rejected              %d" stats.rejects;
  line "  retry accepts         %d" stats.retry_accepts;
  line "  departures            %d" stats.departures;
  line "  migrations            %d (%d rolled back)" stats.migrations
    stats.migration_failures;
  line "  defrag passes         %d" stats.defrag_passes;
  line "  revenue acceptance    %.1f%%" (100.0 *. stats.revenue_acceptance);
  line "  mean cpu utilization  %.1f%%" (100.0 *. stats.mean_cpu_utilization);
  line "  peak fragmentation    %.4f" stats.peak_fragmentation;
  line "  mean fragmentation    %.4f" stats.mean_fragmentation;
  line "  final fragmentation   %.4f" stats.final_fragmentation;
  line "  invariant violations  %d" stats.invariant_violations;
  Buffer.contents b

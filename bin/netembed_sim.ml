(* Online multi-tenant churn simulator CLI.

   Streams seeded tenant arrivals/departures through the embedding
   service against a synthetic capacitated substrate and reports
   acceptance, utilization and fragmentation per admission policy —
   the experiment behind the "online churn" section of
   BENCH_RESULTS.json.

   Usage:
     netembed_sim --policy defrag_threshold --rate 2.4 --horizon 300
     netembed_sim --policies all --rates 0.6,1.2,2.4 --json BENCH_RESULTS.json

   Virtual time only: a 300-second horizon finishes in well under a
   wall-clock second on the default 12-host clique, and every figure is
   deterministic in the seed (the cram test pins the summary block). *)

module Sim = Netembed_simulate.Sim
module Regular = Netembed_topology.Regular
module Json = Netembed_telemetry.Json

let substrate_of_spec spec nodes =
  let shape =
    match String.lowercase_ascii spec with
    | "ring" -> Regular.Ring
    | "star" -> Regular.Star
    | "clique" -> Regular.Clique
    | "line" -> Regular.Line
    | "grid" -> Regular.Grid
    | "torus" -> Regular.Torus
    | "hypercube" -> Regular.Hypercube
    | s when String.length s > 5 && String.sub s 0 5 = "tree:" ->
        Regular.Tree (int_of_string (String.sub s 5 (String.length s - 5)))
    | s -> failwith (Printf.sprintf "unknown substrate shape %S" s)
  in
  Regular.capacitated shape nodes

let float_list s = List.map float_of_string (String.split_on_char ',' s)

(* Rates and fractions mean nothing past four decimals. *)
let ratio x = Json.Float (Json.round 4 x)

let curve_json stats =
  List.map
    (fun s ->
      let cpu =
        match
          List.find_opt (fun (r, k, _) -> r = "cpuMhz" && k = "node") s.Sim.s_utilization
        with
        | Some (_, _, u) -> u
        | None -> 0.0
      in
      let accepted =
        if s.Sim.s_arrivals = 0 then 0.0
        else float_of_int s.Sim.s_accepts /. float_of_int s.Sim.s_arrivals
      in
      Json.(Obj [ ("t", Float s.Sim.s_time); ("arrivals", Int s.Sim.s_arrivals);
                  ("accepts", Int s.Sim.s_accepts); ("rejects", Int s.Sim.s_rejects);
                  ("active", Int s.Sim.s_active); ("acceptance_rate", ratio accepted);
                  ("fragmentation", ratio s.Sim.s_fragmentation);
                  ("cpu_utilization", ratio cpu) ]))
    stats.Sim.samples

let row_json cfg (st : Sim.stats) =
  Json.(Obj [ ("policy", String (Sim.policy_name cfg.Sim.policy));
              ("rate", Float cfg.Sim.arrival_rate); ("seed", Int cfg.Sim.seed);
              ("arrivals", Int st.arrivals); ("accepts", Int st.accepts);
              ("rejects", Int st.rejects); ("retry_accepts", Int st.retry_accepts);
              ("departures", Int st.departures); ("migrations", Int st.migrations);
              ("migration_failures", Int st.migration_failures);
              ("defrag_passes", Int st.defrag_passes);
              ("acceptance_rate", ratio st.acceptance_rate);
              ("revenue_acceptance", ratio st.revenue_acceptance);
              ("mean_cpu_utilization", ratio st.mean_cpu_utilization);
              ("peak_fragmentation", ratio st.peak_fragmentation);
              ("mean_fragmentation", ratio st.mean_fragmentation);
              ("final_fragmentation", ratio st.final_fragmentation);
              ("invariant_violations", Int st.invariant_violations);
              ("acceptance_curve", List (curve_json st)) ])

let main () =
  let d = Sim.default_config in
  let policies = ref (Sim.policy_name d.Sim.policy) in
  let rates = ref (Printf.sprintf "%g" d.Sim.arrival_rate) in
  let seed = ref d.Sim.seed in
  let horizon = ref d.Sim.horizon in
  let substrate = ref "clique" in
  let nodes = ref 12 in
  let hold_mean = ref d.Sim.hold_mean in
  let hold_cap = ref d.Sim.hold_cap in
  let hold_shape = ref d.Sim.hold_shape in
  let size_classes =
    ref
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%g") d.Sim.size_classes)))
  in
  let size_skew = ref d.Sim.size_skew in
  let link_fraction = ref d.Sim.link_fraction in
  let candidates = ref d.Sim.candidates in
  let frag_threshold = ref d.Sim.frag_threshold in
  let reject_threshold = ref d.Sim.reject_threshold in
  let reject_window = ref d.Sim.reject_window in
  let max_migrations = ref d.Sim.max_migrations in
  let victims = ref (Sim.victim_order_name d.Sim.victim_order) in
  let sample_every = ref d.Sim.sample_every in
  let json_file = ref "" in
  let events = ref false in
  let quiet = ref false in
  let strict = ref false in
  let speclist =
    [
      ("--policy", Arg.Set_string policies,
       "P admission policy: admit_greedy | no_defrag | defrag_threshold | \
        all, or a comma list (default defrag_threshold)");
      ("--policies", Arg.Set_string policies, "P alias for --policy");
      ("--rates", Arg.Set_string rates,
       "R1,R2,... tenant arrival rates to sweep, per virtual second \
        (default 1)");
      ("--rate", Arg.Set_string rates, "R alias for --rates");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--horizon", Arg.Set_float horizon,
       "S arrival horizon in virtual seconds (default 300)");
      ("--substrate", Arg.Set_string substrate,
       "SHAPE ring|star|clique|line|grid|torus|hypercube|tree:ARITY \
        (default clique)");
      ("--nodes", Arg.Set_int nodes, "N substrate size (default 12)");
      ("--hold-mean", Arg.Set_float hold_mean,
       "S mean tenant holding time (default 40)");
      ("--hold-cap", Arg.Set_float hold_cap,
       "S holding-time truncation bound (default 400)");
      ("--hold-shape", Arg.Set_float hold_shape,
       "A Pareto tail exponent of holding times (default 1.5)");
      ("--size-classes", Arg.Set_string size_classes,
       "C1,C2,... tenant cpuMhz demand classes (default 300,600,1200,2400)");
      ("--size-skew", Arg.Set_float size_skew,
       "S Zipf skew over size classes, rank 1 = smallest (default 0.9)");
      ("--link-fraction", Arg.Set_float link_fraction,
       "F share of two-node tenants with a bandwidth demand (default 0.3)");
      ("--candidates", Arg.Set_int candidates,
       "K embeddings enumerated per search (default 24)");
      ("--frag-threshold", Arg.Set_float frag_threshold,
       "F defrag when the fragmentation index reaches F (default 0.45)");
      ("--reject-threshold", Arg.Set_float reject_threshold,
       "F ... or the windowed rejection rate reaches F (default 0.3)");
      ("--reject-window", Arg.Set_int reject_window,
       "N trailing arrivals the rejection rate covers (default 20)");
      ("--max-migrations", Arg.Set_int max_migrations,
       "N migration attempts per defrag pass (default 4)");
      ("--victims", Arg.Set_string victims,
       "ORDER smallest_revenue | highest_blocking (default smallest_revenue)");
      ("--sample-every", Arg.Set_float sample_every,
       "S time-series sampling period (default 10)");
      ("--json", Arg.Set_string json_file,
       "FILE write the rows as FILE's top-level online_churn section");
      ("--events", Arg.Set events, " print the full deterministic event log");
      ("--quiet", Arg.Set quiet, " suppress the per-run summary blocks");
      ("--strict", Arg.Set strict,
       " exit 1 on any invariant violation or a run with zero accepts \
        (CI gate)");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "netembed_sim [--policy P] [--rates R1,R2] [--horizon S] [--seed N] \
     [--substrate SHAPE --nodes N] [--json FILE] [--events] [--strict]";
  let policy_list =
    match String.lowercase_ascii !policies with
    | "all" -> Sim.all_policies
    | s ->
        List.map
          (fun name ->
            match Sim.policy_of_string name with
            | Some p -> p
            | None ->
                prerr_endline ("netembed_sim: unknown policy " ^ name);
                exit 2)
          (String.split_on_char ',' s)
  in
  let victim_order =
    match Sim.victim_order_of_string !victims with
    | Some v -> v
    | None ->
        prerr_endline ("netembed_sim: unknown victim order " ^ !victims);
        exit 2
  in
  let base =
    {
      d with
      Sim.seed = !seed;
      horizon = !horizon;
      hold_mean = !hold_mean;
      hold_cap = !hold_cap;
      hold_shape = !hold_shape;
      size_classes = Array.of_list (float_list !size_classes);
      size_skew = !size_skew;
      link_fraction = !link_fraction;
      candidates = !candidates;
      frag_threshold = !frag_threshold;
      reject_threshold = !reject_threshold;
      reject_window = !reject_window;
      max_migrations = !max_migrations;
      victim_order;
      sample_every = !sample_every;
    }
  in
  let rate_list = float_list !rates in
  let failed = ref false in
  let rows = ref [] in
  List.iter
    (fun rate ->
      List.iter
        (fun policy ->
          let cfg = { base with Sim.policy; arrival_rate = rate } in
          let stats =
            Sim.run cfg (substrate_of_spec !substrate !nodes)
          in
          if !events then
            List.iter print_endline stats.Sim.event_log;
          if not !quiet then print_string (Sim.summary cfg stats);
          rows := (cfg, stats) :: !rows;
          if stats.Sim.invariant_violations > 0 || stats.Sim.accepts = 0 then
            failed := true)
        policy_list)
    rate_list;
  let rows = List.rev !rows in
  if !json_file <> "" then begin
    let note =
      Printf.sprintf
        "seeded online churn: Poisson arrivals, Zipf sizes, bounded-Pareto holds over a \
         capacitated %s-%d substrate; acceptance_curve samples every %gs of virtual time; \
         defrag_threshold re-homes victims through atomic ledger migration"
        !substrate !nodes !sample_every
    in
    let section =
      Json.(Obj [ ("note", String note);
                  ("substrate", String (Printf.sprintf "%s-%d" !substrate !nodes));
                  ("horizon_s", Float !horizon); ("seed", Int !seed);
                  ("rows", List (List.map (fun (cfg, st) -> row_json cfg st) rows)) ])
    in
    match Json.update_file !json_file [ ("online_churn", section) ] with
    | Ok () -> Printf.printf "# online_churn section written to %s\n%!" !json_file
    | Error e -> failwith e
  end;
  if !strict && !failed then exit 1

let () =
  try main () with
  | Failure msg | Invalid_argument msg ->
      prerr_endline ("netembed_sim: " ^ msg);
      exit 2

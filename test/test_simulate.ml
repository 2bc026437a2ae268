module Sim = Netembed_simulate.Sim
module Regular = Netembed_topology.Regular
module Telemetry = Netembed_telemetry.Telemetry

let check = Alcotest.check

let substrate () = Regular.capacitated Regular.Clique 12

let base_cfg =
  {
    Sim.default_config with
    Sim.horizon = 120.0;
    arrival_rate = 1.8;
    policy = Sim.Defrag_threshold;
  }

(* Same seed + policy => byte-identical event log, identical acceptance
   and final fragmentation across repeated runs. *)
let test_deterministic_replay () =
  let run () = Sim.run base_cfg (substrate ()) in
  let a = run () and b = run () in
  check Alcotest.(list string) "event log replays" a.Sim.event_log b.Sim.event_log;
  check Alcotest.int "accepts replay" a.Sim.accepts b.Sim.accepts;
  check (Alcotest.float 0.0) "final fragmentation replays"
    a.Sim.final_fragmentation b.Sim.final_fragmentation;
  check Alcotest.bool "the run did something" true (a.Sim.accepts > 0)

(* Every run must drain to a bit-exact ledger: all tenants depart, no
   allocation outstanding, zero usage, zero fragmentation. *)
let test_drains_pristine () =
  List.iter
    (fun policy ->
      let stats = Sim.run { base_cfg with Sim.policy } (substrate ()) in
      check Alcotest.int
        (Sim.policy_name policy ^ ": no invariant violations")
        0 stats.Sim.invariant_violations;
      check Alcotest.int
        (Sim.policy_name policy ^ ": everyone departed")
        stats.Sim.accepts stats.Sim.departures;
      check (Alcotest.float 0.0)
        (Sim.policy_name policy ^ ": ledger restored")
        0.0 stats.Sim.final_fragmentation)
    Sim.all_policies

(* Injected migration failures mid-defrag must roll back: victims stay
   allocated, no partial charges leak (the final drain still reaches
   exactly zero), and the service counters stay balanced — every accept
   is one allocation, migrations add none, active ends at zero. *)
let test_migration_failure_atomicity () =
  let registry = Telemetry.Registry.create () in
  let cfg =
    {
      base_cfg with
      Sim.inject_migration_failure = Some (fun n -> n mod 2 = 1);
    }
  in
  let stats = Sim.run ~registry cfg (substrate ()) in
  check Alcotest.bool "defrag ran" true (stats.Sim.defrag_passes > 0);
  check Alcotest.bool "failures were injected" true
    (stats.Sim.migration_failures > 0);
  check Alcotest.int "no invariant violations" 0 stats.Sim.invariant_violations;
  let counter name =
    Telemetry.Counter.value (Telemetry.Registry.counter registry name)
  in
  check Alcotest.int "allocations_total = accepts (migrations add none)"
    stats.Sim.accepts
    (counter "netembed_allocations_total");
  check (Alcotest.float 0.0) "active_allocations drained" 0.0
    (Telemetry.Gauge.value
       (Telemetry.Registry.gauge registry "netembed_active_allocations"));
  check Alcotest.int "service saw the migrations" stats.Sim.migrations
    (counter "netembed_migrations_total");
  check Alcotest.int "service saw the rollbacks" stats.Sim.migration_failures
    (counter "netembed_migration_failures_total");
  check Alcotest.int "sim counters exported" stats.Sim.arrivals
    (counter "netembed_sim_arrivals_total");
  check Alcotest.int "sim accept counter" stats.Sim.accepts
    (counter "netembed_sim_accepts_total")

(* The point of the defrag pass: at a load where rejections are
   fragmentation-driven, re-homing victims wins admissions back. *)
let test_defrag_beats_no_defrag () =
  let at policy =
    Sim.run
      { base_cfg with Sim.policy; horizon = 300.0; arrival_rate = 1.8 }
      (substrate ())
  in
  let defrag = at Sim.Defrag_threshold and plain = at Sim.No_defrag in
  check Alcotest.bool "defrag migrated" true (defrag.Sim.migrations > 0);
  check Alcotest.bool
    (Printf.sprintf "defrag acceptance %d >= no_defrag %d" defrag.Sim.accepts
       plain.Sim.accepts)
    true
    (defrag.Sim.accepts >= plain.Sim.accepts);
  check Alcotest.bool "defrag revenue acceptance wins" true
    (defrag.Sim.revenue_acceptance >= plain.Sim.revenue_acceptance)

let test_samples_and_summary () =
  let cfg = { base_cfg with Sim.sample_every = 10.0 } in
  let stats = Sim.run cfg (substrate ()) in
  check Alcotest.bool "time series collected" true
    (List.length stats.Sim.samples >= 12);
  (* samples are chronological and carry per-resource utilization *)
  let times = List.map (fun s -> s.Sim.s_time) stats.Sim.samples in
  check Alcotest.bool "chronological" true (List.sort compare times = times);
  List.iter
    (fun s ->
      check Alcotest.bool "cpu utilization tracked" true
        (List.exists (fun (r, k, _) -> r = "cpuMhz" && k = "node") s.Sim.s_utilization))
    stats.Sim.samples;
  let summary = Sim.summary cfg stats in
  check Alcotest.bool "summary mentions the policy" true
    (let sub = Sim.policy_name cfg.Sim.policy in
     let n = String.length summary and m = String.length sub in
     let rec go i = i + m <= n && (String.sub summary i m = sub || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "simulate"
    [
      ( "online churn",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
          Alcotest.test_case "drains pristine under all policies" `Quick
            test_drains_pristine;
          Alcotest.test_case "migration-failure atomicity" `Quick
            test_migration_failure_atomicity;
          Alcotest.test_case "defrag beats no_defrag" `Quick
            test_defrag_beats_no_defrag;
          Alcotest.test_case "samples + summary" `Quick test_samples_and_summary;
        ] );
    ]

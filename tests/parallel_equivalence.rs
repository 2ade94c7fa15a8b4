//! Serial vs sharded engine equivalence.
//!
//! The sharded parallel engine (conservative time windows, canonical
//! `(at, seq, lane)` dispatch order) must be **bit-identical** to the
//! serial engine: same completion times, same counters, same event-ring
//! contents, same per-cause drop log, same oracle verdicts — for any
//! seed, fault plan, traffic mix, and shard count. These tests compare
//! the *serialized telemetry JSON* of whole runs, which covers every
//! counter, gauge, histogram bin, and ring entry in one comparison.

use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use themis::harness::fig1::run_fig1_sharded;
use themis::harness::oracle::{self, OracleConfig};
use themis::harness::{
    expected_delivered_bytes, planned_transfers, run_collective_with_faults, run_fat_tree_rings,
    Collective, ExperimentConfig, ExperimentResult, FaultPlan, FaultSpace, Scheme,
};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::rnic::NicConfig;

/// Serialize one run's telemetry as the versioned JSON document, with
/// the one intentionally-divergent line — the `run.shards`
/// execution-config echo — removed. Everything the simulation *computed*
/// must still match byte-for-byte.
fn telemetry_json(label: &str, r: &ExperimentResult) -> String {
    let mut report = telemetry::Report::new();
    report.add_run(label, r.telemetry.clone());
    let json = report.to_json();
    json.lines()
        .filter(|l| !l.contains("\"run.shards\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run the same (config, collective, plan) cell serially and with
/// `shards` shards; assert byte-identical telemetry and equal metrics
/// and oracle verdicts.
fn assert_equivalent(
    mut cfg: ExperimentConfig,
    collective: Collective,
    bytes: u64,
    plan: &FaultPlan,
    shards: usize,
    label: &str,
) {
    cfg.shards = 1;
    let (serial, serial_cluster) = run_collective_with_faults(&cfg, collective, bytes, plan);
    cfg.shards = shards;
    let (sharded, sharded_cluster) = run_collective_with_faults(&cfg, collective, bytes, plan);

    assert_eq!(serial.tail_ct, sharded.tail_ct, "{label}: tail_ct");
    assert_eq!(serial.group_cts, sharded.group_cts, "{label}: group_cts");
    assert_eq!(serial.events, sharded.events, "{label}: dispatch count");
    assert_eq!(serial.sim_end, sharded.sim_end, "{label}: sim end");

    // The full telemetry document: every counter (including the
    // per-cause `fabric.drops.*` log), histogram, and the merged event
    // ring must serialize to the same bytes.
    let a = telemetry_json(label, &serial);
    let b = telemetry_json(label, &sharded);
    assert_eq!(a, b, "{label}: telemetry JSON diverged");

    // The oracle must reach the same verdicts on both clusters.
    let judge = OracleConfig::for_scheme(cfg.scheme)
        .with_expected_bytes(expected_delivered_bytes(&cfg, collective, bytes));
    let vs: Vec<String> = oracle::check(&serial_cluster, &judge)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let vp: Vec<String> = oracle::check(&sharded_cluster, &judge)
        .iter()
        .map(|v| v.to_string())
        .collect();
    assert_eq!(vs, vp, "{label}: oracle verdicts diverged");
}

/// A deterministic fault plan for the motivation fabric, derived the
/// same way the fuzzer derives case plans.
fn sampled_plan(cfg: &ExperimentConfig, collective: Collective, bytes: u64, k: u64) -> FaultPlan {
    let mut rng = Xoshiro256::substream(cfg.seed, k);
    let space = FaultSpace {
        n_leaves: cfg.fabric.n_leaves,
        n_uplinks: cfg.fabric.n_spines,
        horizon: Nanos::from_micros(500),
        max_episodes: 4,
        targets: planned_transfers(cfg, collective, bytes)
            .into_iter()
            .map(|(qp, n_psn)| (qp.0, n_psn))
            .collect(),
    };
    FaultPlan::sample(&mut rng, &space)
}

/// Fig 1 fabric (motivation, 8 hosts, 2 paths): eight seeds across three
/// schemes, shards = 2.
#[test]
fn motivation_fabric_eight_seeds_bit_identical() {
    let cells = [
        (Scheme::RandomSpray, 1u64),
        (Scheme::RandomSpray, 2),
        (Scheme::Themis, 3),
        (Scheme::Themis, 4),
        (Scheme::Ecmp, 5),
        (Scheme::AdaptiveRouting, 6),
        (Scheme::SprayNoFilter, 7),
        (Scheme::Themis, 8),
    ];
    for (scheme, seed) in cells {
        let cfg = ExperimentConfig::motivation_small(scheme, seed);
        assert_equivalent(
            cfg,
            Collective::RingOnce,
            256 << 10,
            &FaultPlan::none(),
            2,
            &format!("motivation/{}/seed{}", scheme.label(), seed),
        );
    }
}

/// Uneven partition: 3 shards over 4 leaves (shard 0 gets two leaves).
#[test]
fn uneven_shard_count_bit_identical() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 21);
    assert_equivalent(
        cfg,
        Collective::RingOnce,
        256 << 10,
        &FaultPlan::none(),
        3,
        "motivation/uneven-3-shards",
    );
}

/// Shard counts beyond the leaf count clamp back to a valid partition.
#[test]
fn oversubscribed_shard_count_bit_identical() {
    let cfg = ExperimentConfig::motivation_small(Scheme::RandomSpray, 22);
    assert_equivalent(
        cfg,
        Collective::RingOnce,
        128 << 10,
        &FaultPlan::none(),
        64,
        "motivation/oversubscribed-shards",
    );
}

/// Fault plans (targeted drops, link failures, control loss) land
/// identically: the drop log, compensations, and retransmissions all
/// replay bit-identically under sharding.
#[test]
fn fault_plans_bit_identical() {
    for (k, collective) in [(1u64, Collective::RingOnce), (7, Collective::Incast)] {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 0x5EED ^ k);
        let bytes = 192 << 10;
        let mut plan = sampled_plan(&cfg, collective, bytes, k);
        let mut tries = k + 100;
        while plan.events.is_empty() {
            // Resample until the plan is non-trivial (same path for both
            // engines, so equivalence still holds regardless).
            plan = sampled_plan(&cfg, collective, bytes, tries);
            tries += 1;
        }
        assert_equivalent(
            cfg,
            collective,
            bytes,
            &plan,
            2,
            &format!("motivation/fault-plan-{k}"),
        );
    }
}

/// Fig 5 fabric (16×16 leaf-spine at 400 Gbps, 256 hosts): two seeds
/// with a tiny buffer keep the debug-mode run fast while exercising the
/// full-scale partition (16 leaves over 4 shards).
#[test]
fn paper_fabric_bit_identical() {
    for seed in [11u64, 12] {
        let cfg = ExperimentConfig::paper_eval(Scheme::Themis, 55, 50, seed);
        assert_equivalent(
            cfg,
            Collective::RingOnce,
            64 << 10,
            &FaultPlan::none(),
            4,
            &format!("paper/seed{seed}"),
        );
    }
}

/// The 10x fabric (k=16 fat-tree, 1024 hosts, pod-aligned partition with
/// the per-pair lookahead matrix): serial vs sharded runs must stay
/// bit-identical across seeds and shard counts. Two inter-pod rings keep
/// the debug-mode run fast while every ring crosses the core layer and
/// every shard boundary.
#[test]
fn x10_fabric_bit_identical() {
    let mut fabric = FatTreeConfig::small(16);
    let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    let horizon = Nanos::from_secs(2);
    for seed in [31u64, 32] {
        fabric.seed = seed;
        let (serial, _) =
            run_fat_tree_rings(&fabric, nic, Scheme::Themis, seed, 1, 2, 32 << 10, horizon);
        assert!(serial.tail_ct.is_some(), "x10 rings must complete");
        for shards in [2usize, 8] {
            let label = format!("x10/seed{seed}/shards{shards}");
            let (sharded, _) = run_fat_tree_rings(
                &fabric,
                nic,
                Scheme::Themis,
                seed,
                shards,
                2,
                32 << 10,
                horizon,
            );
            assert_eq!(serial.tail_ct, sharded.tail_ct, "{label}: tail_ct");
            assert_eq!(serial.group_cts, sharded.group_cts, "{label}: group_cts");
            assert_eq!(serial.events, sharded.events, "{label}: dispatch count");
            assert_eq!(serial.sim_end, sharded.sim_end, "{label}: sim end");
            assert_eq!(
                telemetry_json(&label, &serial),
                telemetry_json(&label, &sharded),
                "{label}: telemetry JSON diverged"
            );
        }
    }
}

/// The Fig 1 pipeline end-to-end (send-rate traces, per-flow goodput,
/// telemetry snapshot) under sharding.
#[test]
fn fig1_pipeline_bit_identical() {
    let bin = TimeDelta::from_micros(50);
    let serial = run_fig1_sharded(Scheme::RandomSpray, 1 << 20, bin, 42, 1);
    let sharded = run_fig1_sharded(Scheme::RandomSpray, 1 << 20, bin, 42, 2);
    assert_eq!(serial.completed, sharded.completed);
    assert_eq!(serial.data_packets, sharded.data_packets);
    assert_eq!(serial.retx_packets, sharded.retx_packets);
    assert_eq!(serial.retx_ratio_series, sharded.retx_ratio_series);
    assert_eq!(serial.rate_series, sharded.rate_series);
    let mut a = telemetry::Report::new();
    a.add_run("fig1", serial.telemetry.clone());
    let mut b = telemetry::Report::new();
    b.add_run("fig1", sharded.telemetry.clone());
    assert_eq!(a.to_json(), b.to_json(), "fig1 telemetry JSON diverged");
}

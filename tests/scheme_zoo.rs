//! Scheme-zoo contracts: every pluggable scheme — including the
//! sender-driven baselines REPS, Eunomia, and Sprinklers — must be a
//! first-class citizen of the substrate. That means (a) bit-identical
//! telemetry between the serial and sharded engines for any seed,
//! (b) clean oracle audits under a standard fault plan, and (c) the
//! documented `scheme.*` counter namespace actually populated by the
//! mechanism the scheme claims to implement (see SCHEMES.md and the
//! per-scheme metrics contract in EXPERIMENTS.md).

use themis::harness::faults::{Fault, FaultEvent, FaultPlan};
use themis::harness::oracle::{self, OracleConfig};
use themis::harness::{
    run_collective_with_faults, run_point_to_point, Collective, ExperimentConfig, ExperimentResult,
    Scheme,
};
use themis::simcore::time::Nanos;

/// Serialize one run's telemetry, minus the intentionally-divergent
/// `run.shards` execution-config echo (same convention as the
/// parallel-equivalence suite).
fn telemetry_json(label: &str, r: &ExperimentResult) -> String {
    let mut report = telemetry::Report::new();
    report.add_run(label, r.telemetry.clone());
    report
        .to_json()
        .lines()
        .filter(|l| !l.contains("\"run.shards\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Read an integer counter out of the serialized telemetry document.
fn counter(r: &ExperimentResult, name: &str) -> Option<u64> {
    let json = telemetry_json("probe", r);
    let needle = format!("\"{name}\":");
    json.lines().find(|l| l.contains(&needle)).map(|l| {
        l.split(':')
            .nth(1)
            .expect("counter line has a value")
            .trim()
            .trim_end_matches(',')
            .parse()
            .expect("counter value is an integer")
    })
}

/// Every scheme in the registry — the paper's own variants AND the
/// three external baselines — must produce byte-identical telemetry
/// under the serial and sharded engines, across several seeds. This is
/// the contract that makes cross-scheme sweeps trustworthy: a scheme
/// whose results depended on shard count could silently win or lose a
/// comparison for engine reasons.
#[test]
fn every_scheme_is_bit_identical_serial_vs_sharded() {
    for &scheme in Scheme::ALL.iter() {
        for seed in [11u64, 12, 13, 14] {
            let mut cfg = ExperimentConfig::motivation_small(scheme, seed);
            cfg.shards = 1;
            let serial = run_point_to_point(&cfg, 256 << 10);
            cfg.shards = 2;
            let sharded = run_point_to_point(&cfg, 256 << 10);
            let label = format!("{}/seed{}", scheme.label(), seed);
            assert!(
                serial.all_messages_completed(),
                "{label}: serial run did not complete"
            );
            assert_eq!(
                serial.tail_ct, sharded.tail_ct,
                "{label}: completion time diverged"
            );
            assert_eq!(
                telemetry_json(&label, &serial),
                telemetry_json(&label, &sharded),
                "{label}: telemetry JSON diverged between engines"
            );
        }
    }
}

/// The standard fault plan for auditing a new scheme: a lossy uplink
/// episode (random loss, so retransmission logic is exercised) that
/// clears before the end of the run.
fn standard_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                at: Nanos::from_micros(20),
                fault: Fault::UplinkLoss {
                    leaf: 0,
                    uplink: 1,
                    rate_ppm: 20_000,
                },
            },
            FaultEvent {
                at: Nanos::from_micros(220),
                fault: Fault::UplinkLoss {
                    leaf: 0,
                    uplink: 1,
                    rate_ppm: 0,
                },
            },
        ],
    }
}

/// REPS, Eunomia, and Sprinklers must complete a ring under the
/// standard lossy-uplink plan and pass the protocol-invariant oracle —
/// conservation, ordering, and NACK bookkeeping all hold even though
/// their entropy/reaction behavior differs from the commodity default.
#[test]
fn new_baselines_pass_the_oracle_under_the_standard_fault_plan() {
    for scheme in [Scheme::Reps, Scheme::Eunomia, Scheme::Sprinklers] {
        let cfg = ExperimentConfig::motivation_small(scheme, 7);
        let (r, cluster) =
            run_collective_with_faults(&cfg, Collective::RingOnce, 1 << 20, &standard_plan());
        assert!(
            r.all_messages_completed(),
            "{}: ring must survive the lossy episode",
            scheme.label()
        );
        // Random loss can destroy ACKs/NACKs, so the RTO bound is off —
        // the remaining invariants (conservation, ordered delivery,
        // NACK dedup) must all hold.
        let mut ocfg = OracleConfig::for_scheme(scheme).without_rto_bound();
        ocfg.quiesced = r.sim_end < cfg.horizon;
        oracle::assert_conformant(&cluster, &ocfg);
    }
}

/// The `scheme.*` namespace is a documented contract: each scheme's
/// characteristic counters must exist in telemetry and reflect the
/// mechanism actually firing.
#[test]
fn scheme_counters_reflect_each_mechanism() {
    // REPS: ACK-echoed entropies get recycled for later sends.
    let cfg = ExperimentConfig::motivation_small(Scheme::Reps, 3);
    let r = run_point_to_point(&cfg, 1 << 20);
    assert!(r.all_messages_completed());
    let recycled = counter(&r, "scheme.reps.recycled_sends").expect("REPS counters exported");
    let fresh = counter(&r, "scheme.reps.fresh_sends").unwrap();
    assert!(recycled > 0, "a 1 MiB flow must recycle some entropies");
    assert!(fresh > 0, "the pool starts empty, so early sends are fresh");

    // Sprinklers: several variable-size stripes over a 1 MiB flow.
    let cfg = ExperimentConfig::motivation_small(Scheme::Sprinklers, 3);
    let r = run_point_to_point(&cfg, 1 << 20);
    assert!(r.all_messages_completed());
    let stripes = counter(&r, "scheme.sprinklers.stripes_started").expect("counters exported");
    assert!(
        stripes > 1,
        "1 MiB must span multiple stripes, got {stripes}"
    );

    // Eunomia: spraying reorders, but small gaps are held back rather
    // than NACKed eagerly.
    let cfg = ExperimentConfig::motivation_small(Scheme::Eunomia, 3);
    let r = run_point_to_point(&cfg, 1 << 20);
    assert!(r.all_messages_completed());
    let held = counter(&r, "scheme.eunomia.nacks_held").expect("counters exported");
    assert!(held > 0, "spray-induced gaps must be patiently held");

    // Schemes outside the zoo additions don't pollute the namespace.
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 3);
    let r = run_point_to_point(&cfg, 256 << 10);
    assert_eq!(counter(&r, "scheme.reps.recycled_sends"), None);
    assert_eq!(counter(&r, "scheme.eunomia.nacks_held"), None);
}

/// The fat-tree leg of the cross-scheme sweep: each new baseline
/// completes on the k=4 Clos (the k=16 version of this run is the
/// `fig5 --fat-tree` deliverable; the small radix keeps the unit suite
/// fast) and stays bit-identical across engines there too.
#[test]
fn new_baselines_run_on_the_fat_tree_bit_identically() {
    use themis::harness::run_fat_tree_rings;
    use themis::netsim::fat_tree::FatTreeConfig;
    use themis::rnic::NicConfig;

    for scheme in [Scheme::Reps, Scheme::Eunomia, Scheme::Sprinklers] {
        let fabric = FatTreeConfig::small(4);
        let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
        let run = |shards: usize| {
            run_fat_tree_rings(
                &fabric,
                nic,
                scheme,
                5,
                shards,
                2,
                64 << 10,
                Nanos::from_secs(2),
            )
            .0
        };
        let serial = run(1);
        let sharded = run(2);
        let label = format!("fattree/{}", scheme.label());
        assert!(serial.all_messages_completed(), "{label}: did not complete");
        assert_eq!(
            telemetry_json(&label, &serial),
            telemetry_json(&label, &sharded),
            "{label}: fat-tree telemetry diverged between engines"
        );
    }
}

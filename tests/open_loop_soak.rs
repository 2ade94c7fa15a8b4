//! Long-horizon soak of the open-loop traffic engine: multi-tenant job
//! churn with periodic incast storms and guarded `evict_flow` cycling
//! at every telemetry window, audited by the sliding-window oracle.
//!
//! The CI-sized variant runs in seconds; the `#[ignore]` variant is the
//! acceptance-scale k=16 (1024-host) run — ≥1000 tenant jobs over ≥10k
//! QPs, ≥10 windowed telemetry slices, oracle-clean, and bit-identical
//! between the serial and sharded engines
//! (`cargo test --release --test open_loop_soak -- --ignored`).

use themis::harness::load::{run_open_loop, LoadConfig};
use themis::harness::Scheme;

/// CI-sized soak: churn + eviction cycling on k=4, oracle-clean, every
/// job completes, and the per-window drop-log drain leaves nothing
/// resident (the bounded-memory property in miniature).
#[test]
fn soak_small_churn_with_eviction_cycling() {
    let mut cfg = LoadConfig::small(Scheme::Themis, 5);
    cfg.spec.n_jobs = 200;
    cfg.spec.n_tenants = 24;
    cfg.windows = 14;
    cfg.evict_per_window = 16;
    let (r, cluster) = run_open_loop(&cfg).expect("valid config");

    assert!(
        r.violations().is_empty(),
        "soak produced oracle violations: {:?}",
        r.violations()
    );
    assert!(
        r.all_complete(),
        "only {}/{} jobs completed",
        r.jobs_completed,
        r.jobs_total
    );
    assert!(
        r.windowed.slices().len() >= 10,
        "want >= 10 telemetry slices"
    );
    // The eviction churn genuinely hit resident flow-table entries: the
    // obligation guard refused them (invisible eviction is separately
    // model-checked; here the point is the guard held under live load).
    assert!(r.evictions_attempted > 0);
    assert!(
        r.evictions_deferred > 0,
        "no eviction attempt ever found a resident entry"
    );
    // Sliding-window audit drained every switch's drop log window by
    // window — nothing accumulated for the whole run.
    for &sw in cluster.leaves.iter() {
        let s = cluster.switch(sw).unwrap();
        assert!(s.drop_log().is_empty(), "drop log not drained at {sw:?}");
    }
    // FCT/fairness reporting is live.
    assert!(r.fct_p50.is_some() && r.fct_p99.is_some());
    let jain = r.fairness_jain.expect("fairness over completed tenants");
    assert!(jain > 0.0 && jain <= 1.0 + 1e-9, "jain {jain} out of range");
}

/// Bursty arrivals + storage CDF keep the engine honest off the default
/// path (different arrival process, heavier tail, no completion
/// requirement — the horizon intentionally cuts the tail off).
#[test]
fn soak_bursty_storage_tail_is_oracle_clean() {
    let mut cfg = LoadConfig::small(Scheme::ThemisPathMap, 9);
    cfg.spec.n_jobs = 120;
    cfg.spec.arrival = collectives::open_loop::Arrival::Bursty {
        mean_gap: simcore::time::Nanos::from_micros(40),
        burst_len: 6,
        factor: 8,
    };
    cfg.spec.cdf = collectives::open_loop::FlowSizeCdf::storage();
    cfg.require_complete = false;
    let (r, _cluster) = run_open_loop(&cfg).expect("valid config");
    assert!(
        r.violations().is_empty(),
        "bursty soak produced oracle violations: {:?}",
        r.violations()
    );
    assert!(r.jobs_started > 0);
    assert_eq!(r.windowed.slices().len(), cfg.windows);
}

/// Acceptance scale: k=16, 1024 hosts, ≥1000 tenant jobs, ≥10k QPs,
/// eviction churn on, oracle-clean, ≥10 windowed slices, and the whole
/// run replays bit-identically on the sharded engine.
#[test]
#[ignore = "acceptance-scale (k=16, 1024 hosts, two full runs) — run with --ignored"]
fn soak_k16_acceptance_scale() {
    let cfg = LoadConfig::k16_acceptance(Scheme::Themis, 1);
    let (r, _cluster) = run_open_loop(&cfg).expect("valid config");
    assert!(
        r.jobs_total >= 1000,
        "want >= 1000 jobs, got {}",
        r.jobs_total
    );
    assert!(r.qps >= 10_000, "want >= 10k QPs, got {}", r.qps);
    assert!(r.windowed.slices().len() >= 10);
    assert!(
        r.violations().is_empty(),
        "k16 soak produced oracle violations: {:?}",
        r.violations()
    );
    assert!(
        r.all_complete(),
        "only {}/{} jobs completed",
        r.jobs_completed,
        r.jobs_total
    );
    assert!(r.evictions_attempted > 0);

    let mut sharded_cfg = cfg.clone();
    sharded_cfg.shards = 4;
    let (rs, _cluster) = run_open_loop(&sharded_cfg).expect("valid config");
    assert_eq!(
        r.windowed.to_json(),
        rs.windowed.to_json(),
        "k16 windowed telemetry diverged between serial and 4-shard runs"
    );
}

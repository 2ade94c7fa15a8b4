//! Serial vs parallel sweep runs must be bit-identical.
//!
//! The `SweepRunner` contract: fanning cells over worker threads changes
//! wall-clock time only. Every per-cell metric — completion times, packet
//! counts, Themis counters, even the total event count — must equal the
//! serial run's, because each cell is its own sealed simulation.

use themis_harness::sweep::SweepRunner;
use themis_harness::{run_collective, Collective, ExperimentConfig, ExperimentResult, Scheme};

/// Full-metric fingerprint of a result (no wall-clock fields).
fn fingerprints(results: &[ExperimentResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| format!("{},{},{}", r.to_csv_row(), r.events, r.sim_end.as_nanos()))
        .collect()
}

/// One ring on the motivation fabric per seed, fanned over `runner`:
/// each cell derives all randomness from its own seed.
fn seed_sweep(
    scheme: Scheme,
    bytes: u64,
    seeds: &[u64],
    runner: SweepRunner,
) -> Vec<ExperimentResult> {
    runner.run(seeds, |&seed| {
        let cfg = ExperimentConfig::motivation_small(scheme, seed);
        run_collective(&cfg, Collective::RingOnce, bytes)
    })
}

#[test]
fn seed_sweep_parallel_matches_serial() {
    let seeds: Vec<u64> = (1..=8).collect();
    let bytes = 96 * 1024; // small: 8 cells finish quickly even in debug
    let serial = seed_sweep(Scheme::Themis, bytes, &seeds, SweepRunner::new(1));
    let parallel = seed_sweep(Scheme::Themis, bytes, &seeds, SweepRunner::new(4));
    assert_eq!(serial.len(), 8);
    assert_eq!(
        fingerprints(&serial),
        fingerprints(&parallel),
        "parallel sweep must be bit-identical to serial"
    );
    // Different seeds must actually differ somewhere, otherwise the
    // comparison above proves nothing about per-cell isolation.
    let fp = fingerprints(&serial);
    let unique: std::collections::HashSet<&String> = fp.iter().collect();
    assert!(
        unique.len() >= 2,
        "all seeds produced identical metrics; fingerprint is too weak"
    );
}

#[test]
fn parallel_run_repeats_exactly() {
    // Two parallel runs with the same worker count must also agree —
    // no hidden dependence on thread scheduling.
    let seeds = [3u64, 5, 7, 11];
    let bytes = 64 * 1024;
    let a = seed_sweep(Scheme::RandomSpray, bytes, &seeds, SweepRunner::new(4));
    let b = seed_sweep(Scheme::RandomSpray, bytes, &seeds, SweepRunner::new(2));
    assert_eq!(fingerprints(&a), fingerprints(&b));
}

#[test]
fn scheme_cells_stay_isolated_across_workers() {
    // Different schemes in flight on different workers must not bleed
    // state into each other: each parallel cell equals its solo run.
    let schemes = [Scheme::Ecmp, Scheme::RandomSpray, Scheme::Themis];
    let bytes = 64 * 1024;
    let cells: Vec<ExperimentConfig> = schemes
        .iter()
        .map(|&s| ExperimentConfig::motivation_small(s, 9))
        .collect();
    let together = SweepRunner::new(3).run(&cells, |cfg| {
        run_collective(cfg, Collective::RingOnce, bytes)
    });
    for (cfg, parallel_result) in cells.iter().zip(&together) {
        let solo = run_collective(cfg, Collective::RingOnce, bytes);
        assert_eq!(
            fingerprints(std::slice::from_ref(&solo)),
            fingerprints(std::slice::from_ref(parallel_result)),
            "{} diverged when run alongside other schemes",
            cfg.scheme.label()
        );
    }
}

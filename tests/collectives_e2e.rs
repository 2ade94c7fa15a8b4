//! Collectives × schemes matrix on the motivation fabric.
//!
//! Every collective must complete under every scheme with exactly the
//! right number of delivered bytes, and the scheme ordering the paper
//! predicts must hold on the ring workloads.

use themis::harness::oracle::{assert_conformant, OracleConfig};
use themis::harness::{
    run_collective, run_collective_with_faults, Collective, ExperimentConfig, FaultPlan, Scheme,
};

/// Expected delivered payload bytes for a collective over `groups`
/// groups of `n` ranks with per-group buffer `total`.
fn expected_bytes(c: Collective, groups: u64, n: u64, total: u64) -> u64 {
    let chunk = total / n;
    match c {
        Collective::Allreduce => groups * n * 2 * (n - 1) * chunk,
        Collective::AllGather | Collective::ReduceScatter => groups * n * (n - 1) * chunk,
        Collective::Alltoall => groups * n * (n - 1) * chunk,
        Collective::RingOnce => groups * n * total,
        Collective::Incast => groups * (n - 1) * total,
    }
}

#[test]
fn all_collectives_complete_under_all_schemes() {
    let total: u64 = 1 << 20;
    for collective in [
        Collective::Allreduce,
        Collective::Alltoall,
        Collective::AllGather,
        Collective::ReduceScatter,
        Collective::RingOnce,
        Collective::Incast,
    ] {
        for scheme in [
            Scheme::Ecmp,
            Scheme::AdaptiveRouting,
            Scheme::RandomSpray,
            Scheme::Themis,
            Scheme::ThemisPathMap,
        ] {
            let cfg = ExperimentConfig::motivation_small(scheme, 31);
            let (r, cluster) =
                run_collective_with_faults(&cfg, collective, total, &FaultPlan::none());
            assert!(
                r.all_messages_completed(),
                "{} × {} did not complete",
                collective.label(),
                scheme.label()
            );
            assert_eq!(
                r.nics.bytes_delivered,
                expected_bytes(collective, 2, 4, total),
                "{} × {}: byte accounting",
                collective.label(),
                scheme.label()
            );
            assert_eq!(r.fabric.drops_no_route, 0);
            // Full protocol-invariant audit of the finished run.
            let mut oracle = OracleConfig::for_scheme(scheme)
                .with_expected_bytes(expected_bytes(collective, 2, 4, total));
            oracle.quiesced = r.sim_end < cfg.horizon;
            assert_conformant(&cluster, &oracle);
        }
    }
}

#[test]
fn themis_no_slower_than_ar_and_ecmp_on_ring() {
    // On the motivation fabric with congested ring traffic, the paper's
    // ordering: Themis ≤ AR and Themis ≤ ECMP (ECMP suffers collisions,
    // AR suffers NACK slow-starts).
    let bytes = 4 << 20;
    let ct = |scheme| {
        let cfg = ExperimentConfig::motivation_small(scheme, 11);
        run_collective(&cfg, Collective::RingOnce, bytes)
            .tail_ct
            .expect("completes")
            .as_secs_f64()
    };
    let themis = ct(Scheme::Themis);
    let ar = ct(Scheme::AdaptiveRouting);
    let ecmp = ct(Scheme::Ecmp);
    assert!(
        themis <= ar * 1.02,
        "Themis {themis} must not lose to AR {ar}"
    );
    assert!(
        themis <= ecmp * 1.02,
        "Themis {themis} must not lose to ECMP {ecmp}"
    );
}

#[test]
fn pathmap_mode_is_equivalent_on_two_tier() {
    // On a 2-tier Clos the PathMap rewrite and direct egress selection
    // realize the same path function, so whole-run metrics must match
    // exactly (same seed, deterministic engine).
    let bytes = 2 << 20;
    let a = run_collective(
        &ExperimentConfig::motivation_small(Scheme::Themis, 13),
        Collective::RingOnce,
        bytes,
    );
    let b = run_collective(
        &ExperimentConfig::motivation_small(Scheme::ThemisPathMap, 13),
        Collective::RingOnce,
        bytes,
    );
    assert_eq!(a.tail_ct, b.tail_ct);
    assert_eq!(a.themis.nacks_blocked, b.themis.nacks_blocked);
    assert_eq!(a.nics.ooo_packets, b.nics.ooo_packets);
}

#[test]
fn alltoall_stresses_last_hop_and_still_completes() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 17);
    let (r, cluster) =
        run_collective_with_faults(&cfg, Collective::Alltoall, 4 << 20, &FaultPlan::none());
    assert!(r.all_messages_completed());
    // 4-rank alltoall: every rank receives from 3 peers concurrently —
    // the last hop is oversubscribed 3:1 and must mark or queue.
    assert!(r.sim_end.as_nanos() > 0);
    let mut oracle = OracleConfig::for_scheme(Scheme::Themis);
    oracle.quiesced = r.sim_end < cfg.horizon;
    assert_conformant(&cluster, &oracle);
}

#[test]
fn group_completion_times_are_recorded_per_group() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 19);
    let r = run_collective(&cfg, Collective::RingOnce, 1 << 20);
    assert_eq!(r.group_cts.len(), 2);
    for ct in &r.group_cts {
        assert!(ct.is_some());
    }
    let tail = r.tail_ct.unwrap();
    assert_eq!(
        tail,
        r.group_cts.iter().map(|c| c.unwrap()).max().unwrap(),
        "tail is the slowest group"
    );
}

//! Multiple training jobs sharing one fabric.
//!
//! Real clusters multiplex jobs: here an Allreduce "job" and an Alltoall
//! "job" run simultaneously on disjoint host subsets of the motivation
//! fabric, contending for the same spines. Themis state is per-QP, so
//! the jobs must not interfere with each other's NACK bookkeeping.

use themis::collectives::{alltoall::alltoall, ring::ring_allreduce};
use themis::harness::experiment::driver_of;
use themis::harness::oracle::{assert_conformant, OracleConfig};
use themis::harness::{build_cluster, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::types::HostId;
use themis::simcore::time::{Nanos, TimeDelta};

/// Job A: 4-rank Allreduce on the even hosts; job B: 4-rank Alltoall on
/// the odd hosts. Returns (driver-completions, result).
fn run_two_jobs(
    scheme: Scheme,
    bytes: u64,
) -> (Vec<Option<Nanos>>, themis::harness::ExperimentResult) {
    let cfg = ExperimentConfig::motivation_small(scheme, 61);
    let cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    let evens: Vec<HostId> = (0..4).map(|i| HostId(i * 2)).collect();
    let odds: Vec<HostId> = (0..4).map(|i| HostId(i * 2 + 1)).collect();
    let window = TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, 19, window);
    session.post(&evens, ring_allreduce(4, bytes), Start::WithRun);
    session.post(&odds, alltoall(4, bytes), Start::WithRun);
    session.kick_off();
    session.run_to(cfg.horizon);
    let cluster = session.cluster;
    // Protocol-invariant audit on every job mix, every scheme.
    let mut oracle = OracleConfig::for_scheme(scheme);
    oracle.quiesced = cluster.world.now() < cfg.horizon;
    assert_conformant(&cluster, &oracle);
    let d = driver_of(&cluster);
    let completions = d.completions();
    let r = themis::harness::ExperimentResult {
        scheme,
        tail_ct: d
            .tail_completion()
            .map(|t| t.since(d.started_at().unwrap())),
        group_cts: vec![],
        fabric: themis::netsim::trace::fabric_summary(&cluster.world, &cluster.all_switches()),
        themis: cluster.themis_stats(),
        nics: themis::harness::experiment::aggregate_nics(&cluster),
        events: cluster.world.engine.dispatched(),
        sim_end: cluster.world.now(),
        msg_latency_p50: None,
        msg_latency_p99: None,
        telemetry: cluster.snapshot_merged(),
    };
    (completions, r)
}

#[test]
fn concurrent_jobs_complete_under_themis_without_retransmissions() {
    let (completions, r) = run_two_jobs(Scheme::Themis, 2 << 20);
    assert_eq!(completions.len(), 2);
    assert!(completions.iter().all(Option::is_some), "both jobs finish");
    assert_eq!(r.nics.retx_packets, 0, "per-QP Themis state isolates jobs");
    assert!(r.themis.nacks_blocked > 0, "contention reorders both jobs");
    assert_eq!(r.fabric.total_drops(), 0);
}

#[test]
fn concurrent_jobs_faster_under_themis_than_unfiltered_spray() {
    let bytes = 2 << 20;
    let (_, themis) = run_two_jobs(Scheme::Themis, bytes);
    let (_, spray) = run_two_jobs(Scheme::SprayNoFilter, bytes);
    let (t, s) = (
        themis.tail_ct.expect("themis completes").as_secs_f64(),
        spray.tail_ct.expect("spray completes").as_secs_f64(),
    );
    assert!(t < s, "Themis {t:.6}s must beat unfiltered spray {s:.6}s");
    assert!(spray.nics.retx_packets > 0);
}

#[test]
fn jobs_complete_under_every_scheme() {
    for scheme in [
        Scheme::Ecmp,
        Scheme::AdaptiveRouting,
        Scheme::Flowlet,
        Scheme::Themis,
    ] {
        let (completions, r) = run_two_jobs(scheme, 1 << 20);
        assert!(
            completions.iter().all(Option::is_some),
            "{}: a job did not finish",
            scheme.label()
        );
        // Allreduce job moves 2*(n-1)*chunk per rank; Alltoall (n-1)*chunk.
        let chunk = (1u64 << 20) / 4;
        let expected = 4 * 2 * 3 * chunk + 4 * 3 * chunk;
        assert_eq!(r.nics.bytes_delivered, expected, "{}", scheme.label());
    }
}

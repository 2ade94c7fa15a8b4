//! Hierarchical (rack-aware) Allreduce end to end: all 8 hosts of the
//! motivation fabric as one job (4 racks × 2 local ranks).
//!
//! The two-level algorithm sends only 1/locals of the flat ring's bytes
//! across the core, and Themis keeps the cross-rack phase clean.

use themis::collectives::hierarchical::hierarchical_allreduce;
use themis::collectives::ring::ring_allreduce;
use themis::collectives::schedule::Schedule;
use themis::harness::experiment::driver_of;
use themis::harness::{build_cluster, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::types::HostId;
use themis::simcore::time::TimeDelta;

fn run_whole_fabric(
    scheme: Scheme,
    schedule: Schedule,
    interleaved: bool,
) -> (
    themis::harness::Cluster,
    Option<themis::simcore::time::TimeDelta>,
) {
    let cfg = ExperimentConfig::motivation_small(scheme, 83);
    let cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    // Rack-major rank order (rank = rack * locals + local) for the
    // hierarchical schedule; interleaved order (every ring hop crosses
    // racks, the paper's group construction) for the flat baseline.
    let hosts: Vec<HostId> = if interleaved {
        (0..8).map(|i| HostId((i % 4) * 2 + i / 4)).collect()
    } else {
        (0..8).map(HostId).collect()
    };
    let window = TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, 41, window);
    session.post(&hosts, schedule, Start::WithRun);
    session.kick_off();
    session.run_to(cfg.horizon);
    let d = driver_of(&session.cluster);
    let ct = d
        .tail_completion()
        .map(|t| t.since(d.started_at().unwrap()));
    (session.cluster, ct)
}

/// Bytes that crossed the spine layer (sum of spine egress bytes).
fn spine_bytes(cluster: &themis::harness::Cluster) -> u64 {
    cluster
        .spines
        .iter()
        .map(|&s| {
            let sw = cluster.switch(s).unwrap();
            (0..sw.num_ports())
                .map(|p| sw.port(p).stats.tx_bytes)
                .sum::<u64>()
        })
        .sum()
}

#[test]
fn hierarchical_allreduce_completes_cleanly_under_themis() {
    let total = 8u64 << 20;
    let (cluster, ct) =
        run_whole_fabric(Scheme::Themis, hierarchical_allreduce(4, 2, total), false);
    assert!(ct.is_some(), "hierarchical allreduce completes");
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.retx_packets, 0);
    assert_eq!(nics.rto_fires, 0);
}

#[test]
fn hierarchical_moves_less_over_the_core_than_flat_ring() {
    let total = 8u64 << 20;
    let (hier, hier_ct) =
        run_whole_fabric(Scheme::Themis, hierarchical_allreduce(4, 2, total), false);
    // Flat baseline rides the paper-style interleaved ring: every hop of
    // the 8-rank ring is cross-rack.
    let (flat, flat_ct) = run_whole_fabric(Scheme::Themis, ring_allreduce(8, total), true);
    assert!(hier_ct.is_some() && flat_ct.is_some());
    let (hb, fb) = (spine_bytes(&hier), spine_bytes(&flat));
    assert!(
        hb * 2 <= fb,
        "two local ranks should at least halve core traffic: {hb} vs {fb}"
    );
    // Both deliver the mathematically required volume in the end.
    let hier_nics = themis::harness::experiment::aggregate_nics(&hier);
    let flat_nics = themis::harness::experiment::aggregate_nics(&flat);
    assert!(hier_nics.bytes_delivered > 0 && flat_nics.bytes_delivered > 0);
}

#[test]
fn hierarchical_vs_flat_under_ecmp_collisions() {
    // With fewer, smaller cross-rack flows, hierarchical allreduce is
    // also less exposed to ECMP collisions — both must complete.
    let total = 4u64 << 20;
    let (_, hier_ct) = run_whole_fabric(Scheme::Ecmp, hierarchical_allreduce(4, 2, total), false);
    let (_, flat_ct) = run_whole_fabric(Scheme::Ecmp, ring_allreduce(8, total), true);
    assert!(hier_ct.is_some() && flat_ct.is_some());
}

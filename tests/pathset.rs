//! §6 pathset restriction, end to end.
//!
//! After a partial failure (say one spine of four), Themis need not fall
//! all the way back to ECMP: it can keep spraying over the surviving
//! power-of-two subset of paths. In direct-egress mode the subset maps
//! to concrete uplinks, so the failed spine receives no traffic at all,
//! while NACK filtering continues at the reduced modulus.

use themis::harness::experiment::driver_of;
use themis::harness::{build_cluster_sharded, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::port::LinkSpec;
use themis::netsim::topology::LeafSpineConfig;
use themis::simcore::time::{Nanos, TimeDelta};

use collectives::ring::ring_once;

/// A 4-spine variant of the motivation fabric (8 hosts, 4 paths).
fn four_path_fabric() -> LeafSpineConfig {
    LeafSpineConfig {
        n_spines: 4,
        ..LeafSpineConfig::motivation()
    }
}

fn run_ring_with_pathset(pathset: Option<Vec<usize>>) -> themis::harness::Cluster {
    let fabric = four_path_fabric();
    let cfg = ExperimentConfig {
        nic: rnic::NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
        fabric,
        scheme: Scheme::Themis,
        seed: 9,
        horizon: Nanos::from_secs(2),
        shards: themis::harness::shards_from_env(),
    };
    let mut cluster = build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    if let Some(ps) = pathset {
        for &leaf in &cluster.leaves.clone() {
            let themis = cluster.middleware_mut(leaf).expect("Themis on the leaf");
            themis.set_pathset(Some(ps.clone()));
        }
    }
    // Two 4-host ring groups (evens and odds), as in Fig 1a.
    let groups = collectives::groups::all_groups(4, 2);
    let mut session = Session::new(cluster, 3, TimeDelta::from_secs(2));
    for hosts in &groups {
        session.post(hosts, ring_once(hosts.len(), 2 << 20), Start::WithRun);
    }
    session.kick_off();
    session.run_to(Nanos::from_secs(2));
    session.cluster
}

fn spine_data_rx(cluster: &themis::harness::Cluster) -> Vec<u64> {
    cluster
        .spines
        .iter()
        .map(|&s| cluster.switch(s).unwrap().stats.rx_packets)
        .collect()
}

/// Bytes transmitted by each spine — data packets dominate this metric
/// (1564 B wire vs 64 B ACK/NACK/CNP), unlike raw packet counts where
/// per-packet ACK streams are as numerous as data.
fn spine_tx_bytes(cluster: &themis::harness::Cluster) -> Vec<u64> {
    cluster
        .spines
        .iter()
        .map(|&s| {
            let sw = cluster.switch(s).unwrap();
            (0..sw.num_ports()).map(|p| sw.port(p).stats.tx_bytes).sum()
        })
        .collect()
}

#[test]
fn full_pathset_uses_every_spine() {
    let cluster = run_ring_with_pathset(None);
    let d = driver_of(&cluster);
    assert!(d.all_complete());
    let rx = spine_data_rx(&cluster);
    assert!(rx.iter().all(|&r| r > 0), "all 4 spines used: {rx:?}");
}

#[test]
fn restricted_pathset_avoids_failed_spines_and_still_filters() {
    // Spines 2 and 3 "failed": restrict to {0, 1}.
    let cluster = run_ring_with_pathset(Some(vec![0, 1]));
    let d = driver_of(&cluster);
    assert!(d.all_complete(), "traffic must complete on the subset");

    let rx = spine_data_rx(&cluster);
    assert!(rx[0] > 0 && rx[1] > 0, "surviving spines used: {rx:?}");
    // Only reverse-direction control traffic (whose ECMP hash is not
    // pathset-steered) may touch spines 2/3; sprayed data must not.
    // Control packets are numerous but tiny, so compare bytes.
    let bytes = spine_tx_bytes(&cluster);
    let total: u64 = bytes.iter().sum();
    assert!(
        (bytes[2] + bytes[3]) * 20 < total,
        "failed spines must carry no sprayed data: {bytes:?}"
    );

    // Spraying still reorders over 2 paths and filtering still works at
    // the reduced modulus.
    let agg = cluster.themis_stats();
    assert!(
        agg.nacks_blocked > 0,
        "filtering active at modulus 2: {agg:?}"
    );
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.retx_packets, 0, "no spurious retransmissions");
}

#[test]
fn single_path_subset_degenerates_to_in_order_delivery() {
    let cluster = run_ring_with_pathset(Some(vec![2]));
    let d = driver_of(&cluster);
    assert!(d.all_complete());
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.ooo_packets, 0, "one path -> in order");
    assert_eq!(nics.retx_packets, 0);
    let bytes = spine_tx_bytes(&cluster);
    // All data on spine 2.
    assert!(bytes[2] > bytes[0] + bytes[1] + bytes[3], "{bytes:?}");
    let _ = LinkSpec::gbps(1, 1);
}

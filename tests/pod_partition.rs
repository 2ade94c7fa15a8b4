//! Structural properties of the pod-aligned fat-tree partition.
//!
//! Except for the k=32 smoke at the end, these tests never run a
//! simulation: they build the sharded cluster and check the partition
//! and its per-pair lookahead matrix directly.
//!
//! * **Pod-closed** — a pod's edges, aggregation switches and hosts all
//!   live on one shard, so intra-pod links never cross shards.
//! * **Coverage** — the owner vector assigns every entity slot (and the
//!   driver slot) to a valid shard, and no shard is empty.
//! * **Sound lookahead** — the λ matrix lower-bounds the latency of
//!   every cross-shard physical link and never exceeds the control-plane
//!   latency on driver↔NIC pairs (the engine would otherwise flag a
//!   lookahead violation at runtime).

use themis::harness::{build_fat_tree_cluster_sharded, run_fat_tree_rings, Cluster, Scheme};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::netsim::world::CONTROL_PLANE_LATENCY;
use themis::rnic::NicConfig;
use themis::simcore::time::Nanos;

fn build(k: usize, n_shards: usize) -> Cluster {
    let fabric = FatTreeConfig::small(k);
    let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    build_fat_tree_cluster_sharded(&fabric, nic, Scheme::Themis, n_shards)
}

fn check_partition(k: usize, n_shards: usize) {
    let cluster = build(k, n_shards);
    let plan = cluster
        .world
        .shard_plan()
        .expect("sharded build installs a plan");
    let owner = &plan.owner;
    let n = plan.n_shards;
    let m = k / 2;

    // Coverage: every slot (switches, NICs, the reserved driver) has a
    // valid owner and every shard owns at least one entity.
    assert_eq!(
        owner.len(),
        cluster.world.len(),
        "{k}/{n_shards}: owner len"
    );
    assert!(owner.iter().all(|&s| (s as usize) < n));
    let mut populated = vec![false; n];
    for &s in owner.iter() {
        populated[s as usize] = true;
    }
    assert!(
        populated.iter().all(|&p| p),
        "{k}/{n_shards}: every shard must own entities"
    );
    assert_eq!(owner[cluster.driver.index()], 0, "driver lives on shard 0");

    // Pod-closed: `leaves` is pod-major (m edges per pod) and `spines`
    // starts with the k·m aggregation switches in the same order; each
    // pod's switches must share one shard.
    assert_eq!(cluster.leaves.len(), k * m);
    for p in 0..k {
        let pod_shard = owner[cluster.leaves[p * m].index()];
        for &e in &cluster.leaves[p * m..(p + 1) * m] {
            assert_eq!(owner[e.index()], pod_shard, "{k}/{n_shards}: pod {p} edge");
        }
        for &a in &cluster.spines[p * m..(p + 1) * m] {
            assert_eq!(owner[a.index()], pod_shard, "{k}/{n_shards}: pod {p} agg");
        }
    }
    // Hosts follow their ToR, so host links never cross shards.
    for &h in &cluster.hosts {
        let nic = cluster.nic(h);
        let tor = nic.uplink().peer;
        assert_eq!(
            owner[h.0 as usize],
            owner[tor.index()],
            "{k}/{n_shards}: host {h:?} on its ToR's shard"
        );
    }

    // Sound lookahead: λ[i][j] must not exceed the latency of any
    // physical link crossing i → j, nor the control-plane latency on
    // driver↔NIC pairs.
    let lam = plan.lookahead_matrix();
    assert_eq!(lam.len(), n * n);
    let entry = |a: u16, b: u16| lam[a as usize * n + b as usize];
    for &sw_id in cluster.leaves.iter().chain(cluster.spines.iter()) {
        let sw = cluster.switch(sw_id).expect("switch installed");
        let me = owner[sw_id.index()];
        for i in 0..sw.num_ports() {
            let port = sw.port(i);
            let peer = owner[port.peer.index()];
            if me != peer {
                assert!(
                    entry(me, peer) <= port.link.latency.as_nanos(),
                    "{k}/{n_shards}: λ[{me}][{peer}] must lower-bound a crossing link"
                );
            }
        }
    }
    let cpl = CONTROL_PLANE_LATENCY.as_nanos();
    let driver_shard = owner[cluster.driver.index()];
    for &h in &cluster.hosts {
        let host_shard = owner[h.0 as usize];
        if host_shard != driver_shard {
            assert!(entry(host_shard, driver_shard) <= cpl);
            assert!(entry(driver_shard, host_shard) <= cpl);
        }
    }
    // Positivity: a zero entry would let a shard's window never advance.
    assert!(lam.iter().all(|&l| l > 0));
}

#[test]
fn k8_partitions_are_pod_closed_and_sound() {
    for n_shards in [2usize, 4, 8] {
        check_partition(8, n_shards);
    }
}

#[test]
fn k16_partitions_are_pod_closed_and_sound() {
    for n_shards in [2usize, 5, 16] {
        check_partition(16, n_shards);
    }
}

#[test]
fn serial_build_has_no_plan() {
    let cluster = build(8, 1);
    assert!(cluster.world.shard_plan().is_none());
}

/// The largest fabric anything in the repo builds: k=32 is 8 192 hosts.
/// The build must stay cheap (every switch routes by three integers)
/// and a short workload must complete on it.
#[test]
fn k32_builds_and_runs_two_rings() {
    let fabric = FatTreeConfig::small(32);
    assert_eq!(fabric.n_hosts(), 8192);
    let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    let (r, _cluster) = run_fat_tree_rings(
        &fabric,
        nic,
        Scheme::Themis,
        1,
        1,
        2,
        64 << 10,
        Nanos::from_secs(5),
    );
    assert!(r.tail_ct.is_some(), "k=32 smoke must complete");
}

//! Multi-QP striping and control-packet priority, end to end.
//!
//! * Striping: one logical Allreduce channel spread over 4 QPs per rank
//!   pair (how NCCL-style libraries actually use RNICs, and where the
//!   paper's N_QP = 100-per-NIC sizing comes from). Themis state is
//!   per-QP, so filtering must keep working per stripe.
//! * Control priority: ACK/NACK/CNP in a strict-priority class shortens
//!   the feedback loops; the fabric must behave identically in the
//!   success metrics.
//! * A k=8 fat-tree (128 hosts, 16 composite paths) exercises the
//!   two-stage PathMap at a larger radix.

use themis::collectives::driver::{setup_collective_striped, Driver, QpAllocator, START_TOKEN};
use themis::collectives::ring::{ring_allreduce, ring_once};
use themis::harness::{build_cluster, build_fat_tree_cluster_sharded, ExperimentConfig, Scheme};
use themis::netsim::event::Event;
use themis::netsim::fat_tree::FatTreeConfig;
use themis::netsim::topology::LeafSpineConfig;
use themis::netsim::types::HostId;
use themis::rnic::NicConfig;
use themis::simcore::time::Nanos;

#[test]
fn striped_allreduce_under_themis_stays_clean() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 53);
    let mut cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    let evens: Vec<HostId> = (0..4).map(|i| HostId(i * 2)).collect();
    let mut alloc = QpAllocator::new(29);
    let mut driver = Driver::new();
    let spec = setup_collective_striped(
        &mut cluster.world,
        cluster.driver,
        &evens,
        ring_allreduce(4, 4 << 20),
        4, // stripes
        &mut alloc,
    );
    driver.add_instance(spec);
    cluster.world.install(cluster.driver, Box::new(driver));
    cluster.world.seed_event(
        Nanos::ZERO,
        cluster.driver,
        Event::Timer { token: START_TOKEN },
    );
    cluster.world.run_until(cfg.horizon);

    let d: &Driver = cluster.world.get(cluster.driver).unwrap();
    assert!(d.all_complete(), "striped allreduce completes");
    // 4 ordered pairs per direction x 4 stripes = 16 send QPs... the
    // ring uses pairs (i -> i+1): 4 pairs x 4 stripes = 16 QPs.
    assert_eq!(alloc.allocated(), 16);
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.retx_packets, 0, "per-stripe Themis state stays clean");
    // Striping quarters each QP's packet rate, so reordering may or may
    // not occur; whatever NACKs the receivers emitted must all have been
    // filtered (none reached a sender).
    assert_eq!(nics.nacks_received, 0);
    assert_eq!(
        cluster.themis_stats().nacks_blocked,
        nics.nacks_sent,
        "every generated NACK was blocked"
    );
}

#[test]
fn ctrl_priority_composes_with_themis() {
    let bytes = 4 << 20;
    let mut results = Vec::new();
    for ctrl_priority in [false, true] {
        let fabric = LeafSpineConfig {
            ctrl_priority,
            ..LeafSpineConfig::motivation()
        };
        let cfg = ExperimentConfig {
            nic: NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
            fabric,
            scheme: Scheme::Themis,
            seed: 53,
            horizon: Nanos::from_secs(2),
            shards: themis::harness::shards_from_env(),
        };
        let r = themis::harness::run_collective(&cfg, themis::harness::Collective::RingOnce, bytes);
        assert!(
            r.all_messages_completed(),
            "ctrl_priority={ctrl_priority}: incomplete"
        );
        assert_eq!(r.nics.retx_packets, 0, "ctrl_priority={ctrl_priority}");
        results.push(r);
    }
    // Same deliveries either way; priority only reorders control packets.
    assert_eq!(
        results[0].nics.bytes_delivered,
        results[1].nics.bytes_delivered
    );
}

#[test]
fn k8_fat_tree_interpod_ring_under_themis() {
    let fabric = FatTreeConfig::small(8); // 128 hosts, 16 paths
    let mut cluster = build_fat_tree_cluster_sharded(
        &fabric,
        NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
        Scheme::Themis,
        1,
    );
    assert_eq!(cluster.n_paths, 16);
    // One host per pod: hosts 0, 16, 32, ...
    let hosts: Vec<HostId> = (0..8).map(|p| HostId(p * 16)).collect();
    let mut alloc = QpAllocator::new(31);
    let mut driver = Driver::new();
    let spec = themis::collectives::driver::setup_collective(
        &mut cluster.world,
        cluster.driver,
        &hosts,
        ring_once(8, 2 << 20),
        &mut alloc,
    );
    driver.add_instance(spec);
    cluster.world.install(cluster.driver, Box::new(driver));
    cluster.world.seed_event(
        Nanos::ZERO,
        cluster.driver,
        Event::Timer { token: START_TOKEN },
    );
    cluster.world.run_until(Nanos::from_secs(2));

    let d: &Driver = cluster.world.get(cluster.driver).unwrap();
    assert!(d.all_complete(), "k=8 inter-pod ring completes");
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.retx_packets, 0, "16-path spraying stays clean");
    let agg = cluster.themis_stats();
    assert!(agg.sprayed > 0);
    // 16 cores (last 16 of spines); every one must carry traffic.
    let n_spines_aggs = 8 * 4; // 8 pods x 4 aggs
    for &c in &cluster.spines[n_spines_aggs..] {
        let sw: &themis::netsim::switch::Switch = cluster.world.get(c).unwrap();
        assert!(sw.stats.rx_packets > 0, "idle core under 16-path spray");
    }
}

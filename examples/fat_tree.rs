//! Multi-tier deployment: Themis on a 3-tier fat-tree via the two-stage
//! PathMap (§3.2).
//!
//! Builds a k=4 fat-tree (16 hosts, 4 pods, 4 equal-cost inter-pod
//! paths), runs an inter-pod ring under ECMP / Adaptive Routing / Themis,
//! and shows that the single UDP-sport rewrite at the edge ToR steers
//! *both* ECMP stages — every core switch carries traffic, no NACK
//! reaches a sender, and only the ToRs needed programmability.
//!
//! Run with: `cargo run --release --example fat_tree`

use themis::collectives::ring::ring_once;
use themis::harness::experiment::driver_of;
use themis::harness::{build_fat_tree_cluster_sharded, Scheme, Session, Start};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::netsim::types::HostId;
use themis::rnic::NicConfig;
use themis::simcore::time::{Nanos, TimeDelta};

fn main() {
    let fabric = FatTreeConfig::small(4);
    println!(
        "k=4 fat-tree: {} hosts, {} pods, {} equal-cost inter-pod paths\n",
        fabric.n_hosts(),
        fabric.k,
        fabric.n_paths()
    );
    println!(
        "{:<18} {:>9} {:>8} {:>9} {:>8}  per-core packets",
        "scheme", "ct(us)", "retx", "blocked", "nacks"
    );

    for scheme in [Scheme::Ecmp, Scheme::AdaptiveRouting, Scheme::Themis] {
        let cluster = build_fat_tree_cluster_sharded(
            &fabric,
            NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps),
            scheme,
            1,
        );
        // One host per pod (hosts 0, 4, 8, 12): every ring hop crosses
        // the core layer.
        let hosts: Vec<HostId> = (0..4).map(|p| HostId(p * 4)).collect();
        let mut session = Session::new(cluster, 5, TimeDelta::from_secs(2));
        session.post(&hosts, ring_once(4, 8 << 20), Start::WithRun);
        session.kick_off();
        session.run_to(Nanos::from_secs(2));
        let cluster = session.cluster;

        let driver = driver_of(&cluster);
        let ct = driver
            .tail_completion()
            .map(|t| t.as_micros_f64())
            .unwrap_or(f64::NAN);
        let nics = themis::harness::experiment::aggregate_nics(&cluster);
        let agg = cluster.themis_stats();
        // Core switches are the last 4 entries of `spines` (aggs first).
        let cores: Vec<u64> = cluster.spines[8..]
            .iter()
            .map(|&c| cluster.switch(c).unwrap().stats.rx_packets)
            .collect();
        println!(
            "{:<18} {:>9.1} {:>8} {:>9} {:>8}  {:?}",
            scheme.label(),
            ct,
            nics.retx_packets,
            agg.nacks_blocked,
            nics.nacks_received,
            cores
        );
    }
    println!("\nECMP pins each flow to one core; Themis spreads every flow's DATA");
    println!("uniformly over all four (agg, core) paths by rewriting the UDP source");
    println!("port once at the edge ToR — bits [0,1) of the hash steer the edge");
    println!("stage, bits [8,9) the aggregation stage. (Per-core counts include the");
    println!("un-sprayed reverse ACK streams, which stay ECMP-pinned by design.)");
}

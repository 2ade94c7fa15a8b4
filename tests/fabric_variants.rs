//! Fabric variants beyond the paper's 1:1 symmetric setups:
//! oversubscription and heterogeneous (faster-core) link rates.

use themis::harness::{run_collective, Collective, ExperimentConfig, Scheme};
use themis::netsim::port::LinkSpec;
use themis::netsim::topology::LeafSpineConfig;
use themis::rnic::NicConfig;
use themis::simcore::time::Nanos;

/// 2:1 oversubscribed fabric: 4 hosts per leaf but only 2 spines at host
/// rate — the uplink tier carries half the access bandwidth.
fn oversubscribed() -> LeafSpineConfig {
    LeafSpineConfig {
        n_leaves: 4,
        hosts_per_leaf: 4,
        n_spines: 2,
        ..LeafSpineConfig::motivation()
    }
}

/// Fast-core fabric: 100 Gbps hosts, 400 Gbps fabric links.
fn fast_core() -> LeafSpineConfig {
    LeafSpineConfig {
        fabric_link: LinkSpec::gbps(400, 1),
        ..LeafSpineConfig::motivation()
    }
}

fn run(fabric: LeafSpineConfig, scheme: Scheme, bytes: u64) -> themis::harness::ExperimentResult {
    let cfg = ExperimentConfig {
        nic: NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
        fabric,
        scheme,
        seed: 71,
        horizon: Nanos::from_secs(2),
        shards: themis::harness::shards_from_env(),
    };
    run_collective(&cfg, Collective::RingOnce, bytes)
}

#[test]
fn oversubscribed_fabric_completes_and_themis_stays_clean() {
    // 4 groups of 4 (one rank per leaf): cross-rack rings over a 2:1
    // oversubscribed core. Core congestion is structural; Themis must
    // still filter everything.
    let bytes = 2 << 20;
    let themis = run(oversubscribed(), Scheme::Themis, bytes);
    assert!(themis.all_messages_completed());
    assert_eq!(themis.nics.retx_packets, 0, "{:?}", themis.themis);
    // Oversubscription forces queueing: ECN fires under any scheme.
    assert!(themis.fabric.ecn_marked > 0, "2:1 core must congest");

    let ecmp = run(oversubscribed(), Scheme::Ecmp, bytes);
    assert!(ecmp.all_messages_completed());
    let (t, e) = (
        themis.tail_ct.unwrap().as_secs_f64(),
        ecmp.tail_ct.unwrap().as_secs_f64(),
    );
    assert!(
        t <= e * 1.05,
        "spraying cannot lose to ECMP on a congested core: {t} vs {e}"
    );
}

#[test]
fn fast_core_absorbs_spray_bursts() {
    // With 4x-faster fabric links, spine queues drain instantly: spraying
    // produces (almost) no reordering, and Themis has (almost) nothing to
    // block — yet everything still completes cleanly.
    let bytes = 4 << 20;
    let r = run(fast_core(), Scheme::Themis, bytes);
    assert!(r.all_messages_completed());
    assert_eq!(r.nics.retx_packets, 0);
    let slow = run(LeafSpineConfig::motivation(), Scheme::Themis, bytes);
    assert!(
        r.nics.ooo_packets < slow.nics.ooo_packets / 2,
        "fast core should reorder far less: {} vs {}",
        r.nics.ooo_packets,
        slow.nics.ooo_packets
    );
}

#[test]
fn mtu_variants_work_end_to_end() {
    // Jumbo frames (4096 B payload) change packetization and the BDP
    // sizing of the PSN queue; everything must still hold together.
    for mtu in [512u32, 1500, 4096] {
        let fabric = LeafSpineConfig::motivation();
        let mut nic = NicConfig::nic_sr(fabric.host_link.bandwidth_bps);
        nic.mtu_payload = mtu;
        let cfg = ExperimentConfig {
            nic,
            fabric,
            scheme: Scheme::Themis,
            seed: 71,
            horizon: Nanos::from_secs(2),
            shards: themis::harness::shards_from_env(),
        };
        let r = run_collective(&cfg, Collective::RingOnce, 2 << 20);
        assert!(r.all_messages_completed(), "mtu {mtu}");
        assert_eq!(r.nics.retx_packets, 0, "mtu {mtu}");
        assert_eq!(r.nics.bytes_delivered, 8 * (2 << 20), "mtu {mtu}");
    }
}

#[test]
fn ack_coalescing_reduces_control_traffic() {
    // Coalescing factor 8: one cumulative ACK per 8 in-order arrivals.
    // Completion and Themis behaviour are unaffected; the reverse path
    // carries ~8x fewer ACKs.
    let mut acks = Vec::new();
    for coalescing in [1u32, 8] {
        let fabric = LeafSpineConfig::motivation();
        let mut nic = NicConfig::nic_sr(fabric.host_link.bandwidth_bps);
        nic.ack_coalescing = coalescing;
        let cfg = ExperimentConfig {
            nic,
            fabric,
            scheme: Scheme::Themis,
            seed: 71,
            horizon: Nanos::from_secs(2),
            shards: themis::harness::shards_from_env(),
        };
        let r = run_collective(&cfg, Collective::RingOnce, 2 << 20);
        assert!(r.all_messages_completed(), "coalescing {coalescing}");
        assert_eq!(r.nics.retx_packets, 0, "coalescing {coalescing}");
        // No counter holds the ACKs a receiver sent; fewer ACKs show as
        // fewer dispatched events, so the event count is the proxy.
        acks.push(r.events);
    }
    assert!(
        acks[1] < acks[0],
        "coalescing must shrink total event count: {} vs {}",
        acks[1],
        acks[0]
    );
}

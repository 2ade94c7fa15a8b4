//! Hop-by-hop PFC: lossless operation under incast.
//!
//! RoCE deployments traditionally pair DCQCN with PFC so buffers never
//! overflow. These tests shrink switch buffers to force overflow under a
//! 4-to-1 Alltoall incast and verify: without PFC the fabric drops (and
//! NIC-SR recovers via genuine, valid NACKs); with PFC the fabric stays
//! lossless by pausing upstream.
//!
//! Alltoall cannot overload anything (each NIC self-throttles to line
//! rate), so the stress here is a true N-to-1 incast: three line-rate
//! senders converging on one receiver's last hop.

use themis::harness::oracle::{assert_conformant, OracleConfig};
use themis::harness::{
    run_collective_with_faults, Collective, ExperimentConfig, FaultPlan, Scheme,
};
use themis::netsim::topology::LeafSpineConfig;
use themis::simcore::time::Nanos;

fn tiny_buffer_fabric(pfc: bool) -> LeafSpineConfig {
    // 256 KB shared — tight under incast. DCQCN (every switch port
    // ECN-marks) eventually tames the incast, but the transient
    // overflows the tiny buffer first (without PFC).
    LeafSpineConfig {
        buffer_bytes: 256 * 1024,
        pfc,
        ..LeafSpineConfig::motivation()
    }
}

fn run_incast(pfc: bool) -> themis::harness::ExperimentResult {
    let fabric = tiny_buffer_fabric(pfc);
    let cfg = ExperimentConfig {
        nic: rnic::NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
        fabric,
        scheme: Scheme::Themis,
        seed: 77,
        horizon: Nanos::from_secs(2),
        shards: themis::harness::shards_from_env(),
    };
    let (r, cluster) =
        run_collective_with_faults(&cfg, Collective::Incast, 8 << 20, &FaultPlan::none());
    // Protocol-invariant audit: buffer-overflow drops (without PFC) must
    // still conserve packets and recover every loss.
    let mut oracle = OracleConfig::for_scheme(Scheme::Themis).without_rto_bound();
    oracle.quiesced = r.sim_end < cfg.horizon;
    assert_conformant(&cluster, &oracle);
    r
}

#[test]
fn without_pfc_incast_overflows_and_recovers_by_retransmission() {
    let r = run_incast(false);
    assert!(r.all_messages_completed(), "losses must be recovered");
    assert!(
        r.fabric.drops_buffer > 0,
        "256 KB buffers must overflow under 3-to-1 incast: {:?}",
        r.fabric
    );
    assert!(
        r.nics.retx_packets > 0,
        "real losses need real retransmissions"
    );
}

#[test]
fn with_pfc_incast_is_lossless() {
    let r = run_incast(true);
    assert!(r.all_messages_completed());
    assert_eq!(
        r.fabric.drops_buffer, 0,
        "PFC must keep the fabric lossless: {:?}",
        r.fabric
    );
    // Pauses actually happened (the test is not vacuous).
    let lossy = run_incast(false);
    assert!(
        lossy.fabric.drops_buffer > 0,
        "sanity: the same load overflows without PFC"
    );
}

#[test]
fn pfc_incast_keeps_retransmission_noise_negligible_under_themis() {
    // Lossless fabric + NACK filtering: no RTO ever fires, and
    // retransmissions stay negligible. They cannot be pinned to zero:
    // once a single spurious compensated NACK slips through (its BePSN
    // queue entry was consumed by an earlier scan, hiding it from the
    // suppression check), the *retransmitted* packet travels out of PSN
    // order on its path, so later same-parity packets can satisfy Eq. 3
    // and generate further "valid-looking" NACKs — a cascade inherent to
    // the paper's FIFO-per-path assumption, absorbed by the receiver's
    // duplicate handling. Bound the noise instead: well under 1% of the
    // ~17k data packets.
    let r = run_incast(true);
    assert_eq!(r.nics.rto_fires, 0);
    let total = r.nics.data_packets + r.nics.retx_packets;
    assert!(
        r.nics.retx_packets * 100 < total,
        "retransmission noise must stay under 1%: {} of {}",
        r.nics.retx_packets,
        total
    );
}

#[test]
fn pfc_and_themis_compose_on_ring_traffic() {
    // Ring traffic over a lossless fabric: spraying still reorders (the
    // paths carry unequal transient load), Themis blocks every NACK, and
    // nothing is ever retransmitted.
    let fabric = LeafSpineConfig {
        pfc: true,
        ..LeafSpineConfig::motivation()
    };
    let cfg = ExperimentConfig {
        nic: rnic::NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
        fabric,
        scheme: Scheme::Themis,
        seed: 77,
        horizon: Nanos::from_secs(2),
        shards: themis::harness::shards_from_env(),
    };
    let (r, cluster) =
        run_collective_with_faults(&cfg, Collective::RingOnce, 4 << 20, &FaultPlan::none());
    assert!(r.all_messages_completed());
    let mut oracle = OracleConfig::for_scheme(Scheme::Themis);
    oracle.quiesced = r.sim_end < cfg.horizon;
    assert_conformant(&cluster, &oracle);
    assert_eq!(r.fabric.drops_buffer, 0, "lossless");
    assert!(
        r.themis.nacks_blocked > 0,
        "spraying reorders: {:?}",
        r.themis
    );
    assert_eq!(
        r.themis.nacks_forwarded_valid, 0,
        "no loss -> no valid NACK"
    );
    assert_eq!(r.nics.retx_packets, 0);
}

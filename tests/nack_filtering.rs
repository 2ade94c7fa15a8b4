//! End-to-end NACK filtering and compensation under injected loss.
//!
//! These tests exercise the full pipeline — sender NIC → source ToR
//! (Themis-S) → spines → destination ToR (Themis-D) → receiver NIC —
//! with deterministic targeted drops, checking that:
//!
//! * invalid NACKs (pure reordering) are blocked and cause no
//!   retransmissions;
//! * a real single loss is recovered via a compensated NACK long before
//!   the RTO;
//! * a double loss produces a *valid* NACK that is forwarded;
//! * the no-compensation ablation falls back to the RTO.

use themis::harness::experiment::driver_of;
use themis::harness::{build_cluster, ExperimentConfig, Scheme, Session, Start};
use themis::simcore::time::{Nanos, TimeDelta};

use collectives::schedule::{Schedule, Transfer};

/// Run a single cross-rack message under `scheme`, dropping the listed
/// PSNs at the destination ToR. Returns (completion µs, result bundle).
fn run_with_drops(
    scheme: Scheme,
    bytes: u64,
    drop_psns: &[u32],
) -> (Option<f64>, themis::harness::ExperimentResult) {
    let cfg = ExperimentConfig::motivation_small(scheme, 42);
    let cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf]; // cross-rack
    let schedule = Schedule {
        name: "p2p",
        n_ranks: 2,
        transfers: vec![Transfer {
            src: 0,
            dst: 1,
            bytes,
            deps: vec![],
        }],
    };
    let window = TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, 7, window);
    let job = session.post(&[src, dst], schedule, Start::WithRun);
    let qp = driver_of(&session.cluster)
        .instance_spec(job)
        .qp_of_transfer[0];
    // Drops at the destination ToR: the packet vanishes after the spine.
    let dst_tor = session.cluster.leaves[1];
    {
        let sw = session.cluster.switch_mut(dst_tor).expect("dst ToR");
        for &psn in drop_psns {
            sw.inject_targeted_drop(qp, psn);
        }
    }
    session.kick_off();
    session.run_to(cfg.horizon);
    let cluster = session.cluster;

    let driver = driver_of(&cluster);
    let ct = driver.tail_completion().map(|t| {
        t.since(driver.started_at().unwrap_or(Nanos::ZERO))
            .as_micros_f64()
    });
    let result = themis::harness::ExperimentResult {
        scheme,
        tail_ct: None,
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
    (ct, result)
}

#[test]
fn no_loss_no_retransmissions_under_themis() {
    let (ct, r) = run_with_drops(Scheme::Themis, 8 << 20, &[]);
    assert!(ct.is_some());
    assert_eq!(r.nics.retx_packets, 0);
    assert!(
        r.themis.nacks_blocked > 0,
        "reordering produces blocked NACKs"
    );
    assert_eq!(r.themis.nacks_forwarded_valid, 0);
    assert_eq!(r.themis.compensations, 0);
    assert_eq!(r.nics.rto_fires, 0);
}

#[test]
fn single_loss_recovered_by_compensation_before_rto() {
    // Drop PSN 5000 (near the end of the 5592-packet message) at the
    // destination ToR. The first NACK's trigger is (almost surely) the
    // opposite-path packet 5001 -> blocked; the next same-path packet
    // 5002 proves the loss -> compensated NACK -> immediate retransmit.
    let (ct, r) = run_with_drops(Scheme::Themis, 8 << 20, &[5000]);
    assert!(ct.is_some(), "flow must complete");
    assert!(
        r.themis.compensations >= 1,
        "compensation must recover the loss: {:?}",
        r.themis
    );
    assert_eq!(r.nics.rto_fires, 0, "no RTO needed");
    assert_eq!(r.nics.retx_packets, 1, "exactly the lost packet resent");
    // Completion far faster than the 1 ms RTO would allow: the loss
    // happens ~625 us in, so RTO recovery could not finish before
    // ~1.6 ms. Compensation keeps it near the no-loss time.
    let transfer_us = (8 << 20) as f64 * 8.0 / 100e9 * 1e6; // ~671 us
    assert!(
        ct.unwrap() < transfer_us + 500.0,
        "ct {} should be near the no-loss time {}",
        ct.unwrap(),
        transfer_us
    );
}

#[test]
fn double_loss_forwards_a_valid_nack() {
    // Both 1000 and 1001 dropped: the first OOO arrival beyond the hole
    // is 1002, same path as 1000 -> Eq. 3 holds -> the NACK is valid and
    // must pass through to the sender.
    let (ct, r) = run_with_drops(Scheme::Themis, 8 << 20, &[5000, 5001]);
    assert!(ct.is_some());
    assert!(
        r.themis.nacks_forwarded_valid >= 1,
        "expected a valid NACK: {:?}",
        r.themis
    );
    assert!(r.nics.retx_packets >= 2, "both losses retransmitted");
    assert_eq!(r.nics.rto_fires, 0);
}

#[test]
fn without_compensation_single_loss_waits_for_rto() {
    let (ct, r) = run_with_drops(Scheme::ThemisNoCompensation, 8 << 20, &[5000]);
    assert!(ct.is_some(), "RTO must eventually recover the flow");
    assert!(
        r.nics.rto_fires >= 1,
        "blocked NACK without compensation leaves only the RTO: {:?}",
        r.nics
    );
    // And compensation (when enabled) is what saves ~1 ms:
    let (ct_comp, _) = run_with_drops(Scheme::Themis, 8 << 20, &[5000]);
    assert!(
        ct_comp.unwrap() + 500.0 < ct.unwrap(),
        "compensation ({:?}us) must beat RTO recovery ({:?}us)",
        ct_comp,
        ct
    );
}

#[test]
fn unfiltered_spray_retransmits_spuriously_with_no_loss() {
    let (ct, r) = run_with_drops(Scheme::SprayNoFilter, 8 << 20, &[]);
    assert!(ct.is_some());
    assert!(r.nics.retx_packets > 0, "spurious retransmissions expected");
    assert!(r.nics.nacks_received > 0);
    // Every retransmission is spurious: the receiver counts them as dups.
    assert!(r.nics.dup_packets > 0);
}

#[test]
fn ecmp_single_loss_recovers_via_plain_nack() {
    // Without spraying the OOO arrival after a drop IS caused by the
    // loss; commodity NIC-SR handles it natively (no Themis involved).
    let (ct, r) = run_with_drops(Scheme::Ecmp, 8 << 20, &[5000]);
    assert!(ct.is_some());
    assert_eq!(r.nics.retx_packets, 1);
    assert_eq!(r.nics.rto_fires, 0);
    assert_eq!(r.themis.nacks_blocked, 0, "no Themis in the path");
}

//! §6 failure handling *during* a run.
//!
//! A monitoring system (Pingmesh-style) notifies ToRs mid-transfer that a
//! fabric link failed; they revert to ECMP and stop spraying. Later the
//! link recovers and spraying resumes. The flow must survive the whole
//! episode — including the transition moments, where in-flight sprayed
//! packets meet an ECMP-forwarding fabric and vice versa.

use themis::collectives::schedule::{Schedule, Transfer};
use themis::harness::experiment::driver_of;
use themis::harness::oracle::{assert_conformant, OracleConfig};
use themis::harness::{build_cluster, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::event::{ControlMsg, Event};
use themis::netsim::lb::LbPolicy;
use themis::simcore::time::{Nanos, TimeDelta};

fn p2p(bytes: u64) -> Schedule {
    Schedule {
        name: "p2p",
        n_ranks: 2,
        transfers: vec![Transfer {
            src: 0,
            dst: 1,
            bytes,
            deps: vec![],
        }],
    }
}

/// One window spanning the whole run: these tests run to the horizon.
fn horizon_window(cfg: &ExperimentConfig) -> TimeDelta {
    TimeDelta::from_nanos(cfg.horizon.as_nanos())
}

#[test]
fn flow_survives_mid_run_failure_and_recovery() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 47);
    let cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf];
    let mut session = Session::new(cluster, 3, horizon_window(&cfg));
    session.post(&[src, dst], p2p(16 << 20), Start::WithRun); // ~1.4 ms at line rate
    session.kick_off();

    // Fail at 300 µs, recover at 700 µs — in the middle of the transfer.
    let restored = Scheme::Themis.lb_policy();
    let cluster = &mut session.cluster;
    for &leaf in &cluster.leaves.clone() {
        cluster.world.seed_event(
            Nanos::from_micros(300),
            leaf,
            Event::Control(ControlMsg::TorLink { failed: true }),
        );
        cluster.world.seed_event(
            Nanos::from_micros(700),
            leaf,
            Event::Control(ControlMsg::TorLink { failed: false }),
        );
    }

    session.run_to(cfg.horizon);
    let cluster = session.cluster;

    // Protocol-invariant audit across the failure episode.
    let mut oracle = OracleConfig::for_scheme(Scheme::Themis);
    oracle.quiesced = cluster.world.now() < cfg.horizon;
    assert_conformant(&cluster, &oracle);

    let d = driver_of(&cluster);
    assert!(d.all_complete(), "flow must survive the failure episode");

    // Every ToR ended up restored: policy back, sprayer enabled.
    for &leaf in &cluster.leaves {
        let sw = cluster.switch(leaf).unwrap();
        assert_eq!(sw.lb(), restored);
        let m = cluster.middleware(leaf).unwrap();
        assert!(m.s.is_enabled(), "spraying resumed after recovery");
    }
    // The source ToR (only it sees upstream data) both sprayed (outside
    // the failure window) and bypassed (inside it).
    let m = cluster.middleware(cluster.leaves[0]).unwrap();
    assert!(m.s.stats.sprayed > 0, "sprayed outside the failure window");
    assert!(
        m.s.stats.bypassed > 0,
        "packets passed un-sprayed during the failure window"
    );

    // The episode may cost a few retransmissions at the transitions (the
    // Eq. 3 modulus is meaningless for packets forwarded by ECMP), but
    // recovery must not rely on timeouts more than once or twice.
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert!(
        nics.rto_fires <= 2,
        "transitions should not degenerate into RTO storms: {}",
        nics.rto_fires
    );
}

#[test]
fn failure_only_episode_degenerates_to_clean_ecmp() {
    // Fail before any traffic: the whole run is ECMP and perfectly clean.
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 47);
    let mut cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    for &leaf in &cluster.leaves.clone() {
        cluster.world.seed_event(
            Nanos::ZERO,
            leaf,
            Event::Control(ControlMsg::TorLink { failed: true }),
        );
    }
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf];
    let mut session = Session::new(cluster, 3, horizon_window(&cfg));
    session.post(&[src, dst], p2p(4 << 20), Start::At(Nanos::from_micros(1)));
    session.run_to(cfg.horizon);
    let cluster = session.cluster;

    // A pure-ECMP run must be perfectly conformant too.
    let mut oracle = OracleConfig::for_scheme(Scheme::Themis);
    oracle.quiesced = cluster.world.now() < cfg.horizon;
    assert_conformant(&cluster, &oracle);

    let d = driver_of(&cluster);
    assert!(d.all_complete());
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(nics.ooo_packets, 0, "pure ECMP is in-order");
    assert_eq!(nics.retx_packets, 0);
    for &leaf in &cluster.leaves {
        let sw = cluster.switch(leaf).unwrap();
        assert_eq!(sw.lb(), LbPolicy::Ecmp);
    }
}

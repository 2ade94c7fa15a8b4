//! §6 link-failure tolerance, end to end.
//!
//! On failure notification a ToR reverts to ECMP and stops spraying;
//! traffic then stays on single flow-hashed paths (no out-of-order
//! arrivals), and recovery restores spraying. The notifications are
//! engine events seeded on every leaf at t = 0, so a sharded run
//! (`THEMIS_SHARDS`) delivers each one on its leaf's owner shard.

use themis::harness::experiment::driver_of;
use themis::harness::{build_cluster_sharded, Cluster, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::event::{ControlMsg, Event};
use themis::netsim::lb::LbPolicy;
use themis::netsim::switch::Switch;
use themis::simcore::time::{Nanos, TimeDelta};
use themis::themis_core::ThemisMiddleware;

use collectives::schedule::{Schedule, Transfer};

fn p2p_schedule(bytes: u64) -> Schedule {
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

/// Seed `msgs` on every leaf at t = 0, in order.
fn notify_every_leaf(cluster: &mut Cluster, msgs: &[ControlMsg]) {
    for &leaf in &cluster.leaves.clone() {
        for &msg in msgs {
            cluster
                .world
                .seed_event(Nanos::ZERO, leaf, Event::Control(msg));
        }
    }
}

/// Every leaf's switch and its Themis middleware.
fn leaf_themis(cluster: &Cluster) -> Vec<(&Switch, &ThemisMiddleware)> {
    cluster
        .leaves
        .iter()
        .map(|&leaf| {
            let sw = cluster.switch(leaf).expect("leaf");
            (sw, cluster.middleware(leaf).expect("Themis hook"))
        })
        .collect()
}

/// One cross-rack transfer of `bytes`, started with the run, on a
/// cluster whose leaves already hold their seeded notifications; runs
/// to the horizon.
fn run_p2p(cluster: Cluster, cfg: &ExperimentConfig, bytes: u64) -> Cluster {
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf];
    let window = TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, 3, window);
    session.post(&[src, dst], p2p_schedule(bytes), Start::WithRun);
    session.kick_off();
    session.run_to(cfg.horizon);
    session.cluster
}

#[test]
fn failed_tor_reverts_to_ecmp_and_flow_stays_in_order() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 5);
    let mut cluster = build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);

    // Declare a failure on every ToR before traffic starts.
    notify_every_leaf(&mut cluster, &[ControlMsg::TorLink { failed: true }]);
    let cluster = run_p2p(cluster, &cfg, 8 << 20);

    for (sw, m) in leaf_themis(&cluster) {
        assert_eq!(sw.lb(), LbPolicy::Ecmp);
        assert!(!m.s.is_enabled());
    }
    let driver = driver_of(&cluster);
    assert!(driver.all_complete(), "flow completes in ECMP fallback");
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    assert_eq!(
        nics.ooo_packets, 0,
        "single ECMP path must deliver in order"
    );
    // Themis-S sprayed nothing.
    let agg = cluster.themis_stats();
    assert_eq!(agg.sprayed, 0, "spraying disabled during failure");
}

#[test]
fn recovery_restores_spraying() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 5);
    let mut cluster = build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    let lb = Scheme::Themis.lb_policy();
    notify_every_leaf(
        &mut cluster,
        &[
            ControlMsg::TorLink { failed: true },
            ControlMsg::TorLink { failed: false },
        ],
    );
    let cluster = run_p2p(cluster, &cfg, 4 << 20);

    for (sw, m) in leaf_themis(&cluster) {
        assert_eq!(sw.lb(), lb);
        assert!(m.s.is_enabled());
    }
    let agg = cluster.themis_stats();
    assert!(agg.sprayed > 0, "spraying active again after repair");
    let driver = driver_of(&cluster);
    assert!(driver.all_complete());
}

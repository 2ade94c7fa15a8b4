//! §6 link-failure tolerance, live: a transfer survives a failure →
//! ECMP-fallback → recovery episode in the middle of its run.
//!
//! A Pingmesh-style monitor (modeled as scheduled control events) tells
//! every ToR at t = 300 µs that a fabric link failed; they revert to
//! ECMP and stop spraying. At t = 700 µs the link recovers and spraying
//! resumes. The 16 MB flow keeps going throughout.
//!
//! Run with: `cargo run --release --example failure_recovery`

use themis::collectives::schedule::{Schedule, Transfer};
use themis::harness::experiment::driver_of;
use themis::harness::{build_cluster, ExperimentConfig, Scheme, Session, Start};
use themis::netsim::event::{ControlMsg, Event};
use themis::simcore::time::{Nanos, TimeDelta};

fn main() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 47);
    let cluster = build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf];
    println!("16 MB flow {src} -> {dst} under Themis; failure at 300us, recovery at 700us\n");

    let mut session = Session::new(cluster, 3, TimeDelta::from_nanos(cfg.horizon.as_nanos()));
    session.post(
        &[src, dst],
        Schedule {
            name: "p2p",
            n_ranks: 2,
            transfers: vec![Transfer {
                src: 0,
                dst: 1,
                bytes: 16 << 20,
                deps: vec![],
            }],
        },
        Start::WithRun,
    );
    session.kick_off();

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

    let d = driver_of(&cluster);
    let ct = d
        .tail_completion()
        .map(|t| t.since(d.started_at().unwrap()).as_micros_f64());
    let nics = themis::harness::experiment::aggregate_nics(&cluster);
    let m = cluster.middleware(cluster.leaves[0]).unwrap();

    println!("timeline (source ToR):");
    println!("  [0us, 300us)   PSN spraying over both paths");
    println!("  [300us, 700us) ECMP fallback — single flow-hashed path");
    println!("  [700us, done]  spraying again\n");
    match ct {
        Some(us) => println!("completed in {us:.1} us  (clean-run baseline ~1430 us)"),
        None => println!("DID NOT FINISH"),
    }
    println!(
        "sprayed {} packets, bypassed {} during the failure window",
        m.s.stats.sprayed, m.s.stats.bypassed
    );
    println!(
        "retransmissions {} / RTO fires {} across the transitions",
        nics.retx_packets, nics.rto_fires
    );
    println!(
        "invalid NACKs blocked {} (spraying phases only)",
        cluster.themis_stats().nacks_blocked
    );
}

//! Ablation studies of Themis's design choices (DESIGN.md experiment
//! index; not a paper figure). Buffers scale with the per-group size in
//! MB given as the first argument (default 2).
//!
//! Run with: `cargo run --release --example ablations -- 2`
//!
//! 1. **NACK filtering** — PSN spraying with vs without Themis-D: how
//!    much of the win is the filter rather than deterministic spraying.
//! 2. **Compensation** — Themis with vs without §3.4 under real loss:
//!    recovery latency with compensation vs waiting for the RTO.
//! 3. **Deployment mode** — direct egress selection vs PathMap sport
//!    rewriting (must be equivalent on a 2-tier fabric).
//! 4. **Queue capacity factor F** — paper sizes the ring queue at
//!    1.5 × BDP; smaller queues cause scan misses (conservative
//!    forwards), larger waste SRAM.
//! 5. **Transport generation** — Go-Back-N (CX-4/5) vs NIC-SR (CX-6/7)
//!    vs NIC-SR + Themis under the same sprayed workload: the paper's
//!    reason for targeting the NIC-SR generation.
//! 6. **Flowlet switching** — §2.3: RNIC pacing opens no flowlet gaps,
//!    so flowlet LB degenerates to per-flow placement.
//! 7. **Control-packet priority** — strict-priority ACK/NACK/CNP class.
//!    A deliberately honest (mostly negative) result: with incast the
//!    reverse path is idle, so priority changes nothing; on the
//!    bidirectional ring the feedback loops tighten slightly.

use themis::harness::experiment::driver_of;
use themis::harness::report::{fmt_ms, Table};
use themis::harness::{run_collective, Collective, ExperimentConfig, Scheme, Session, Start};
use themis::themis_core::config::ThemisConfig;
use themis::themis_core::ThemisMiddleware;
use themis::{collectives, harness, netsim, rnic, simcore, themis_core};

fn main() {
    let mb: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let bytes = mb << 20;

    // ---- 1. Filtering ablation -------------------------------------
    let mut t1 = Table::new(
        "Ablation 1: NACK filtering (ring collective, motivation fabric)",
        &["scheme", "ct(ms)", "retx", "nacks@sender"],
    );
    for scheme in [
        Scheme::SprayNoFilter,
        Scheme::ThemisNoCompensation,
        Scheme::Themis,
    ] {
        let cfg = ExperimentConfig::motivation_small(scheme, 9);
        let r = run_collective(&cfg, Collective::RingOnce, bytes * 2);
        t1.row(&[
            scheme.label().into(),
            fmt_ms(r.tail_ct),
            r.nics.retx_packets.to_string(),
            r.nics.nacks_received.to_string(),
        ]);
    }
    t1.print();
    println!();

    // ---- 2. Compensation under real loss ---------------------------
    let mut t2 = Table::new(
        "Ablation 2: compensation under 0.05% random loss (point-to-point)",
        &["variant", "ct(ms)", "rto_fires", "compensations"],
    );
    for (label, scheme) in [
        ("with compensation", Scheme::Themis),
        ("without compensation", Scheme::ThemisNoCompensation),
    ] {
        let cfg = ExperimentConfig::motivation_small(scheme, 13);
        let mut cluster = harness::build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
        // Inject random loss on every leaf uplink.
        for &leaf in &cluster.leaves.clone() {
            let sw = cluster.switch_mut(leaf).expect("leaf");
            for i in 0..sw.num_ports() {
                if sw.uplinks().contains(&i) {
                    sw.set_port_loss_rate(i, 0.0005);
                }
            }
        }
        let r = run_p2p_probe(cluster, &cfg, bytes * 4);
        t2.row(&[
            label.into(),
            fmt_ms(r.ct),
            r.rto_fires.to_string(),
            r.compensations.to_string(),
        ]);
    }
    t2.print();
    println!();

    // ---- 3. Deployment mode ----------------------------------------
    let mut t3 = Table::new(
        "Ablation 3: deployment mode (2-tier fabric)",
        &["mode", "ct(ms)", "blocked", "sprayed"],
    );
    for scheme in [Scheme::Themis, Scheme::ThemisPathMap] {
        let cfg = ExperimentConfig::motivation_small(scheme, 17);
        let r = run_collective(&cfg, Collective::RingOnce, bytes * 2);
        t3.row(&[
            scheme.label().into(),
            fmt_ms(r.tail_ct),
            r.themis.nacks_blocked.to_string(),
            r.themis.sprayed.to_string(),
        ]);
    }
    t3.print();
    println!();

    // ---- 4. Queue capacity factor ----------------------------------
    let mut t4 = Table::new(
        "Ablation 4: PSN queue expansion factor F (scan-miss forwards)",
        &["F", "capacity", "blocked", "fwd_unknown"],
    );
    for f in [50u32, 100, 150, 300] {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 21);
        let mut cluster = harness::build_cluster(&cfg.fabric, cfg.nic, cfg.scheme);
        // Re-install middleware with the modified factor on every ToR.
        let line = cfg.fabric.host_link.bandwidth_bps;
        let rtt =
            simcore::time::TimeDelta::from_nanos(2 * cfg.fabric.host_link.latency.as_nanos() + 250);
        let capacity = themis_core::psn_queue::PsnQueue::capacity_for(line, rtt, 1500, f);
        let tc = ThemisConfig {
            queue_capacity: capacity.clamp(1, 127),
            ..ThemisConfig::for_fabric(cluster.n_paths, line, rtt, 1500)
        };
        for &leaf in &cluster.leaves.clone() {
            let sw = cluster.switch_mut(leaf).expect("leaf");
            sw.set_hook(Box::new(ThemisMiddleware::new(tc)));
        }
        let stats = run_p2p_probe(cluster, &cfg, bytes * 4);
        t4.row(&[
            format!("{:.1}", f as f64 / 100.0),
            tc.queue_capacity.to_string(),
            stats.blocked.to_string(),
            stats.fwd_unknown.to_string(),
        ]);
    }
    t4.print();
    println!();

    // ---- 5. Transport generations under spraying --------------------
    let mut t5 = Table::new(
        "Ablation 5: transport generation x spraying (ring collective)",
        &["configuration", "ct(ms)", "retx", "nacks@sender"],
    );
    for (label, scheme, transport) in [
        (
            "GBN + spray",
            Scheme::SprayNoFilter,
            rnic::TransportMode::GoBackN,
        ),
        (
            "NIC-SR + spray",
            Scheme::SprayNoFilter,
            rnic::TransportMode::SelectiveRepeat,
        ),
        (
            "NIC-SR + Themis",
            Scheme::Themis,
            rnic::TransportMode::SelectiveRepeat,
        ),
    ] {
        let mut cfg = ExperimentConfig::motivation_small(scheme, 33);
        cfg.nic = rnic::NicConfig {
            transport,
            ..rnic::NicConfig::nic_sr(cfg.fabric.host_link.bandwidth_bps)
        };
        let r = run_collective(&cfg, Collective::RingOnce, bytes * 2);
        t5.row(&[
            label.into(),
            fmt_ms(r.tail_ct),
            r.nics.retx_packets.to_string(),
            r.nics.nacks_received.to_string(),
        ]);
    }
    t5.print();
    println!();

    // ---- 6. Flowlet switching ---------------------------------------
    let mut t6 = Table::new(
        "Ablation 6: flowlet LB vs packet spraying (ring collective)",
        &["scheme", "ct(ms)", "ooo", "flowlet re-picks"],
    );
    for scheme in [Scheme::Ecmp, Scheme::Flowlet, Scheme::Themis] {
        let cfg = ExperimentConfig::motivation_small(scheme, 23);
        let (r, cluster) = harness::run_collective_with_faults(
            &cfg,
            Collective::RingOnce,
            bytes * 2,
            &harness::FaultPlan::none(),
        );
        let repicks: u64 = cluster
            .leaves
            .iter()
            .filter_map(|&l| cluster.switch(l).ok())
            .map(|sw| sw.lb_state().flowlet_switches)
            .sum();
        t6.row(&[
            scheme.label().into(),
            fmt_ms(r.tail_ct),
            r.nics.ooo_packets.to_string(),
            repicks.to_string(),
        ]);
    }
    t6.print();
    println!();

    // ---- 7. Control-packet priority ----------------------------------
    let mut t7 = Table::new(
        "Ablation 7: control-priority class (incast: idle reverse path; \
ring: bidirectional contention)",
        &["workload", "ctrl prio", "ct(ms)", "drops", "retx"],
    );
    for (label, collective, scheme, buffer) in [
        ("incast", Collective::Incast, Scheme::Themis, 256 * 1024u64),
        (
            "ring",
            Collective::RingOnce,
            Scheme::SprayNoFilter,
            64 << 20,
        ),
    ] {
        for ctrl_priority in [false, true] {
            let fabric = netsim::topology::LeafSpineConfig {
                buffer_bytes: buffer,
                ctrl_priority,
                ..netsim::topology::LeafSpineConfig::motivation()
            };
            let cfg = ExperimentConfig {
                nic: rnic::NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
                fabric,
                scheme,
                seed: 77,
                horizon: simcore::time::Nanos::from_secs(5),
                shards: 1,
            };
            let r = run_collective(&cfg, collective, bytes * 4);
            t7.row(&[
                label.into(),
                if ctrl_priority { "on" } else { "off" }.into(),
                fmt_ms(r.tail_ct),
                r.fabric.total_drops().to_string(),
                r.nics.retx_packets.to_string(),
            ]);
        }
    }
    t7.print();
    println!("\n(under incast the reverse path carrying ACK/CNP traffic is uncongested,");
    println!("so priority has nothing to do: the two rows differ only because ports");
    println!("with control priority time departures by TxDone events, which break");
    println!("same-nanosecond ties in another order than the other ports' rule)");
}

/// Metrics from a point-to-point probe on a pre-built cluster.
struct ProbeStats {
    ct: Option<simcore::time::TimeDelta>,
    rto_fires: u64,
    compensations: u64,
    blocked: u64,
    fwd_unknown: u64,
}

/// Run a single point-to-point message on a pre-built (possibly lossy or
/// re-hooked) cluster and collect the metrics the ablations report.
fn run_p2p_probe(cluster: harness::Cluster, cfg: &ExperimentConfig, bytes: u64) -> ProbeStats {
    use collectives::schedule::{Schedule, Transfer};
    let src = cluster.hosts[0];
    let dst = cluster.hosts[cfg.fabric.hosts_per_leaf];
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
    let window = simcore::time::TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, cfg.seed, window);
    session.post(&[src, dst], schedule, Start::WithRun);
    session.kick_off();
    session.run_to(cfg.horizon);
    let cluster = session.cluster;
    let driver = driver_of(&cluster);
    let ct = driver
        .tail_completion()
        .map(|t| t.since(driver.started_at().unwrap_or(simcore::time::Nanos::ZERO)));
    let nics = harness::experiment::aggregate_nics(&cluster);
    let mut blocked = 0;
    let mut fwd_unknown = 0;
    let mut compensations = 0;
    for &leaf in &cluster.leaves {
        if let Some(m) = cluster.middleware(leaf) {
            if let Some(d) = &m.d {
                blocked += d.stats.nacks_blocked;
                fwd_unknown += d.stats.nacks_forwarded_unknown;
                compensations += d.stats.compensations;
            }
        }
    }
    ProbeStats {
        ct,
        rto_fires: nics.rto_fires,
        compensations,
        blocked,
        fwd_unknown,
    }
}

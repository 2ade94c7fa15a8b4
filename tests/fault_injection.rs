//! Fault-injection subsystem: serialization pin, fault effects, and the
//! oracle ↔ telemetry cross-check.
//!
//! The first test pins the v1 `FaultPlan` text form byte-for-byte against
//! `tests/golden/faultplan_v1.txt` — the shrinker prints this format and
//! users paste it back with `themis_fuzz --plan`, so it must stay stable
//! across releases. The rest run real fault plans through the simulator
//! and check both the physical effect (drop records with the right cause)
//! and the bookkeeping (oracle conservation agrees with the `agg.*`
//! telemetry exports).

use themis::harness::faults::{Fault, FaultEvent, FaultPlan};
use themis::harness::oracle::{self, OracleConfig};
use themis::harness::{run_collective_with_faults, Collective, ExperimentConfig, Scheme};
use themis::netsim::trace::DropCause;
use themis::simcore::time::Nanos;

const GOLDEN: &str = include_str!("golden/faultplan_v1.txt");

/// The plan whose serialization the golden file pins: one event per
/// v1 kind (all 13): every `Fault` variant set, and cleared where it can be.
fn golden_plan() -> FaultPlan {
    let us = Nanos::from_micros;
    FaultPlan {
        events: vec![
            FaultEvent {
                at: Nanos::ZERO,
                fault: Fault::TargetedDrop {
                    leaf: 0,
                    qp: 3,
                    psn: 17,
                },
            },
            FaultEvent {
                at: us(50),
                fault: Fault::UplinkDown {
                    leaf: 0,
                    uplink: 1,
                    down: true,
                },
            },
            FaultEvent {
                at: us(60),
                fault: Fault::UplinkDown {
                    leaf: 0,
                    uplink: 1,
                    down: false,
                },
            },
            FaultEvent {
                at: us(70),
                fault: Fault::DelaySpike {
                    leaf: 1,
                    uplink: 0,
                    extra_ns: 12_000,
                },
            },
            FaultEvent {
                at: us(90),
                fault: Fault::DelaySpike {
                    leaf: 1,
                    uplink: 0,
                    extra_ns: 0,
                },
            },
            FaultEvent {
                at: us(100),
                fault: Fault::UplinkLoss {
                    leaf: 2,
                    uplink: 1,
                    rate_ppm: 2500,
                },
            },
            FaultEvent {
                at: us(120),
                fault: Fault::UplinkLoss {
                    leaf: 2,
                    uplink: 1,
                    rate_ppm: 0,
                },
            },
            FaultEvent {
                at: us(130),
                fault: Fault::ReverseCorrupt {
                    leaf: 3,
                    rate_ppm: 800,
                },
            },
            FaultEvent {
                at: us(150),
                fault: Fault::ReverseCorrupt {
                    leaf: 3,
                    rate_ppm: 0,
                },
            },
            FaultEvent {
                at: us(160),
                fault: Fault::Spray { leaf: 0, on: false },
            },
            FaultEvent {
                at: us(170),
                fault: Fault::Spray { leaf: 0, on: true },
            },
            FaultEvent {
                at: us(180),
                fault: Fault::TorFail {
                    leaf: 1,
                    failed: true,
                },
            },
            FaultEvent {
                at: us(200),
                fault: Fault::TorFail {
                    leaf: 1,
                    failed: false,
                },
            },
        ],
    }
}

#[test]
fn faultplan_text_format_is_pinned_by_the_golden_file() {
    let plan = golden_plan();
    assert_eq!(
        plan.to_text(),
        GOLDEN,
        "FaultPlan v1 text form drifted from tests/golden/faultplan_v1.txt — \
         shrinker output would no longer replay; bump the header version \
         instead of silently changing the format"
    );
    // The golden text parses back to exactly the same plan.
    assert_eq!(FaultPlan::from_text(GOLDEN).unwrap(), plan);
    // And normalization leaves the canonical order untouched.
    let mut renorm = plan.clone();
    renorm.normalize();
    assert_eq!(renorm, golden_plan());
}

#[test]
fn uplink_down_blackholes_with_port_down_drop_records() {
    // Take one uplink of the source leaf down mid-transfer; sprayed
    // packets already committed to that egress die with cause PortDown,
    // the transport recovers them, and the oracle still conserves.
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 23);
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: Nanos::from_micros(50),
                fault: Fault::UplinkDown {
                    leaf: 0,
                    uplink: 0,
                    down: true,
                },
            },
            FaultEvent {
                at: Nanos::from_micros(250),
                fault: Fault::UplinkDown {
                    leaf: 0,
                    uplink: 0,
                    down: false,
                },
            },
        ],
    };
    let (r, cluster) = run_collective_with_faults(&cfg, Collective::RingOnce, 2 << 20, &plan);
    assert!(r.all_messages_completed(), "flow must survive the outage");
    let port_down_drops: u64 = cluster
        .all_switches()
        .iter()
        .filter_map(|&n| cluster.switch(n).ok())
        .flat_map(|sw| sw.drop_log().iter())
        .filter(|d| d.cause == DropCause::PortDown)
        .count() as u64;
    assert!(
        port_down_drops > 0,
        "a downed uplink under line-rate spray must blackhole something"
    );
    // Blackholed packets land in the targeted-drop counter, not buffer.
    assert!(r.fabric.drops_targeted >= port_down_drops);
    assert_eq!(r.fabric.drops_buffer, 0);
    let mut ocfg = OracleConfig::for_scheme(Scheme::Themis).without_rto_bound();
    ocfg.quiesced = r.sim_end < cfg.horizon;
    oracle::assert_conformant(&cluster, &ocfg);
}

#[test]
fn targeted_drop_kills_exactly_the_named_packet_and_is_recovered() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 29);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            at: Nanos::ZERO,
            fault: Fault::TargetedDrop {
                leaf: 0,
                qp: 0,
                psn: 40,
            },
        }],
    };
    let (r, cluster) = run_collective_with_faults(&cfg, Collective::RingOnce, 1 << 20, &plan);
    assert!(r.all_messages_completed());
    let targeted: Vec<_> = cluster
        .all_switches()
        .iter()
        .filter_map(|&n| cluster.switch(n).ok())
        .flat_map(|sw| sw.drop_log().iter())
        .filter(|d| matches!(d.cause, DropCause::Targeted | DropCause::Injected))
        .map(|d| (d.qp.0, d.psn))
        .collect();
    assert_eq!(targeted, vec![(0, 40)], "exactly the armed (qp, psn) died");
    assert!(r.nics.retx_packets >= 1, "the loss was retransmitted");
    let mut ocfg = OracleConfig::for_scheme(Scheme::Themis);
    ocfg.quiesced = r.sim_end < cfg.horizon;
    oracle::assert_conformant(&cluster, &ocfg);
}

#[test]
fn oracle_conservation_agrees_with_telemetry_exports() {
    // Satellite cross-check: the oracle's packet-conservation ledger and
    // the `agg.fabric.*` counters exported in the telemetry snapshot are
    // two independent views of the same run — they must agree exactly.
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 31);
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: Nanos::ZERO,
                fault: Fault::TargetedDrop {
                    leaf: 0,
                    qp: 0,
                    psn: 8,
                },
            },
            FaultEvent {
                at: Nanos::ZERO,
                fault: Fault::TargetedDrop {
                    leaf: 0,
                    qp: 0,
                    psn: 21,
                },
            },
        ],
    };
    let (r, cluster) = run_collective_with_faults(&cfg, Collective::RingOnce, 1 << 20, &plan);
    assert!(r.all_messages_completed());

    let mut ocfg = OracleConfig::for_scheme(Scheme::Themis);
    ocfg.quiesced = r.sim_end < cfg.horizon;
    let report = oracle::audit(&cluster, &ocfg);
    assert!(
        report.violations.is_empty(),
        "conformance violations: {:?}",
        report.violations
    );

    let counter = |name: &str| -> u64 {
        r.telemetry
            .counter(name)
            .unwrap_or_else(|| panic!("telemetry export {name} missing"))
    };
    // The targeted counter carries exactly our two armed kills.
    assert_eq!(counter("agg.fabric.drops_targeted"), 2);
    assert_eq!(
        counter("agg.fabric.drops_targeted"),
        r.fabric.drops_targeted
    );
    assert_eq!(counter("agg.fabric.drops_buffer"), r.fabric.drops_buffer);
    assert_eq!(
        counter("agg.fabric.drops_no_route"),
        r.fabric.drops_no_route
    );
    // Oracle ledger vs exported counters: every dropped data packet the
    // oracle accounted for appears in one of the exported drop classes.
    assert_eq!(
        report.data_dropped,
        counter("agg.fabric.drops_buffer")
            + counter("agg.fabric.drops_targeted")
            + counter("agg.fabric.drops_no_route"),
        "oracle drop ledger and telemetry exports disagree"
    );
    assert_eq!(report.distinct_losses, 2);
    assert_eq!(counter("agg.nic.retx_packets"), r.nics.retx_packets);
    assert!(report.retx_packets >= report.distinct_losses);
}

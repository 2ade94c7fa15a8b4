//! The §2.3 flowlet argument, demonstrated end to end.
//!
//! Flowlet-based load balancing relies on inter-packet gaps to re-route
//! safely. RNICs pace in hardware at (near) line rate, so a busy flow
//! never pauses long enough to open a gap: each flow gets exactly one
//! flowlet placement, packets stay in order, and load balancing
//! degenerates to per-flow (ECMP-like) placement with the same collision
//! problem.

use themis::harness::{
    run_collective, run_collective_with_faults, Collective, ExperimentConfig, FaultPlan, Scheme,
};

#[test]
fn busy_rnic_flows_never_open_flowlet_gaps() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Flowlet, 23);
    let (r, cluster) =
        run_collective_with_faults(&cfg, Collective::RingOnce, 4 << 20, &FaultPlan::none());
    assert!(r.all_messages_completed());

    // In-order delivery: flowlets never split a busy flow across paths.
    assert_eq!(r.nics.ooo_packets, 0, "flowlet LB must not reorder");
    assert_eq!(r.nics.retx_packets, 0);

    // Count flowlet re-picks across all ToRs: one placement per
    // cross-rack flow direction and nothing more (no gaps under
    // hardware pacing). 8 data flows + their reverse ACK streams.
    let switches: u64 = cluster
        .leaves
        .iter()
        .filter_map(|&l| cluster.switch(l).ok())
        .map(|sw| sw.lb_state().flowlet_switches)
        .sum();
    // 8 forward flows and 8 ACK streams -> at most 16 placements, plus a
    // handful of handshake-time placements; crucially NOT thousands
    // (one per packet would be ~11k).
    assert!(
        switches <= 32,
        "expected ~one flowlet per flow, got {switches} re-picks"
    );
}

#[test]
fn flowlet_degenerates_to_per_flow_placement() {
    // With per-flow placement, collisions happen exactly as under ECMP:
    // completion time is far from the sprayed optimum.
    let bytes = 4 << 20;
    let flowlet = run_collective(
        &ExperimentConfig::motivation_small(Scheme::Flowlet, 23),
        Collective::RingOnce,
        bytes,
    );
    let themis = run_collective(
        &ExperimentConfig::motivation_small(Scheme::Themis, 23),
        Collective::RingOnce,
        bytes,
    );
    let f = flowlet.tail_ct.unwrap().as_secs_f64();
    let t = themis.tail_ct.unwrap().as_secs_f64();
    assert!(
        t < f,
        "packet-level spraying ({t:.6}s) must beat flowlet placement ({f:.6}s)"
    );
}

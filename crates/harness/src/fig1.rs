//! The §2.2 motivation experiment (Figure 1).
//!
//! Fig 1a topology: 8 hosts, two interleaved 4-node ring groups, every
//! ring hop cross-rack, 100 Gbps links, **random packet spraying** over
//! the 2 spine paths, NIC-SR + DCQCN. Each node sends `bytes_per_flow`
//! (paper: 100 MB) to its ring successor.
//!
//! * **Fig 1b** — the chosen flow's retransmission ratio over time
//!   (paper: average ≈ 0.16).
//! * **Fig 1c** — the chosen flow's sending rate over time (paper: rate
//!   sawtooths below the 100 Gbps line rate, average ≈ 86 Gbps).
//! * **Fig 1d** — average per-flow throughput, NIC-SR vs. the Ideal
//!   transport (paper: 68.09 vs. 95.43 Gbps): [`Scheme::RandomSpray`]
//!   against [`Scheme::Oracle`], which sprays the same way over the
//!   loss-oracle transport with congestion control disabled.

use crate::experiment::{driver_of, Collective, ExperimentConfig};
use crate::scheme::Scheme;
use crate::session::{Session, Start};
use collectives::groups::all_groups;
use simcore::time::{Nanos, TimeDelta};

/// Result of one Fig 1 run.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Which scheme ran: the NIC-SR leg or the Ideal one.
    pub scheme: Scheme,
    /// Chosen flow's retransmission ratio per time bin (Fig 1b):
    /// `(bin start in µs, ratio)`.
    pub retx_ratio_series: Vec<(f64, f64)>,
    /// Chosen flow's sending rate per time bin (Fig 1c):
    /// `(bin start in µs, Gbit/s)`.
    pub rate_series: Vec<(f64, f64)>,
    /// All-flow average retransmission ratio (paper: ≈ 0.16).
    pub avg_retx_ratio: f64,
    /// Chosen flow's average sending rate in Gbit/s (paper: ≈ 86).
    pub avg_rate_gbps: f64,
    /// Mean per-flow goodput in Gbit/s (Fig 1d bar).
    pub mean_flow_throughput_gbps: f64,
    /// Whether every flow completed before the horizon.
    pub completed: bool,
    /// Total data packets / retransmissions (diagnostics).
    pub data_packets: u64,
    /// Retransmitted packets across all flows.
    pub retx_packets: u64,
    /// Fabric drops (should be 0: no loss in the motivation setup).
    pub drops: u64,
    /// Full telemetry snapshot of the run (see DESIGN.md "Observability").
    pub telemetry: telemetry::RunReport,
}

/// Run the Fig 1 motivation experiment under `scheme` on `shards`
/// engine shards (1 = serial): [`Scheme::RandomSpray`] is the NIC-SR
/// leg, [`Scheme::Oracle`] the Ideal one.
///
/// `bytes_per_flow` is the paper's 100 MB at full scale; smaller values
/// preserve the shape. Bin widths control series resolution. The result
/// — including the telemetry snapshot — is bit-identical for any shard
/// count.
pub fn run_fig1_sharded(
    scheme: Scheme,
    bytes_per_flow: u64,
    trace_bin: TimeDelta,
    seed: u64,
    shards: usize,
) -> Fig1Result {
    let mut cfg = ExperimentConfig::motivation_small(scheme, seed);
    cfg.shards = shards;
    // The paper does not state Fig 1's DCQCN parameters. The fast-recovery
    // regime (T_I = 10 µs, T_D = 100 µs) reproduces the reported shape: a
    // sending-rate sawtooth averaging ~86% of line rate with dips toward
    // 50%, and a double-digit retransmission ratio. See EXPERIMENTS.md.
    // The Oracle scheme disables congestion control over it.
    cfg.nic.cc = rnic::CcConfig::with_ti_td(10, 100);
    cfg.horizon = Nanos::from_secs(60);

    let cluster =
        crate::cluster::build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    // No `with_msg_latency`: Fig 1's telemetry document predates the
    // `collective.msg_latency` histogram and stays without it.
    let window = TimeDelta::from_nanos(cfg.horizon.as_nanos());
    let mut session = Session::new(cluster, seed ^ 0xF1_61, window);
    let mut flow_bytes = Vec::new();
    for hosts in &all_groups(cfg.fabric.n_leaves, cfg.fabric.hosts_per_leaf) {
        let schedule = Collective::RingOnce.schedule(hosts.len(), bytes_per_flow);
        flow_bytes.extend(schedule.transfers.iter().map(|t| t.bytes));
        session.post(hosts, schedule, Start::WithRun);
    }
    // The paper's chosen flow: node 0 -> node 2, i.e. group 0 rank 0.
    let chosen = driver_of(&session.cluster).instance_spec(0);
    let (chosen_host, chosen_qp) = (chosen.hosts[0], chosen.qp_of_transfer[0]);
    session
        .cluster
        .nic_mut(chosen_host)
        .enable_send_trace(chosen_qp, trace_bin);
    session.kick_off();
    session.run_to(cfg.horizon);
    let cluster = session.cluster;

    // ---- extract ----
    let driver = driver_of(&cluster);
    let start = driver.started_at().unwrap_or(Nanos::ZERO);
    let completed = driver.all_complete();

    // Per-flow goodput: every instance transfer is one flow.
    let mut per_flow_gbps = Vec::new();
    let mut flow_idx = 0;
    for i in 0..driver.num_instances() {
        for t in driver.delivery_times(i) {
            if let Some(done) = t {
                let secs = done.since(start).as_secs_f64();
                if secs > 0.0 {
                    per_flow_gbps.push(flow_bytes[flow_idx] as f64 * 8.0 / secs / 1e9);
                }
            }
            flow_idx += 1;
        }
    }
    let mean_flow_throughput_gbps = if per_flow_gbps.is_empty() {
        0.0
    } else {
        per_flow_gbps.iter().sum::<f64>() / per_flow_gbps.len() as f64
    };

    let nics = crate::experiment::aggregate_nics(&cluster);
    let sqp = cluster
        .nic(chosen_host)
        .send_qp(chosen_qp)
        .expect("traced QP");
    let trace = sqp.trace.as_ref().expect("trace enabled");
    let retx_ratio_series: Vec<(f64, f64)> = trace
        .retx_ratio
        .means()
        .into_iter()
        .map(|(t, v)| (t.as_micros_f64(), v))
        .collect();
    let rate_series: Vec<(f64, f64)> = trace
        .rate
        .series_gbps()
        .into_iter()
        .map(|(t, v)| (t.as_micros_f64(), v))
        .collect();
    let avg_rate_gbps = trace.rate.mean_gbps();

    let fabric = netsim::trace::fabric_summary(&cluster.world, &cluster.all_switches());

    let mut telemetry = cluster.snapshot_merged();
    telemetry.push_counter("agg.nic.data_packets", nics.data_packets);
    telemetry.push_counter("agg.nic.retx_packets", nics.retx_packets);
    telemetry.push_counter("agg.fabric.drops", fabric.total_drops());
    telemetry.push_gauge("run.avg_retx_ratio", nics.retx_ratio());
    telemetry.push_gauge("run.avg_rate_gbps", avg_rate_gbps);
    telemetry.push_gauge("run.mean_flow_throughput_gbps", mean_flow_throughput_gbps);
    telemetry.sort();

    Fig1Result {
        scheme,
        retx_ratio_series,
        rate_series,
        avg_retx_ratio: nics.retx_ratio(),
        avg_rate_gbps,
        mean_flow_throughput_gbps,
        completed,
        data_packets: nics.data_packets,
        retx_packets: nics.retx_packets,
        drops: fabric.total_drops(),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One scaled-down run (2 MB flows); `THEMIS_SHARDS` picks the
    /// engine shard count so the sharded CI leg covers this suite.
    fn run(scheme: Scheme) -> Fig1Result {
        let shards = crate::knobs::shards_from_env();
        run_fig1_sharded(scheme, 2 << 20, TimeDelta::from_micros(20), 42, shards)
    }

    /// A scaled-down Fig 1 run exercises the whole pipeline.
    #[test]
    fn nic_sr_shows_spurious_retransmissions_and_slowdown() {
        let r = run(Scheme::RandomSpray);
        assert!(r.completed, "flows must finish");
        assert_eq!(r.drops, 0, "no loss in the motivation scenario");
        // The paper's headline: double-digit spurious retransmission rate.
        assert!(
            r.avg_retx_ratio > 0.02,
            "expected visible spurious retx, got {}",
            r.avg_retx_ratio
        );
        assert!(r.retx_packets > 0);
        // Sending rate sits below line rate on average.
        assert!(r.avg_rate_gbps < 100.0);
        assert!(!r.rate_series.is_empty());
        assert!(!r.retx_ratio_series.is_empty());
    }

    #[test]
    fn ideal_transport_is_clean_and_faster() {
        let sr = run(Scheme::RandomSpray);
        let ideal = run(Scheme::Oracle);
        assert!(ideal.completed);
        assert_eq!(ideal.retx_packets, 0, "no loss -> ideal never retransmits");
        assert!(
            ideal.mean_flow_throughput_gbps > sr.mean_flow_throughput_gbps,
            "ideal {} must beat NIC-SR {}",
            ideal.mean_flow_throughput_gbps,
            sr.mean_flow_throughput_gbps
        );
    }
}

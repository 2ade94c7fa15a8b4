//! Generic experiment runner: a cluster + a collective workload → metrics.

use crate::cluster::{
    build_cluster_sharded, build_fat_tree_cluster_sharded, Cluster, ClusterError, ThemisAggregate,
    Topology,
};
use crate::faults::FaultPlan;
use crate::scheme::Scheme;
use crate::session::{snapshot_with_run_counters, Session, Start};
use collectives::alltoall::{alltoall, incast};
use collectives::driver::{Driver, QpAllocator};
use collectives::groups::all_groups;
use collectives::ring::{ring_allgather, ring_allreduce, ring_once, ring_reduce_scatter};
use collectives::schedule::{Schedule, Transfer};
use netsim::topology::LeafSpineConfig;
use netsim::trace::{fabric_summary, FabricSummary};
use netsim::types::HostId;
use rnic::reaction::{OooReactionKind, SenderEntropyKind};
use rnic::{CcConfig, Nic, NicConfig};
use simcore::time::{Nanos, TimeDelta};

/// Which collective to run per group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Ring Allreduce (2(N−1) dependent steps) — Fig 5a.
    Allreduce,
    /// Pairwise Alltoall (all transfers concurrent) — Fig 5b.
    Alltoall,
    /// Ring AllGather (N−1 steps).
    AllGather,
    /// Ring ReduceScatter (N−1 steps).
    ReduceScatter,
    /// One ring pass of independent sends — the Fig 1 motivation pattern.
    RingOnce,
    /// N-to-1 incast into rank 0 (buffer-pressure stress; PFC studies).
    Incast,
}

impl Collective {
    /// Label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Collective::Allreduce => "Allreduce",
            Collective::Alltoall => "Alltoall",
            Collective::AllGather => "AllGather",
            Collective::ReduceScatter => "ReduceScatter",
            Collective::RingOnce => "RingOnce",
            Collective::Incast => "Incast",
        }
    }

    /// Parse a CLI spelling (the inverse of `label().to_lowercase()`;
    /// also used by the fuzzing corpus header).
    pub fn parse(s: &str) -> Option<Collective> {
        Some(match s.to_ascii_lowercase().as_str() {
            "allreduce" => Collective::Allreduce,
            "alltoall" => Collective::Alltoall,
            "allgather" => Collective::AllGather,
            "reducescatter" => Collective::ReduceScatter,
            "ring" | "ringonce" => Collective::RingOnce,
            "incast" => Collective::Incast,
            _ => return None,
        })
    }

    /// Build the per-group schedule.
    pub fn schedule(&self, n_ranks: usize, total_bytes: u64) -> Schedule {
        match self {
            Collective::Allreduce => ring_allreduce(n_ranks, total_bytes),
            Collective::Alltoall => alltoall(n_ranks, total_bytes),
            Collective::AllGather => ring_allgather(n_ranks, total_bytes),
            Collective::ReduceScatter => ring_reduce_scatter(n_ranks, total_bytes),
            Collective::RingOnce => ring_once(n_ranks, total_bytes),
            Collective::Incast => incast(n_ranks, total_bytes),
        }
    }
}

/// A complete experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Fabric parameters.
    pub fabric: LeafSpineConfig,
    /// NIC parameters (transport + DCQCN).
    pub nic: NicConfig,
    /// Load-balancing scheme.
    pub scheme: Scheme,
    /// Root seed.
    pub seed: u64,
    /// Simulation horizon (safety stop for hung runs).
    pub horizon: Nanos,
    /// Engine shard count (1 = serial; see [`crate::knobs`]). Results
    /// are bit-identical for any value. Constructors default it from
    /// `THEMIS_SHARDS`.
    pub shards: usize,
}

impl ExperimentConfig {
    /// The Fig 1a motivation cluster (8 hosts, 2 paths, 100 Gbps).
    pub fn motivation_small(scheme: Scheme, seed: u64) -> ExperimentConfig {
        let fabric = LeafSpineConfig {
            seed,
            ..LeafSpineConfig::motivation()
        };
        ExperimentConfig {
            nic: NicConfig::nic_sr(fabric.host_link.bandwidth_bps),
            fabric,
            scheme,
            seed,
            horizon: Nanos::from_secs(2),
            shards: crate::knobs::shards_from_env(),
        }
    }

    /// The §5 evaluation cluster (16×16 leaf-spine, 400 Gbps) with the
    /// given DCQCN `(T_I, T_D)` microsecond configuration.
    pub fn paper_eval(scheme: Scheme, ti_us: u64, td_us: u64, seed: u64) -> ExperimentConfig {
        let fabric = LeafSpineConfig {
            seed,
            ..LeafSpineConfig::paper_eval()
        };
        let line = fabric.host_link.bandwidth_bps;
        let mut nic = NicConfig::nic_sr(line);
        nic.cc = CcConfig::with_ti_td(ti_us, td_us);
        ExperimentConfig {
            fabric,
            nic,
            scheme,
            seed,
            horizon: Nanos::from_secs(5),
            shards: crate::knobs::shards_from_env(),
        }
    }

    /// The fabric-validity rule ([`crate::cluster::assemble`]'s) applied
    /// to this configuration without building anything. The `run_*`
    /// functions panic on a configuration this rejects; binaries call it
    /// first and exit 2.
    pub fn validate(&self) -> Result<(), ClusterError> {
        Topology::LeafSpine(&self.fabric)
            .check(&self.nic, self.scheme)
            .map(|_| ())
    }
}

/// Aggregated sender/receiver counters over all NICs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicAggregate {
    /// First-transmission data packets.
    pub data_packets: u64,
    /// Retransmitted data packets.
    pub retx_packets: u64,
    /// NACKs received by senders.
    pub nacks_received: u64,
    /// CNPs received by senders.
    pub cnps_received: u64,
    /// RTO expirations.
    pub rto_fires: u64,
    /// NACKs sent by receivers.
    pub nacks_sent: u64,
    /// Out-of-order arrivals at receivers.
    pub ooo_packets: u64,
    /// Duplicate arrivals at receivers (spurious retransmissions landing).
    pub dup_packets: u64,
    /// Payload bytes delivered in order.
    pub bytes_delivered: u64,
    /// Receiver ePSN crossings of the 24-bit wire-PSN boundary.
    pub psn_wraps: u64,
}

impl NicAggregate {
    /// Fraction of transmitted data packets that were retransmissions —
    /// the paper's "retransmission ratio".
    pub fn retx_ratio(&self) -> f64 {
        let total = self.data_packets + self.retx_packets;
        if total == 0 {
            0.0
        } else {
            self.retx_packets as f64 / total as f64
        }
    }
}

/// Everything measured by one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Scheme that produced this result.
    pub scheme: Scheme,
    /// Slowest-group completion time (§5 metric); `None` if the horizon
    /// hit first.
    pub tail_ct: Option<TimeDelta>,
    /// Per-group completion times.
    pub group_cts: Vec<Option<TimeDelta>>,
    /// Fabric-wide switch counters.
    pub fabric: FabricSummary,
    /// Themis middleware counters (zeros for baselines).
    pub themis: ThemisAggregate,
    /// NIC counters.
    pub nics: NicAggregate,
    /// Simulator events dispatched.
    pub events: u64,
    /// Final simulation clock.
    pub sim_end: Nanos,
    /// Median per-transfer latency (post → delivery), if any completed.
    pub msg_latency_p50: Option<TimeDelta>,
    /// 99th-percentile per-transfer latency.
    pub msg_latency_p99: Option<TimeDelta>,
    /// Full telemetry snapshot ([`Cluster::snapshot_merged`]): counters,
    /// histograms, the event ring, plus end-of-run `agg.*` / `run.*`
    /// exports.
    pub telemetry: telemetry::RunReport,
}

/// Structured completion outcome of a run — the non-panicking answer to
/// "did the workload finish, and when?". Degenerate-but-legal runs
/// (zero jobs posted, horizon hit before the tail) are values here, not
/// `unwrap()` crash sites; binaries map the non-completed arms to a
/// nonzero exit with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionOutcome {
    /// Every group completed; slowest-group completion time attached.
    Completed(TimeDelta),
    /// Work was posted but the horizon hit before the tail finished.
    HorizonHit,
    /// The run carried no work at all (zero groups / zero instances).
    NoWork,
}

impl std::fmt::Display for CompletionOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompletionOutcome::Completed(ct) => {
                write!(f, "completed (tail {:.3} us)", ct.as_micros_f64())
            }
            CompletionOutcome::HorizonHit => {
                write!(f, "no completions: horizon hit before the tail finished")
            }
            CompletionOutcome::NoWork => {
                write!(f, "no completions: the run posted zero jobs")
            }
        }
    }
}

impl ExperimentResult {
    /// Whether every message of every group was delivered.
    pub fn all_messages_completed(&self) -> bool {
        self.tail_ct.is_some()
    }

    /// Structured completion outcome (see [`CompletionOutcome`]).
    pub fn outcome(&self) -> CompletionOutcome {
        match self.tail_ct {
            Some(ct) => CompletionOutcome::Completed(ct),
            None if self.group_cts.is_empty() => CompletionOutcome::NoWork,
            None => CompletionOutcome::HorizonHit,
        }
    }

    /// CSV header matching [`ExperimentResult::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "scheme,tail_ct_us,goodput_gbps,data_packets,retx_packets,\
nacks_sent,nacks_received,ooo_packets,rto_fires,drops,ecn_marked,\
sprayed,blocked,forwarded_valid,compensations,msg_p50_us,msg_p99_us,events"
    }

    /// One CSV row of the headline metrics (empty cells for missing
    /// values), for spreadsheet/plotting pipelines.
    pub fn to_csv_row(&self) -> String {
        let opt_us = |t: Option<TimeDelta>| {
            t.map(|v| format!("{:.3}", v.as_micros_f64()))
                .unwrap_or_default()
        };
        format!(
            "{},{},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.scheme.label(),
            opt_us(self.tail_ct),
            self.aggregate_goodput_gbps(),
            self.nics.data_packets,
            self.nics.retx_packets,
            self.nics.nacks_sent,
            self.nics.nacks_received,
            self.nics.ooo_packets,
            self.nics.rto_fires,
            self.fabric.total_drops(),
            self.fabric.ecn_marked,
            self.themis.sprayed,
            self.themis.nacks_blocked,
            self.themis.nacks_forwarded_valid,
            self.themis.compensations,
            opt_us(self.msg_latency_p50),
            opt_us(self.msg_latency_p99),
            self.events,
        )
    }

    /// Goodput across the whole workload in Gbit/s (delivered payload over
    /// tail completion time).
    pub fn aggregate_goodput_gbps(&self) -> f64 {
        match self.tail_ct {
            Some(ct) if ct.as_nanos() > 0 => {
                self.nics.bytes_delivered as f64 * 8.0 / ct.as_secs_f64() / 1e9
            }
            _ => 0.0,
        }
    }
}

/// Time-bin width of the `collective.msg_latency` histogram (10 ms; 512
/// bins cover the longest §5 horizon).
pub const MSG_LATENCY_BIN_NS: u64 = 10_000_000;
/// Number of time bins of the `collective.msg_latency` histogram.
pub const MSG_LATENCY_BINS: usize = 512;

/// Aggregated scheme-policy counters over all NIC QPs — the backing
/// store of the `scheme.*` telemetry namespace (exported only for
/// schemes that install a non-commodity transport reaction).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchemeAggregate {
    /// Sender-entropy policy counters summed over sender QPs.
    pub entropy: rnic::EntropyStats,
    /// OOO-reaction policy counters summed over receiver QPs.
    pub ooo: rnic::OooReactionStats,
}

/// Sum scheme-policy counters over the cluster.
pub fn aggregate_scheme(cluster: &Cluster) -> SchemeAggregate {
    let mut agg = SchemeAggregate::default();
    for &h in &cluster.hosts {
        let nic: &Nic = cluster.nic(h);
        for s in nic.send_qps() {
            agg.entropy.add(&s.entropy_stats());
        }
        for r in nic.recv_qps() {
            agg.ooo.add(&r.ooo_stats());
        }
    }
    agg
}

/// Sum NIC counters over the cluster.
pub fn aggregate_nics(cluster: &Cluster) -> NicAggregate {
    let mut agg = NicAggregate::default();
    for &h in &cluster.hosts {
        let nic: &Nic = cluster.nic(h);
        for s in nic.send_qps() {
            agg.data_packets += s.stats.data_packets;
            agg.retx_packets += s.stats.retx_packets;
            agg.nacks_received += s.stats.nacks_received;
            agg.cnps_received += s.stats.cnps_received;
            agg.rto_fires += s.stats.rto_fires;
        }
        for r in nic.recv_qps() {
            agg.nacks_sent += r.stats.nacks_sent;
            agg.ooo_packets += r.stats.ooo_packets;
            agg.dup_packets += r.stats.dup_packets;
            agg.bytes_delivered += r.stats.bytes_delivered;
            agg.psn_wraps += r.stats.psn_wraps;
        }
    }
    agg
}

/// Run `collective` with a per-group buffer of `total_bytes` on every
/// group of the fabric simultaneously (the §5 setup), with `plan`
/// installed between workload setup and the run: the faults fire as
/// scheduled simulator events, so the whole (config, plan) pair replays
/// bit-identically ([`FaultPlan::none`] for a clean run). Returns the
/// built cluster alongside the metrics so callers can inspect raw state.
pub fn run_collective_with_faults(
    cfg: &ExperimentConfig,
    collective: Collective,
    total_bytes: u64,
    plan: &FaultPlan,
) -> (ExperimentResult, Cluster) {
    let cluster = build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    let groups = all_groups(cfg.fabric.n_leaves, cfg.fabric.hosts_per_leaf)
        .into_iter()
        .map(|hosts| {
            let schedule = collective.schedule(hosts.len(), total_bytes);
            (hosts, schedule)
        });
    run_closed_loop(cluster, cfg.seed ^ 0xC0_11EC, groups, plan, cfg.horizon)
}

/// The closed-loop run under every batch entry point: post each group's
/// schedule to start with the run, kick off, install `plan`, run to
/// `horizon` — one window as wide as the horizon, closed with `run_to`
/// so the returned cluster keeps its drop logs for `oracle::check`.
fn run_closed_loop(
    cluster: Cluster,
    qp_seed: u64,
    groups: impl IntoIterator<Item = (Vec<HostId>, Schedule)>,
    plan: &FaultPlan,
    horizon: Nanos,
) -> (ExperimentResult, Cluster) {
    let window = TimeDelta::from_nanos(horizon.as_nanos());
    let mut session = Session::new(cluster, qp_seed, window).with_msg_latency();
    for (hosts, schedule) in groups {
        session.post(&hosts, schedule, Start::WithRun);
    }
    session.kick_off();
    plan.install(&mut session.cluster);
    session.run_to(horizon);
    let cluster = session.cluster;
    (collect_result(&cluster), cluster)
}

/// Predict, without running anything, the `(qp, n_psn)` streams
/// [`run_collective_with_faults`] will create: same group enumeration,
/// same allocator seed, same per-pair QP dedup as the real setup. `n_psn`
/// is the total PSN count on the pair across all of its transfers — the
/// domain a fault sampler can aim targeted drops at.
pub fn planned_transfers(
    cfg: &ExperimentConfig,
    collective: Collective,
    total_bytes: u64,
) -> Vec<(netsim::types::QpId, u32)> {
    use std::collections::HashMap;
    let groups = all_groups(cfg.fabric.n_leaves, cfg.fabric.hosts_per_leaf);
    let mut alloc = QpAllocator::new(cfg.seed ^ 0xC0_11EC);
    let mut psn_of: Vec<(netsim::types::QpId, u32)> = Vec::new();
    for hosts in &groups {
        let schedule = collective.schedule(hosts.len(), total_bytes);
        let mut pair_qp: HashMap<(usize, usize), usize> = HashMap::new();
        for t in &schedule.transfers {
            let idx = *pair_qp.entry((t.src, t.dst)).or_insert_with(|| {
                psn_of.push((alloc.alloc().0, 0));
                psn_of.len() - 1
            });
            psn_of[idx].1 += t.bytes.div_ceil(cfg.nic.mtu_payload as u64).max(1) as u32;
        }
    }
    psn_of
}

/// Total payload bytes the workload delivers when every transfer
/// completes (the oracle's exactly-once byte count).
pub fn expected_delivered_bytes(
    cfg: &ExperimentConfig,
    collective: Collective,
    total_bytes: u64,
) -> u64 {
    all_groups(cfg.fabric.n_leaves, cfg.fabric.hosts_per_leaf)
        .iter()
        .map(|hosts| {
            collective
                .schedule(hosts.len(), total_bytes)
                .transfers
                .iter()
                .map(|t| t.bytes)
                .sum::<u64>()
        })
        .sum()
}

/// Run `groups` simultaneous inter-pod rings on a fat-tree cluster:
/// group `g` joins the host with pod-local index `g` from every pod into
/// one `RingOnce` ring of `k` ranks. Every ring crosses the core layer
/// (and, under sharding, every shard boundary); with
/// `groups == (k/2)²` every host in the fabric participates. This is the
/// workload of the `paper_fabric_x10` benchmark and its CI smoke leg.
// Eight plain knobs of one experiment; a config struct would only rename them.
#[allow(clippy::too_many_arguments)]
pub fn run_fat_tree_rings(
    fabric_cfg: &netsim::fat_tree::FatTreeConfig,
    nic_cfg: NicConfig,
    scheme: Scheme,
    seed: u64,
    n_shards: usize,
    groups: usize,
    bytes_per_ring: u64,
    horizon: Nanos,
) -> (ExperimentResult, Cluster) {
    let k = fabric_cfg.k;
    let hosts_per_pod = (k / 2) * (k / 2);
    assert!(
        groups <= hosts_per_pod,
        "at most one ring per pod-local host index ({hosts_per_pod})"
    );
    let cluster = build_fat_tree_cluster_sharded(fabric_cfg, nic_cfg, scheme, n_shards);
    let rings = (0..groups).map(|g| {
        let hosts = (0..k)
            .map(|p| HostId((p * hosts_per_pod + g) as u32))
            .collect();
        (hosts, ring_once(k, bytes_per_ring))
    });
    run_closed_loop(
        cluster,
        seed ^ 0xC0_11EC,
        rings,
        &FaultPlan::none(),
        horizon,
    )
}

/// [`run_collective_with_faults`] without faults, discarding the
/// cluster.
pub fn run_collective(
    cfg: &ExperimentConfig,
    collective: Collective,
    total_bytes: u64,
) -> ExperimentResult {
    run_collective_with_faults(cfg, collective, total_bytes, &FaultPlan::none()).0
}

/// The two ends of [`run_point_to_point`]: host 0 and the first host of
/// the second rack (guaranteed cross-rack) — an error on a fabric that
/// has no second rack.
pub fn point_to_point_ends(fabric: &LeafSpineConfig) -> Result<[HostId; 2], ClusterError> {
    let dst = HostId(fabric.hosts_per_leaf as u32);
    if fabric.n_leaves < 2 {
        return Err(ClusterError::NoSuchHost(dst));
    }
    Ok([HostId(0), dst])
}

/// A single point-to-point message between two cross-rack hosts; the
/// simplest end-to-end exercise of a scheme (used by the quickstart).
/// Panics with the [`ClusterError`] when [`ExperimentConfig::validate`]
/// or [`point_to_point_ends`] rejects `cfg`.
pub fn run_point_to_point(cfg: &ExperimentConfig, bytes: u64) -> ExperimentResult {
    let ends = point_to_point_ends(&cfg.fabric).unwrap_or_else(|e| panic!("{e}"));
    let cluster = build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards);
    let schedule = Schedule {
        name: "point-to-point",
        n_ranks: 2,
        transfers: vec![Transfer {
            src: 0,
            dst: 1,
            bytes,
            deps: vec![],
        }],
    };
    let flow = [(ends.to_vec(), schedule)];
    run_closed_loop(cluster, cfg.seed, flow, &FaultPlan::none(), cfg.horizon).0
}

fn collect_result(cluster: &Cluster) -> ExperimentResult {
    let driver = driver_of(cluster);
    let start = driver.started_at().unwrap_or(Nanos::ZERO);
    let group_cts: Vec<Option<TimeDelta>> = driver
        .completions()
        .into_iter()
        .map(|c| c.map(|t| t.since(start)))
        .collect();
    let tail_ct = driver.tail_completion().map(|t| t.since(start));
    let lat = driver.latency_histogram();
    let fabric = fabric_summary(&cluster.world, &cluster.all_switches());
    let themis = cluster.themis_stats();
    let nics = aggregate_nics(cluster);
    let events = cluster.world.engine.dispatched();
    let sim_end = cluster.world.now();
    let mut result = ExperimentResult {
        scheme: cluster.scheme,
        tail_ct,
        group_cts,
        fabric,
        themis,
        nics,
        events,
        sim_end,
        msg_latency_p50: lat.quantile(0.5).map(TimeDelta::from_nanos),
        msg_latency_p99: lat.quantile(0.99).map(TimeDelta::from_nanos),
        telemetry: telemetry::RunReport::new(),
    };
    result.telemetry = snapshot_telemetry(&result, cluster);
    result
}

/// Snapshot the cluster's telemetry and append the end-of-run `agg.*`
/// (entity-stat aggregates) and `run.*` (run-level) exports.
fn snapshot_telemetry(r: &ExperimentResult, cluster: &Cluster) -> telemetry::RunReport {
    let mut t = snapshot_with_run_counters(cluster);

    t.push_counter("agg.fabric.rx_packets", r.fabric.rx_packets);
    t.push_counter("agg.fabric.forwarded", r.fabric.forwarded);
    t.push_counter("agg.fabric.drops_buffer", r.fabric.drops_buffer);
    t.push_counter("agg.fabric.drops_targeted", r.fabric.drops_targeted);
    t.push_counter("agg.fabric.drops_no_route", r.fabric.drops_no_route);
    t.push_counter("agg.fabric.ecn_marked", r.fabric.ecn_marked);
    t.push_counter("agg.fabric.hook_blocked", r.fabric.hook_blocked);
    t.push_counter("agg.fabric.hook_emitted", r.fabric.hook_emitted);
    t.push_counter("agg.fabric.peak_buffer_bytes", r.fabric.peak_buffer_bytes);

    t.push_counter("agg.themis.sprayed", r.themis.sprayed);
    t.push_counter("agg.themis.nacks_seen", r.themis.nacks_seen);
    t.push_counter("agg.themis.nacks_blocked", r.themis.nacks_blocked);
    t.push_counter(
        "agg.themis.nacks_forwarded_valid",
        r.themis.nacks_forwarded_valid,
    );
    t.push_counter(
        "agg.themis.nacks_forwarded_unknown",
        r.themis.nacks_forwarded_unknown,
    );
    t.push_counter("agg.themis.compensations", r.themis.compensations);
    t.push_counter(
        "agg.themis.compensation_cancels",
        r.themis.compensation_cancels,
    );
    t.push_counter(
        "agg.themis.compensation_suppressed",
        r.themis.compensation_suppressed,
    );
    t.push_counter("agg.themis.blocked_uncertain", r.themis.blocked_uncertain);
    t.push_counter("agg.themis.memory_bytes", r.themis.memory_bytes);

    t.push_counter("agg.nic.data_packets", r.nics.data_packets);
    t.push_counter("agg.nic.retx_packets", r.nics.retx_packets);
    t.push_counter("agg.nic.nacks_received", r.nics.nacks_received);
    t.push_counter("agg.nic.cnps_received", r.nics.cnps_received);
    t.push_counter("agg.nic.rto_fires", r.nics.rto_fires);
    t.push_counter("agg.nic.nacks_sent", r.nics.nacks_sent);
    t.push_counter("agg.nic.ooo_packets", r.nics.ooo_packets);
    t.push_counter("agg.nic.dup_packets", r.nics.dup_packets);
    t.push_counter("agg.nic.bytes_delivered", r.nics.bytes_delivered);
    t.push_counter("agg.nic.psn_wraps", r.nics.psn_wraps);

    // Transport-reaction counters, namespaced by the NIC axis that
    // produces them (SCHEMES.md / EXPERIMENTS.md): sender entropy
    // (`reps`, `sprinklers`) and OOO reaction (`eunomia`). Pushed at
    // snapshot time from per-QP state, so serial and sharded runs emit
    // identical documents; the commodity reaction pushes nothing,
    // keeping the golden schema untouched.
    let reaction = cluster.nic_cfg.reaction;
    match reaction.entropy {
        SenderEntropyKind::Reps => {
            let s = aggregate_scheme(cluster).entropy;
            t.push_counter("scheme.reps.recycled_sends", s.recycled_sends);
            t.push_counter("scheme.reps.fresh_sends", s.fresh_sends);
            t.push_counter("scheme.reps.pool_clears", s.pool_clears);
            t.push_counter("scheme.reps.pool_evictions", s.pool_evictions);
        }
        SenderEntropyKind::Sprinklers => {
            let s = aggregate_scheme(cluster).entropy;
            t.push_counter("scheme.sprinklers.stripes_started", s.stripes_started);
            t.push_counter("scheme.sprinklers.fresh_sends", s.fresh_sends);
            t.push_counter("scheme.sprinklers.striped_sends", s.recycled_sends);
        }
        SenderEntropyKind::Fixed => {}
    }
    if reaction.ooo == OooReactionKind::Eunomia {
        let s = aggregate_scheme(cluster).ooo;
        t.push_counter("scheme.eunomia.nacks_held", s.nacks_held);
        t.push_counter("scheme.eunomia.nacks_allowed", s.nacks_allowed);
        t.push_counter(
            "scheme.eunomia.window_overflow_nacks",
            s.window_overflow_nacks,
        );
        t.push_counter("scheme.eunomia.gap_timeout_nacks", s.gap_timeout_nacks);
    }

    t.push_gauge("run.goodput_gbps", r.aggregate_goodput_gbps());
    t.push_gauge(
        "run.tail_ct_us",
        r.tail_ct.map_or(-1.0, |c| c.as_micros_f64()),
    );
    t.push_gauge("run.retx_ratio", r.nics.retx_ratio());
    t.sort();
    t
}

/// The driver entity of a cluster a [`Session`] ran. Panics before one
/// is installed; [`Cluster::installed_driver`] is the checked form.
pub fn driver_of(cluster: &Cluster) -> &Driver {
    cluster.installed_driver().expect("driver installed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_row_matches_header_arity() {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 11);
        let r = run_point_to_point(&cfg, 1 << 20);
        let header_cols = ExperimentResult::csv_header().split(',').count();
        let row_cols = r.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert!(r.to_csv_row().starts_with("Themis,"));
    }

    #[test]
    fn point_to_point_completes_under_every_scheme() {
        for scheme in Scheme::ALL {
            let cfg = ExperimentConfig::motivation_small(scheme, 11);
            let r = run_point_to_point(&cfg, 1 << 20);
            assert!(
                r.all_messages_completed(),
                "{} failed to complete",
                scheme.label()
            );
            assert_eq!(r.nics.bytes_delivered, 1 << 20, "{}", scheme.label());
            assert_eq!(r.fabric.drops_no_route, 0);
        }
    }

    #[test]
    fn themis_blocks_nacks_on_sprayed_flow() {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 3);
        let r = run_point_to_point(&cfg, 8 << 20);
        assert!(r.all_messages_completed());
        // A single flow over 2 paths reorders constantly; the receiver
        // NACKs and Themis-D blocks (no real loss -> nothing forwarded).
        assert!(r.themis.sprayed > 0);
        assert!(
            r.themis.nacks_blocked > 0,
            "expected invalid NACKs to be blocked: {:?}",
            r.themis
        );
        assert_eq!(r.fabric.total_drops(), 0, "no drops in this scenario");
        assert_eq!(
            r.themis.nacks_forwarded_valid, 0,
            "no loss -> no valid NACK"
        );
        // Blocked NACKs never reach the sender: zero spurious retx.
        assert_eq!(r.nics.retx_packets, 0);
    }

    #[test]
    fn spray_without_filter_suffers_spurious_retransmissions() {
        let cfg = ExperimentConfig::motivation_small(Scheme::SprayNoFilter, 3);
        let r = run_point_to_point(&cfg, 8 << 20);
        assert!(r.all_messages_completed());
        assert!(
            r.nics.retx_packets > 0,
            "unfiltered spraying must trigger spurious retransmissions"
        );
        assert!(r.nics.nacks_received > 0);
    }

    #[test]
    fn ecmp_single_flow_is_clean() {
        let cfg = ExperimentConfig::motivation_small(Scheme::Ecmp, 3);
        let r = run_point_to_point(&cfg, 4 << 20);
        assert!(r.all_messages_completed());
        assert_eq!(r.nics.retx_packets, 0);
        assert_eq!(r.nics.ooo_packets, 0, "single path -> in-order");
    }

    #[test]
    fn ring_once_motivation_all_schemes_complete() {
        // Small per-flow size keeps this test quick.
        for scheme in [Scheme::RandomSpray, Scheme::Themis, Scheme::Ecmp] {
            let cfg = ExperimentConfig::motivation_small(scheme, 5);
            let r = run_collective(&cfg, Collective::RingOnce, 2 << 20);
            assert!(r.all_messages_completed(), "{}: incomplete", scheme.label());
            assert_eq!(r.group_cts.len(), 2, "two groups on the motivation topo");
            // All 8 flows delivered fully.
            assert_eq!(r.nics.bytes_delivered, 8 * (2 << 20));
        }
    }

    #[test]
    fn themis_beats_unfiltered_spray_on_ring() {
        let bytes = 4 << 20;
        let themis = run_collective(
            &ExperimentConfig::motivation_small(Scheme::Themis, 5),
            Collective::RingOnce,
            bytes,
        );
        let spray = run_collective(
            &ExperimentConfig::motivation_small(Scheme::SprayNoFilter, 5),
            Collective::RingOnce,
            bytes,
        );
        let (CompletionOutcome::Completed(t), CompletionOutcome::Completed(s)) =
            (themis.outcome(), spray.outcome())
        else {
            panic!(
                "both runs must complete: themis {}, spray {}",
                themis.outcome(),
                spray.outcome()
            );
        };
        let (t, s) = (t.as_secs_f64(), s.as_secs_f64());
        assert!(
            t < s,
            "Themis ({t:.6}s) must beat unfiltered spraying ({s:.6}s)"
        );
        assert!(themis.nics.retx_ratio() < spray.nics.retx_ratio());
    }
}

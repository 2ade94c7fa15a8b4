//! Open-loop production-load orchestrator: heavy-tailed multi-tenant
//! job churn over a fat-tree fabric, with windowed streaming telemetry
//! and a bounded-memory sliding-window oracle.
//!
//! [`run_open_loop`] is a scripted client of the crate's one run
//! substrate (`session::Session`, DESIGN.md "Run substrate"): it samples
//! an open-loop job plan ([`collectives::open_loop`]) up front, posts
//! every job to start at its sampled arrival (its QPs exist from the
//! start, NCCL-style; its transfers begin when its own timer fires),
//! and then steps the session **window by window**. Each step advances
//! the engine to the boundary and drains every switch's drop log into
//! an [`oracle::DropTally`], so invariant auditing needs memory
//! proportional to the busiest window, not the run. After each step
//! the loop:
//!
//! 1. takes a cumulative telemetry snapshot (merged across shards) into
//!    a versioned [`telemetry::WindowedReport`] — byte-identical between
//!    serial and sharded execution of the same seed;
//! 2. optionally cycles Themis-D `evict_flow` over the live QP
//!    population (churn pressure on the flow table; the guarded
//!    eviction must stay invisible to the protocol).
//!
//! After the last window the full oracle runs against the accumulated
//! tally, and the report adds FCT percentiles plus Jain fairness across
//! tenants — the metrics the paper's closed-loop harness cannot
//! produce.

use crate::cluster::{assemble, check_shards, Cluster, ClusterError, Topology};
use crate::experiment::driver_of;
use crate::faults::FaultPlan;
use crate::oracle::{self, OracleConfig, OracleReport, Violation};
use crate::scheme::Scheme;
use crate::session::{snapshot_with_run_counters, window_end, Session, Start};
use collectives::open_loop::{sample_load, LoadPlan, OpenLoopSpec};
use netsim::fat_tree::FatTreeConfig;
use netsim::types::{HostId, QpId};
use rnic::NicConfig;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use telemetry::{RunReport, WindowedReport};

/// Everything [`run_open_loop`] needs.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// The fat-tree fabric.
    pub fabric: FatTreeConfig,
    /// NIC configuration (line rate must match the fabric's host links).
    pub nic: NicConfig,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Master seed: drives the job plan, host placement and QP entropy.
    pub seed: u64,
    /// Engine shards (1 = serial).
    pub shards: usize,
    /// The open-loop workload sample parameters.
    pub spec: OpenLoopSpec,
    /// Telemetry window width.
    pub window: TimeDelta,
    /// Number of windows; the run horizon is `window × windows`.
    pub windows: usize,
    /// Guarded Themis-D `evict_flow` calls issued per window boundary,
    /// round-robin over the QP space (0 = no eviction churn).
    pub evict_per_window: usize,
    /// Expect every job to complete before the horizon (sized-to-finish
    /// runs; enables the oracle's completion and byte-count checks).
    pub require_complete: bool,
    /// Fault plan installed before the run.
    pub faults: FaultPlan,
}

impl LoadConfig {
    /// CI-sized default: k=4 fat tree (16 hosts), ~150 jobs across 16
    /// tenants, sized to finish well inside 12 windows.
    pub fn small(scheme: Scheme, seed: u64) -> LoadConfig {
        LoadConfig {
            fabric: FatTreeConfig::small(4),
            nic: NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps),
            scheme,
            seed,
            shards: 1,
            spec: OpenLoopSpec::small(150, 16, Nanos::from_micros(30)),
            window: TimeDelta::from_micros(500),
            windows: 12,
            evict_per_window: 0,
            require_complete: true,
            faults: FaultPlan::none(),
        }
    }

    /// The acceptance-scale configuration: k=16 (1024 hosts), ≥1000
    /// tenant jobs over ≥10k QPs, ≥10 telemetry windows, incast storms
    /// included, eviction churn on.
    pub fn k16_acceptance(scheme: Scheme, seed: u64) -> LoadConfig {
        let mut spec = OpenLoopSpec::small(1200, 200, Nanos::from_micros(25));
        spec.min_ranks = 3;
        spec.max_ranks = 8;
        spec.incast_every = 24;
        spec.incast_fanin = 12;
        spec.max_bytes = 128 << 10;
        LoadConfig {
            fabric: FatTreeConfig::small(16),
            nic: NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps),
            scheme,
            seed,
            shards: 1,
            spec,
            window: TimeDelta::from_millis(4),
            windows: 12,
            evict_per_window: 32,
            require_complete: true,
            faults: FaultPlan::none(),
        }
    }

    /// The run horizon (`window × windows`; the end of simulated time
    /// for a product [`LoadConfig::validate`] rejects).
    pub fn horizon(&self) -> Nanos {
        window_end(self.window, self.windows as u64).unwrap_or(Nanos::MAX)
    }

    /// Reject an invalid fabric ([`assemble`]'s rule) and degenerate knob
    /// combinations (`--window 0`, `--jobs 0`, `--tenants 0`, more
    /// shards or ranks than hosts, …) with a usage error instead of a
    /// downstream panic or a silently empty report. Binaries print the
    /// message and exit 2; [`run_open_loop`] rejects the same configs
    /// (the knobs here, the fabric in [`assemble`]) so library users get
    /// the same contract.
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        Topology::FatTree(&self.fabric).check(&self.nic, self.scheme)?;
        self.check_knobs()
    }

    /// The non-fabric half of [`LoadConfig::validate`].
    fn check_knobs(&self) -> Result<(), InvalidConfig> {
        let fail = |msg: String| Err(InvalidConfig(msg));
        if self.window.as_nanos() == 0 {
            return fail("--window must be > 0 ns (zero-width telemetry windows)".into());
        }
        if self.windows == 0 {
            return fail("--windows must be >= 1 (the horizon is window * windows)".into());
        }
        if window_end(self.window, self.windows as u64).is_none() {
            return fail("the horizon (window * windows) must fit in u64 nanoseconds".into());
        }
        if self.spec.n_jobs == 0 {
            return fail("--jobs must be >= 1 (an open-loop run needs work to post)".into());
        }
        if self.spec.n_tenants == 0 {
            return fail("--tenants must be >= 1 (tenant draw would divide by zero)".into());
        }
        if self.spec.min_ranks < 2 {
            return fail(format!(
                "min_ranks must be >= 2 (a transfer needs two ends), got {}",
                self.spec.min_ranks
            ));
        }
        if self.spec.min_ranks > self.spec.max_ranks {
            return fail(format!(
                "min_ranks ({}) must not exceed max_ranks ({})",
                self.spec.min_ranks, self.spec.max_ranks
            ));
        }
        let n_hosts = self.fabric.n_hosts();
        if self.spec.max_ranks > n_hosts {
            return fail(format!(
                "max_ranks ({}) exceeds the fabric's {} hosts (k={})",
                self.spec.max_ranks, n_hosts, self.fabric.k
            ));
        }
        let fanin = self.spec.incast_fanin;
        if self.spec.incast_every > 0 && fanin + 1 > n_hosts {
            return fail(format!(
                "incast fan-in {fanin} needs {} hosts, fabric has {n_hosts}",
                fanin + 1
            ));
        }
        Ok(check_shards(self.shards, n_hosts)?)
    }
}

/// A rejected knob combination: the human-readable usage error
/// [`LoadConfig::validate`] produces instead of letting degenerate
/// configs panic (or silently report nothing) downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(pub String);

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for InvalidConfig {}

impl From<ClusterError> for InvalidConfig {
    fn from(e: ClusterError) -> InvalidConfig {
        InvalidConfig(e.to_string())
    }
}

/// What [`run_open_loop`] measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Generator label (CDF/arrival/tenant summary).
    pub label: String,
    /// Jobs in the sampled plan.
    pub jobs_total: usize,
    /// Jobs whose arrival timer fired before the horizon.
    pub jobs_started: usize,
    /// Jobs that completed before the horizon.
    pub jobs_completed: usize,
    /// QPs provisioned across the run.
    pub qps: u32,
    /// Flow-completion-time percentiles over completed jobs.
    pub fct_p50: Option<TimeDelta>,
    /// 90th percentile FCT.
    pub fct_p90: Option<TimeDelta>,
    /// 99th percentile FCT.
    pub fct_p99: Option<TimeDelta>,
    /// Jain fairness index over per-tenant completed bytes (tenants with
    /// at least one completed job; 1.0 = perfectly fair).
    pub fairness_jain: Option<f64>,
    /// Guarded evictions attempted / granted at window boundaries.
    pub evictions_attempted: u64,
    /// Evictions the obligation guard allowed.
    pub evictions_ok: u64,
    /// `evict_flow` refusals at ToRs: the target entry was resident but
    /// still carried protocol obligations (the guard held under load).
    pub evictions_deferred: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Simulated time of the last dispatched event.
    pub sim_end: Nanos,
    /// The windowed telemetry document (one cumulative slice per window).
    pub windowed: WindowedReport,
    /// Final merged snapshot with `run.*` / `load.*` exports appended.
    pub final_telemetry: RunReport,
    /// The sliding-window oracle's verdict.
    pub oracle: OracleReport,
}

impl LoadReport {
    /// Oracle violations (empty = conformant).
    pub fn violations(&self) -> &[Violation] {
        &self.oracle.violations
    }

    /// Whether every sampled job completed.
    pub fn all_complete(&self) -> bool {
        self.jobs_completed == self.jobs_total
    }
}

/// Pick `ranks` distinct hosts uniformly (deterministic rejection
/// sampling from `rng`).
fn pick_hosts(rng: &mut Xoshiro256, n_hosts: usize, ranks: usize) -> Vec<HostId> {
    assert!(
        ranks <= n_hosts,
        "job wants {ranks} ranks on {n_hosts} hosts"
    );
    let mut chosen: Vec<HostId> = Vec::with_capacity(ranks);
    while chosen.len() < ranks {
        let h = rng.next_index(n_hosts) as u32;
        if !chosen.iter().any(|c| c.0 == h) {
            chosen.push(HostId(h));
        }
    }
    chosen
}

/// Issue one guarded `evict_flow(qp)` on every Themis-D edge; returns
/// whether any edge actually held (and released) the entry.
fn evict_qp(cluster: &mut Cluster, qp: QpId) -> bool {
    let leaves = cluster.leaves.clone();
    let mut any = false;
    for leaf in leaves {
        if let Some(d) = cluster.middleware_mut(leaf).and_then(|m| m.d.as_mut()) {
            any |= d.evict_flow(qp);
        }
    }
    any
}

/// Run the open-loop workload described by `cfg`. See the module docs
/// for the per-window protocol. Everything [`LoadConfig::validate`]
/// rejects is rejected here, before the run.
pub fn run_open_loop(cfg: &LoadConfig) -> Result<(LoadReport, Cluster), InvalidConfig> {
    cfg.check_knobs()?;
    let topology = Topology::FatTree(&cfg.fabric);
    let cluster = assemble(topology, cfg.nic, cfg.scheme, cfg.shards)?;
    let plan: LoadPlan = sample_load(&cfg.spec, cfg.seed);
    let n_hosts = cluster.hosts.len();

    // Wire every job up front: QPs are provisioned at build time
    // (entities cannot create QPs mid-run), the *traffic* is open-loop:
    // each job starts at its sampled arrival.
    let mut place_rng = Xoshiro256::seeded(cfg.seed ^ 0x905E_7AB1);
    let mut session = Session::new(cluster, cfg.seed ^ 0xC0_11EC, cfg.window).with_msg_latency();
    for job in &plan.jobs {
        let hosts = pick_hosts(&mut place_rng, n_hosts, job.ranks);
        session.post(&hosts, job.schedule(), Start::At(job.arrival));
    }
    let qps = session.qps();
    cfg.faults.install(&mut session.cluster);

    // Window loop: step (advance + audit-drain), snapshot, churn.
    let mut windowed = WindowedReport::new(&plan.label, cfg.window.as_nanos());
    let mut evictions_attempted = 0u64;
    let mut evictions_ok = 0u64;
    for w in 1..=cfg.windows {
        let boundary = session.step(1).expect("check_knobs bounded the horizon");
        let mut slice = session.cluster.snapshot_merged();
        slice.push_counter("window.index", w as u64);
        slice.push_counter("window.end_ns", boundary.as_nanos());
        slice.sort();
        windowed.push_slice(boundary.as_nanos(), slice);
        if cfg.evict_per_window > 0 && qps > 0 && w < cfg.windows {
            for j in 0..cfg.evict_per_window {
                let qp = QpId((((w - 1) * cfg.evict_per_window + j) as u32) % qps);
                evictions_attempted += 1;
                if evict_qp(&mut session.cluster, qp) {
                    evictions_ok += 1;
                }
            }
        }
    }
    let cluster = &session.cluster;

    let evictions_deferred = cluster.themis_stats().evictions_deferred;

    // Oracle: full invariant set over the accumulated tally.
    let sim_end = cluster.world.now();
    let quiesced = sim_end < cfg.horizon();
    let mut ocfg = OracleConfig::for_scheme(cfg.scheme).without_rto_bound();
    ocfg.expect_complete = cfg.require_complete;
    ocfg.quiesced = quiesced;
    if cfg.require_complete {
        ocfg.expected_bytes = Some(plan.total_schedule_bytes());
    }
    let oreport = oracle::audit_with_tally(cluster, &ocfg, session.drops());

    // FCT + fairness from the driver's per-instance bookkeeping.
    let driver = driver_of(cluster);
    let mut fcts: Vec<u64> = Vec::new();
    let mut tenant_bytes = vec![0u64; cfg.spec.n_tenants];
    let mut jobs_started = 0usize;
    let mut jobs_completed = 0usize;
    for (i, job) in plan.jobs.iter().enumerate() {
        if driver.start_of(i).is_some() {
            jobs_started += 1;
        }
        if let Some(f) = driver.fct_of(i) {
            jobs_completed += 1;
            fcts.push(f.as_nanos());
            tenant_bytes[job.tenant] += job.bytes;
        }
    }
    fcts.sort_unstable();
    let pct = |p: f64| -> Option<TimeDelta> {
        if fcts.is_empty() {
            None
        } else {
            let idx = ((fcts.len() - 1) as f64 * p).round() as usize;
            Some(TimeDelta::from_nanos(fcts[idx]))
        }
    };
    let (fct_p50, fct_p90, fct_p99) = (pct(0.5), pct(0.9), pct(0.99));
    let active: Vec<f64> = tenant_bytes
        .iter()
        .filter(|&&b| b > 0)
        .map(|&b| b as f64)
        .collect();
    let fairness_jain = if active.is_empty() {
        None
    } else {
        let s: f64 = active.iter().sum();
        let s2: f64 = active.iter().map(|x| x * x).sum();
        Some(s * s / (active.len() as f64 * s2))
    };

    // Final telemetry: last cumulative state plus run-level exports.
    let events = cluster.world.engine.dispatched();
    let mut fin = snapshot_with_run_counters(cluster);
    fin.push_counter("load.jobs_total", plan.jobs.len() as u64);
    fin.push_counter("load.jobs_started", jobs_started as u64);
    fin.push_counter("load.jobs_completed", jobs_completed as u64);
    fin.push_counter("load.qps", qps as u64);
    fin.push_counter("load.evictions_attempted", evictions_attempted);
    fin.push_counter("load.evictions_deferred", evictions_deferred);
    fin.push_counter("load.evictions_ok", evictions_ok);
    fin.push_counter("load.windows", cfg.windows as u64);
    fin.push_gauge(
        "load.fct_p50_us",
        fct_p50.map_or(-1.0, |d| d.as_micros_f64()),
    );
    fin.push_gauge(
        "load.fct_p99_us",
        fct_p99.map_or(-1.0, |d| d.as_micros_f64()),
    );
    fin.push_gauge("load.fairness_jain", fairness_jain.unwrap_or(-1.0));
    fin.sort();

    let report = LoadReport {
        scheme: cfg.scheme,
        label: plan.label.clone(),
        jobs_total: plan.jobs.len(),
        jobs_started,
        jobs_completed,
        qps,
        fct_p50,
        fct_p90,
        fct_p99,
        fairness_jain,
        evictions_attempted,
        evictions_ok,
        evictions_deferred,
        events,
        sim_end,
        windowed,
        final_telemetry: fin,
        oracle: oreport,
    };
    Ok((report, session.cluster))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_horizon_past_the_end_of_time_is_invalid_config_not_a_wrapped_clock() {
        let mut cfg = LoadConfig::small(Scheme::Themis, 1);
        cfg.window = TimeDelta::from_nanos(u64::MAX / 2);
        cfg.windows = 3;
        assert!(cfg.validate().is_err());
        assert!(run_open_loop(&cfg).is_err());
        assert_eq!(cfg.horizon(), Nanos::MAX);
        cfg.windows = 2;
        assert_eq!(cfg.horizon(), Nanos(u64::MAX - 1));
        assert!(cfg.validate().is_ok());
    }
}

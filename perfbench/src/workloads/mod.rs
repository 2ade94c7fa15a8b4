//! The five benchmark workloads.
//!
//! Every workload is generated from `--seed`; the program under test
//! sees only the generated configs, plans and request scripts. Each one
//! offers three ways to run the same input:
//!
//! * [`Workload::setup_only`] — the build + provisioning path alone
//!   (what `setup_s` times);
//! * [`Workload::run_entry`] — one call of the repo's real entry point
//!   (what `run_s` times);
//! * [`Workload::run_composed`] — the same run composed from the public
//!   pieces with a span around each call into a layer (the traced pass).
//!   It must dispatch exactly the events and deliver exactly the bytes
//!   of the entry-point run.

pub mod batch;
pub mod openloop;
pub mod serve;

use crate::spans::Tracer;
use std::collections::BTreeMap;
use themis_harness::experiment::aggregate_nics;
use themis_harness::Cluster;

/// Why each workload is in the benchmark, by name (also the `why` of
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ring8_spray",
        "8 hosts, 2 hops, no ToR hook: simcore+rnic dominate and core does nothing; bypass for core/fat-tree changes",
    ),
    (
        "alltoall256_themis",
        "paper Fig 5b fabric, 3840 short flows: Themis-S spray and Themis-D push on every packet, large event population",
    ),
    (
        "allreduce256_lossy",
        "same fabric, long ring flows, 1000 ppm uplink loss: Themis-D verdict/compensation, NIC retransmit and RTO paths",
    ),
    (
        "openloop1024",
        "k=16 fat tree, 1200 Poisson/websearch jobs, 12 windows: fat-tree build, QP provisioning, per-window snapshot+drain",
    ),
    (
        "serve_session",
        "socket service session, snapshot and restore: JSON, framing and journal dominate; bypass for simulator-core changes",
    ),
];

/// Operations attempted and the failed ones, one line each: transfers,
/// jobs or requests, plus one per check on the outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; a failed one is counted and described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// `completed` of `total` operations of one kind succeeded.
    pub fn count(&mut self, total: usize, completed: usize, what: &str) {
        self.attempted += total as u64;
        for _ in completed..total {
            self.failures.push(what.to_string());
        }
    }

    /// Add the checks of `other`, its failures prefixed with `what`.
    pub fn absorb(&mut self, what: &str, other: &Checks) {
        self.attempted += other.attempted;
        self.failures
            .extend(other.failures.iter().map(|f| format!("{what}: {f}")));
    }
}

/// What one run of a workload observed, apart from wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// Exact per-layer counts under their metric names. The simulator is
    /// deterministic, so these must repeat exactly across reps.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulator events dispatched (0 where the entry point hides it).
    pub events: u64,
    /// Application payload bytes delivered in order.
    pub delivered_bytes: u64,
    /// The run's output document; must be byte-identical between reps,
    /// between the entry-point and the composed run, and between a
    /// serial and a sharded run.
    pub fingerprint: String,
    /// Operations attempted and failed.
    pub checks: Checks,
}

impl Facts {
    /// Record one check on this run's outputs.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks.check(ok, what);
    }

    /// Set an exact count.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.counts.insert(name, value as f64);
    }
}

/// One benchmark workload with its generated input.
pub trait Workload {
    /// Application payload bytes one run delivers when every operation
    /// succeeds.
    fn payload_bytes(&self) -> u64;

    /// Build the fabric and provision QPs, then drop the result.
    /// Returns the wall seconds until the first event could run.
    fn setup_only(&self) -> f64;

    /// One call of the real entry point: its wall seconds alone, and
    /// what the run observed (gathered after the clock stopped).
    fn run_entry(&self) -> (f64, Facts);

    /// The entry point again on `min(nproc, 4)` engine shards, where the
    /// workload has a sharded mode worth tracking.
    fn run_sharded(&self) -> Option<(f64, Facts)> {
        None
    }

    /// The same run composed from public pieces, a span around each.
    fn run_composed(&self, tracer: &Tracer) -> Facts;

    /// Spans of the composed run that the entry point does not execute
    /// (extra audits and encodes); excluded from the tracing-overhead
    /// comparison.
    fn extra_spans(&self) -> &'static [&'static str];

    /// Per-layer metrics this workload cannot measure: the layer is not
    /// on its path, or the entry point's public surface does not show
    /// the count. They are reported as an explicit 0; any other declared
    /// metric the traced pass leaves unset fails the run.
    fn not_applicable(&self) -> Vec<&'static str>;
}

/// The per-request service metrics: only `serve_session` has requests.
pub const SERVICE_METRICS: [&str; 20] = [
    "harness.service.start_s",
    "harness.service.ops_per_s",
    "harness.service.op_p50_ms",
    "harness.service.op_p99_ms",
    "harness.service.op_samples",
    "harness.service.restore_s",
    "harness.service.restore_us_per_op",
    "harness.service.handle_s",
    "harness.service.wire_s",
    "harness.service.create_qp_p50_us",
    "harness.service.post_send_p50_us",
    "harness.service.advance_p50_us",
    "harness.service.poll_cq_p50_us",
    "harness.service.telemetry_p50_us",
    "harness.service.snapshot_p50_us",
    "harness.service.journal_ops",
    "harness.service.snapshot_bytes",
    "harness.service.reply_bytes",
    "harness.json.parse_s",
    "harness.json.encode_s",
];

/// Build workload `name` from `seed`; `scratch` is a short directory
/// path inside the checkout for socket files.
pub fn build(name: &str, seed: u64, scratch: &std::path::Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ring8_spray" => Box::new(batch::Batch::ring8_spray(seed)),
        "alltoall256_themis" => Box::new(batch::Batch::alltoall256_themis(seed)),
        "allreduce256_lossy" => Box::new(batch::Batch::allreduce256_lossy(seed)),
        "openloop1024" => Box::new(openloop::OpenLoop::k16(seed)),
        "serve_session" => Box::new(serve::ServeSession::new(seed, scratch)),
        _ => return None,
    })
}

/// Per-layer counts every cluster-backed workload reads off the final
/// cluster: switch, Themis and NIC totals.
pub fn cluster_counts(cluster: &Cluster, facts: &mut Facts) {
    let fabric = netsim::trace::fabric_summary(&cluster.world, &cluster.all_switches());
    facts.set("netsim.switch_rx_pkts", fabric.rx_packets);
    facts.set("netsim.drops_buffer", fabric.drops_buffer);
    facts.set("netsim.drops_targeted", fabric.drops_targeted);
    facts.set("netsim.ecn_marked", fabric.ecn_marked);

    let themis = cluster.themis_stats();
    facts.set("core.sprayed", themis.sprayed);
    facts.set("core.nacks_seen", themis.nacks_seen);
    facts.set("core.nacks_blocked", themis.nacks_blocked);
    facts.set("core.nacks_valid", themis.nacks_forwarded_valid);
    facts.set("core.nacks_compensated", themis.compensations);
    facts.set("core.tor_state_bytes", themis.memory_bytes);

    let nics = aggregate_nics(cluster);
    facts.set("rnic.data_pkts", nics.data_packets);
    facts.set("rnic.retx_pkts", nics.retx_packets);
    facts.set("rnic.nacks_issued", nics.nacks_sent);
    facts.set("rnic.rto_fired", nics.rto_fires);
    facts.delivered_bytes = nics.bytes_delivered;
}

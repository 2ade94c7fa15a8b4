//! The three batch workloads: one collective on a leaf-spine fabric
//! through `run_collective_with_faults`, audited by the oracle.

use super::{cluster_counts, Facts, Workload};
use crate::spans::Tracer;
use collectives::driver::{setup_collective, Driver, QpAllocator, START_TOKEN};
use collectives::groups::all_groups;
use netsim::event::Event;
use simcore::time::Nanos;
use std::time::Instant;
use themis_harness::experiment::{driver_of, MSG_LATENCY_BINS, MSG_LATENCY_BIN_NS};
use themis_harness::faults::{Fault, FaultEvent, FaultPlan};
use themis_harness::oracle::{self, OracleConfig};
use themis_harness::{
    build_cluster_sharded, expected_delivered_bytes, run_collective_with_faults, Cluster,
    Collective, ExperimentConfig, Scheme,
};

/// A batch workload: config, collective, size, fault plan and the
/// oracle's expectations for it.
pub struct Batch {
    cfg: ExperimentConfig,
    collective: Collective,
    bytes: u64,
    plan: FaultPlan,
    oracle: OracleConfig,
}

impl Batch {
    fn new(
        mut cfg: ExperimentConfig,
        collective: Collective,
        bytes: u64,
        plan: FaultPlan,
        oracle: OracleConfig,
    ) -> Batch {
        // The constructors read THEMIS_SHARDS; the benchmark input must
        // not depend on the environment.
        cfg.shards = 1;
        let expected = expected_delivered_bytes(&cfg, collective, bytes);
        Batch {
            oracle: oracle.with_expected_bytes(expected),
            cfg,
            collective,
            bytes,
            plan,
        }
    }

    /// `RingOnce` 64 MB with random spraying on the 8-host motivation
    /// fabric. Unfiltered spraying makes the NICs retransmit spuriously
    /// (the paper's motivation), so the oracle's spurious-retransmission
    /// and RTO bounds do not apply; delivery, conservation and
    /// accounting still do.
    pub fn ring8_spray(seed: u64) -> Batch {
        let mut oracle = OracleConfig::for_scheme(Scheme::RandomSpray).without_rto_bound();
        oracle.max_spurious_retx_ratio = 1.0;
        Batch::new(
            ExperimentConfig::motivation_small(Scheme::RandomSpray, seed),
            Collective::RingOnce,
            64 << 20,
            FaultPlan::none(),
            oracle,
        )
    }

    /// `Alltoall` 2 MB/group under Themis on the 16×16 400 G fabric.
    pub fn alltoall256_themis(seed: u64) -> Batch {
        Batch::new(
            ExperimentConfig::paper_eval(Scheme::Themis, 900, 4, seed),
            Collective::Alltoall,
            2 << 20,
            FaultPlan::none(),
            OracleConfig::for_scheme(Scheme::Themis),
        )
    }

    /// Ring `Allreduce` 2 MB/group on the same fabric with 1000 ppm
    /// random loss on every leaf uplink from t = 0.
    pub fn allreduce256_lossy(seed: u64) -> Batch {
        let cfg = ExperimentConfig::paper_eval(Scheme::Themis, 900, 4, seed);
        let mut plan = FaultPlan::none();
        for leaf in 0..cfg.fabric.n_leaves as u16 {
            for uplink in 0..cfg.fabric.n_spines as u16 {
                plan.events.push(FaultEvent {
                    at: Nanos::ZERO,
                    fault: Fault::UplinkLoss {
                        leaf,
                        uplink,
                        rate_ppm: 1000,
                    },
                });
            }
        }
        Batch::new(
            cfg,
            Collective::Allreduce,
            2 << 20,
            plan,
            OracleConfig::for_scheme(Scheme::Themis).without_rto_bound(),
        )
    }

    /// Build the cluster, provision every group's QPs, install the
    /// driver and the fault plan: everything `run_collective_with_faults`
    /// does before its first event can run, from the same public pieces.
    fn compose(&self, t: &Tracer) -> Cluster {
        let cfg = &self.cfg;
        let mut cluster = t.span("netsim.build", || {
            build_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards)
        });
        let mut driver = Driver::new();
        t.span("collectives.provision", || {
            let mut alloc = QpAllocator::new(cfg.seed ^ 0xC0_11EC);
            for hosts in &all_groups(cfg.fabric.n_leaves, cfg.fabric.hosts_per_leaf) {
                let schedule = self.collective.schedule(hosts.len(), self.bytes);
                let spec = setup_collective(
                    &mut cluster.world,
                    cluster.driver,
                    hosts,
                    schedule,
                    &mut alloc,
                );
                driver.add_instance(spec);
            }
        });
        t.span("harness.install", || {
            attach_driver_telemetry(&mut driver, &cluster);
            cluster.world.install(cluster.driver, Box::new(driver));
            cluster.world.seed_event(
                Nanos::ZERO,
                cluster.driver,
                Event::Timer { token: START_TOKEN },
            );
            self.plan.install(&mut cluster);
        });
        cluster
    }

    /// Counts and checks shared by the entry-point and composed runs.
    fn facts(&self, cluster: &Cluster, violations: &[oracle::Violation]) -> Facts {
        let mut facts = Facts::default();
        cluster_counts(cluster, &mut facts);
        let snapshot = cluster.snapshot_merged();
        facts.set(
            "rnic.rate_cuts",
            snapshot.counter("rnic.rate_cuts").unwrap_or(0),
        );
        facts.fingerprint = encode(snapshot);
        facts.events = cluster.world.engine.dispatched();

        let driver = driver_of(cluster);
        let groups = driver.completions();
        facts.set("collectives.jobs", groups.len() as u64);
        let qps: usize = cluster
            .hosts
            .iter()
            .map(|&h| cluster.nic(h).send_qps().len())
            .sum();
        facts.set("collectives.qps", qps as u64);
        for (g, done) in groups.iter().enumerate() {
            facts.check(done.is_some(), || {
                format!("group {g} did not complete before the horizon")
            });
        }
        let start = driver.started_at().unwrap_or(Nanos::ZERO);
        let tail_us = driver
            .tail_completion()
            .map_or(0.0, |t| t.since(start).as_micros_f64());
        facts.counts.insert("sim.tail_ct_us", tail_us);
        facts.check(violations.is_empty(), || {
            format!(
                "oracle: {}",
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        });
        facts
    }
}

/// What `themis_harness::experiment::attach_driver_telemetry` does
/// (crate-private there): register the transfer-latency histogram on
/// every shard sink and point the driver at shard 0's.
pub(super) fn attach_driver_telemetry(driver: &mut Driver, cluster: &Cluster) {
    let mut hist = None;
    for sink in &cluster.sinks {
        let id = sink.time_hist(
            "collective.msg_latency",
            MSG_LATENCY_BIN_NS,
            MSG_LATENCY_BINS,
        );
        hist.get_or_insert(id);
    }
    driver.set_telemetry(
        cluster.telemetry.clone(),
        hist.expect("a cluster has at least one sink"),
    );
}

/// The `themis-telemetry` document of one run's snapshot.
fn encode(snapshot: telemetry::RunReport) -> String {
    let mut report = telemetry::Report::new();
    report.add_run("run", snapshot);
    report.to_json()
}

impl Workload for Batch {
    fn payload_bytes(&self) -> u64 {
        expected_delivered_bytes(&self.cfg, self.collective, self.bytes)
    }

    fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        let cluster = self.compose(&Tracer::off());
        let secs = t0.elapsed().as_secs_f64();
        drop(cluster);
        secs
    }

    fn run_entry(&self) -> (f64, Facts) {
        let t0 = Instant::now();
        let (_result, cluster) =
            run_collective_with_faults(&self.cfg, self.collective, self.bytes, &self.plan);
        let secs = t0.elapsed().as_secs_f64();
        let violations = oracle::check(&cluster, &self.oracle);
        (secs, self.facts(&cluster, &violations))
    }

    fn run_composed(&self, t: &Tracer) -> Facts {
        let mut cluster = self.compose(t);
        t.span("netsim.run_until", || {
            cluster.world.run_until(self.cfg.horizon)
        });
        // The entry point's `collect_result`: entity-stat aggregates
        // plus one merged telemetry snapshot.
        t.span("harness.collect", || {
            let mut probe = Facts::default();
            cluster_counts(&cluster, &mut probe);
            std::hint::black_box(probe);
        });
        let snapshot = t.span("telemetry.snapshot", || cluster.snapshot_merged());
        let violations = t.span("harness.audit", || oracle::check(&cluster, &self.oracle));
        let doc = t.span("telemetry.encode", || encode(snapshot));
        let mut facts = t.span("bench.facts", || self.facts(&cluster, &violations));
        facts.set("telemetry.doc_bytes", doc.len() as u64);
        facts
    }

    fn extra_spans(&self) -> &'static [&'static str] {
        &["harness.audit", "telemetry.encode", "bench.facts"]
    }

    /// One serial run in one window: no sharded run, no evictions, no
    /// load sampling, no drop-log drain, no per-job completion times, no
    /// service.
    fn not_applicable(&self) -> Vec<&'static str> {
        let mut names = super::SERVICE_METRICS.to_vec();
        names.extend([
            "netsim.run_sharded_s",
            "netsim.shard_speedup",
            "netsim.shard_identical",
            "core.evict_s",
            "collectives.sample_load_s",
            "harness.drain_s",
            "sim.fct_p99_us",
        ]);
        names
    }
}

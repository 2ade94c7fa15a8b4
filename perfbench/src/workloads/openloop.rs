//! `openloop1024`: the open-loop multi-tenant load engine on a k=16 fat
//! tree through `run_open_loop`.

use super::batch::attach_driver_telemetry;
use super::{cluster_counts, Facts, Workload};
use crate::spans::Tracer;
use collectives::driver::{setup_collective, Driver, QpAllocator, JOB_TOKEN_BASE};
use collectives::open_loop::{sample_load, LoadPlan};
use netsim::event::Event;
use netsim::switch::Switch;
use netsim::types::{HostId, QpId};
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use std::time::Instant;
use telemetry::WindowedReport;
use themis_core::ThemisMiddleware;
use themis_harness::experiment::driver_of;
use themis_harness::oracle::{self, DropTally, OracleConfig};
use themis_harness::{
    build_fat_tree_cluster_sharded, run_open_loop, Cluster, LoadConfig, LoadReport, Scheme,
};

/// The open-loop workload and its pre-sampled plan (the plan is only
/// used to know the payload; the entry point samples its own).
pub struct OpenLoop {
    cfg: LoadConfig,
    plan: LoadPlan,
}

const JOB_INCOMPLETE: &str = "a job did not complete before the horizon";

/// Shards of the one sharded run (`min(nproc, 4)`, at least 2 so the
/// sharded engine runs at all).
pub fn shard_count() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 4)
}

impl OpenLoop {
    /// 1 200 jobs of 200 tenants, Poisson arrivals, websearch sizes, an
    /// incast every 16th job, 12 windows × 4 ms, 32 guarded evictions
    /// per window, on 1 024 hosts.
    pub fn k16(seed: u64) -> OpenLoop {
        let mut cfg = LoadConfig::k16_acceptance(Scheme::Themis, seed);
        cfg.spec.incast_every = 16;
        let plan = sample_load(&cfg.spec, cfg.seed);
        OpenLoop { cfg, plan }
    }

    /// `run_open_loop` on `shards` engine shards: its wall seconds and
    /// what it observed. The fingerprint is the windowed document.
    fn run_on(&self, shards: usize) -> (f64, Facts) {
        let mut cfg = self.cfg.clone();
        cfg.shards = shards;
        let t0 = Instant::now();
        let (report, cluster) = run_open_loop(&cfg).expect("the generated config is valid");
        let secs = t0.elapsed().as_secs_f64();
        (secs, self.facts(&report, &cluster))
    }

    fn facts(&self, report: &LoadReport, cluster: &Cluster) -> Facts {
        let mut facts = Facts::default();
        cluster_counts(cluster, &mut facts);
        facts.events = report.events;
        facts.fingerprint = report.windowed.to_json();
        facts.set(
            "rnic.rate_cuts",
            report
                .final_telemetry
                .counter("rnic.rate_cuts")
                .unwrap_or(0),
        );
        facts.set("collectives.jobs", report.jobs_total as u64);
        facts.set("collectives.qps", report.qps as u64);
        facts.counts.insert(
            "sim.fct_p99_us",
            report.fct_p99.map_or(0.0, |d| d.as_micros_f64()),
        );
        facts
            .checks
            .count(report.jobs_total, report.jobs_completed, JOB_INCOMPLETE);
        facts.check(report.violations().is_empty(), || {
            format!(
                "oracle: {}",
                report
                    .violations()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        });
        facts
    }

    /// Build the fat tree and wire every job as a deferred instance, as
    /// `run_open_loop` does before its first window.
    fn compose(&self, t: &Tracer) -> (Cluster, LoadPlan, u32) {
        let cfg = &self.cfg;
        let mut cluster = t.span("netsim.build", || {
            build_fat_tree_cluster_sharded(&cfg.fabric, cfg.nic, cfg.scheme, cfg.shards)
        });
        let plan = t.span("collectives.sample_load", || {
            sample_load(&cfg.spec, cfg.seed)
        });
        let mut driver = Driver::new();
        let qps = t.span("collectives.provision", || {
            let n_hosts = cluster.hosts.len();
            let mut place_rng = Xoshiro256::seeded(cfg.seed ^ 0x905E_7AB1);
            let mut alloc = QpAllocator::new(cfg.seed ^ 0xC0_11EC);
            for job in &plan.jobs {
                let hosts = pick_hosts(&mut place_rng, n_hosts, job.ranks);
                let spec = setup_collective(
                    &mut cluster.world,
                    cluster.driver,
                    &hosts,
                    job.schedule(),
                    &mut alloc,
                );
                let idx = driver.add_instance_deferred(spec);
                cluster.world.seed_event(
                    job.arrival,
                    cluster.driver,
                    Event::Timer {
                        token: JOB_TOKEN_BASE + idx as u64,
                    },
                );
            }
            alloc.allocated()
        });
        t.span("harness.install", || {
            attach_driver_telemetry(&mut driver, &cluster);
            cluster.world.install(cluster.driver, Box::new(driver));
            cfg.faults.install(&mut cluster);
        });
        (cluster, plan, qps)
    }
}

/// `ranks` distinct hosts by rejection sampling, as `harness::load` does.
fn pick_hosts(rng: &mut Xoshiro256, n_hosts: usize, ranks: usize) -> Vec<HostId> {
    let mut chosen: Vec<HostId> = Vec::with_capacity(ranks);
    while chosen.len() < ranks {
        let h = rng.next_index(n_hosts) as u32;
        if !chosen.iter().any(|c| c.0 == h) {
            chosen.push(HostId(h));
        }
    }
    chosen
}

/// One guarded `evict_flow(qp)` on every Themis-D edge.
fn evict_qp(cluster: &mut Cluster, qp: QpId) {
    for leaf in cluster.leaves.clone() {
        let themis_d = cluster
            .world
            .get_mut::<Switch>(leaf)
            .and_then(Switch::hook_mut)
            .and_then(|hook| hook.as_any_mut().downcast_mut::<ThemisMiddleware>())
            .and_then(|m| m.d.as_mut());
        if let Some(d) = themis_d {
            d.evict_flow(qp);
        }
    }
}

impl Workload for OpenLoop {
    fn payload_bytes(&self) -> u64 {
        self.plan.total_schedule_bytes()
    }

    fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        let built = self.compose(&Tracer::off());
        let secs = t0.elapsed().as_secs_f64();
        drop(built);
        secs
    }

    fn run_entry(&self) -> (f64, Facts) {
        self.run_on(1)
    }

    fn run_sharded(&self) -> Option<(f64, Facts)> {
        Some(self.run_on(shard_count()))
    }

    fn run_composed(&self, t: &Tracer) -> Facts {
        let cfg = &self.cfg;
        let (mut cluster, plan, qps) = self.compose(t);
        let mut tally = DropTally::default();
        let mut windowed = WindowedReport::new(&plan.label, cfg.window.as_nanos());
        for w in 1..=cfg.windows {
            let boundary = Nanos(cfg.window.as_nanos() * w as u64);
            t.span("netsim.run_until", || cluster.world.run_until(boundary));
            t.span("harness.drain", || tally.drain_window(&mut cluster));
            t.span("telemetry.snapshot", || {
                let mut slice = cluster.snapshot_merged();
                slice.push_counter("window.index", w as u64);
                slice.push_counter("window.end_ns", boundary.as_nanos());
                slice.sort();
                windowed.push_slice(boundary.as_nanos(), slice);
            });
            if w < cfg.windows {
                t.span("core.evict", || {
                    for j in 0..cfg.evict_per_window {
                        let qp = QpId((((w - 1) * cfg.evict_per_window + j) as u32) % qps);
                        evict_qp(&mut cluster, qp);
                    }
                });
            }
        }
        let audit = t.span("harness.audit", || {
            let mut ocfg = OracleConfig::for_scheme(cfg.scheme).without_rto_bound();
            ocfg.expect_complete = cfg.require_complete;
            ocfg.quiesced = cluster.world.now() < cfg.horizon();
            ocfg.expected_bytes = Some(plan.total_schedule_bytes());
            oracle::audit_with_tally(&cluster, &ocfg, &tally)
        });
        let (completed, fct_p99_us, rate_cuts) = t.span("harness.collect", || {
            let driver = driver_of(&cluster);
            let mut fcts: Vec<u64> = (0..plan.jobs.len())
                .filter_map(|i| driver.fct_of(i))
                .map(|f| f.as_nanos())
                .collect();
            fcts.sort_unstable();
            let p99 = if fcts.is_empty() {
                0.0
            } else {
                fcts[((fcts.len() - 1) as f64 * 0.99).round() as usize] as f64 / 1e3
            };
            let rate_cuts = cluster
                .snapshot_merged()
                .counter("rnic.rate_cuts")
                .unwrap_or(0);
            (fcts.len(), p99, rate_cuts)
        });
        let doc = t.span("telemetry.encode", || windowed.to_json());

        let mut facts = Facts::default();
        t.span("bench.facts", || cluster_counts(&cluster, &mut facts));
        facts.events = cluster.world.engine.dispatched();
        facts.set("rnic.rate_cuts", rate_cuts);
        facts.set("collectives.jobs", plan.jobs.len() as u64);
        facts.set("collectives.qps", qps as u64);
        facts.counts.insert("sim.fct_p99_us", fct_p99_us);
        facts.set("telemetry.doc_bytes", doc.len() as u64);
        facts
            .checks
            .count(plan.jobs.len(), completed, JOB_INCOMPLETE);
        facts.check(audit.violations.is_empty(), || {
            format!("oracle: {} violation(s)", audit.violations.len())
        });
        facts.fingerprint = doc;
        facts
    }

    fn extra_spans(&self) -> &'static [&'static str] {
        &["telemetry.encode", "bench.facts"]
    }

    /// Jobs arrive and finish on their own clocks, so there is no tail
    /// completion time of one collective; no service.
    fn not_applicable(&self) -> Vec<&'static str> {
        let mut names = super::SERVICE_METRICS.to_vec();
        names.push("sim.tail_ct_us");
        names
    }
}

//! Open-loop, multi-tenant traffic generation.
//!
//! The paper evaluates Themis under closed-loop collectives only; a
//! production fabric instead sees *open-loop* load: tenant jobs arrive
//! on their own clock (Poisson or bursty), draw sizes from heavy-tailed
//! empirical flow-size CDFs (websearch/storage style), run a collective
//! or RPC exchange, and depart. This module samples such a load **ahead
//! of the run**, host-side, into a plain [`LoadPlan`] — a sorted list of
//! [`JobSpec`]s. Nothing here executes inside the simulation engine, so
//! floating-point sampling is safe for determinism: the same
//! `(spec, seed)` always yields the same plan, and the plan drives both
//! serial and sharded runs identically (one deferred driver instance per
//! job, started by a seeded per-job timer — see
//! [`crate::driver::JOB_TOKEN_BASE`]).

use crate::alltoall::{alltoall, incast};
use crate::ring::{ring_allreduce, ring_once};
use crate::schedule::{Schedule, Transfer};
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;

/// An empirical flow/job size CDF, sampled by inverse transform with
/// geometric interpolation between knots (sizes span decades, so linear
/// interpolation would put almost all mass near each knot's upper edge).
#[derive(Debug, Clone)]
pub struct FlowSizeCdf {
    name: &'static str,
    /// `(cumulative probability, bytes)` knots; strictly increasing in
    /// both coordinates, first probability 0.0, last 1.0.
    knots: Vec<(f64, u64)>,
}

impl FlowSizeCdf {
    fn new(name: &'static str, knots: Vec<(f64, u64)>) -> FlowSizeCdf {
        assert!(knots.len() >= 2, "need at least two CDF knots");
        assert_eq!(knots[0].0, 0.0, "CDF must start at p=0");
        assert_eq!(knots[knots.len() - 1].0, 1.0, "CDF must end at p=1");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "CDF knots must rise");
        }
        FlowSizeCdf { name, knots }
    }

    /// Web-search-style distribution (after the DCTCP workload): mostly
    /// short queries with a heavy tail of multi-megabyte responses.
    pub fn websearch() -> FlowSizeCdf {
        FlowSizeCdf::new(
            "websearch",
            vec![
                (0.0, 1 << 10),   // 1 KB
                (0.15, 10 << 10), // 10 KB
                (0.5, 100 << 10), // 100 KB
                (0.8, 1 << 20),   // 1 MB
                (0.95, 5 << 20),  // 5 MB
                (1.0, 30 << 20),  // 30 MB
            ],
        )
    }

    /// Storage/backup-style distribution: bimodal — small metadata ops
    /// plus large sequential reads, with an even heavier tail.
    pub fn storage() -> FlowSizeCdf {
        FlowSizeCdf::new(
            "storage",
            vec![
                (0.0, 4 << 10),   // 4 KB
                (0.3, 16 << 10),  // 16 KB
                (0.5, 256 << 10), // 256 KB
                (0.7, 4 << 20),   // 4 MB
                (0.9, 16 << 20),  // 16 MB
                (1.0, 64 << 20),  // 64 MB
            ],
        )
    }

    /// Uniform in `[lo, hi]` bytes — the degenerate control.
    pub fn uniform(lo: u64, hi: u64) -> FlowSizeCdf {
        assert!(0 < lo && lo < hi);
        FlowSizeCdf::new("uniform", vec![(0.0, lo), (1.0, hi)])
    }

    /// Every name [`FlowSizeCdf::parse`] accepts.
    pub const NAMES: [&'static str; 3] = ["websearch", "storage", "uniform"];

    /// Parse a CDF by name (one of [`FlowSizeCdf::NAMES`]).
    pub fn parse(s: &str) -> Option<FlowSizeCdf> {
        match s {
            "websearch" => Some(FlowSizeCdf::websearch()),
            "storage" => Some(FlowSizeCdf::storage()),
            "uniform" => Some(FlowSizeCdf::uniform(4 << 10, 1 << 20)),
            _ => None,
        }
    }

    /// The CDF's name (for labels).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Draw one size. Inverse transform: find the knot segment holding
    /// `u`, then interpolate geometrically within it.
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        let u = rng.next_f64();
        let seg = self
            .knots
            .windows(2)
            .find(|w| u < w[1].0)
            .unwrap_or_else(|| &self.knots[self.knots.len() - 2..]);
        let (p0, b0) = seg[0];
        let (p1, b1) = seg[1];
        let t = (u - p0) / (p1 - p0);
        let bytes = (b0 as f64) * ((b1 as f64) / (b0 as f64)).powf(t);
        (bytes as u64).clamp(b0, b1)
    }
}

/// The job arrival process. Both are *open loop*: arrival times do not
/// depend on job completions.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Memoryless arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: Nanos,
    },
    /// Markov-modulated on/off bursts: inside a burst, gaps shrink by
    /// `factor`; a burst ends with probability `1/burst_len` per job.
    Bursty {
        /// Mean inter-arrival gap outside bursts.
        mean_gap: Nanos,
        /// Expected number of jobs per burst (≥ 1).
        burst_len: u64,
        /// Gap compression inside a burst (≥ 1).
        factor: u64,
    },
}

impl Arrival {
    fn label(&self) -> &'static str {
        match self {
            Arrival::Poisson { .. } => "poisson",
            Arrival::Bursty { .. } => "bursty",
        }
    }
}

/// What a job does once it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One trip around a ring (pipeline-friendly baseline).
    Ring,
    /// Ring allreduce (the dependency-heavy collective).
    Allreduce,
    /// Full-mesh exchange (the paper's QP-count stressor).
    Alltoall,
    /// Scatter/gather RPC: rank 0 fans requests out, every peer answers
    /// (the response depends on its request).
    Rpc,
    /// All non-root ranks send to rank 0 simultaneously — the storm.
    Incast,
}

impl JobKind {
    /// Build this job's transfer schedule over `ranks` ranks moving
    /// `bytes` total.
    pub fn schedule(&self, ranks: usize, bytes: u64) -> Schedule {
        assert!(ranks >= 2, "jobs need at least two ranks");
        match self {
            JobKind::Ring => ring_once(ranks, (bytes / ranks as u64).max(1)),
            JobKind::Allreduce => ring_allreduce(ranks, bytes.max(ranks as u64)),
            JobKind::Alltoall => alltoall(ranks, bytes.max((ranks * ranks) as u64)),
            JobKind::Rpc => rpc(ranks, bytes),
            JobKind::Incast => incast(ranks, (bytes / (ranks as u64 - 1)).max(1)),
        }
    }
}

/// Scatter/gather RPC schedule: transfer `i-1` is the request `0 → i`,
/// transfer `ranks-1 + (i-1)` is the response `i → 0` depending on it.
/// Requests carry 1/4 of the byte budget, responses 3/4.
pub fn rpc(ranks: usize, bytes: u64) -> Schedule {
    assert!(ranks >= 2);
    let peers = (ranks - 1) as u64;
    let req = (bytes / 4 / peers).max(1);
    let resp = (bytes * 3 / 4 / peers).max(1);
    let mut transfers = Vec::with_capacity(2 * (ranks - 1));
    for i in 1..ranks {
        transfers.push(Transfer {
            src: 0,
            dst: i,
            bytes: req,
            deps: vec![],
        });
    }
    for i in 1..ranks {
        transfers.push(Transfer {
            src: i,
            dst: 0,
            bytes: resp,
            deps: vec![i - 1],
        });
    }
    Schedule {
        name: "rpc",
        n_ranks: ranks,
        transfers,
    }
}

/// One sampled tenant job: arrives at `arrival`, runs `kind` over
/// `ranks` ranks moving `bytes` total, departs on completion.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Owning tenant (0-based).
    pub tenant: usize,
    /// Absolute arrival time.
    pub arrival: Nanos,
    /// The exchange pattern.
    pub kind: JobKind,
    /// Number of participating ranks.
    pub ranks: usize,
    /// Total bytes the job moves.
    pub bytes: u64,
}

impl JobSpec {
    /// This job's transfer schedule.
    pub fn schedule(&self) -> Schedule {
        self.kind.schedule(self.ranks, self.bytes)
    }
}

/// Parameters of an open-loop load sample.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Number of jobs to sample.
    pub n_jobs: usize,
    /// Number of distinct tenants jobs are spread across.
    pub n_tenants: usize,
    /// The arrival process.
    pub arrival: Arrival,
    /// Flow/job size distribution.
    pub cdf: FlowSizeCdf,
    /// Minimum ranks per job (≥ 2).
    pub min_ranks: usize,
    /// Maximum ranks per job (inclusive).
    pub max_ranks: usize,
    /// Every `incast_every`-th job is an incast storm (0 = never).
    pub incast_every: usize,
    /// Fan-in of incast storms (ranks; ≥ 2).
    pub incast_fanin: usize,
    /// Clamp sampled job sizes to this many bytes (tail control so test
    /// budgets stay bounded; 0 = no clamp).
    pub max_bytes: u64,
}

impl OpenLoopSpec {
    /// A small default mix: Poisson arrivals, websearch sizes clamped to
    /// 256 KB, 2–4 ranks, an incast storm every 16th job.
    pub fn small(n_jobs: usize, n_tenants: usize, mean_gap: Nanos) -> OpenLoopSpec {
        OpenLoopSpec {
            n_jobs,
            n_tenants,
            arrival: Arrival::Poisson { mean_gap },
            cdf: FlowSizeCdf::websearch(),
            min_ranks: 2,
            max_ranks: 4,
            incast_every: 16,
            incast_fanin: 6,
            max_bytes: 256 << 10,
        }
    }
}

/// A fully sampled load: jobs sorted by arrival time.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The jobs, sorted by `(arrival, index)`.
    pub jobs: Vec<JobSpec>,
    /// Label summarizing the generator (for reports).
    pub label: String,
}

impl LoadPlan {
    /// Total bytes across all jobs' schedules (wire bytes, pre-loss).
    pub fn total_schedule_bytes(&self) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.schedule().total_wire_bytes())
            .sum()
    }
}

/// Sample a load plan. Pure: same `(spec, seed)` ⇒ same plan, byte for
/// byte, regardless of fabric or shard count.
pub fn sample_load(spec: &OpenLoopSpec, seed: u64) -> LoadPlan {
    assert!(spec.n_jobs > 0 && spec.n_tenants > 0);
    assert!(2 <= spec.min_ranks && spec.min_ranks <= spec.max_ranks);
    let mut rng = Xoshiro256::seeded(seed ^ 0x10AD_10AD);
    let mut t = Nanos::ZERO;
    let mut in_burst = false;
    let mut jobs = Vec::with_capacity(spec.n_jobs);
    for i in 0..spec.n_jobs {
        // Arrival gap.
        let gap_ns = match spec.arrival {
            Arrival::Poisson { mean_gap } => rng.next_exponential(mean_gap.as_nanos() as f64),
            Arrival::Bursty {
                mean_gap,
                burst_len,
                factor,
            } => {
                if in_burst {
                    if rng.next_below(burst_len.max(1)) == 0 {
                        in_burst = false;
                    }
                } else if rng.next_below(burst_len.max(2)) == 0 {
                    in_burst = true;
                }
                let mean = if in_burst {
                    (mean_gap.as_nanos() / factor.max(1)).max(1)
                } else {
                    mean_gap.as_nanos()
                };
                rng.next_exponential(mean as f64)
            }
        };
        t = Nanos(t.as_nanos() + (gap_ns as u64).max(1));

        let tenant = rng.next_index(spec.n_tenants);
        let storm = spec.incast_every > 0 && (i + 1) % spec.incast_every == 0;
        let (kind, ranks) = if storm {
            (JobKind::Incast, spec.incast_fanin.max(2))
        } else {
            let kind = match rng.next_below(4) {
                0 => JobKind::Ring,
                1 => JobKind::Allreduce,
                2 => JobKind::Alltoall,
                _ => JobKind::Rpc,
            };
            let ranks = spec.min_ranks + rng.next_index(spec.max_ranks - spec.min_ranks + 1);
            (kind, ranks)
        };
        let mut bytes = spec.cdf.sample(&mut rng);
        if spec.max_bytes > 0 {
            bytes = bytes.min(spec.max_bytes);
        }
        jobs.push(JobSpec {
            tenant,
            arrival: t,
            kind,
            ranks,
            bytes,
        });
    }
    LoadPlan {
        jobs,
        label: format!(
            "open_loop/{}/{}x{}t",
            spec.cdf.name(),
            spec.arrival.label(),
            spec.n_tenants
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cdf_name_parses_to_itself() {
        for name in FlowSizeCdf::NAMES {
            assert_eq!(FlowSizeCdf::parse(name).map(|c| c.name()), Some(name));
        }
        assert!(FlowSizeCdf::parse("Websearch").is_none());
    }

    #[test]
    fn cdf_samples_stay_within_knots() {
        let cdf = FlowSizeCdf::websearch();
        let mut rng = Xoshiro256::seeded(1);
        for _ in 0..10_000 {
            let b = cdf.sample(&mut rng);
            assert!((1 << 10..=30 << 20).contains(&b), "out of range: {b}");
        }
    }

    #[test]
    fn cdf_median_tracks_the_knot() {
        // websearch pins p=0.5 at 100 KB; the empirical median of many
        // samples must land in the same decade.
        let cdf = FlowSizeCdf::websearch();
        let mut rng = Xoshiro256::seeded(2);
        let mut v: Vec<u64> = (0..10_001).map(|_| cdf.sample(&mut rng)).collect();
        v.sort_unstable();
        let median = v[v.len() / 2];
        assert!(
            (50 << 10..200 << 10).contains(&median),
            "median {median} far from 100 KB knot"
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let spec = OpenLoopSpec::small(100, 8, Nanos::from_micros(50));
        let a = sample_load(&spec, 42);
        let b = sample_load(&spec, 42);
        assert_eq!(format!("{:?}", a.jobs), format!("{:?}", b.jobs));
        let c = sample_load(&spec, 43);
        assert_ne!(format!("{:?}", a.jobs), format!("{:?}", c.jobs));
    }

    #[test]
    fn arrivals_are_sorted_and_strictly_increasing() {
        let spec = OpenLoopSpec::small(500, 32, Nanos::from_micros(20));
        let plan = sample_load(&spec, 7);
        assert_eq!(plan.jobs.len(), 500);
        for w in plan.jobs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn incast_cadence_is_respected() {
        let spec = OpenLoopSpec::small(64, 8, Nanos::from_micros(50));
        let plan = sample_load(&spec, 9);
        let storms = plan
            .jobs
            .iter()
            .filter(|j| j.kind == JobKind::Incast)
            .count();
        assert_eq!(storms, 64 / 16);
    }

    #[test]
    fn bursty_arrivals_cluster_more_than_poisson() {
        let mean = Nanos::from_micros(100);
        let mk = |arrival| OpenLoopSpec {
            arrival,
            ..OpenLoopSpec::small(2000, 8, mean)
        };
        let gaps = |plan: &LoadPlan| -> Vec<u64> {
            plan.jobs
                .windows(2)
                .map(|w| w[1].arrival.as_nanos() - w[0].arrival.as_nanos())
                .collect()
        };
        let poisson = sample_load(&mk(Arrival::Poisson { mean_gap: mean }), 11);
        let bursty = sample_load(
            &mk(Arrival::Bursty {
                mean_gap: mean,
                burst_len: 8,
                factor: 10,
            }),
            11,
        );
        // Burstiness signature: far more sub-mean/10 gaps.
        let tiny = |g: &[u64]| g.iter().filter(|&&x| x < mean.as_nanos() / 10).count();
        assert!(
            tiny(&gaps(&bursty)) > 2 * tiny(&gaps(&poisson)),
            "bursty arrivals do not cluster"
        );
    }

    #[test]
    fn every_job_schedule_validates() {
        let mut spec = OpenLoopSpec::small(200, 16, Nanos::from_micros(30));
        spec.max_ranks = 6;
        let plan = sample_load(&spec, 3);
        for j in &plan.jobs {
            j.schedule().validate();
        }
        assert!(plan.total_schedule_bytes() > 0);
    }

    #[test]
    fn rpc_responses_depend_on_requests() {
        let s = rpc(4, 1 << 20);
        s.validate();
        assert_eq!(s.transfers.len(), 6);
        for i in 1..4 {
            let resp = &s.transfers[3 + (i - 1)];
            assert_eq!(resp.src, i);
            assert_eq!(resp.dst, 0);
            assert_eq!(resp.deps, vec![i - 1]);
        }
    }
}

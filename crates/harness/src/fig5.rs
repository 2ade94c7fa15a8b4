//! The §5 evaluation sweep (Figure 5).
//!
//! 16×16 leaf-spine at 400 Gbps, 16 groups × 16 NICs, Allreduce or
//! Alltoall per group, all groups simultaneous, metric = slowest group's
//! completion time. Swept over the five DCQCN `(T_I, T_D)` configurations
//! of the paper's x-axis for ECMP, Adaptive Routing and Themis.

use crate::experiment::{
    run_collective, run_fat_tree_rings, Collective, ExperimentConfig, ExperimentResult,
};
use crate::scheme::Scheme;
use crate::sweep::SweepRunner;
use netsim::fat_tree::FatTreeConfig;
use rnic::{CcConfig, NicConfig};
use simcore::time::{Nanos, TimeDelta};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// DCQCN rate-increase timer (µs).
    pub ti_us: u64,
    /// DCQCN rate-decrease interval (µs).
    pub td_us: u64,
    /// Scheme.
    pub scheme: Scheme,
    /// Slowest-group completion time.
    pub tail_ct: Option<TimeDelta>,
    /// Full metrics.
    pub result: ExperimentResult,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Collective per group (Allreduce for 5a, Alltoall for 5b).
    pub collective: Collective,
    /// Per-group buffer size in bytes (paper: 300 MB; the default harness
    /// scales this down — document the factor in reports).
    pub total_bytes: u64,
    /// Schemes to compare.
    pub schemes: Vec<Scheme>,
    /// `(T_I, T_D)` microsecond pairs.
    pub sweep: Vec<(u64, u64)>,
    /// Root seed.
    pub seed: u64,
    /// Engine shards per cell (1 = serial; composes with the sweep's
    /// `--jobs` fan-out, see [`crate::knobs`]). Cell results are
    /// bit-identical for any value.
    pub shards: usize,
}

impl Fig5Config {
    /// The paper's configuration with a scaled buffer size. Shard count
    /// comes from `THEMIS_SHARDS`.
    pub fn paper(collective: Collective, total_bytes: u64, seed: u64) -> Fig5Config {
        Fig5Config {
            collective,
            total_bytes,
            schemes: Scheme::PAPER_FIG5.to_vec(),
            sweep: CcConfig::paper_sweep().to_vec(),
            seed,
            shards: crate::knobs::shards_from_env(),
        }
    }
}

/// Run the full sweep, fanning cells over `runner`'s workers. Points
/// are produced scheme-major per DCQCN config, matching the figure's bar
/// grouping. Every cell is an independent simulation; the output order
/// (and, per cell, every metric) is identical for any worker count.
pub fn run_fig5_with(cfg: &Fig5Config, runner: SweepRunner) -> Vec<Fig5Point> {
    let cells: Vec<(u64, u64, Scheme)> = cfg
        .sweep
        .iter()
        .flat_map(|&(ti, td)| cfg.schemes.iter().map(move |&s| (ti, td, s)))
        .collect();
    runner.run(&cells, |&(ti, td, scheme)| {
        let mut exp = ExperimentConfig::paper_eval(scheme, ti, td, cfg.seed);
        exp.shards = cfg.shards;
        let result = run_collective(&exp, cfg.collective, cfg.total_bytes);
        Fig5Point {
            ti_us: ti,
            td_us: td,
            scheme,
            tail_ct: result.tail_ct,
            result,
        }
    })
}

/// One point of the fat-tree cross-scheme leg (`fig5 --fat-tree`).
#[derive(Debug, Clone)]
pub struct FatTreePoint {
    /// Scheme.
    pub scheme: Scheme,
    /// Slowest-ring completion time.
    pub tail_ct: Option<TimeDelta>,
    /// Full metrics (telemetry label: `fattree_k<k>/<scheme>`).
    pub result: ExperimentResult,
}

/// Configuration of the fat-tree cross-scheme leg.
#[derive(Debug, Clone)]
pub struct FatTreeLegConfig {
    /// Switch radix (16 → 1024 hosts).
    pub k: usize,
    /// Inter-pod rings run concurrently.
    pub groups: usize,
    /// Bytes per ring transfer.
    pub bytes_per_ring: u64,
    /// Root seed.
    pub seed: u64,
    /// Engine shards per cell.
    pub shards: usize,
}

impl FatTreeLegConfig {
    /// The ISSUE-mandated k=16 leg: 1024 hosts, a handful of inter-pod
    /// rings, small transfers so a 7-scheme sweep stays interactive.
    pub fn k16(bytes_per_ring: u64, seed: u64) -> FatTreeLegConfig {
        FatTreeLegConfig {
            k: 16,
            groups: 8,
            bytes_per_ring,
            seed,
            shards: crate::knobs::shards_from_env(),
        }
    }
}

/// Run the fat-tree inter-pod ring workload once per scheme, fanning
/// schemes over `runner`'s workers. Output order and every per-cell
/// metric are identical for any worker or shard count.
pub fn run_fig5_fat_tree(
    cfg: &FatTreeLegConfig,
    schemes: &[Scheme],
    runner: SweepRunner,
) -> Vec<FatTreePoint> {
    let mut fabric = FatTreeConfig::small(cfg.k);
    fabric.seed = cfg.seed;
    let nic = NicConfig::nic_sr(fabric.host_link.bandwidth_bps);
    runner.run(schemes, |&scheme| {
        let (result, _cluster) = run_fat_tree_rings(
            &fabric,
            nic,
            scheme,
            cfg.seed,
            cfg.shards,
            cfg.groups,
            cfg.bytes_per_ring,
            Nanos::from_secs(5),
        );
        FatTreePoint {
            scheme,
            tail_ct: result.tail_ct,
            result,
        }
    })
}

/// Relative improvement of `a` over `b` in percent
/// (`(b − a) / b × 100`; positive = `a` faster).
pub fn improvement_pct(a: TimeDelta, b: TimeDelta) -> f64 {
    if b.as_nanos() == 0 {
        return 0.0;
    }
    (b.as_nanos() as f64 - a.as_nanos() as f64) / b.as_nanos() as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        let a = TimeDelta::from_micros(50);
        let b = TimeDelta::from_micros(100);
        assert!((improvement_pct(a, b) - 50.0).abs() < 1e-9);
        assert!((improvement_pct(b, b)).abs() < 1e-9);
        assert!(improvement_pct(b, a) < 0.0);
        assert_eq!(improvement_pct(a, TimeDelta::ZERO), 0.0);
    }

    /// A miniature Fig 5 point: small fabric stand-in is exercised by the
    /// heavier integration tests; here we only validate sweep plumbing on
    /// a tiny buffer so the unit suite stays fast.
    #[test]
    fn sweep_produces_scheme_major_points() {
        let cfg = Fig5Config {
            collective: Collective::Allreduce,
            total_bytes: 256 * 1024,
            schemes: vec![Scheme::Ecmp, Scheme::Themis],
            sweep: vec![(10, 4)],
            seed: 2,
            shards: 1,
        };
        // Shrink the fabric via a custom run: reuse paper_eval but at this
        // scale the full 256-host build is still constructed; keep the
        // buffer tiny so the run is quick.
        let points = run_fig5_with(&cfg, SweepRunner::new(1));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].scheme, Scheme::Ecmp);
        assert_eq!(points[1].scheme, Scheme::Themis);
        for p in &points {
            assert!(p.tail_ct.is_some(), "{} did not complete", p.scheme.label());
        }
    }
}

//! Figure 5 reproduction, extended to the whole scheme zoo: the 16×16
//! leaf-spine DCQCN sweep per scheme, or (`--fat-tree`) the k=16
//! fat-tree inter-pod ring leg with one row per scheme. The paper's full
//! scale is 300 MB per group (a long run: ~10⁹ simulator events).
//! `fig5 --help` lists the options (table: `themis_harness::cli::FIG5`).
//!
//! Every cell is an independent simulation fanned over `--jobs`
//! workers; the output order, and every per-cell metric, is identical
//! for any worker or shard count.
//!
//! ```text
//! cargo run --release -p themis-harness --bin fig5 -- allreduce 8 --jobs 4
//! cargo run --release -p themis-harness --bin fig5 -- allreduce 2 --seed 7 --jobs 4
//! cargo run --release -p themis-harness --bin fig5 -- --scheme zoo --fat-tree 1
//! ```

use netsim::fat_tree::FatTreeConfig;
use rnic::{CcConfig, NicConfig};
use simcore::time::{Nanos, TimeDelta};
use themis_harness::cli::{self, Matches};
use themis_harness::report::{fmt_ms, Table};
use themis_harness::sweep::SweepRunner;
use themis_harness::{
    run_collective, run_fat_tree_rings, Collective, ExperimentConfig, ExperimentResult, Scheme,
};

/// Fat-tree leg radix: 1024 hosts.
const FAT_TREE_K: usize = 16;
/// Fat-tree leg: concurrent inter-pod rings, few enough that a 7-scheme
/// sweep stays interactive.
const FAT_TREE_RINGS: usize = 8;
/// Fat-tree leg: simulated-time horizon per cell.
const FAT_TREE_HORIZON: Nanos = Nanos::from_secs(5);

fn main() {
    let args = cli::FIG5.parse_or_exit(std::env::args());
    let schemes = args.schemes("scheme");
    let mb: Option<u64> = args.opt_num("MB");

    if args.given("fat-tree") {
        run_fat_tree_leg(&args, &schemes, mb.unwrap_or(1));
        return;
    }
    let (telem, jobs, shards) = (args.telemetry(), args.jobs(), args.shards());

    let collective = match args.text("COLLECTIVE").as_deref() {
        Some("alltoall") => Collective::Alltoall,
        _ => Collective::Allreduce,
    };
    let mb = mb.unwrap_or(8);
    let bytes = mb << 20;

    let figure = match collective {
        Collective::Allreduce => "5a",
        _ => "5b",
    };
    println!(
        "Figure {figure} — {} tail completion time ({mb} MB per group; paper: 300 MB)",
        collective.label()
    );
    println!("16x16 leaf-spine @400 Gbps, 16 groups x 16 NICs ({jobs} worker(s))\n");

    let seed = args.num("seed");
    let cells = cells(&CcConfig::paper_sweep(), &schemes);
    let results = SweepRunner::new(jobs).run(&cells, |cell| {
        run_cell(cell, collective, bytes, seed, shards)
    });

    telem.emit(cells.iter().zip(&results).map(|(&(ti, td, _), r)| {
        let label = format!("ti{ti}_td{td}/{}", r.scheme.label());
        (label, &r.telemetry, r.tail_ct.is_some())
    }));

    let compare = schemes.contains(&Scheme::Themis) && schemes.contains(&Scheme::AdaptiveRouting);
    let mut headers: Vec<String> = vec!["(TI,TD)".into()];
    headers.extend(schemes.iter().map(|s| s.label().to_string()));
    if compare {
        headers.push("Themis vs AR".into());
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!(
            "{} tail CT (ms) per DCQCN (T_I, T_D) us",
            collective.label()
        ),
        &header_refs,
    );
    let mut improvements = Vec::new();
    for (cell, chunk) in cells
        .chunks(schemes.len())
        .zip(results.chunks(schemes.len()))
    {
        let mut row = vec![format!("({},{})", cell[0].0, cell[0].1)];
        row.extend(chunk.iter().map(|r| fmt_ms(r.tail_ct)));
        if compare {
            let find = |s: Scheme| chunk.iter().find(|r| r.scheme == s).expect("present");
            let vs = match (
                find(Scheme::Themis).tail_ct,
                find(Scheme::AdaptiveRouting).tail_ct,
            ) {
                (Some(t), Some(a)) => {
                    let pct = improvement_pct(t, a);
                    improvements.push(pct);
                    format!("{pct:+.1}%")
                }
                _ => "-".into(),
            };
            row.push(vs);
        }
        table.row(&row);
    }
    table.print();
    if let (Some(min), Some(max)) = (
        improvements.iter().copied().reduce(f64::min),
        improvements.iter().copied().reduce(f64::max),
    ) {
        let paper = match collective {
            Collective::Allreduce => "15.6%..75.3%",
            _ => "11.5%..40.7%",
        };
        println!("\nThemis vs AR improvement range: {min:.1}%..{max:.1}%  [paper: {paper}]");
    }
}

/// The leaf-spine sweep's cells, scheme-major per DCQCN `(T_I, T_D)`
/// pair: the figure's bar grouping.
fn cells(dcqcn: &[(u64, u64)], schemes: &[Scheme]) -> Vec<(u64, u64, Scheme)> {
    dcqcn
        .iter()
        .flat_map(|&(ti, td)| schemes.iter().map(move |&s| (ti, td, s)))
        .collect()
}

/// One leaf-spine cell: `collective` with a `bytes` buffer per group on
/// the §5 fabric at DCQCN `(ti, td)`.
fn run_cell(
    &(ti, td, scheme): &(u64, u64, Scheme),
    collective: Collective,
    bytes: u64,
    seed: u64,
    shards: usize,
) -> ExperimentResult {
    let mut cfg = ExperimentConfig::paper_eval(scheme, ti, td, seed);
    cfg.shards = shards;
    run_collective(&cfg, collective, bytes)
}

/// The `--fat-tree` leg: k=16 fat-tree (1024 hosts), concurrent
/// inter-pod rings, one row per scheme.
fn run_fat_tree_leg(args: &Matches, schemes: &[Scheme], mb_per_ring: u64) {
    let (telem, jobs, shards) = (args.telemetry(), args.jobs(), args.shards());
    let seed = args.num("seed");
    let fabric = FatTreeConfig {
        seed,
        ..FatTreeConfig::small(FAT_TREE_K)
    };
    let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    println!("Cross-scheme fat-tree leg — inter-pod ring tail CT ({mb_per_ring} MB per ring)");
    println!(
        "k={FAT_TREE_K} fat-tree, {} hosts, {FAT_TREE_RINGS} concurrent rings ({jobs} worker(s))\n",
        fabric.n_hosts(),
    );
    let bytes = mb_per_ring << 20;
    let results = SweepRunner::new(jobs).run(schemes, |&scheme| {
        let (rings, horizon) = (FAT_TREE_RINGS, FAT_TREE_HORIZON);
        run_fat_tree_rings(&fabric, nic, scheme, seed, shards, rings, bytes, horizon).0
    });

    telem.emit(results.iter().map(|r| {
        let label = format!("fattree_k{FAT_TREE_K}/{}", r.scheme.label());
        (label, &r.telemetry, r.tail_ct.is_some())
    }));

    let mut table = Table::new(
        format!("k={FAT_TREE_K} fat-tree ring tail CT (ms)"),
        &["Scheme", "tail CT", "delivered MB"],
    );
    for r in &results {
        table.row(&[
            r.scheme.label().to_string(),
            fmt_ms(r.tail_ct),
            format!("{}", r.nics.bytes_delivered >> 20),
        ]);
    }
    table.print();
}

/// Relative improvement of `a` over `b` in percent
/// (`(b − a) / b × 100`; positive = `a` faster).
fn improvement_pct(a: TimeDelta, b: TimeDelta) -> f64 {
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

    /// Sweep plumbing on the full 256-host paper fabric, with a tiny
    /// buffer so the run is quick.
    #[test]
    fn sweep_produces_scheme_major_points() {
        let cells = cells(&[(10, 4)], &[Scheme::Ecmp, Scheme::Themis]);
        let points = SweepRunner::new(1).run(&cells, |cell| {
            run_cell(cell, Collective::Allreduce, 256 * 1024, 2, 1)
        });
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].scheme, Scheme::Ecmp);
        assert_eq!(points[1].scheme, Scheme::Themis);
        for p in &points {
            assert!(p.tail_ct.is_some(), "{} did not complete", p.scheme.label());
        }
    }
}

//! Figure 5 reproduction, extended to the whole scheme zoo: the 16×16
//! leaf-spine DCQCN sweep per scheme, or (`--fat-tree`) the k=16
//! fat-tree inter-pod ring leg with one row per scheme. The paper's full
//! scale is 300 MB per group (a long run: ~10⁹ simulator events).
//! `fig5 --help` lists the options (table: `themis_harness::cli::FIG5`).
//!
//! ```text
//! cargo run --release -p themis-harness --bin fig5 -- allreduce 8 --jobs 4
//! cargo run --release -p themis-harness --bin fig5 -- allreduce 2 --seed 7 --jobs 4
//! cargo run --release -p themis-harness --bin fig5 -- --scheme zoo --fat-tree 1
//! ```

use themis_harness::cli::{self, Matches};
use themis_harness::fig5::{
    improvement_pct, run_fig5_fat_tree, run_fig5_with, FatTreeLegConfig, Fig5Config,
};
use themis_harness::report::{fmt_ms, Table};
use themis_harness::sweep::SweepRunner;
use themis_harness::{Collective, Scheme};

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

    let mut cfg = Fig5Config::paper(collective, bytes, args.num("seed"));
    cfg.schemes = schemes.clone();
    cfg.shards = shards;
    let points = run_fig5_with(&cfg, SweepRunner::new(jobs));

    telem.emit(points.iter().map(|p| {
        let label = format!("ti{}_td{}/{}", p.ti_us, p.td_us, p.scheme.label());
        (label, &p.result.telemetry, p.tail_ct.is_some())
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
    for chunk in points.chunks(schemes.len()) {
        let mut row = vec![format!("({},{})", chunk[0].ti_us, chunk[0].td_us)];
        row.extend(chunk.iter().map(|p| fmt_ms(p.tail_ct)));
        if compare {
            let find = |s: Scheme| chunk.iter().find(|p| p.scheme == s).expect("present");
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

/// The `--fat-tree` leg: k=16 fat-tree (1024 hosts), concurrent
/// inter-pod rings, one row per scheme.
fn run_fat_tree_leg(args: &Matches, schemes: &[Scheme], mb_per_ring: u64) {
    let (telem, jobs) = (args.telemetry(), args.jobs());
    let mut cfg = FatTreeLegConfig::k16(mb_per_ring << 20, args.num("seed"));
    cfg.shards = args.shards();
    println!("Cross-scheme fat-tree leg — inter-pod ring tail CT ({mb_per_ring} MB per ring)");
    println!(
        "k={} fat-tree, {} hosts, {} concurrent rings ({jobs} worker(s))\n",
        cfg.k,
        cfg.k * cfg.k * cfg.k / 4,
        cfg.groups
    );
    let points = run_fig5_fat_tree(&cfg, schemes, SweepRunner::new(jobs));

    telem.emit(points.iter().map(|p| {
        let label = format!("fattree_k{}/{}", cfg.k, p.scheme.label());
        (label, &p.result.telemetry, p.tail_ct.is_some())
    }));

    let mut table = Table::new(
        format!("k={} fat-tree ring tail CT (ms)", cfg.k),
        &["Scheme", "tail CT", "delivered MB"],
    );
    for p in &points {
        table.row(&[
            p.scheme.label().to_string(),
            fmt_ms(p.tail_ct),
            format!("{}", p.result.nics.bytes_delivered >> 20),
        ]);
    }
    table.print();
}

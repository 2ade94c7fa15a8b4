//! Figure 1 reproduction: the Fig 1b/1c series of the chosen flow
//! (node 0 → node 2) and the Fig 1d NIC-SR vs Ideal throughput bars.
//! `fig1 --help` lists the options (table: `themis_harness::cli::FIG1`).
//!
//! ```text
//! cargo run --release -p themis-harness --bin fig1 -- 25
//! cargo run --release -p themis-harness --bin fig1 -- 25 --jobs 2 --telemetry fig1.json
//! ```

use simcore::time::TimeDelta;
use themis_harness::cli;
use themis_harness::fig1::{run_fig1_sharded, Fig1Result};
use themis_harness::report::render_ascii_chart;
use themis_harness::sweep::SweepRunner;
use themis_harness::Scheme;

fn main() {
    let args = cli::FIG1.parse_or_exit(std::env::args());
    let (telem, jobs, shards) = (args.telemetry(), args.jobs(), args.shards());
    let mb: u64 = args.num("MB_PER_FLOW");
    let bytes = mb << 20;
    println!("Figure 1 — motivation experiment ({mb} MB per flow; paper: 100 MB)\n");

    // The NIC-SR leg, then the Ideal one.
    let cells = [Scheme::RandomSpray, Scheme::Oracle];
    let mut results: Vec<Fig1Result> = SweepRunner::new(jobs).run(&cells, |&scheme| {
        run_fig1_sharded(scheme, bytes, TimeDelta::from_micros(50), 42, shards)
    });
    let ideal = results.pop().expect("two cells");
    let sr = results.pop().expect("two cells");

    // One incomplete run fails the figure, so both traces are dumped.
    let completed = sr.completed && ideal.completed;
    telem.emit([
        ("nic_sr", &sr.telemetry, completed),
        ("ideal", &ideal.telemetry, completed),
    ]);
    assert!(completed);

    println!(
        "{}",
        render_ascii_chart(
            "Fig 1b: retransmission ratio over time (chosen flow 0->2)",
            &sr.retx_ratio_series,
            72,
            10,
        )
    );
    println!(
        "  average spurious-retransmission ratio (all flows): {:.3}  [paper ~0.16]\n",
        sr.avg_retx_ratio
    );
    println!(
        "{}",
        render_ascii_chart(
            "Fig 1c: sending rate over time, Gbps (chosen flow 0->2)",
            &sr.rate_series,
            72,
            10,
        )
    );
    println!(
        "  average sending rate: {:.1} Gbps / 100 Gbps  [paper ~86]\n",
        sr.avg_rate_gbps
    );
    println!("Fig 1d: average per-flow throughput");
    println!(
        "  NIC-SR : {:>6.2} Gbps  [paper 68.09]",
        sr.mean_flow_throughput_gbps
    );
    println!(
        "  Ideal  : {:>6.2} Gbps  [paper 95.43]",
        ideal.mean_flow_throughput_gbps
    );
    println!(
        "  ratio  : {:>6.2}       [paper 0.71]",
        sr.mean_flow_throughput_gbps / ideal.mean_flow_throughput_gbps
    );
}

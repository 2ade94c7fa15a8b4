//! # themis-bench — the paper-figure bench targets
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench -p themis-bench`):
//!
//! * `fig1_motivation` — Fig 1b/1c/1d: retransmission ratio and sending
//!   rate over time, NIC-SR vs Ideal throughput.
//! * `fig5_allreduce` / `fig5_alltoall` — Fig 5a/5b: tail completion
//!   time across the DCQCN `(T_I, T_D)` sweep for ECMP / AR / Themis.
//! * `table1_memory` — the §4 memory model at the Table 1 reference.
//! * `ablations` — design-choice studies: compensation on/off, PathMap
//!   vs direct egress, spray-without-filter, queue expansion factor.
//! * `scale_sensitivity` — how the Themis-vs-AR improvement grows with
//!   the Allreduce buffer size.
//!
//! These regenerate *simulated* results. What the simulator costs its
//! user in host time is measured by the repo benchmark in `perfbench/`
//! (`BENCHMARK.json`), which is also what `scripts/ci.sh` floors read.
//!
//! Figure benches run at a scaled-down message size by default so the
//! whole suite finishes in minutes; set `THEMIS_BENCH_MB` to raise the
//! per-group buffer (the paper's full scale is 300 MB, ≈ hours).

/// Per-group buffer size for figure benches, in bytes. Reads
/// `THEMIS_BENCH_MB` (default 2 MB; the paper's full scale is 300).
pub fn bench_bytes() -> u64 {
    let mb = std::env::var("THEMIS_BENCH_MB")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(2);
    mb << 20
}

/// Scale factor banner for reports.
pub fn scale_banner() -> String {
    let bytes = bench_bytes();
    format!(
        "buffer = {} MB per group (paper: 300 MB; set THEMIS_BENCH_MB to change)",
        bytes >> 20
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_2mb() {
        // Unless the environment overrides it.
        if std::env::var("THEMIS_BENCH_MB").is_err() {
            assert_eq!(bench_bytes(), 2 << 20);
        }
        assert!(scale_banner().contains("paper: 300 MB"));
    }
}

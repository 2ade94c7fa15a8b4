//! §4 memory-overhead calculator.
//!
//! Evaluates the paper's switch-SRAM model at the Table 1 reference
//! point (3-layer fat-tree, k = 32, 400 Gbps last hop) and at a few
//! what-if points, printing every intermediate quantity of Eq. 4.
//!
//! Run with: `cargo run --example memory_overhead`
//!
//! Alongside the analytic model, a live small-k fat-tree simulation is
//! built and run, and its *measured* per-host memory (process RSS) is
//! printed next to the §4 figures.

use themis::harness::{run_fat_tree_rings, Scheme};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::rnic::NicConfig;
use themis::themis_core::memory::MemoryModel;

/// Resident set size from `/proc/self/status`, if the platform has it.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Build and run a small-k fat-tree, then report measured bytes/host.
fn measure_live(k: usize) {
    let rss_before = rss_bytes();
    let fabric = FatTreeConfig::small(k);
    let nic_cfg = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    let n_hosts = fabric.n_hosts();
    let groups = (fabric.hosts_per_pod()).min(4);
    let (result, _cluster) = run_fat_tree_rings(
        &fabric,
        nic_cfg,
        Scheme::Themis,
        7,
        1,
        groups,
        256 << 10,
        themis::simcore::time::Nanos::from_secs(2),
    );
    let rss_after = rss_bytes();

    println!("— measured, live k={k} fat-tree ({n_hosts} hosts, {groups} rings) —");
    println!(
        "  completed  = {:>10}   (rings finished: {}/{groups})",
        if result.tail_ct.is_some() {
            "yes"
        } else {
            "no"
        },
        result.group_cts.iter().filter(|c| c.is_some()).count(),
    );
    println!("  events     = {:>10}", result.events);
    match (rss_before, rss_after) {
        (Some(b), Some(a)) => {
            println!(
                "  RSS        = {:>10} B total, Δ {} B ≈ {} B/host",
                a,
                a.saturating_sub(b),
                a.saturating_sub(b) / n_hosts as u64
            );
        }
        _ => println!("  RSS        =  (unavailable on this platform)"),
    }
    println!();
}

fn print_model(name: &str, m: &MemoryModel) {
    println!("— {name} —");
    println!("  N_paths   = {:>8}   (PathMap entries)", m.n_paths);
    println!("  BW        = {:>8} Gbps", m.bw_bps / 1_000_000_000);
    println!("  RTT_last  = {:>8} ns", m.rtt_last.as_nanos());
    println!("  MTU       = {:>8} B", m.mtu);
    println!("  F         = {:>8.2}", m.f_times_100 as f64 / 100.0);
    println!("  N_NIC     = {:>8}   (NICs per ToR)", m.n_nic);
    println!("  N_QP      = {:>8}   (cross-rack QPs per NIC)", m.n_qp);
    println!("  ----------------------------------------");
    println!(
        "  N_entries = {:>8}   (ring PSN queue slots per QP)",
        m.n_entries()
    );
    println!("  M_PathMap = {:>8} B", m.pathmap_bytes());
    println!(
        "  M_QP      = {:>8} B  (20 B entry + 1 B/slot)",
        m.per_qp_bytes()
    );
    println!(
        "  M_total   = {:>8} B  ≈ {:.0} KB",
        m.total_bytes(),
        m.total_bytes() as f64 / 1000.0
    );
    for sram_mb in [32u64, 64] {
        println!(
            "            = {:>7.2}%  of a {sram_mb} MB switch SRAM",
            m.fraction_of_sram(sram_mb * 1024 * 1024) * 100.0
        );
    }
    println!();
}

fn main() {
    let ft = FatTreeConfig::small(32);
    println!("Fat-tree k=32 (paper §4 example):");
    println!(
        "  {} ToRs, {} spines, {} cores, {} NICs, {} hosts/ToR, {} equal-cost paths\n",
        ft.n_tors(),
        ft.n_aggs(),
        ft.n_cores(),
        ft.n_hosts(),
        ft.hosts_per_tor(),
        ft.n_paths()
    );

    let reference = MemoryModel::table1_reference();
    print_model("Table 1 reference (paper: ≈193 KB)", &reference);

    print_model(
        "100 Gbps fabric",
        &MemoryModel {
            bw_bps: 100_000_000_000,
            ..reference
        },
    );

    print_model(
        "Dense QPs (Alltoall-heavy, 400 QPs/NIC)",
        &MemoryModel {
            n_qp: 400,
            ..reference
        },
    );

    // Beside the analytic model: what a real (small-k) build of this
    // codebase actually spends per host, measured live.
    measure_live(8);
}

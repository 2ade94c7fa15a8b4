//! `themis_sim` — run custom Themis experiments from the command line:
//! one collective, one point-to-point flow, or the §4 memory model (the
//! scheme × DCQCN sweep is the `fig5` binary). `themis_sim --help` (or
//! `themis_sim <command> --help`) lists the options (table:
//! `themis_harness::cli::THEMIS_SIM`).
//!
//! ```text
//! themis_sim collective --collective alltoall --scheme ar --mb 8 --ti 10 --td 50
//! themis_sim p2p --fabric motivation --scheme spray-nofilter --mb 16 --pfc
//! ```

use netsim::topology::LeafSpineConfig;
use rnic::{CcConfig, NicConfig, TransportMode};
use simcore::time::{Nanos, TimeDelta};
use themis_core::memory::MemoryModel;
use themis_harness::cli::{self, Matches};
use themis_harness::experiment::point_to_point_ends;
use themis_harness::report::fmt_ms;
use themis_harness::{run_collective, run_point_to_point, ExperimentConfig, ExperimentResult};

fn build_config(args: &Matches) -> ExperimentConfig {
    let seed = args.num("seed");

    let mut fabric = match args.text("fabric").as_deref() {
        Some("motivation") => LeafSpineConfig::motivation(),
        _ => LeafSpineConfig::paper_eval(),
    };
    if args.given("leaves") || args.given("hosts") || args.given("spines") {
        let gbps = args.num("gbps");
        fabric = LeafSpineConfig {
            n_leaves: args.num("leaves"),
            hosts_per_leaf: args.num("hosts"),
            n_spines: args.num("spines"),
            host_link: netsim::port::LinkSpec::gbps(gbps, 1),
            fabric_link: netsim::port::LinkSpec::gbps(gbps, 1),
            ..LeafSpineConfig::motivation()
        };
    }
    fabric.seed = seed;
    fabric.pfc = args.given("pfc");

    let line = fabric.host_link.bandwidth_bps;
    let mut nic = match args.text("transport").as_deref() {
        Some("gbn") => NicConfig {
            transport: TransportMode::GoBackN,
            ..NicConfig::nic_sr(line)
        },
        Some("ideal") => NicConfig::ideal(line),
        _ => NicConfig::nic_sr(line),
    };
    if args.given("ti") || args.given("td") {
        nic.cc = CcConfig::with_ti_td(args.num("ti"), args.num("td"));
    }

    let cfg = ExperimentConfig {
        fabric,
        nic,
        scheme: args.scheme("scheme"),
        seed,
        horizon: Nanos::from_secs(args.num("horizon-s")),
        shards: args.shards(),
    };
    if let Err(e) = cfg.validate() {
        args.fail(&e.to_string());
    }
    cfg
}

fn print_result(r: &ExperimentResult, wall: std::time::Duration) {
    println!("scheme            : {}", r.scheme.label());
    match r.tail_ct {
        Some(ct) => println!("completion (tail) : {} ms", fmt_ms(Some(ct))),
        None => println!("completion (tail) : DID NOT FINISH before the horizon"),
    }
    println!(
        "goodput           : {:.1} Gbps aggregate",
        r.aggregate_goodput_gbps()
    );
    println!(
        "data packets      : {} (+{} retransmitted, ratio {:.4})",
        r.nics.data_packets,
        r.nics.retx_packets,
        r.nics.retx_ratio()
    );
    println!(
        "ooo / nacks@recv  : {} / {}   nacks@sender: {}   rto: {}",
        r.nics.ooo_packets, r.nics.nacks_sent, r.nics.nacks_received, r.nics.rto_fires
    );
    println!(
        "themis            : {} sprayed, {} blocked, {} valid fwd, {} compensated",
        r.themis.sprayed,
        r.themis.nacks_blocked,
        r.themis.nacks_forwarded_valid,
        r.themis.compensations
    );
    println!(
        "fabric            : {} drops, {} ECN marks, peak buffer {} KB",
        r.fabric.total_drops(),
        r.fabric.ecn_marked,
        r.fabric.peak_buffer_bytes / 1024
    );
    if let (Some(p50), Some(p99)) = (r.msg_latency_p50, r.msg_latency_p99) {
        println!(
            "msg latency       : p50 {:.1} us, p99 {:.1} us",
            p50.as_micros_f64(),
            p99.as_micros_f64()
        );
    }
    println!(
        "simulator         : {} events in {:.2}s wall ({:.1} M events/s)",
        r.events,
        wall.as_secs_f64(),
        r.events as f64 / wall.as_secs_f64().max(1e-9) / 1e6
    );
}

fn main() {
    let args = cli::THEMIS_SIM.parse_or_exit(std::env::args());
    match args.command() {
        "collective" => {
            let cfg = build_config(&args);
            let collective = args.collective("collective").expect("table default");
            let bytes = args.num::<u64>("mb") << 20;
            println!(
                "{} of {} MB per group on {} leaves x {} hosts, {} spines, scheme {}\n",
                collective.label(),
                bytes >> 20,
                cfg.fabric.n_leaves,
                cfg.fabric.hosts_per_leaf,
                cfg.fabric.n_spines,
                cfg.scheme.label()
            );
            let t0 = std::time::Instant::now();
            let r = run_collective(&cfg, collective, bytes);
            if args.given("csv") {
                println!("{}", ExperimentResult::csv_header());
                println!("{}", r.to_csv_row());
            } else {
                print_result(&r, t0.elapsed());
            }
            args.telemetry()
                .emit([("collective", &r.telemetry, r.tail_ct.is_some())]);
        }
        "p2p" => {
            let cfg = build_config(&args);
            if let Err(e) = point_to_point_ends(&cfg.fabric) {
                args.fail(&format!("p2p needs a second rack: {e}"));
            }
            let bytes = args.num::<u64>("mb") << 20;
            println!(
                "point-to-point {} MB, scheme {}\n",
                bytes >> 20,
                cfg.scheme.label()
            );
            let t0 = std::time::Instant::now();
            let r = run_point_to_point(&cfg, bytes);
            if args.given("csv") {
                println!("{}", ExperimentResult::csv_header());
                println!("{}", r.to_csv_row());
            } else {
                print_result(&r, t0.elapsed());
            }
            args.telemetry()
                .emit([("p2p", &r.telemetry, r.tail_ct.is_some())]);
        }
        "memory" => {
            let m = MemoryModel {
                n_paths: args.num("paths"),
                bw_bps: args.num::<u64>("gbps") * 1_000_000_000,
                rtt_last: TimeDelta::from_micros(args.num("rtt-us")),
                mtu: args.num("mtu"),
                f_times_100: args.num("f100"),
                n_nic: args.num("nics"),
                n_qp: args.num("qps"),
            };
            println!("N_entries = {}", m.n_entries());
            println!("M_PathMap = {} B", m.pathmap_bytes());
            println!("M_QP      = {} B", m.per_qp_bytes());
            println!(
                "M_total   = {} B (~{:.0} KB)",
                m.total_bytes(),
                m.total_bytes() as f64 / 1000.0
            );
            println!(
                "          = {:.2}% of 32 MB, {:.2}% of 64 MB switch SRAM",
                m.fraction_of_sram(32 << 20) * 100.0,
                m.fraction_of_sram(64 << 20) * 100.0
            );
        }
        other => unreachable!("command '{other}' is not in the table"),
    }
}

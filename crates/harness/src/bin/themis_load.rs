//! `themis_load` — the open-loop production traffic engine.
//!
//! Samples a heavy-tailed multi-tenant job mix (collectives, RPCs,
//! periodic incast storms), runs it open-loop over a fat-tree fabric,
//! and reports FCT percentiles, Jain fairness and the sliding-window
//! oracle's verdict. Telemetry can be streamed as windowed slices.
//! `themis_load --help` lists the options (table:
//! `themis_harness::cli::THEMIS_LOAD`). Exits 1 if zero jobs completed
//! or the oracle found violations.
//!
//! ```text
//! themis_load --seed 5 --jobs 200 --tenants 24 --evict-per-window 16 --windowed-telemetry w.json
//! themis_load --scheme reps --burst --cdf storage --no-require-complete --shards 2
//! ```

use collectives::open_loop::{Arrival, FlowSizeCdf};
use simcore::time::{Nanos, TimeDelta};
use themis_harness::cli::{self, Matches};
use themis_harness::faults::FaultPlan;
use themis_harness::load::{run_open_loop, LoadConfig};

fn build_config(args: &Matches) -> LoadConfig {
    let mut cfg = LoadConfig::small(args.scheme("scheme"), args.num("seed"));
    cfg.fabric = netsim::fat_tree::FatTreeConfig::small(args.num("k"));
    cfg.shards = args.shards();
    cfg.spec.n_jobs = args.num("jobs");
    cfg.spec.n_tenants = args.num("tenants");
    let mean_gap = Nanos::from_micros(args.num("mean-gap-us"));
    cfg.spec.arrival = if args.given("burst") {
        Arrival::Bursty {
            mean_gap,
            burst_len: args.num("burst-len"),
            factor: args.num("burst-factor"),
        }
    } else {
        Arrival::Poisson { mean_gap }
    };
    let cdf = args.text("cdf").and_then(|name| FlowSizeCdf::parse(&name));
    cfg.spec.cdf = cdf.expect("--cdf is a choice of FlowSizeCdf::NAMES");
    cfg.spec.min_ranks = args.num("ranks-min");
    cfg.spec.max_ranks = args.num("ranks-max");
    cfg.spec.incast_every = args.num("incast-every");
    cfg.spec.incast_fanin = args.num("incast-fanin");
    cfg.spec.max_bytes = args.num::<u64>("max-kb") << 10;
    cfg.window = TimeDelta::from_micros(args.num("window-us"));
    cfg.windows = args.num("windows");
    cfg.evict_per_window = args.num("evict-per-window");
    cfg.require_complete = !args.given("no-require-complete");
    if let Some(path) = args.text("fault-plan") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.fail(&format!("cannot read fault plan {path}: {e}")));
        cfg.faults = FaultPlan::from_text(&text)
            .unwrap_or_else(|e| args.fail(&format!("bad fault plan {path}: {e}")));
    }
    cfg
}

fn fmt_fct(d: Option<TimeDelta>) -> String {
    match d {
        Some(d) => format!("{:.1} us", d.as_micros_f64()),
        None => "-".into(),
    }
}

fn main() {
    let args = cli::THEMIS_LOAD.parse_or_exit(std::env::args());
    let cfg = build_config(&args);
    if let Err(e) = cfg.validate() {
        args.fail(&e.to_string());
    }
    println!(
        "open-loop load: {} jobs / {} tenants on k={} ({} windows x {} us), scheme {}, shards {}\n",
        cfg.spec.n_jobs,
        cfg.spec.n_tenants,
        cfg.fabric.k,
        cfg.windows,
        cfg.window.as_micros_f64(),
        cfg.scheme.label(),
        cfg.shards
    );
    let t0 = std::time::Instant::now();
    let (r, _cluster) = run_open_loop(&cfg).unwrap_or_else(|e| args.fail(&e.to_string()));
    let wall = t0.elapsed();

    println!("label             : {}", r.label);
    println!(
        "jobs              : {} sampled, {} started, {} completed",
        r.jobs_total, r.jobs_started, r.jobs_completed
    );
    println!("qps               : {}", r.qps);
    println!(
        "fct               : p50 {}  p90 {}  p99 {}",
        fmt_fct(r.fct_p50),
        fmt_fct(r.fct_p90),
        fmt_fct(r.fct_p99)
    );
    match r.fairness_jain {
        Some(j) => println!("fairness (jain)   : {j:.4}"),
        None => println!("fairness (jain)   : -"),
    }
    if r.evictions_attempted > 0 {
        println!(
            "eviction churn    : {} granted / {} attempted",
            r.evictions_ok, r.evictions_attempted
        );
    }
    println!(
        "telemetry windows : {} slices of {} us",
        r.windowed.slices().len(),
        TimeDelta::from_nanos(r.windowed.window_ns()).as_micros_f64()
    );
    println!(
        "simulator         : {} events, sim end {}, {:.2}s wall ({:.1} M events/s)",
        r.events,
        r.sim_end,
        wall.as_secs_f64(),
        r.events as f64 / wall.as_secs_f64().max(1e-9) / 1e6
    );

    if let Some(path) = args.text("windowed-telemetry") {
        if let Err(e) = r.windowed.write(path.as_ref()) {
            eprintln!("error: failed to write windowed telemetry to {path}: {e}");
            std::process::exit(1);
        }
        println!("windowed telemetry: wrote {path}");
    }
    if let Some(path) = args.text("telemetry") {
        let mut report = telemetry::Report::new();
        report.add_run(&r.label, r.final_telemetry.clone());
        if let Err(e) = report.write(path.as_ref()) {
            eprintln!("error: failed to write telemetry to {path}: {e}");
            std::process::exit(1);
        }
        println!("telemetry         : wrote {path}");
    }

    if r.jobs_completed == 0 {
        eprintln!(
            "error: no completions — {} jobs sampled, {} started, none finished \
before the horizon; raise --windows/--window-us or shrink the job mix",
            r.jobs_total, r.jobs_started
        );
        std::process::exit(1);
    }

    if r.violations().is_empty() {
        println!("\noracle            : CLEAN");
    } else {
        println!(
            "\noracle            : {} VIOLATION(S)",
            r.violations().len()
        );
        for v in r.violations() {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

//! `themis_benchmark` — the repo benchmark (see `BENCHMARK.json` and
//! `perfbench/README.md`).
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload,
//! generated from the seed, for about `S` seconds through the repo's
//! real entry points, checks its outputs, prints every metric by name
//! with its unit, and ends with one JSON object on the last line of
//! standard output. `--trace 0` reports the end-to-end metrics with
//! tracing off; `--trace 1` makes the traced pass that yields the
//! per-layer metrics and writes its spans under the build directory.

mod kernels;
mod metrics;
mod spans;
mod stats;
mod workloads;

use spans::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use themis_harness::json::Json;
use workloads::{Checks, Facts, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where span files and socket files go: `perfbench-out` inside the
/// build directory this binary runs from (`$CARGO_TARGET_DIR`, inside
/// the checkout), as a path relative to the working directory when
/// possible so Unix socket paths stay short.
fn out_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| std::io::Error::other("the binary is not inside a build directory"))?;
    let dir = target.join("perfbench-out");
    std::fs::create_dir_all(&dir)?;
    let cwd = std::env::current_dir()?;
    Ok(dir.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(dir))
}

/// `VmHWM` of this process in MB (10⁶ bytes).
fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb * 1024.0 / 1e6)
}

/// Two runs of one deterministic input must agree on every count, on
/// events and bytes, and on the output document.
fn check_same(tally: &mut Checks, what: &str, a: &Facts, b: &Facts, counts_too: bool) {
    tally.check(a.events == b.events, || {
        format!("{what}: {} events against {}", a.events, b.events)
    });
    tally.check(a.delivered_bytes == b.delivered_bytes, || {
        format!(
            "{what}: {} bytes delivered against {}",
            a.delivered_bytes, b.delivered_bytes
        )
    });
    tally.check(a.fingerprint == b.fingerprint, || {
        format!("{what}: output documents differ")
    });
    if counts_too {
        tally.check(a.counts == b.counts, || {
            format!("{what}: per-layer counts differ")
        });
    }
}

type Metrics = BTreeMap<&'static str, f64>;

/// Set-ups timed before every entry-point run: set-up is 35 µs to 30 ms,
/// and a 7 s `serve_session` leaves room for only two reps in a run.
const SETUPS_PER_REP: usize = 5;

/// `--trace 0`: alternate set-up-only and entry-point runs until the
/// time is spent; the fastest of each, throughput and peak memory.
///
/// The fastest rep, not the median: the input is fixed and the program
/// deterministic, so reps differ only by what the shared machine adds,
/// and that comes in bursts of 5–15 s that cover a varying part of a
/// run. Over ten runs the fastest rep spread 0.06–0.08 where the median
/// spread 0.10–0.13, and its level held between sets taken half an hour
/// apart where the median's moved by up to 32 % (perfbench/README.md).
/// Medians and quartiles are printed beside it.
fn end_to_end(w: &dyn Workload, seconds: f64, tally: &mut Checks) -> Metrics {
    let started = Instant::now();
    let sharded = w.run_sharded().map(|(_, facts)| facts);
    let loop_started = Instant::now();
    let mut setup = Vec::new();
    let mut run = Vec::new();
    let mut first: Option<Facts> = None;
    loop {
        setup.extend((0..SETUPS_PER_REP).map(|_| w.setup_only()));
        let (secs, facts) = w.run_entry();
        run.push(secs);
        tally.absorb(&format!("rep {}", run.len() - 1), &facts.checks);
        match &first {
            None => {
                tally.check(facts.delivered_bytes == w.payload_bytes(), || {
                    format!(
                        "delivered {} bytes, the workload carries {}",
                        facts.delivered_bytes,
                        w.payload_bytes()
                    )
                });
                if let Some(sharded) = &sharded {
                    tally.absorb("sharded", &sharded.checks);
                    check_same(tally, "serial against sharded", &facts, sharded, true);
                }
                first = Some(facts);
            }
            Some(first) => check_same(
                tally,
                &format!("rep {} against rep 0", run.len() - 1),
                &facts,
                first,
                true,
            ),
        }
        let per_rep = loop_started.elapsed().as_secs_f64() / run.len() as f64;
        if started.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }
    report_timing("setup_s", &setup);
    report_timing("run_s", &run);
    let run_s = stats::fastest(&run);
    let mut metrics = Metrics::from([
        ("setup_s", stats::fastest(&setup)),
        ("run_s", run_s),
        ("payload_mb_per_s", w.payload_bytes() as f64 / 1e6 / run_s),
    ]);
    metrics.extend(peak_rss_mb().map(|mb| ("peak_rss_mb", mb)));
    metrics
}

/// Fastest, median, quartiles and sample count of a timing, then every
/// sample.
fn report_timing(name: &str, samples: &[f64]) {
    let (q1, q3) = stats::quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
    println!(
        "# {name}: fastest {:.6} s, median {:.6} s, quartiles {q1:.6} / {q3:.6} s, {} samples",
        stats::fastest(samples),
        stats::median(samples),
        samples.len()
    );
    let listed: Vec<String> = samples.iter().map(|s| format!("{s:.6}")).collect();
    println!("# {name} samples: {}", listed.join(" "));
}

/// `--trace 1`: the kernels, then pairs of one untraced entry-point run
/// and one traced composed run until the time is spent.
fn per_layer(
    name: &str,
    w: &dyn Workload,
    seconds: f64,
    out: &std::path::Path,
    tally: &mut Checks,
) -> Metrics {
    let started = Instant::now();
    let kernels: Metrics = kernels::run_all().into_iter().collect();
    let sharded = w.run_sharded();
    let tracer = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut composed: Vec<Facts> = Vec::new();
    let pairs_started = Instant::now();
    loop {
        let rep = composed.len() as u32;
        let (secs, entry) = w.run_entry();
        untraced.push(secs);
        tally.absorb(&format!("entry {rep}"), &entry.checks);
        tracer.set_rep(rep);
        let facts = tracer.span("rep", || w.run_composed(&tracer));
        tally.absorb(&format!("composed {rep}"), &facts.checks);
        // The composed run adds counts of its own (document sizes), so
        // only events, bytes and the document are compared.
        check_same(
            tally,
            &format!("composed {rep} against its entry-point run"),
            &facts,
            &entry,
            false,
        );
        composed.push(facts);
        let per_pair = pairs_started.elapsed().as_secs_f64() / composed.len() as f64;
        if started.elapsed().as_secs_f64() + per_pair > seconds {
            break;
        }
    }
    let untraced_run_s = stats::median(&untraced);
    let spans = tracer.spans();

    let per_rep: Vec<Metrics> = composed
        .iter()
        .enumerate()
        .map(|(rep, facts)| {
            let m = rep_metrics(&spans, rep as u32, facts, &kernels, w.extra_spans());
            tally.check(m["trace.covered_share"] >= 0.95, || {
                format!(
                    "traced rep {rep}: named spans cover only {:.1} % of it",
                    m["trace.covered_share"] * 100.0
                )
            });
            m
        })
        .collect();

    let path = out.join(format!("spans-{name}.jsonl"));
    match spans::write_jsonl(&path, name, &spans) {
        Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => tally.check(false, || format!("cannot write {}: {e}", path.display())),
    }

    // Median over the traced reps of every metric; kernels as measured.
    let mut metrics = kernels;
    for (name, _, _) in metrics::PER_LAYER {
        let values: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        if !values.is_empty() {
            metrics.insert(name, stats::median(&values));
        }
    }
    metrics.insert("trace.untraced_run_s", untraced_run_s);
    metrics.insert(
        "trace.overhead_share",
        metrics["trace.run_s"] / untraced_run_s - 1.0,
    );
    // The one sharded run, compared with the serial runs byte for byte.
    if let Some((sharded_s, sharded)) = sharded {
        tally.absorb("sharded", &sharded.checks);
        let before = tally.failures.len();
        check_same(
            tally,
            "composed 0 against sharded",
            &composed[0],
            &sharded,
            false,
        );
        let identical = tally.failures.len() == before;
        metrics.insert("netsim.run_sharded_s", sharded_s);
        metrics.insert("netsim.shard_speedup", untraced_run_s / sharded_s);
        metrics.insert("netsim.shard_identical", identical as u8 as f64);
    }
    // Request latency over the requests of all traced sessions together,
    // so the tail percentile has enough samples beyond it.
    let calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("call."))
        .map(Span::secs)
        .collect();
    if !calls.is_empty() {
        let beyond = stats::samples_beyond(calls.len(), 99.0);
        println!(
            "# request latency: {} samples, {beyond} beyond p99 (highest supported percentile: {:?})",
            calls.len(),
            stats::highest_supported_percentile(calls.len())
        );
        tally.check(beyond >= stats::MIN_BEYOND, || {
            format!("p99 request latency has only {beyond} samples beyond it")
        });
        metrics.insert("harness.service.op_p50_ms", stats::median(&calls) * 1e3);
        metrics.insert(
            "harness.service.op_p99_ms",
            stats::percentile(&calls, 99.0) * 1e3,
        );
        metrics.insert("harness.service.op_samples", calls.len() as f64);
    }
    metrics
}

/// The per-layer metrics of one traced rep: exact counts from the run,
/// span totals, and the estimates that multiply the two with kernels.
///
/// A metric is set only when what it is computed from was observed: a
/// span total needs at least one span of that name, a ratio needs both
/// counts. What stays unset must be on the workload's
/// [`Workload::not_applicable`] list, or the run fails.
fn rep_metrics(
    spans: &[Span],
    rep: u32,
    facts: &Facts,
    kernels: &Metrics,
    extra_spans: &[&str],
) -> Metrics {
    let each = |name: &str| spans::each_secs(spans, rep, name);
    let total = |name: &str| {
        Some(each(name))
            .filter(|v| !v.is_empty())
            .map(|v| stats::sum(&v))
    };
    let count = |name: &str| facts.counts.get(name).copied();
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) => Some(if b > 0.0 { a / b } else { 0.0 }),
        _ => None,
    };
    let mut m: Metrics = facts.counts.clone();
    let mut set = |name: &'static str, value: Option<f64>| {
        if let Some(value) = value {
            m.insert(name, value);
        }
    };

    for (metric, span) in [
        ("netsim.build_s", "netsim.build"),
        ("core.evict_s", "core.evict"),
        ("collectives.sample_load_s", "collectives.sample_load"),
        ("collectives.provision_s", "collectives.provision"),
        ("telemetry.encode_s", "telemetry.encode"),
        ("harness.install_s", "harness.install"),
        ("harness.collect_s", "harness.collect"),
        ("harness.drain_s", "harness.drain"),
        ("harness.audit_s", "harness.audit"),
        ("harness.service.start_s", "harness.service.start"),
        ("harness.service.restore_s", "harness.service.restore"),
        ("harness.service.handle_s", "replay.handle"),
        ("harness.json.parse_s", "replay.json_parse"),
        ("harness.json.encode_s", "replay.json_encode"),
    ] {
        set(metric, total(span));
    }

    // The engine: only where the benchmark itself calls `run_until`.
    let events = Some(facts.events as f64).filter(|&e| e > 0.0);
    let pkts = count("rnic.data_pkts")
        .zip(count("rnic.retx_pkts"))
        .map(|(d, r)| d + r);
    let run_until = each("netsim.run_until");
    let run_until_s = total("netsim.run_until");
    set("simcore.events", events);
    set("simcore.events_per_pkt", ratio(events, pkts));
    set(
        "simcore.ns_per_event",
        ratio(run_until_s.map(|s| s * 1e9), events),
    );
    set("netsim.run_until_s", run_until_s);
    if !run_until.is_empty() {
        set(
            "netsim.window_p50_ms",
            Some(stats::median(&run_until) * 1e3),
        );
        set(
            "netsim.window_max_ms",
            Some(run_until.iter().copied().fold(0.0, f64::max) * 1e3),
        );
    }
    set(
        "core.block_share",
        ratio(count("core.nacks_blocked"), count("core.nacks_seen")),
    );
    set(
        "sim.retx_share",
        ratio(count("rnic.retx_pkts"), count("rnic.data_pkts")),
    );
    set(
        "collectives.provision_us_per_qp",
        ratio(
            total("collectives.provision").map(|s| s * 1e6),
            count("collectives.qps"),
        ),
    );
    let snapshots = each("telemetry.snapshot");
    set("telemetry.snapshot_s", total("telemetry.snapshot"));
    set(
        "telemetry.snapshot_ms_per_window",
        ratio(
            total("telemetry.snapshot").map(|s| s * 1e3),
            Some(snapshots.len() as f64),
        ),
    );

    // The service: every request's client-side latency, by op.
    for (span, metric) in OP_P50 {
        let calls = each(span);
        if !calls.is_empty() {
            set(metric, Some(stats::median(&calls) * 1e6));
        }
    }
    let calls: Vec<f64> = spans
        .iter()
        .filter(|s| s.rep == rep && s.name.starts_with("call."))
        .map(Span::secs)
        .collect();
    if !calls.is_empty() {
        let call_s = stats::sum(&calls);
        set(
            "harness.service.ops_per_s",
            Some(calls.len() as f64 / call_s),
        );
        let replayed = total("replay.handle")
            .zip(total("replay.json_parse"))
            .zip(total("replay.json_encode"))
            .map(|((handle, parse), encode)| handle + parse + encode);
        set("harness.service.wire_s", replayed.map(|r| call_s - r));
    }
    set(
        "harness.service.restore_us_per_op",
        ratio(
            total("harness.service.restore").map(|s| s * 1e6),
            count("harness.service.journal_ops"),
        ),
    );

    // Estimates: exact count × kernel ns ÷ the run span. Labelled
    // estimates: what outside measurement can say until the program
    // records spans itself. Only where the run span, the events and the
    // packet counts were all observed (the batch and load workloads).
    let kernel = |name: &str| kernels.get(name).copied().unwrap_or(f64::NAN);
    // An entity kernel schedules its follow-up events on a near-empty
    // engine; that part is simcore's, so it is taken out of the entity's
    // cost before the simcore estimate charges every event once.
    let handle_only = |ns: &str, events: &str| {
        (kernel(ns) - kernel(events) * kernel("simcore.hold_ns_p32")).max(0.0)
    };
    if let (Some(span_s), Some(events), Some(pkts), Some(switch_rx), Some(sprayed), Some(nacks)) = (
        run_until_s,
        events,
        pkts,
        count("netsim.switch_rx_pkts"),
        count("core.sprayed"),
        count("core.nacks_seen"),
    ) {
        let span_ns = span_s * 1e9;
        let hooked = if sprayed > 0.0 { pkts } else { 0.0 };
        let explained = [
            events * kernel("simcore.hold_ns_p1k"),
            switch_rx * handle_only("netsim.switch_fwd_ns", "netsim.switch_fwd_events"),
            sprayed * kernel("core.spray_ns")
                + hooked * kernel("core.d_data_ns")
                + nacks * kernel("core.d_nack_ns"),
            pkts * (handle_only("rnic.tx_ns", "rnic.tx_events")
                + handle_only("rnic.rx_data_ns", "rnic.rx_data_events")),
        ];
        for (name, ns) in [
            "est.simcore_share",
            "est.netsim_share",
            "est.core_share",
            "est.rnic_share",
        ]
        .into_iter()
        .zip(explained)
        {
            set(name, Some(ns / span_ns));
        }
        set(
            "est.unexplained_share",
            Some(1.0 - explained.iter().sum::<f64>() / span_ns),
        );
    }

    let root = spans
        .iter()
        .find(|s| s.rep == rep && s.parent.is_none())
        .map_or(0.0, Span::secs);
    let extra = extra_spans
        .iter()
        .fold(0.0, |sum, name| sum + total(name).unwrap_or(0.0));
    set("trace.run_s", Some(root - extra));
    set(
        "trace.covered_share",
        Some(spans::covered_share(spans, rep)),
    );
    m
}

/// `Client::call` spans with a per-op median latency metric.
const OP_P50: [(&str, &str); 6] = [
    ("call.create_qp", "harness.service.create_qp_p50_us"),
    ("call.post_send", "harness.service.post_send_p50_us"),
    ("call.advance", "harness.service.advance_p50_us"),
    ("call.poll_cq", "harness.service.poll_cq_p50_us"),
    ("call.telemetry", "harness.service.telemetry_p50_us"),
    ("call.snapshot", "harness.service.snapshot_p50_us"),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("themis_benchmark: {e}");
            eprintln!(
                "usage: themis_benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
workloads: {}",
                workloads::WORKLOADS.map(|(name, _)| name).join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let out = match out_dir() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("themis_benchmark: no output directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::build(&args.workload, args.seed, &out) else {
        eprintln!("themis_benchmark: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let started = Instant::now();
    println!(
        "# {} seed {} for {} s, trace {}, {} cpu(s)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut tally = Checks::default();
    let (declared, mut metrics): (&[metrics::MetricDef], Metrics) = if args.trace {
        let m = per_layer(
            &args.workload,
            workload.as_ref(),
            args.seconds,
            &out,
            &mut tally,
        );
        (&metrics::PER_LAYER, m)
    } else {
        let m = end_to_end(workload.as_ref(), args.seconds, &mut tally);
        (&metrics::END_TO_END, m)
    };
    // A declared metric that nothing computed is a failure of the
    // benchmark, not a 0: only what the workload itself lists as not
    // applicable is reported as an explicit 0.
    if args.trace {
        let not_applicable = workload.not_applicable();
        println!(
            "# not applicable to {}, reported as 0: {}",
            args.workload,
            not_applicable.join(" ")
        );
        for name in not_applicable {
            tally.check(!metrics.contains_key(name), || {
                format!("{name} is listed as not applicable but was measured")
            });
            metrics.insert(name, 0.0);
        }
    }
    for (name, _, _) in declared.iter().filter(|(name, _, _)| *name != "fail_share") {
        tally.check(metrics.get(name).is_some_and(|v| v.is_finite()), || {
            format!("{name} was not computed")
        });
    }
    let failed = tally.failures.len() as u64;
    if args.trace {
        metrics.insert("fail_share", failed as f64 / tally.attempted.max(1) as f64);
    }

    for failure in tally.failures.iter().take(20) {
        println!("# FAILED {failure}");
    }
    let mut reported = Vec::new();
    for (name, unit, _) in declared {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
        reported.push((
            *name,
            Json::obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    println!(
        "# {} operations attempted, {failed} failed, {:.1} s",
        tally.attempted,
        Duration::as_secs_f64(&started.elapsed())
    );
    // The result: the last line of standard output.
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(tally.attempted.max(1) as i64)),
            ("failed", Json::Int(failed as i64)),
            ("metrics", Json::obj(reported)),
        ])
        .to_string()
    );
    // 1 for a failed check, as `themis_serve` and `themis_load` do; 2 is
    // a usage error.
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

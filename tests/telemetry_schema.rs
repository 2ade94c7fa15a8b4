//! Telemetry JSON schema contract (see EXPERIMENTS.md "Telemetry
//! output" and DESIGN.md "Observability").
//!
//! Four guarantees pinned here:
//!
//! 1. **Golden file** — a synthetic report covering every schema
//!    feature (counters, gauges, histogram binning + clamping, event
//!    ring with overwrite, string escaping, float formatting)
//!    serializes to the exact committed bytes
//!    (`tests/golden/telemetry_schema_v1.json`). Schema changes must
//!    bump `telemetry::SCHEMA_VERSION` and regenerate the golden:
//!    `THEMIS_REGEN_GOLDEN=1 cargo test --test telemetry_schema`.
//! 2. **Windowed golden file** — the time-sliced
//!    `themis-telemetry-windowed` extension document pins its own
//!    format version and committed bytes
//!    (`tests/golden/telemetry_windowed_v1.json`), same regen knob.
//! 3. **Byte stability** — the same seeded experiment serializes to
//!    identical bytes on repeated runs.
//! 4. **The metrics contract** — a Themis run emits the documented
//!    names, and the live counters equal the end-of-run `agg.*`
//!    exports they mirror.

use themis::harness::{run_point_to_point, ExperimentConfig, Scheme};
use themis::telemetry::{EventKind, Report, Sink, WindowedReport};

/// A hand-built report exercising every serializer feature.
fn synthetic_report() -> Report {
    let sink = Sink::new(4); // tiny ring so overwrite is exercised
    let packets = sink.counter("fabric.packets");
    let drops = sink.counter("fabric.drops.buffer");
    let lat = sink.time_hist("collective.msg_latency", 1_000, 4);

    sink.clock().set(500);
    sink.add(packets, 7);
    sink.inc(drops);
    sink.observe(lat, 10);
    sink.observe(lat, 30);
    sink.event(EventKind::PacketDrop, 3, 41);

    sink.clock().set(2_700);
    sink.observe(lat, 20);
    sink.event(EventKind::NackIssued, 3, 42);
    sink.event(EventKind::NackBlocked, 3, 42);
    sink.event(EventKind::NackCompensated, 3, 42);

    sink.clock().set(99_000);
    sink.observe(lat, 1_000_000); // clamped into the last bin
    sink.event(EventKind::RtoFired, 9, 0); // overwrites the oldest event

    // Gauges are snapshot-time exports, as every document's are.
    let mut run = sink.snapshot();
    run.push_gauge("run.goodput_gbps", 98.5);
    run.push_gauge("gauge.with \"quotes\"\\backslash", 2.0); // integral-valued float keeps its ".0"

    let mut report = Report::new();
    report.add_run("synthetic", run);
    report.add_run("empty", themis::telemetry::RunReport::new());
    report
}

#[test]
fn golden_schema_v1() {
    let json = synthetic_report().to_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_schema_v1.json"
    );
    if std::env::var("THEMIS_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("regenerate golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        json, golden,
        "telemetry JSON diverged from the committed schema golden; if the \
         schema changed intentionally, bump telemetry::SCHEMA_VERSION and \
         regenerate with THEMIS_REGEN_GOLDEN=1"
    );
}

/// A hand-built windowed document: two cumulative slices from the same
/// evolving sink (so the second strictly contains the first), plus the
/// window metadata the streaming consumers key on.
fn synthetic_windowed_report() -> WindowedReport {
    let sink = Sink::new(4);
    let packets = sink.counter("fabric.packets");
    let lat = sink.time_hist("collective.msg_latency", 1_000, 4);

    let mut w = WindowedReport::new("synthetic/open_loop", 1_000);
    sink.clock().set(400);
    sink.add(packets, 3);
    sink.observe(lat, 10);
    sink.event(EventKind::PacketDrop, 3, 41);
    let mut slice = sink.snapshot();
    slice.push_counter("window.index", 1);
    slice.sort();
    w.push_slice(1_000, slice);

    sink.clock().set(1_600);
    sink.add(packets, 4);
    sink.observe(lat, 30);
    let mut slice = sink.snapshot();
    slice.push_counter("window.index", 2);
    slice.sort();
    w.push_slice(2_000, slice);
    w
}

#[test]
fn golden_windowed_schema_v1() {
    // The extension document pins its own name/version pair, separate
    // from the base themis-telemetry schema.
    assert_eq!(
        themis::telemetry::WINDOWED_SCHEMA_NAME,
        "themis-telemetry-windowed"
    );
    assert_eq!(themis::telemetry::WINDOWED_SCHEMA_VERSION, 1);
    let json = synthetic_windowed_report().to_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_windowed_v1.json"
    );
    if std::env::var("THEMIS_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("regenerate windowed golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("windowed golden file present");
    assert_eq!(
        json, golden,
        "windowed telemetry JSON diverged from the committed golden; if \
         the time-slice format changed intentionally, bump \
         telemetry::WINDOWED_SCHEMA_VERSION and regenerate with \
         THEMIS_REGEN_GOLDEN=1"
    );
}

#[test]
fn report_is_byte_stable_across_runs() {
    let render = || {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 7);
        let r = run_point_to_point(&cfg, 2 << 20);
        let mut rep = Report::new();
        rep.add_run("p2p", r.telemetry);
        rep.to_json()
    };
    assert_eq!(render(), render(), "same seed must serialize identically");
}

#[test]
fn themis_run_emits_the_documented_contract() {
    let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 7);
    let r = run_point_to_point(&cfg, 2 << 20);
    let t = &r.telemetry;

    // Required names from the EXPERIMENTS.md contract table.
    for name in [
        "themis.sprayed",
        "themis.nacks.blocked",
        "themis.nacks.forwarded_valid",
        "themis.nacks.forwarded_unknown",
        "themis.nacks.compensated",
        "rnic.nacks_issued",
        "rnic.rto_fired",
        "rnic.rate_cuts",
        "fabric.drops.buffer",
        "fabric.ecn_marked",
        "fabric.hook_blocked",
        "run.events",
        "run.sim_end_ns",
        "run.shards",
    ] {
        assert!(t.counter(name).is_some(), "missing counter {name}");
    }
    assert_eq!(
        t.counter("run.shards"),
        Some(1),
        "serial run echoes shards=1"
    );
    for name in ["run.goodput_gbps", "run.tail_ct_us", "run.retx_ratio"] {
        assert!(t.gauge(name).is_some(), "missing gauge {name}");
    }
    assert!(
        t.hists.iter().any(|(n, _)| n == "collective.msg_latency"),
        "missing msg-latency histogram"
    );

    // The live counters must equal the end-of-run stat aggregates they
    // mirror — the instrumentation may not drift from the stats structs.
    for (live, agg) in [
        ("themis.sprayed", "agg.themis.sprayed"),
        ("themis.nacks.blocked", "agg.themis.nacks_blocked"),
        (
            "themis.nacks.forwarded_valid",
            "agg.themis.nacks_forwarded_valid",
        ),
        ("themis.nacks.compensated", "agg.themis.compensations"),
        ("rnic.rto_fired", "agg.nic.rto_fires"),
        ("rnic.nacks_issued", "agg.nic.nacks_sent"),
        ("fabric.ecn_marked", "agg.fabric.ecn_marked"),
        ("fabric.hook_blocked", "agg.fabric.hook_blocked"),
    ] {
        assert_eq!(
            t.counter(live),
            t.counter(agg),
            "live counter {live} diverged from aggregate {agg}"
        );
    }

    // The motivation p2p run reorders: spraying is active and invalid
    // NACKs are blocked, which is the paper's core claim.
    assert!(t.counter("themis.sprayed").unwrap() > 0);
    assert!(t.counter("themis.nacks.blocked").unwrap() > 0);
    assert_eq!(
        t.events.total as usize,
        t.events.ring.len(),
        "this small run must not overflow the 4096-event ring"
    );
    assert!(t
        .events
        .ring
        .iter()
        .any(|e| e.kind == "nack_blocked" || e.kind == "nack_issued"));
}

//! Snapshot types and the versioned JSON report writer.
//!
//! A [`RunReport`] is a plain-data snapshot of one run's metrics —
//! unlike a [`crate::Sink`] it shares no state, so sweep workers can
//! return it across threads and merge it freely. Gauges enter it only
//! at snapshot time, through [`RunReport::push_gauge`]. A [`Report`] maps run labels to snapshots
//! and serializes to the `themis-telemetry` JSON schema:
//!
//! ```json
//! {
//!   "schema": "themis-telemetry",
//!   "version": 1,
//!   "runs": {
//!     "<label>": {
//!       "counters": { "<name>": 0 },
//!       "gauges": { "<name>": 0.0 },
//!       "histograms": {
//!         "<name>": {
//!           "bin_width_ns": 1,
//!           "count": 0,
//!           "sum": 0,
//!           "clamped": 0,
//!           "bins": [ { "start_ns": 0, "count": 0, "sum": 0, "min": 0, "max": 0 } ]
//!         }
//!       },
//!       "events": {
//!         "total": 0,
//!         "capacity": 0,
//!         "ring": [ { "at_ns": 0, "kind": "packet_drop", "qp": 0, "arg": 0 } ]
//!       }
//!     }
//!   }
//! }
//! ```
//!
//! All maps are emitted with sorted keys and every document is streamed
//! through the one [`crate::json::Encoder`] (document style), so the
//! output is byte-stable for a fixed seed.

use crate::json::{Encoder, Layout::Inline, Layout::Spread};
use crate::ring::{EventRecord, EventRing};
use crate::{Registry, TimeHist};

/// One non-empty time bin of a histogram snapshot.
#[derive(Debug, Clone, Copy)]
pub struct BinSnapshot {
    /// Start of the bin in simulated nanoseconds.
    pub start_ns: u64,
    /// Observations in the bin.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

/// Plain-data snapshot of a [`TimeHist`]; empty bins are elided.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Bin width in nanoseconds.
    pub bin_width_ns: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Observations clamped into the last bin.
    pub clamped: u64,
    /// Non-empty bins, ascending by `start_ns`.
    pub bins: Vec<BinSnapshot>,
}

impl HistSnapshot {
    /// Snapshot a live histogram.
    pub fn from_hist(h: &TimeHist) -> HistSnapshot {
        HistSnapshot {
            bin_width_ns: h.bin_width_ns(),
            count: h.count(),
            sum: h.sum(),
            clamped: h.clamped(),
            bins: h
                .bins()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.count > 0)
                .map(|(i, b)| BinSnapshot {
                    start_ns: i as u64 * h.bin_width_ns(),
                    count: b.count,
                    sum: b.sum,
                    min: b.min,
                    max: b.max,
                })
                .collect(),
        }
    }
}

/// One retained event, with the kind resolved to its stable label.
#[derive(Debug, Clone)]
pub struct EventSnapshot {
    /// Simulated time of the event.
    pub at_ns: u64,
    /// Dispatch-key `seq` (merge metadata; never serialized).
    pub seq: u64,
    /// Dispatch-key `lane` (merge metadata; never serialized).
    pub lane: u32,
    /// Stable snake_case event label.
    pub kind: &'static str,
    /// QP / flow identifier (0 when not applicable).
    pub qp: u64,
    /// Kind-specific argument.
    pub arg: u64,
}

/// Snapshot of an [`EventRing`].
#[derive(Debug, Clone, Default)]
pub struct EventsSnapshot {
    /// Events seen over the run (including overwritten ones).
    pub total: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Retained events, oldest first.
    pub ring: Vec<EventSnapshot>,
}

/// A `Send + Clone` snapshot of one run's metrics.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` histograms.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Event-ring snapshot.
    pub events: EventsSnapshot,
}

impl RunReport {
    /// An empty report (useful as a default for schemes without telemetry).
    pub fn new() -> RunReport {
        RunReport::default()
    }

    /// Snapshot a registry and event ring.
    pub fn from_parts(registry: &Registry, ring: &EventRing) -> RunReport {
        RunReport {
            counters: registry
                .counters()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            gauges: Vec::new(),
            hists: registry
                .hists()
                .map(|(n, h)| (n.to_string(), HistSnapshot::from_hist(h)))
                .collect(),
            events: EventsSnapshot {
                total: ring.total_seen(),
                capacity: ring.capacity() as u64,
                ring: ring
                    .iter_in_order()
                    .map(|e: &EventRecord| EventSnapshot {
                        at_ns: e.at_ns,
                        seq: e.seq,
                        lane: e.lane,
                        kind: e.kind.label(),
                        qp: e.qp,
                        arg: e.arg,
                    })
                    .collect(),
            },
        }
    }

    /// Append a counter (used for snapshot-time `agg.*` / `run.*` exports).
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Append a gauge (used for snapshot-time exports).
    pub fn push_gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sort all metric lists by name (the JSON writer sorts anyway; this
    /// makes programmatic inspection deterministic too).
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// A copy of this report with every metric name prefixed by
    /// `prefix` + `.` — the per-client scoping used by the
    /// sim-as-a-service front door so each client's slice of one shared
    /// fabric snapshot stays distinguishable after merging. Event
    /// records carry no names and pass through unchanged.
    pub fn scoped(&self, prefix: &str) -> RunReport {
        let tag = |n: &String| format!("{prefix}.{n}");
        RunReport {
            counters: self.counters.iter().map(|(n, v)| (tag(n), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (tag(n), *v)).collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (tag(n), h.clone()))
                .collect(),
            events: self.events.clone(),
        }
    }

    /// Merge per-shard snapshots of one partitioned run into the single
    /// report the serial engine would have produced.
    ///
    /// Every shard sink registers the same instrument names, so the merge
    /// is by name: counters sum, gauges keep their first occurrence (runs
    /// record no gauges; exported gauges are appended after merging),
    /// histograms add bin-wise, and event rings interleave by the
    /// canonical dispatch key `(at_ns, seq, lane)` before re-truncating to
    /// the ring capacity. The result is sorted by name.
    pub fn merge(parts: Vec<RunReport>) -> RunReport {
        let mut parts = parts.into_iter();
        let mut merged = match parts.next() {
            Some(first) => first,
            None => return RunReport::new(),
        };
        for part in parts {
            for (name, v) in part.counters {
                match merged.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, mv)) => *mv = mv.saturating_add(v),
                    None => merged.counters.push((name, v)),
                }
            }
            for (name, v) in part.gauges {
                if !merged.gauges.iter().any(|(n, _)| *n == name) {
                    merged.gauges.push((name, v));
                }
            }
            for (name, h) in part.hists {
                match merged.hists.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, mh)) => merge_hist(mh, h),
                    None => merged.hists.push((name, h)),
                }
            }
            merged.events.total += part.events.total;
            merged.events.capacity = merged.events.capacity.max(part.events.capacity);
            merged.events.ring.extend(part.events.ring);
        }
        // Stable sort: records of one dispatch share a key and stay in
        // their recording order (a dispatch runs on exactly one shard).
        merged.events.ring.sort_by_key(|e| (e.at_ns, e.seq, e.lane));
        let cap = merged.events.capacity as usize;
        if cap > 0 && merged.events.ring.len() > cap {
            let cut = merged.events.ring.len() - cap;
            merged.events.ring.drain(..cut);
        }
        merged.sort();
        merged
    }

    /// Stream this run into `enc` as one `runs` / `slices[].run` value
    /// of the document style.
    fn encode(&self, enc: &mut Encoder) {
        enc.obj(Spread).key("counters").obj(Spread);
        for (n, v) in by_name(&self.counters) {
            enc.key(n).u64(*v);
        }
        enc.close().key("gauges").obj(Spread);
        for (n, v) in by_name(&self.gauges) {
            enc.key(n).f64(*v);
        }
        enc.close().key("histograms").obj(Spread);
        for (n, h) in by_name(&self.hists) {
            enc.key(n).obj(Inline);
            enc.key("bin_width_ns").u64(h.bin_width_ns);
            enc.key("count").u64(h.count).key("sum").u64(h.sum);
            enc.key("clamped").u64(h.clamped).key("bins").arr(Inline);
            for b in &h.bins {
                enc.obj(Inline).key("start_ns").u64(b.start_ns);
                enc.key("count").u64(b.count).key("sum").u64(b.sum);
                enc.key("min").u64(b.min).key("max").u64(b.max).close();
            }
            enc.close().close();
        }
        enc.close().key("events").obj(Inline);
        enc.key("total").u64(self.events.total);
        enc.key("capacity").u64(self.events.capacity);
        enc.key("ring").arr(Inline);
        for e in &self.events.ring {
            enc.obj(Inline).key("at_ns").u64(e.at_ns);
            enc.key("kind").str(e.kind).key("qp").u64(e.qp);
            enc.key("arg").u64(e.arg).close();
        }
        enc.close().close().close();
    }
}

/// `pairs` sorted by name: every map in the documents has sorted keys.
fn by_name<T>(pairs: &[(String, T)]) -> Vec<&(String, T)> {
    let mut sorted: Vec<_> = pairs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sorted
}

/// Fold `from` into `into` bin-wise; both must share a bin width.
fn merge_hist(into: &mut HistSnapshot, from: HistSnapshot) {
    assert_eq!(
        into.bin_width_ns, from.bin_width_ns,
        "merging histograms with different bin widths"
    );
    into.count += from.count;
    into.sum += from.sum;
    into.clamped += from.clamped;
    // Both bin lists are sorted by start with no repeats: walk `into`'s,
    // emitting `from`'s earlier bins before each and folding in an equal one.
    let a = std::mem::take(&mut into.bins);
    let mut b = from.bins.into_iter().peekable();
    let mut out = Vec::with_capacity(a.len() + b.len());
    for mut bin in a {
        while let Some(earlier) = b.next_if(|y| y.start_ns < bin.start_ns) {
            out.push(earlier);
        }
        if let Some(other) = b.next_if(|y| y.start_ns == bin.start_ns) {
            bin.count += other.count;
            bin.sum += other.sum;
            bin.min = bin.min.min(other.min);
            bin.max = bin.max.max(other.max);
        }
        out.push(bin);
    }
    out.extend(b);
    into.bins = out;
}

/// A labelled collection of [`RunReport`]s that serializes to the
/// versioned `themis-telemetry` JSON document.
#[derive(Debug, Clone, Default)]
pub struct Report {
    runs: Vec<(String, RunReport)>,
}

/// Schema identifier emitted in every report.
pub const SCHEMA_NAME: &str = "themis-telemetry";
/// Current schema version.
pub const SCHEMA_VERSION: u32 = 1;

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Add a run under `label` (labels should be unique; duplicates are
    /// all emitted and later ones shadow earlier ones for readers that
    /// build maps).
    pub fn add_run(&mut self, label: &str, run: RunReport) {
        self.runs.push((label.to_string(), run));
    }

    /// Runs added so far.
    pub fn runs(&self) -> &[(String, RunReport)] {
        &self.runs
    }

    /// Serialize to the versioned JSON schema (sorted keys, 2-space
    /// indent, trailing newline; byte-stable for identical input).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut enc = Encoder::document(&mut out);
        enc.obj(Spread).key("schema").str(SCHEMA_NAME);
        enc.key("version").u64(SCHEMA_VERSION.into());
        enc.key("runs").obj(Spread);
        for (label, run) in by_name(&self.runs) {
            run.encode(enc.key(label));
        }
        enc.close().close();
        out
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Schema identifier of the windowed (time-sliced) document.
pub const WINDOWED_SCHEMA_NAME: &str = "themis-telemetry-windowed";
/// Current windowed-document schema version.
pub const WINDOWED_SCHEMA_VERSION: u32 = 1;

/// A time-sliced telemetry document: **cumulative** [`RunReport`]
/// snapshots taken at fixed simulated-time boundaries during one long
/// run, serialized as the versioned `themis-telemetry-windowed` JSON
/// extension.
///
/// Each slice is a full run snapshot at its `end_ns` boundary (counters
/// are cumulative since run start, so a time series of deltas is the
/// difference of adjacent slices). Sharded runs produce each slice via
/// [`RunReport::merge`] over the per-shard sinks, so the document is
/// byte-identical between serial and sharded execution of the same
/// seed.
#[derive(Debug, Clone, Default)]
pub struct WindowedReport {
    label: String,
    window_ns: u64,
    slices: Vec<(u64, RunReport)>,
}

impl WindowedReport {
    /// An empty windowed report for a run labelled `label`, sliced every
    /// `window_ns` of simulated time.
    pub fn new(label: &str, window_ns: u64) -> WindowedReport {
        WindowedReport {
            label: label.to_string(),
            window_ns,
            slices: Vec::new(),
        }
    }

    /// Append the cumulative snapshot taken at boundary `end_ns`.
    /// Boundaries must be appended in increasing order.
    pub fn push_slice(&mut self, end_ns: u64, run: RunReport) {
        if let Some(&(prev, _)) = self.slices.last() {
            assert!(prev < end_ns, "slices must be pushed in time order");
        }
        self.slices.push((end_ns, run));
    }

    /// The slices pushed so far, `(end_ns, snapshot)` in time order.
    pub fn slices(&self) -> &[(u64, RunReport)] {
        &self.slices
    }

    /// The slice width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// The run label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Serialize to the versioned windowed JSON schema (sorted keys
    /// inside each slice, trailing newline; byte-stable for identical
    /// input).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut enc = Encoder::document(&mut out);
        enc.obj(Spread).key("schema").str(WINDOWED_SCHEMA_NAME);
        enc.key("version").u64(WINDOWED_SCHEMA_VERSION.into());
        enc.key("label").str(&self.label);
        enc.key("window_ns").u64(self.window_ns);
        enc.key("slices").arr(Spread);
        for (end_ns, run) in &self.slices {
            run.encode(enc.obj(Inline).key("end_ns").u64(*end_ns).key("run"));
            enc.close();
        }
        enc.close().close();
        out
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    #[test]
    fn empty_report_is_stable() {
        let r = Report::new();
        assert_eq!(
            r.to_json(),
            "{\n  \"schema\": \"themis-telemetry\",\n  \"version\": 1,\n  \"runs\": {}\n}\n"
        );
    }

    #[test]
    fn empty_run_flushes_empty_sections() {
        let mut rep = Report::new();
        rep.add_run("empty", RunReport::new());
        let json = rep.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"ring\": []"));
    }

    #[test]
    fn keys_are_sorted_and_floats_stay_floats() {
        let mut run = RunReport::new();
        run.push_counter("z.last", 2);
        run.push_counter("a.first", 1);
        run.push_gauge("g.int_valued", 2.0);
        let mut rep = Report::new();
        rep.add_run("r", run);
        let json = rep.to_json();
        let a = json.find("\"a.first\"").unwrap();
        let z = json.find("\"z.last\"").unwrap();
        assert!(a < z);
        assert!(json.contains("\"g.int_valued\": 2.0"));
    }

    #[test]
    fn snapshot_round_trips_registry_and_ring() {
        let mut reg = Registry::new();
        let c = reg.counter("pkt");
        let h = reg.time_hist("lat", 100, 4);
        reg.add(c, 3);
        reg.observe(h, 150, 7);
        let mut ring = EventRing::new(2);
        ring.push(EventRecord {
            at_ns: 5,
            seq: 0,
            lane: 0,
            kind: EventKind::NackBlocked,
            qp: 1,
            arg: 42,
        });
        let run = RunReport::from_parts(&reg, &ring);
        assert_eq!(run.counter("pkt"), Some(3));
        assert_eq!(run.hists[0].1.bins.len(), 1);
        assert_eq!(run.hists[0].1.bins[0].start_ns, 100);
        assert_eq!(run.events.ring[0].kind, "nack_blocked");
        let mut rep = Report::new();
        rep.add_run("run", run);
        let json = rep.to_json();
        assert!(json.contains("\"nack_blocked\""));
        assert!(json.contains("\"pkt\": 3"));
    }

    #[test]
    fn merge_sums_counters_and_interleaves_rings() {
        let ev = |at_ns, seq, lane, arg| EventSnapshot {
            at_ns,
            seq,
            lane,
            kind: "packet_drop",
            qp: 0,
            arg,
        };
        let mut a = RunReport::new();
        a.push_counter("fabric.drops", 2);
        a.push_counter("only.a", 1);
        a.events.total = 2;
        a.events.capacity = 4;
        a.events.ring = vec![ev(10, 3, 0, 1), ev(30, 1, 2, 3)];
        let mut b = RunReport::new();
        b.push_counter("fabric.drops", 5);
        b.events.total = 2;
        b.events.capacity = 4;
        b.events.ring = vec![ev(10, 3, 1, 2), ev(40, 0, 0, 4)];
        let m = RunReport::merge(vec![a, b]);
        assert_eq!(m.counter("fabric.drops"), Some(7));
        assert_eq!(m.counter("only.a"), Some(1));
        assert_eq!(m.events.total, 4);
        let args: Vec<u64> = m.events.ring.iter().map(|e| e.arg).collect();
        assert_eq!(args, vec![1, 2, 3, 4]);
    }

    #[test]
    fn merge_truncates_ring_to_capacity_keeping_latest() {
        let ev = |at_ns| EventSnapshot {
            at_ns,
            seq: 0,
            lane: 0,
            kind: "rto_fired",
            qp: 0,
            arg: at_ns,
        };
        let mut a = RunReport::new();
        a.events.capacity = 3;
        a.events.total = 3;
        a.events.ring = vec![ev(1), ev(3), ev(5)];
        let mut b = RunReport::new();
        b.events.capacity = 3;
        b.events.total = 2;
        b.events.ring = vec![ev(2), ev(4)];
        let m = RunReport::merge(vec![a, b]);
        assert_eq!(m.events.total, 5);
        let at: Vec<u64> = m.events.ring.iter().map(|e| e.at_ns).collect();
        assert_eq!(at, vec![3, 4, 5]);
    }

    #[test]
    fn merge_folds_histogram_bins() {
        let bin = |start_ns, count, sum, min, max| BinSnapshot {
            start_ns,
            count,
            sum,
            min,
            max,
        };
        let mut a = RunReport::new();
        a.hists.push((
            "lat".to_string(),
            HistSnapshot {
                bin_width_ns: 100,
                count: 2,
                sum: 10,
                clamped: 0,
                bins: vec![bin(0, 1, 4, 4, 4), bin(200, 1, 6, 6, 6)],
            },
        ));
        let mut b = RunReport::new();
        b.hists.push((
            "lat".to_string(),
            HistSnapshot {
                bin_width_ns: 100,
                count: 2,
                sum: 9,
                clamped: 1,
                bins: vec![bin(100, 1, 2, 2, 2), bin(200, 1, 7, 7, 7)],
            },
        ));
        let m = RunReport::merge(vec![a, b]);
        let h = &m.hists[0].1;
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 19);
        assert_eq!(h.clamped, 1);
        let starts: Vec<u64> = h.bins.iter().map(|b| b.start_ns).collect();
        assert_eq!(starts, vec![0, 100, 200]);
        assert_eq!(h.bins[2].count, 2);
        assert_eq!(h.bins[2].min, 6);
        assert_eq!(h.bins[2].max, 7);
    }
}

//! Telemetry: a zero-allocation-on-hot-path metric registry, a bounded
//! structured event ring, and a versioned JSON report format shared by
//! every layer of the simulation stack.
//!
//! The crate is dependency-free (it does not even depend on `simcore`)
//! so any crate in the workspace can report into it. Simulated time
//! enters through a [`SharedClock`] that the network world's dispatch
//! loop updates on every event dispatch; components never pass timestamps
//! explicitly on the hot path. Every handle here is `Send`, so the
//! entities that hold one can move onto a shard worker thread.
//!
//! # Architecture
//!
//! * [`Registry`] — counters and time-bucketed histograms.
//!   Registration by name happens at assembly time and allocates ids;
//!   recording afterwards is an indexed store (see the id-allocation
//!   rules in [`registry`]).
//! * [`EventRing`] — fixed-capacity, overwrite-oldest buffer of
//!   structured events ([`EventKind`]), for post-mortem `--trace-last`
//!   dumps.
//! * [`Sink`] — the shared handle components hold: an
//!   `Arc<Mutex<…>>` over one registry and ring, plus the clock and
//!   stamp. Cloning a sink is three `Arc` bumps and all clones report
//!   into the same state. The simulator's entities keep their counters
//!   as plain fields and use a sink for histograms and events only; the
//!   harness reads the counters at snapshot time. In a sharded run each
//!   shard has its own sink, so a lock is never contended.
//! * [`RunReport`] / [`Report`] — `Send + Clone` snapshots and the
//!   versioned `themis-telemetry` JSON document (see [`report`]).
//! * [`json`] — the workspace's one JSON codec: the value type, its
//!   parser and the streaming encoder every document goes through.
//!
//! # Example
//!
//! ```
//! use telemetry::{EventKind, Report, Sink};
//!
//! let sink = Sink::new(16);
//! let drops = sink.counter("fabric.drops.buffer");
//! let gap = sink.time_hist("rnic.ooo_gap", 1_000, 8);
//!
//! sink.clock().set(2_500); // the dispatch loop does this on every dispatch
//! sink.inc(drops);
//! sink.observe(gap, 3);
//! sink.event(EventKind::PacketDrop, 7, 42);
//!
//! let mut report = Report::new();
//! report.add_run("demo", sink.snapshot());
//! let json = report.to_json();
//! assert!(json.contains("\"fabric.drops.buffer\": 1"));
//! assert!(json.contains("\"packet_drop\""));
//! ```

#![warn(missing_docs)]
// Non-test code states its invariants (`#[expect(.., reason)]` at the
// sites that keep one) instead of unwrapping, expecting or panicking;
// tests are exempt through clippy.toml.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod json;
pub mod registry;
pub mod report;
pub mod ring;

pub use registry::{BinStat, CounterId, HistId, Registry, TimeHist};
pub use report::{
    BinSnapshot, EventSnapshot, EventsSnapshot, HistSnapshot, Report, RunReport, WindowedReport,
    SCHEMA_NAME, SCHEMA_VERSION, WINDOWED_SCHEMA_NAME, WINDOWED_SCHEMA_VERSION,
};
pub use ring::{EventKind, EventRecord, EventRing};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared simulated-time clock (nanoseconds).
///
/// The simulation engine owns the authoritative clock; the network
/// world's dispatch loop mirrors each dispatch's time into this cell
/// before handing the event to its entity; every [`Sink`] clone reads it
/// when stamping observations and events. Cloning shares the cell.
/// `Relaxed` suffices: one shard's thread both writes and reads it, and
/// thread spawn and join order the handoff between threads.
#[derive(Debug, Clone, Default)]
pub struct SharedClock(Arc<AtomicU64>);

impl SharedClock {
    /// A clock starting at 0 ns.
    pub fn new() -> SharedClock {
        SharedClock::default()
    }

    /// Current simulated time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Set the simulated time (called by the dispatch loop).
    #[inline]
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Relaxed);
    }
}

/// The `(seq, lane)` canonical key of the event currently being
/// dispatched, mirrored by the dispatch loop alongside the [`SharedClock`].
///
/// Structured event records are stamped with it so rings recorded by
/// different shards of a partitioned run can be merged back into the
/// exact serial dispatch order: `(at_ns, seq, lane)` is a total order
/// over dispatches. The stamp never reaches the JSON schema — it is
/// merge metadata only. Ordering is `Relaxed`, as for [`SharedClock`].
#[derive(Debug, Clone, Default)]
pub struct SharedStamp(Arc<StampCell>);

#[derive(Debug, Default)]
struct StampCell {
    seq: AtomicU64,
    lane: AtomicU32,
}

impl SharedStamp {
    /// A stamp starting at `(0, 0)`.
    pub fn new() -> SharedStamp {
        SharedStamp::default()
    }

    /// The `(seq, lane)` key of the current dispatch.
    #[inline]
    pub fn get(&self) -> (u64, u32) {
        (self.0.seq.load(Relaxed), self.0.lane.load(Relaxed))
    }

    /// Set the current dispatch key (called by the dispatch loop).
    #[inline]
    pub fn set(&self, seq: u64, lane: u32) {
        self.0.seq.store(seq, Relaxed);
        self.0.lane.store(lane, Relaxed);
    }
}

#[derive(Debug)]
struct SinkInner {
    registry: Registry,
    ring: EventRing,
}

/// The shared telemetry handle held by every instrumented component.
///
/// All clones of a sink share one [`Registry`], one [`EventRing`] and
/// one [`SharedClock`]. Recording operations lock the shared state for
/// the duration of one indexed store — zero allocation, no event
/// scheduling, no effect on simulation determinism.
#[derive(Debug, Clone)]
pub struct Sink {
    clock: SharedClock,
    stamp: SharedStamp,
    inner: Arc<Mutex<SinkInner>>,
}

impl Sink {
    /// A fresh sink with an event ring of `ring_capacity` entries.
    pub fn new(ring_capacity: usize) -> Sink {
        Sink {
            clock: SharedClock::new(),
            stamp: SharedStamp::new(),
            inner: Arc::new(Mutex::new(SinkInner {
                registry: Registry::new(),
                ring: EventRing::new(ring_capacity),
            })),
        }
    }

    /// The shared state. Every critical section is one store into plain
    /// vectors, so a lock poisoned by a panicking holder still guards
    /// consistent data.
    #[inline]
    fn lock(&self) -> MutexGuard<'_, SinkInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The clock all observations are stamped with. The network world's
    /// dispatch loop mirrors simulated time into it once the sink is
    /// attached to the world.
    pub fn clock(&self) -> SharedClock {
        self.clock.clone()
    }

    /// The dispatch-key stamp event records carry (see [`SharedStamp`]).
    /// The dispatch loop writes it alongside the clock.
    pub fn stamp(&self) -> SharedStamp {
        self.stamp.clone()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&self, name: &str) -> CounterId {
        self.lock().registry.counter(name)
    }

    /// Register (or look up) a time-bucketed histogram by name.
    pub fn time_hist(&self, name: &str, bin_width_ns: u64, bins: usize) -> HistId {
        self.lock().registry.time_hist(name, bin_width_ns, bins)
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.lock().registry.inc(id);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.lock().registry.add(id, n);
    }

    /// Record `value` in a histogram at the current simulated time.
    #[inline]
    pub fn observe(&self, id: HistId, value: u64) {
        let now = self.clock.now();
        self.lock().registry.observe(id, now, value);
    }

    /// Record a structured event at the current simulated time.
    #[inline]
    pub fn event(&self, kind: EventKind, qp: u64, arg: u64) {
        let at_ns = self.clock.now();
        let (seq, lane) = self.stamp.get();
        self.lock().ring.push(EventRecord {
            at_ns,
            seq,
            lane,
            kind,
            qp,
            arg,
        });
    }

    /// Snapshot the registry and ring into a `Send + Clone` report.
    pub fn snapshot(&self) -> RunReport {
        let inner = self.lock();
        RunReport::from_parts(&inner.registry, &inner.ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state_and_clock() {
        let sink = Sink::new(4);
        let other = sink.clone();
        let c = sink.counter("shared");
        let c2 = other.counter("shared");
        assert_eq!(c, c2);
        other.inc(c2);
        sink.add(c, 2);
        assert_eq!(sink.snapshot().counter("shared"), Some(3));

        sink.clock().set(777);
        other.event(EventKind::RtoFired, 9, 0);
        let snap = sink.snapshot();
        let last = snap.events.ring.last().expect("one event");
        assert_eq!(last.at_ns, 777);
        assert_eq!(last.qp, 9);
    }

    #[test]
    fn observe_stamps_with_clock_time() {
        let sink = Sink::new(4);
        let h = sink.time_hist("h", 100, 4);
        sink.clock().set(250);
        sink.observe(h, 5);
        let snap = sink.snapshot();
        assert_eq!(snap.hists[0].1.bins[0].start_ns, 200);
    }

    #[test]
    fn empty_sink_snapshot_is_empty() {
        let sink = Sink::new(4);
        let snap = sink.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
        assert_eq!(snap.events.total, 0);
        assert!(snap.events.ring.is_empty());
    }
}

//! The simulation run loop.
//!
//! [`Engine`] owns the clock and the event queue and hands events out
//! one at a time through [`Engine::step`]. Higher layers (the network
//! `World`) decide what an event *means*; the engine only guarantees
//! ordering, monotonic time, and the stopping conditions (horizon /
//! queue exhaustion).

use crate::event::{EventQueue, Scheduled};
use crate::time::{Nanos, TimeDelta};

/// Why a run loop over [`Engine::step`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The next event lay beyond the configured time horizon.
    HorizonReached,
}

/// A discrete-event engine over payload type `T`.
///
/// ```
/// use simcore::engine::Engine;
/// use simcore::time::Nanos;
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_at(Nanos(20), "second");
/// engine.schedule_at(Nanos(10), "first");
/// let mut seen = Vec::new();
/// while let Some(ev) = engine.step() {
///     seen.push(ev.payload);
/// }
/// assert_eq!(seen, ["first", "second"]);
/// assert_eq!(engine.now(), Nanos(20));
/// ```
#[derive(Debug)]
pub struct Engine<T> {
    queue: EventQueue<T>,
    now: Nanos,
    dispatched: u64,
    clock: Option<telemetry::SharedClock>,
    stamp: Option<telemetry::SharedStamp>,
    /// Events at or beyond this time are not dispatched.
    pub horizon: Nanos,
}

impl<T> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Engine<T> {
    /// A fresh engine at time zero with no limits.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: Nanos::ZERO,
            dispatched: 0,
            clock: None,
            stamp: None,
            horizon: Nanos::MAX,
        }
    }

    /// Mirror the engine clock into a telemetry [`telemetry::SharedClock`]
    /// after every advance, so instrumented components can stamp metric
    /// observations without being handed a timestamp explicitly.
    pub fn attach_clock(&mut self, clock: telemetry::SharedClock) {
        clock.set(self.now.as_nanos());
        self.clock = Some(clock);
    }

    /// Mirror the `(seq, lane)` key of the event being dispatched into a
    /// telemetry [`telemetry::SharedStamp`], so structured event records
    /// carry the canonical dispatch key. Together with the clock this lets
    /// per-shard event rings be merged back into the exact serial order.
    pub fn attach_stamp(&mut self, stamp: telemetry::SharedStamp) {
        self.stamp = Some(stamp);
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `payload` `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: TimeDelta, payload: T) {
        self.queue.push(self.now + delay, payload);
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// `at` is clamped to the current time: scheduling into the past would
    /// break causality, so such requests are delivered "now" instead (this
    /// can only arise from caller arithmetic bugs; a debug assertion flags
    /// them in test builds).
    #[inline]
    pub fn schedule_at(&mut self, at: Nanos, payload: T) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at.max(self.now), payload);
    }

    /// Schedule `payload` at absolute time `at` with a caller-assigned
    /// `(seq, lane)` tie-break key (see [`EventQueue::push_keyed`]).
    #[inline]
    pub fn schedule_keyed(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push_keyed(at.max(self.now), seq, lane, payload);
    }

    /// Delivery time of the earliest pending event, ignoring the horizon.
    #[inline]
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.queue.peek_time()
    }

    /// Drain every pending event in key order, resetting the queue.
    /// Used to split a run across shards (and to merge it back).
    pub fn take_pending(&mut self) -> Vec<Scheduled<T>> {
        self.queue.drain_all()
    }

    /// Re-insert an event with its key preserved (counterpart of
    /// [`Self::take_pending`]).
    #[inline]
    pub fn restore(&mut self, ev: Scheduled<T>) {
        debug_assert!(ev.at >= self.now, "restoring into the past");
        self.queue.restore(ev);
    }

    /// A fresh engine sharing this engine's clock position and horizon,
    /// but with an empty queue, zero dispatch count, and no telemetry
    /// attachments. Shards are forked off the main engine at the
    /// start of a partitioned run.
    pub fn fork(&self) -> Engine<T> {
        Engine {
            queue: EventQueue::new(),
            now: self.now,
            dispatched: 0,
            clock: None,
            stamp: None,
            horizon: self.horizon,
        }
    }

    /// Fold a finished shard engine back into this one: the clock advances
    /// to the later of the two, dispatch counts add, and any still-pending
    /// events (e.g. beyond the horizon) return with their keys intact.
    pub fn absorb(&mut self, mut other: Engine<T>) {
        self.now = self.now.max(other.now);
        if let Some(clock) = &self.clock {
            clock.set(self.now.as_nanos());
        }
        self.dispatched += other.dispatched;
        for ev in other.queue.drain_all() {
            self.queue.restore(ev);
        }
    }

    /// Pop the next event and advance the clock to it.
    ///
    /// Returns `None` when the queue is empty or the next event lies
    /// beyond the horizon ([`Self::pending`] tells the two apart).
    // Always inlined, so that the payload popped off the queue lands
    // directly in the caller's frame.
    #[inline(always)]
    pub fn step(&mut self) -> Option<Scheduled<T>> {
        let ev = self.queue.pop_at_or_before(self.horizon)?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        if let Some(clock) = &self.clock {
            clock.set(ev.at.as_nanos());
        }
        if let Some(stamp) = &self.stamp {
            stamp.set(ev.seq, ev.lane);
        }
        self.dispatched += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Nanos(100), 1);
        e.schedule_at(Nanos(50), 2);
        let ev = e.step().unwrap();
        assert_eq!(ev.payload, 2);
        assert_eq!(e.now(), Nanos(50));
        let ev = e.step().unwrap();
        assert_eq!(ev.payload, 1);
        assert_eq!(e.now(), Nanos(100));
        assert!(e.step().is_none());
    }

    #[test]
    fn attached_clock_tracks_engine_time() {
        let mut e: Engine<u32> = Engine::new();
        let clock = telemetry::SharedClock::new();
        e.attach_clock(clock.clone());
        assert_eq!(clock.now(), 0);
        e.schedule_at(Nanos(75), 1);
        e.step().unwrap();
        assert_eq!(clock.now(), 75);
        e.schedule_at(Nanos(90), 2);
        e.step().unwrap();
        assert_eq!(clock.now(), 90);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(Nanos(10), "first");
        e.step();
        e.schedule_in(TimeDelta(5), "second");
        let ev = e.step().unwrap();
        assert_eq!(ev.at, Nanos(15));
        assert_eq!(ev.payload, "second");
    }

    #[test]
    fn step_drains_queue_in_order() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule_at(Nanos(i as u64), i);
        }
        let seen: Vec<u32> = std::iter::from_fn(|| e.step())
            .map(|ev| ev.payload)
            .collect();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn handler_can_reschedule() {
        // A self-perpetuating timer that stops after 5 firings.
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Nanos(0), 0);
        let mut count = 0;
        while let Some(ev) = e.step() {
            count += 1;
            if ev.payload < 4 {
                e.schedule_in(TimeDelta(10), ev.payload + 1);
            }
        }
        assert_eq!(count, 5);
        assert_eq!(e.now(), Nanos(40));
    }

    #[test]
    fn horizon_stops_run() {
        let mut e: Engine<u32> = Engine::new();
        e.horizon = Nanos(100);
        e.schedule_at(Nanos(50), 1);
        e.schedule_at(Nanos(150), 2);
        let seen: Vec<u32> = std::iter::from_fn(|| e.step())
            .map(|ev| ev.payload)
            .collect();
        assert_eq!(seen, vec![1]);
        assert_eq!(e.pending(), 1);
    }
}

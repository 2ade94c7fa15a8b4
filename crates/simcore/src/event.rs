//! Time-ordered event queue with deterministic tie-breaking.
//!
//! The queue is keyed on `(time, seq, lane)`. For plainly [`EventQueue::push`]ed
//! events `seq` is a monotonically increasing insertion counter (and `lane`
//! is 0), so two events scheduled for the same instant are delivered in the
//! order they were scheduled, which makes whole-simulation replays
//! bit-identical — a property the test suite checks end-to-end.
//!
//! [`EventQueue::push_keyed`] lets a higher layer assign the full key
//! itself. The sharded parallel engine uses this: each scheduling entity
//! (a `lane`) carries its own Lamport-style `seq` counter, which makes the
//! key independent of *which engine* an event was pushed into — the
//! property that lets a partitioned run dispatch in exactly the same
//! canonical order as a serial run. The two push flavors must not be mixed
//! on one queue unless the caller guarantees key uniqueness across both.
//!
//! ## Implementation: a paged timer wheel over a ns-resolution level
//!
//! A discrete-event network simulation pushes and pops millions of events
//! whose delivery times cluster tightly around "now" (serialization at
//! 100–400 Gbps spaces packet events tens of nanoseconds apart). A global
//! binary heap pays `O(log n)` per operation over the *whole* event
//! population; the three-level layout below pays near-`O(1)` by
//! bucketing the near future:
//!
//! * **active** — a small binary heap holding the earliest window's
//!   events (plus any same-window insertions). All pops come from here,
//!   so exact `(time, seq, lane)` ordering is preserved by the heap
//!   compare. The window is one wheel bucket, or one nanosecond of it:
//! * **fine** — `FINE_SLOTS` one-ns slots (unsorted `Vec`s, 4-word
//!   bitmap) covering the bucket being drained. A 256 ns bucket is sized
//!   for a handful of hosts; on a 256-host fabric it holds thousands of
//!   events, and heapifying it whole makes every push/pop pay for that
//!   population. A bucket loaded with more than `SCATTER_MIN` events is
//!   scattered here instead and fed to `active` one slot at a time;
//!   smaller buckets are heapified directly.
//! * **wheel** — one page of `WHEEL_BUCKETS` buckets of
//!   `1 << GRAN_BITS` ns each (unsorted `Vec`s, found via a bitmap).
//!   Covers ~2 ms past the active window.
//! * **overflow** — a binary heap for events beyond the page (RTO-scale
//!   timers). Drained into the wheel page by page.
//!
//! Events migrate overflow → wheel → (fine →) active carrying their
//! original key, and equal timestamps always land in the same bucket and
//! slot, so pop order is bit-identical to the reference heap (randomized
//! equivalence tests in `tests/` check exactly this, in both regimes).
//!
//! **Do not retain bucket or slot capacity.** A drained bucket's or
//! slot's `Vec` *becomes* `active`'s buffer and the previous buffer is
//! dropped. Recycling those buffers looks cheaper but pins the
//! high-water capacity of every slot and bucket ever used: measured
//! +45 % to +100 % peak RSS on the 256-host workloads (and 13× when
//! bucket capacity was kept), for no gain in time.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// log2 of the bucket width in nanoseconds (256 ns per bucket).
const GRAN_BITS: u32 = 8;
/// log2 of the bucket count per page (8192 buckets ≈ 2.1 ms per page).
const WHEEL_BITS: u32 = 13;
const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;
/// Nanoseconds covered by one wheel page.
const PAGE_SPAN: u64 = (WHEEL_BUCKETS as u64) << GRAN_BITS;
/// Words in the wheel's occupancy bitmap.
const BITMAP_WORDS: usize = WHEEL_BUCKETS / 64;
/// One-ns slots under a bucket (one per nanosecond of its width).
const FINE_SLOTS: usize = 1 << GRAN_BITS;
/// A bucket loaded with more events than this is scattered into the ns
/// slots; at or below it, heapifying the whole bucket is cheaper.
const SCATTER_MIN: usize = 64;

/// An event plus its delivery metadata, as stored in the queue.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Delivery time.
    pub at: Nanos,
    /// Sequence number; breaks same-time ties deterministically. Plain
    /// pushes draw it from a per-queue insertion counter; keyed pushes
    /// carry a per-lane counter assigned by the caller.
    pub seq: u64,
    /// Scheduling lane (the entity that pushed the event, in keyed mode).
    /// Breaks (time, seq) ties across lanes; 0 for plain pushes.
    pub lane: u32,
    /// The payload delivered to the dispatcher.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq && self.lane == other.lane
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| other.lane.cmp(&self.lane))
    }
}

/// A deterministic future-event list (paged timer wheel).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Earliest-window events; every pop comes from this heap.
    active: BinaryHeap<Scheduled<T>>,
    /// Inclusive upper bound on delivery times routed to `active`.
    /// (Inclusive so a page ending at `u64::MAX` is representable.)
    active_last: u64,
    /// One-ns slots of the bucket being drained, when it was scattered.
    fine: Vec<Vec<Scheduled<T>>>,
    /// One bit per slot: does it hold any events?
    fine_occupied: [u64; FINE_SLOTS / 64],
    /// Events currently in slots.
    fine_count: usize,
    /// Delivery time of slot 0.
    fine_start: u64,
    /// Inclusive upper bound on delivery times routed to the slots; at
    /// or below `active_last` whenever no scattered bucket is draining.
    fine_last: u64,
    /// The current page's buckets (`None`-free; empty `Vec`s cost nothing).
    wheel: Vec<Vec<Scheduled<T>>>,
    /// One bit per bucket: does it hold any events?
    occupied: [u64; BITMAP_WORDS],
    /// Events currently in wheel buckets.
    wheel_count: usize,
    /// Inclusive lower time bound of the current page.
    page_start: u64,
    /// Inclusive upper time bound of the current page.
    page_last: u64,
    /// Next bucket index to load into `active`.
    cursor: usize,
    /// Events at or beyond `page_end`.
    overflow: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
    /// Events ever inserted (plain or keyed).
    total: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            active: BinaryHeap::new(),
            active_last: 0,
            fine: (0..FINE_SLOTS).map(|_| Vec::new()).collect(),
            fine_occupied: [0; FINE_SLOTS / 64],
            fine_count: 0,
            fine_start: 0,
            fine_last: 0,
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            wheel_count: 0,
            page_start: 0,
            page_last: PAGE_SPAN - 1,
            cursor: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            total: 0,
            len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` for delivery at absolute time `at`, drawing the
    /// tie-break key from the queue's own insertion counter (lane 0).
    #[inline]
    pub fn push(&mut self, at: Nanos, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Scheduled {
            at,
            seq,
            lane: 0,
            payload,
        });
    }

    /// Schedule `payload` with a caller-assigned `(seq, lane)` tie-break
    /// key. The caller owns key uniqueness; the queue only orders.
    #[inline]
    pub fn push_keyed(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        self.insert(Scheduled {
            at,
            seq,
            lane,
            payload,
        });
    }

    /// Re-insert an event popped or drained from a queue, preserving its
    /// original key. Used when redistributing events between the serial
    /// engine and per-shard engines.
    #[inline]
    pub fn restore(&mut self, ev: Scheduled<T>) {
        self.insert(ev);
    }

    /// Pop every pending event (in key order) and reset the paging state
    /// so the queue accepts arbitrary future timestamps again. The
    /// insertion counter survives, keeping later plain pushes unique.
    pub fn drain_all(&mut self) -> Vec<Scheduled<T>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        // Popping everything left every bucket, slot, bitmap and count
        // empty; rewind the time bounds in place and keep the (empty)
        // bucket and slot vectors rather than reallocating ~200 KB per
        // call. The heaps' buffers go: they scale with past residency.
        self.active = BinaryHeap::new();
        self.overflow = BinaryHeap::new();
        self.active_last = 0;
        self.fine_last = 0;
        self.page_start = 0;
        self.page_last = PAGE_SPAN - 1;
        self.cursor = 0;
        out
    }

    #[inline]
    fn insert(&mut self, ev: Scheduled<T>) {
        self.len += 1;
        self.total += 1;
        let t = ev.at.as_nanos();
        if self.len == 1 && t > self.active_last && t <= self.page_last {
            // Empty queue: make this event the active window's upper
            // bound so it skips the wheel entirely. Safe because there
            // is nothing to order against, and any later push below `t`
            // joins the active heap, which keeps exact (time, seq)
            // order. Keeps a lone self-rescheduling timer on the cheap
            // heap path instead of paying a bucket migration per event.
            // Capped at the page boundary so one far-future push can't
            // widen the active window into a de-facto global heap.
            self.active_last = t;
        }
        if t <= self.active_last {
            // Same (or earlier) window as the events being drained now:
            // the heap keeps (time, seq) order exact.
            self.active.push(ev);
        } else if t <= self.fine_last {
            // A later nanosecond of the scattered bucket being drained.
            self.file_in_slot(ev);
        } else if t <= self.page_last {
            self.file_in_wheel(ev);
        } else {
            self.overflow.push(ev);
        }
        if self.active.is_empty() {
            self.settle();
        }
    }

    /// File an event of the scattered bucket being drained under its ns.
    #[inline]
    fn file_in_slot(&mut self, ev: Scheduled<T>) {
        let s = (ev.at.as_nanos() - self.fine_start) as usize;
        self.fine[s].push(ev);
        self.fine_occupied[s >> 6] |= 1u64 << (s & 63);
        self.fine_count += 1;
    }

    /// File an in-page event (beyond the window being drained) under its
    /// bucket.
    #[inline]
    fn file_in_wheel(&mut self, ev: Scheduled<T>) {
        let b = ((ev.at.as_nanos() - self.page_start) >> GRAN_BITS) as usize;
        debug_assert!(b >= self.cursor && b < WHEEL_BUCKETS);
        self.wheel[b].push(ev);
        self.occupied[b >> 6] |= 1u64 << (b & 63);
        self.wheel_count += 1;
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.pop_at_or_before(Nanos::MAX)
    }

    /// Remove and return the earliest event unless it is due after
    /// `horizon` (or the queue is empty).
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: Nanos) -> Option<Scheduled<T>> {
        // `settle` maintains: queue non-empty ⇒ `active` non-empty.
        let ev = pop_due(&mut self.active, horizon)?;
        self.len -= 1;
        // Gating on `len` keeps the common lone-timer pattern — pop the
        // only event, push its successor — off the (non-inlined) `settle`.
        if self.active.is_empty() && self.len > 0 {
            self.settle();
        }
        Some(ev)
    }

    /// Delivery time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        // `settle` maintains: queue non-empty ⇒ `active` non-empty.
        self.active.peek().map(|s| s.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.total
    }

    /// Restore the invariant that `active` holds the earliest events
    /// whenever the queue is non-empty: load the next occupied slot of
    /// the bucket being drained, else the next occupied bucket (through
    /// the slots if it is large), opening a fresh page from `overflow`
    /// if the current one is spent. Each load hands the slot's or
    /// bucket's own `Vec` to `active` and drops the buffer it replaces
    /// (see the module doc: do not retain capacity).
    #[cold]
    fn settle(&mut self) {
        debug_assert!(self.active.is_empty());
        loop {
            if self.fine_count > 0 {
                let s = lowest_set_from(&self.fine_occupied, 0);
                let slot = std::mem::take(&mut self.fine[s]);
                self.fine_count -= slot.len();
                self.fine_occupied[s >> 6] &= !(1u64 << (s & 63));
                self.active_last = self.fine_start + s as u64;
                // O(k) heapify of the slot.
                self.active = BinaryHeap::from(slot);
                return;
            }
            if self.wheel_count > 0 {
                let b = lowest_set_from(&self.occupied, self.cursor);
                let bucket = std::mem::take(&mut self.wheel[b]);
                self.wheel_count -= bucket.len();
                self.occupied[b >> 6] &= !(1u64 << (b & 63));
                self.cursor = b + 1;
                // An occupied bucket starts at or below its events, and
                // is 256-aligned: neither sum can pass `u64::MAX`.
                let start = self.page_start + ((b as u64) << GRAN_BITS);
                let last = start + (FINE_SLOTS as u64 - 1);
                if bucket.len() > SCATTER_MIN {
                    self.fine_start = start;
                    self.fine_last = last;
                    for ev in bucket {
                        self.file_in_slot(ev);
                    }
                    continue;
                }
                self.active_last = last;
                // O(k) heapify of the bucket.
                self.active = BinaryHeap::from(bucket);
                return;
            }
            // Open the page containing the earliest overflow event.
            let Some(min) = self.overflow.peek().map(|s| s.at.as_nanos()) else {
                return;
            };
            self.page_start = min & !((1u64 << GRAN_BITS) - 1);
            self.page_last = self.page_start.saturating_add(PAGE_SPAN - 1);
            self.cursor = 0;
            while let Some(ev) = pop_due(&mut self.overflow, Nanos(self.page_last)) {
                self.file_in_wheel(ev);
            }
        }
    }
}

/// Pop `heap`'s earliest event unless it is due after `limit`.
#[inline]
fn pop_due<T>(heap: &mut BinaryHeap<Scheduled<T>>, limit: Nanos) -> Option<Scheduled<T>> {
    let top = heap.peek_mut()?;
    if top.at > limit {
        return None;
    }
    Some(PeekMut::pop(top))
}

/// Index of the lowest set bit at or after bit `from`. The caller
/// guarantees there is one (a non-zero event count for this bitmap).
#[inline]
fn lowest_set_from(words: &[u64], from: usize) -> usize {
    let mut w = from >> 6;
    // Mask off bits below `from` within its word.
    let mut word = words[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return (w << 6) + word.trailing_zeros() as usize;
        }
        w += 1;
        debug_assert!(w < words.len(), "count > 0 but no bit set");
        word = words[w];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(30), "c");
        q.push(Nanos(10), "a");
        q.push(Nanos(20), "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Nanos(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Nanos(5), 5);
        q.push(Nanos(1), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(Nanos(3), 3);
        q.push(Nanos(2), 2);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert_eq!(q.pop().unwrap().payload, 5);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Nanos(7), ());
        q.push(Nanos(3), ());
        assert_eq!(q.peek_time(), Some(Nanos(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Nanos(7)));
    }

    #[test]
    fn len_and_totals() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Nanos(1), ());
        q.push(Nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn events_beyond_one_page_still_ordered() {
        // Mix events inside the first page, several pages out, and at
        // extreme timestamps; pop order must be globally sorted.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            100,
            PAGE_SPAN - 1,
            PAGE_SPAN,
            PAGE_SPAN + 1,
            3 * PAGE_SPAN + 17,
            10 * PAGE_SPAN,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Push in reverse so insertion order disagrees with time order.
        for &t in times.iter().rev() {
            q.push(Nanos(t), t);
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            assert_eq!(ev.at.as_nanos(), ev.payload);
            got.push(ev.payload);
        }
        assert_eq!(got, times);
    }

    #[test]
    fn sparse_far_future_timers_cross_pages() {
        // A lone self-rescheduling timer with a period far beyond one
        // page (the RTO pattern) must keep firing in order.
        let mut q = EventQueue::new();
        let period = 5 * PAGE_SPAN + 123;
        q.push(Nanos(0), 0u64);
        let mut fired = 0u64;
        let mut last = 0u64;
        while let Some(ev) = q.pop() {
            assert!(ev.at.as_nanos() >= last);
            last = ev.at.as_nanos();
            fired += 1;
            if fired < 50 {
                q.push(Nanos(last + period), fired);
            }
        }
        assert_eq!(fired, 50);
    }

    #[test]
    fn keyed_events_order_by_at_seq_lane() {
        let mut q = EventQueue::new();
        // Push in scrambled order; expect (at, seq, lane) pop order.
        q.push_keyed(Nanos(10), 2, 0, "c");
        q.push_keyed(Nanos(10), 1, 9, "b2");
        q.push_keyed(Nanos(10), 1, 3, "b1");
        q.push_keyed(Nanos(5), 7, 7, "a");
        q.push_keyed(Nanos(20), 0, 0, "d");
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, ["a", "b1", "b2", "c", "d"]);
    }

    #[test]
    fn drain_all_returns_key_order_and_resets() {
        let mut q = EventQueue::new();
        q.push(Nanos(3 * PAGE_SPAN), 30);
        q.push(Nanos(5), 5);
        q.push(Nanos(PAGE_SPAN + 1), 10);
        // Advance paging state past the first bucket before draining.
        assert_eq!(q.pop().unwrap().payload, 5);
        let drained = q.drain_all();
        assert_eq!(
            drained.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
        // A reset queue must accept timestamps below the old cursor again.
        for ev in drained {
            q.restore(ev);
        }
        q.push(Nanos(1), 1);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 10, 30]);
    }

    #[test]
    fn same_time_ties_across_migration_boundaries() {
        // Ties scheduled before and after an event migrates from
        // overflow into the wheel must still pop in seq order.
        let mut q = EventQueue::new();
        let t = 2 * PAGE_SPAN + 500;
        q.push(Nanos(t), 0); // lands in overflow
        q.push(Nanos(0), 100);
        assert_eq!(q.pop().unwrap().payload, 100); // opens page 0 then page 2
        q.push(Nanos(t), 1); // queue settled onto t's page: lands in active/wheel
        q.push(Nanos(t), 2);
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    /// Element capacity held across every level: what the queue pins in
    /// memory whatever its length.
    fn retained<T>(q: &EventQueue<T>) -> usize {
        let vecs = q.fine.iter().chain(&q.wheel);
        q.active.capacity() + q.overflow.capacity() + vecs.map(Vec::capacity).sum::<usize>()
    }

    #[test]
    fn capacity_follows_the_resident_count_not_its_high_water() {
        // 50k events through scattered buckets (held for 200k pops), then
        // drained to 1k: the buffers of the busy phase must be gone, or
        // peak RSS on the 256-host fabric grows by half (see module doc).
        const RESIDENT: usize = 1_000;
        let mut q = EventQueue::new();
        q.push(Nanos(0), ());
        for i in 0..50_000u64 {
            q.push(Nanos(1_000 * 256 + i % 256), ());
        }
        for i in 0..200_000u64 {
            let ev = q.pop().unwrap();
            q.push(Nanos(ev.at.as_nanos() + 40 + i % 100), ());
        }
        while q.len() > RESIDENT {
            q.pop();
        }
        assert!(retained(&q) <= 8 * RESIDENT, "retained {}", retained(&q));
        q.push(Nanos(u64::MAX), ());
        assert_eq!(q.drain_all().len(), RESIDENT + 1);
        assert_eq!(retained(&q), 0);
        for i in 0..RESIDENT as u64 {
            q.push(Nanos(i * 7), ());
        }
        assert!(retained(&q) <= 8 * RESIDENT, "retained {}", retained(&q));
    }
}

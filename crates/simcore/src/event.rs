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
//! ## Implementation: a paged timer wheel of keys over a payload slab
//!
//! A discrete-event network simulation pushes and pops millions of events
//! whose delivery times cluster tightly around "now" (serialization at
//! 100–400 Gbps spaces packet events tens of nanoseconds apart). A global
//! binary heap pays `O(log n)` per operation over the *whole* event
//! population; the three-level layout below pays near-`O(1)` by
//! bucketing the near future.
//!
//! No level holds a payload. Each level files a 24-byte `Key` — the
//! `(time, seq, lane)` order plus the index of a slab slot — and the
//! payload is written once into that slot when it is pushed and taken out
//! once when it is popped. Every migration, scatter, sort and sift below
//! moves keys only; a `Scheduled<Routed>` on the network fabric is 88
//! bytes. Slab slots are cache-line aligned (a 64-byte `Routed` is one
//! line). A window's payloads are read once when it is loaded, and the
//! next ns slot's while it drains, so their cache misses overlap instead
//! of stalling one pop each.
//!
//! * **active** — the earliest window's keys: the slot or bucket it was
//!   loaded from, sorted once into a run that pops from its tail, plus a
//!   `late` heap of keys filed into the window after it was loaded. A
//!   pop takes the earlier of the two heads, so exact `(time, seq, lane)`
//!   order holds. Sorting once is cheaper than a heap here: a one-ns slot
//!   on the 256-host fabric mostly holds 128–511 keys of one timestamp,
//!   and sifting them costs a mispredicted compare per level on every
//!   pop. The window is one wheel bucket, or one nanosecond of it:
//! * **fine** — `FINE_SLOTS` one-ns slots (unsorted `Vec`s, 4-word
//!   bitmap) covering the bucket being drained. A 256 ns bucket is sized
//!   for a handful of hosts; on a 256-host fabric it holds thousands of
//!   events, and sorting it whole makes every window pay for that
//!   population. A bucket loaded with more than `SCATTER_MIN` keys is
//!   scattered here instead and fed to the window one slot at a time;
//!   smaller buckets are loaded directly.
//! * **wheel** — one page of `WHEEL_BUCKETS` buckets of
//!   `1 << GRAN_BITS` ns each (unsorted `Vec`s, found via a bitmap).
//!   Covers ~2 ms past the active window.
//! * **overflow** — a binary heap for keys beyond the page (RTO-scale
//!   timers). Drained into the wheel page by page.
//!
//! Keys migrate overflow → wheel → (fine →) active unchanged, and equal
//! timestamps always land in the same bucket and slot, so pop order is
//! bit-identical to the reference heap (randomized equivalence tests in
//! `tests/` check exactly this, in both regimes).
//!
//! **Do not retain bucket or slot capacity.** A drained bucket's or
//! slot's key `Vec` *becomes* the window's run and the previous run is
//! dropped. Recycling those buffers looks cheaper but pins the *sum of
//! per-bucket maxima* — the high-water capacity of every slot and bucket
//! ever used: measured +45 % to +100 % peak RSS on the 256-host workloads
//! (13× when bucket capacity was kept), for no gain in time. The slab is
//! the one buffer that keeps its capacity, and what it keeps is the
//! *maximum of the resident sum*: the most events ever pending at once,
//! whatever buckets they sat in. `drain_all` drops it with the heaps.

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
/// slots; at or below it, sorting the whole bucket is cheaper.
const SCATTER_MIN: usize = 64;

/// An event plus its delivery metadata, as pushed back into the queue by
/// [`EventQueue::restore`] and handed out by its pops and `drain_all`.
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

/// What every level files for one pending event: its order key and the
/// slab slot holding its payload.
#[derive(Debug, Clone, Copy)]
struct Key {
    /// Delivery time in ns.
    at: u64,
    seq: u64,
    lane: u32,
    /// Index of the payload in `EventQueue::slab`; not part of the order.
    slot: u32,
}

// A field added to the key is paid on every sort, sift and migration.
const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so the earliest key is the greatest: the top of a
        // BinaryHeap (a max-heap) and the tail of an ascending sort.
        (other.at, other.seq, other.lane).cmp(&(self.at, self.seq, self.lane))
    }
}

/// One slab entry, aligned to a cache line so that a payload of up to
/// 64 bytes never straddles two.
#[derive(Debug)]
#[repr(align(64))]
struct Slot<T>(Option<T>);

/// log2 of the slots per slab chunk.
const CHUNK_BITS: u32 = 8;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Every pending payload, each at the slot its key names. The slots sit
/// in fixed chunks: growing the slab adds a chunk and never moves one,
/// where a `Vec` of line-aligned slots would copy itself on growth and
/// briefly hold 1.5× its size. Chunks are filled with `None` when added;
/// 256 slots (16 KB of `Routed`) keep that off the 8-host set-up time,
/// and growable chunks measured ≈ 3 % slower on the 256-host fabric.
#[derive(Debug)]
struct Slab<T> {
    chunks: Vec<Box<[Slot<T>]>>,
    /// Slots handed out so far; every one below is in use or in `free`.
    used: usize,
    /// Vacant slots below `used`, the most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            used: 0,
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    #[inline]
    fn slot(&mut self, slot: u32) -> &mut Option<T> {
        let s = slot as usize;
        &mut self.chunks[s >> CHUNK_BITS][s & (CHUNK - 1)].0
    }

    /// Store `payload` in a vacant slot and return the slot.
    #[inline]
    fn put(&mut self, payload: T) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                if self.used == self.chunks.len() * CHUNK {
                    self.chunks.push((0..CHUNK).map(|_| Slot(None)).collect());
                }
                // Four billion pending events would need ≥ 96 GB of keys.
                debug_assert!(self.used < u32::MAX as usize);
                self.used += 1;
                (self.used - 1) as u32
            }
        };
        *self.slot(slot) = Some(payload);
        slot
    }

    /// Remove the payload stored at `slot` and free the slot.
    #[inline]
    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slot(slot)
            .take()
            .expect("a filed key's slab slot holds its payload until popped")
    }

    /// Read the payload at `slot` and discard the result: pulls its cache
    /// line in ahead of [`Self::take`]. `black_box` keeps the read.
    #[inline]
    fn touch(&self, slot: u32) {
        let s = slot as usize;
        std::hint::black_box(self.chunks[s >> CHUNK_BITS][s & (CHUNK - 1)].0.is_some());
    }
}

/// A deterministic future-event list (paged timer wheel).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The window's keys as loaded, sorted so the earliest is last.
    run: Vec<Key>,
    /// Keys filed into the window after it was loaded.
    late: BinaryHeap<Key>,
    /// Inclusive upper bound on delivery times routed to the window.
    /// (Inclusive so a page ending at `u64::MAX` is representable.)
    active_last: u64,
    /// One-ns slots of the bucket being drained, when it was scattered.
    fine: Vec<Vec<Key>>,
    /// One bit per slot: does it hold any keys?
    fine_occupied: [u64; FINE_SLOTS / 64],
    /// Keys currently in slots.
    fine_count: usize,
    /// Delivery time of slot 0.
    fine_start: u64,
    /// Inclusive upper bound on delivery times routed to the slots; at
    /// or below `active_last` whenever no scattered bucket is draining.
    fine_last: u64,
    /// The current page's buckets (`None`-free; empty `Vec`s cost nothing).
    wheel: Vec<Vec<Key>>,
    /// One bit per bucket: does it hold any keys?
    occupied: [u64; BITMAP_WORDS],
    /// Keys currently in wheel buckets.
    wheel_count: usize,
    /// Inclusive lower time bound of the current page.
    page_start: u64,
    /// Inclusive upper time bound of the current page.
    page_last: u64,
    /// Next bucket index to load into the window.
    cursor: usize,
    /// Keys at or beyond `page_end`.
    overflow: BinaryHeap<Key>,
    slab: Slab<T>,
    next_seq: u64,
    /// Events ever inserted (plain or keyed).
    total: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            run: Vec::new(),
            late: BinaryHeap::new(),
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
            slab: Slab::default(),
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
        self.insert(at, seq, 0, payload);
    }

    /// Schedule `payload` with a caller-assigned `(seq, lane)` tie-break
    /// key. The caller owns key uniqueness; the queue only orders.
    #[inline]
    pub fn push_keyed(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        self.insert(at, seq, lane, payload);
    }

    /// Re-insert an event popped or drained from a queue, preserving its
    /// original key. Used when redistributing events between the serial
    /// engine and per-shard engines.
    #[inline]
    pub fn restore(&mut self, ev: Scheduled<T>) {
        self.insert(ev.at, ev.seq, ev.lane, ev.payload);
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
        // call. The window's and the heaps' buffers and the slab go: they
        // scale with past residency.
        self.run = Vec::new();
        self.late = BinaryHeap::new();
        self.overflow = BinaryHeap::new();
        self.slab = Slab::default();
        self.active_last = 0;
        self.fine_last = 0;
        self.page_start = 0;
        self.page_last = PAGE_SPAN - 1;
        self.cursor = 0;
        out
    }

    /// Store `payload` in the slab and file its key.
    #[inline]
    fn insert(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        let slot = self.slab.put(payload);
        self.file(Key {
            at: at.as_nanos(),
            seq,
            lane,
            slot,
        });
    }

    #[inline]
    fn file(&mut self, key: Key) {
        self.len += 1;
        self.total += 1;
        let t = key.at;
        if self.len == 1 && t > self.active_last && t <= self.page_last {
            // Empty queue: make this event the active window's upper
            // bound so it skips the wheel entirely. Safe because there
            // is nothing to order against, and any later push below `t`
            // joins the window, which keeps exact (time, seq) order.
            // Keeps a lone self-rescheduling timer on the cheap window
            // path instead of paying a bucket migration per event.
            // Capped at the page boundary so one far-future push can't
            // widen the active window into a de-facto global heap.
            self.active_last = t;
        }
        if t <= self.active_last {
            // Same (or earlier) window as the events being drained now:
            // the late heap merges it into exact (time, seq) order.
            self.late.push(key);
        } else if t <= self.fine_last {
            // A later nanosecond of the scattered bucket being drained.
            self.file_in_slot(key);
        } else if t <= self.page_last {
            self.file_in_wheel(key);
        } else {
            self.overflow.push(key);
        }
        if self.window_is_empty() {
            self.settle();
        }
    }

    /// File a key of the scattered bucket being drained under its ns.
    #[inline]
    fn file_in_slot(&mut self, key: Key) {
        let s = (key.at - self.fine_start) as usize;
        self.fine[s].push(key);
        self.fine_occupied[s >> 6] |= 1u64 << (s & 63);
        self.fine_count += 1;
    }

    /// File an in-page key (beyond the window being drained) under its
    /// bucket.
    #[inline]
    fn file_in_wheel(&mut self, key: Key) {
        let b = ((key.at - self.page_start) >> GRAN_BITS) as usize;
        debug_assert!(b >= self.cursor && b < WHEEL_BUCKETS);
        self.wheel[b].push(key);
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
    // Always inlined, like `Engine::step`: the payload then moves out of
    // the slab into the dispatcher's frame, not through a return slot
    // (7–10 % of `run_s` on the 256-host fabric).
    #[inline(always)]
    pub fn pop_at_or_before(&mut self, horizon: Nanos) -> Option<Scheduled<T>> {
        // `settle` maintains: queue non-empty ⇒ the window non-empty.
        let key = self.pop_window(horizon.as_nanos())?;
        self.len -= 1;
        // Gating on `len` keeps the common lone-timer pattern — pop the
        // only event, push its successor — off the (non-inlined) `settle`.
        if self.window_is_empty() && self.len > 0 {
            self.settle();
        }
        Some(Scheduled {
            at: Nanos(key.at),
            seq: key.seq,
            lane: key.lane,
            payload: self.slab.take(key.slot),
        })
    }

    /// Remove the window's earliest key unless it is due after `limit` ns.
    #[inline]
    fn pop_window(&mut self, limit: u64) -> Option<Key> {
        let late_first = match (self.run.last(), self.late.peek()) {
            (Some(run), Some(late)) => late > run,
            (None, late) => late.is_some(),
            (Some(_), None) => false,
        };
        if late_first {
            return pop_due(&mut self.late, limit);
        }
        if self.run.last()?.at > limit {
            return None;
        }
        self.run.pop()
    }

    #[inline]
    fn window_is_empty(&self) -> bool {
        self.run.is_empty() && self.late.is_empty()
    }

    /// Delivery time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        // `settle` maintains: queue non-empty ⇒ the window non-empty.
        let run = self.run.last().map(|k| k.at);
        let late = self.late.peek().map(|k| k.at);
        run.into_iter().chain(late).min().map(Nanos)
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

    /// Restore the invariant that the window holds the earliest keys
    /// whenever the queue is non-empty: load the next occupied slot of
    /// the bucket being drained, else the next occupied bucket (through
    /// the slots if it is large), opening a fresh page from `overflow`
    /// if the current one is spent.
    #[cold]
    fn settle(&mut self) {
        debug_assert!(self.window_is_empty());
        loop {
            if self.fine_count > 0 {
                let s = lowest_set_from(&self.fine_occupied, 0);
                let slot = std::mem::take(&mut self.fine[s]);
                self.fine_count -= slot.len();
                self.fine_occupied[s >> 6] &= !(1u64 << (s & 63));
                self.active_last = self.fine_start + s as u64;
                self.load(slot);
                // Warm the next slot's payloads while this one drains.
                if self.fine_count > 0 {
                    let next = lowest_set_from(&self.fine_occupied, 0);
                    for key in &self.fine[next] {
                        self.slab.touch(key.slot);
                    }
                }
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
                    for key in bucket {
                        self.file_in_slot(key);
                    }
                    continue;
                }
                self.active_last = last;
                self.load(bucket);
                return;
            }
            // Open the page containing the earliest overflow key.
            let Some(min) = self.overflow.peek().map(|k| k.at) else {
                return;
            };
            self.page_start = min & !((1u64 << GRAN_BITS) - 1);
            self.page_last = self.page_start.saturating_add(PAGE_SPAN - 1);
            self.cursor = 0;
            while let Some(key) = pop_due(&mut self.overflow, self.page_last) {
                self.file_in_wheel(key);
            }
        }
    }

    /// Make a drained slot's or bucket's keys the window: sorted once,
    /// earliest last. The run's and the late heap's old buffers are
    /// dropped (see the module doc: do not retain capacity). Touching
    /// every payload here, earliest first, lets their cache misses
    /// overlap instead of landing one per pop.
    fn load(&mut self, mut keys: Vec<Key>) {
        keys.sort_unstable();
        for key in keys.iter().rev() {
            self.slab.touch(key.slot);
        }
        self.run = keys;
        self.late = BinaryHeap::new();
    }
}

/// Pop `heap`'s earliest key unless it is due after `limit` ns.
#[inline]
fn pop_due(heap: &mut BinaryHeap<Key>, limit: u64) -> Option<Key> {
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

    /// Key capacity held across every level.
    fn key_capacity<T>(q: &EventQueue<T>) -> usize {
        let vecs = q.fine.iter().chain(&q.wheel).map(Vec::capacity);
        q.run.capacity() + q.late.capacity() + q.overflow.capacity() + vecs.sum::<usize>()
    }

    /// Payload slots the slab holds.
    fn slab_capacity<T>(q: &EventQueue<T>) -> usize {
        q.slab.chunks.len() * CHUNK
    }

    /// Element capacity held by the keys, the payload slab and its free
    /// list: what the queue pins in memory whatever its length.
    fn retained<T>(q: &EventQueue<T>) -> usize {
        key_capacity(q) + slab_capacity(q) + q.slab.free.capacity()
    }

    #[test]
    fn capacity_follows_the_resident_count_not_its_high_water() {
        // 64 Ki events through scattered buckets (held for 200k pops), then
        // drained to 1k: the key buffers of the busy phase must be gone, or
        // peak RSS on the 256-host fabric grows by half (see module doc).
        // The slab may keep the busy phase's resident count, and no more.
        const RESIDENT: usize = 1_000;
        // A whole number of chunks, and a power of two so that the free
        // list's doubling lands on it exactly.
        const HIGH_WATER: usize = 1 << 16;
        let mut q = EventQueue::new();
        q.push(Nanos(0), ());
        for i in 1..HIGH_WATER as u64 {
            q.push(Nanos(1_000 * 256 + i % 256), ());
        }
        for i in 0..200_000u64 {
            let ev = q.pop().unwrap();
            q.push(Nanos(ev.at.as_nanos() + 40 + i % 100), ());
        }
        while q.len() > RESIDENT {
            q.pop();
        }
        let keys = key_capacity(&q);
        assert!(keys <= 8 * RESIDENT, "key capacity {keys}");
        assert_eq!(q.slab.used, HIGH_WATER);
        assert!(
            slab_capacity(&q) <= HIGH_WATER,
            "slab {}",
            slab_capacity(&q)
        );
        let free = q.slab.free.capacity();
        assert!(free <= HIGH_WATER, "free list {free}");
        q.push(Nanos(u64::MAX), ());
        assert_eq!(q.drain_all().len(), RESIDENT + 1);
        assert_eq!(retained(&q), 0);
        for i in 0..RESIDENT as u64 {
            q.push(Nanos(i * 7), ());
        }
        assert!(retained(&q) <= 8 * RESIDENT, "retained {}", retained(&q));
    }
}

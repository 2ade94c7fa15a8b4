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
//! ## Implementation: a one-nanosecond calendar ring over a payload slab
//!
//! A discrete-event network simulation pushes and pops millions of events
//! due a short, bounded time ahead of "now": a transmit completes 30–125
//! ns later, a control-plane reaction 500 ns later, a packet arrives a
//! 1 µs link plus its serialisation later. The queue files each such
//! event once, in a list per nanosecond, and its key never moves again.
//!
//! * **slab** — each pending payload sits in one cache-line-aligned slab
//!   slot from push to pop. Beside it, in a parallel array, a 16-byte
//!   link holds the rest of its key and the next slot of its list.
//! * **ring** — `RING` one-ns lists cover `(now, now + RING]`, time `t`
//!   at index `t % RING`. Filing is one prepend through the links plus an
//!   occupancy bit; a 64-word bitmap and a one-word summary of it put the
//!   next occupied nanosecond two trailing-zero counts away.
//! * **far** — a binary heap of 24-byte keys due beyond the ring (DCQCN
//!   and RTO timers, job arrivals: under 2 % of events). They move into
//!   the ring as `now` advances.
//! * **current ns** — when a pop finds nothing at or before `now`, the
//!   next occupied nanosecond becomes `now`: its list is gathered into one
//!   reused run of packed `u128` words `(seq, lane, slot)`, sorted once —
//!   every key shares the timestamp, so one integer compare orders them —
//!   and popped from its tail. Pushes at or before `now` go to a `late`
//!   heap that pops merge with the run, so exact `(time, seq, lane)`
//!   order holds.
//!
//! `now` advances only when an event is popped (or is due by the pop's
//! horizon), never on a push: a lone far-future timer does not drag the
//! current nanosecond ahead of later, nearer pushes. Equal timestamps
//! always share one list and a list is sorted whole, so pop order is
//! bit-identical to the reference heap (randomized equivalence tests in
//! `tests/` check exactly this).
//!
//! **Capacity.** Nothing is kept per nanosecond but a 4-byte list head:
//! the ring is a fixed 16 KB plus its bitmaps. The slab with its links
//! keeps the *maximum resident count*, and the run the most keys ever
//! due in one nanosecond. An earlier design kept a `Vec` per wheel
//! bucket and ns slot, which pins the *sum of per-bucket maxima*:
//! measured +45 % to +100 % peak RSS on the 256-host workloads.
//! `drain_all` drops the slab, the run and the heaps.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One-ns lists in the ring (≈ 4 µs: a link, its serialisation and
/// a control-plane delay all fit).
const RING: usize = 1 << 12;
/// Words in the ring's occupancy bitmap; one summary bit each.
const WORDS: usize = RING / 64;
const _: () = assert!(WORDS == 64, "the summary is one u64");
/// The end of a list.
const NIL: u32 = u32::MAX;

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

/// What the heaps file for one pending event: its order key and the
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

// A field added to the key is paid on every sift.
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
        // BinaryHeap (a max-heap).
        (other.at, other.seq, other.lane).cmp(&(self.at, self.seq, self.lane))
    }
}

/// A ring-filed event's key minus its time (the list it is on fixes
/// that), and the next slot on the same list.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    seq: u64,
    lane: u32,
    next: u32,
}

/// A run word: one integer compare orders `(seq, lane)`; the slot below
/// them is unique, so it never decides between two keys.
#[inline]
fn pack(seq: u64, lane: u32, slot: u32) -> u128 {
    (seq as u128) << 64 | (lane as u128) << 32 | slot as u128
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
    /// The ring's link of each slot; meaningful while its key is filed
    /// in the ring.
    links: Vec<Link>,
    /// Slots handed out so far; every one below is in use or in `free`.
    used: usize,
    /// Vacant slots below `used`, the most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            chunks: Vec::new(),
            links: Vec::new(),
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
                // Four billion pending events would need ≥ 300 GB of slab.
                debug_assert!(self.used < NIL as usize);
                self.links.push(Link::default());
                self.used += 1;
                (self.used - 1) as u32
            }
        };
        *self.slot(slot) = Some(payload);
        slot
    }

    /// Remove the payload stored at `slot` and free the slot.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a filed key's slab slot holds its payload until popped"
    )]
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

/// A deterministic future-event list (one-ns calendar ring).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Keys of the current nanosecond as gathered, packed by [`pack`],
    /// sorted so the earliest is last.
    run: Vec<u128>,
    /// Keys filed at or before `now` after its list was gathered.
    late: BinaryHeap<Key>,
    /// The current nanosecond: the ring holds keys due in
    /// `(now, now + RING]`, `far` those due later.
    now: u64,
    /// First slot of each nanosecond's list, or `NIL`.
    head: Box<[u32]>,
    /// One bit per list: is it non-empty?
    occupied: [u64; WORDS],
    /// One bit per word of `occupied`: is it non-zero?
    summary: u64,
    /// Keys due beyond the ring.
    far: BinaryHeap<Key>,
    slab: Slab<T>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            run: Vec::new(),
            late: BinaryHeap::new(),
            now: 0,
            head: vec![NIL; RING].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            slab: Slab::default(),
            next_seq: 0,
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

    /// Pop every pending event (in key order) and rewind the current
    /// nanosecond to 0, so that later pushes of any time take the ring or
    /// the far heap again. The insertion counter survives, keeping later
    /// plain pushes unique.
    pub fn drain_all(&mut self) -> Vec<Scheduled<T>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        // Popping everything emptied every list and bitmap. The run's and
        // the heaps' buffers and the slab go: they scale with past
        // residency.
        self.run = Vec::new();
        self.late = BinaryHeap::new();
        self.far = BinaryHeap::new();
        self.slab = Slab::default();
        self.now = 0;
        out
    }

    /// Store `payload` in the slab and file its key.
    #[inline]
    fn insert(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        let slot = self.slab.put(payload);
        self.len += 1;
        let at = at.as_nanos();
        if at <= self.now {
            self.late.push(Key {
                at,
                seq,
                lane,
                slot,
            });
        } else if at - self.now <= RING as u64 {
            self.link(at, seq, lane, slot);
        } else {
            self.far.push(Key {
                at,
                seq,
                lane,
                slot,
            });
        }
    }

    /// Prepend a key due in `(now, now + RING]` to its nanosecond's list.
    #[inline]
    fn link(&mut self, at: u64, seq: u64, lane: u32, slot: u32) {
        let i = at as usize & (RING - 1);
        let next = std::mem::replace(&mut self.head[i], slot);
        self.slab.links[slot as usize] = Link { seq, lane, next };
        self.occupied[i >> 6] |= 1 << (i & 63);
        self.summary |= 1 << (i >> 6);
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
        let limit = horizon.as_nanos();
        if self.run.is_empty() && self.late.is_empty() && !self.advance(limit) {
            return None;
        }
        let key = self.pop_current(limit)?;
        self.len -= 1;
        Some(Scheduled {
            at: Nanos(key.at),
            seq: key.seq,
            lane: key.lane,
            payload: self.slab.take(key.slot),
        })
    }

    /// Remove the earliest key of the run and the late heap unless it is
    /// due after `limit` ns.
    #[inline]
    fn pop_current(&mut self, limit: u64) -> Option<Key> {
        let run = self.run.last().map(|&w| Key {
            at: self.now,
            seq: (w >> 64) as u64,
            lane: (w >> 32) as u32,
            slot: w as u32,
        });
        match (run, self.late.peek()) {
            // `Key`'s order is reversed: the greater key is due first.
            (Some(run), Some(late)) if *late > run => pop_due(&mut self.late, limit),
            (None, _) => pop_due(&mut self.late, limit),
            (Some(run), _) => {
                if run.at > limit {
                    return None;
                }
                self.run.pop();
                Some(run)
            }
        }
    }

    /// Delivery time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        // Late keys are due at or before `now`, the run at `now`, the
        // ring's and the far heap's after it.
        let at = if let Some(key) = self.late.peek() {
            key.at
        } else if !self.run.is_empty() {
            self.now
        } else if self.summary != 0 {
            self.next_occupied().1
        } else {
            self.far.peek()?.at
        };
        Some(Nanos(at))
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

    /// With the run and the late heap empty: make the next occupied
    /// nanosecond current if it is due by `limit`. Gathers its list into
    /// the run and moves the far keys now within reach into the ring;
    /// returns whether it did. Out of line but not cold: on the 8-host
    /// fabric a nanosecond holds 1.3 keys, so most pops come here.
    #[inline(never)]
    fn advance(&mut self, limit: u64) -> bool {
        if self.summary == 0 {
            // The ring is empty: jump to just before the earliest far key
            // (which lies beyond `now + RING`, so above 0).
            match self.far.peek() {
                Some(key) if key.at <= limit => self.now = key.at - 1,
                _ => return false,
            }
            self.migrate();
        }
        let (i, at) = self.next_occupied();
        if at > limit {
            return false;
        }
        self.now = at;
        self.gather(i);
        self.migrate();
        true
    }

    /// Index and time of the first non-empty list after `now`. The caller
    /// guarantees there is one (`summary != 0`).
    #[inline]
    fn next_occupied(&self) -> (usize, u64) {
        let from = self.now.wrapping_add(1) as usize & (RING - 1);
        let w = from >> 6;
        let word = self.occupied[w] & (!0 << (from & 63));
        let i = if word != 0 {
            (w << 6) | word.trailing_zeros() as usize
        } else {
            // A later word, else wrap around: the summary's lowest bit.
            let later = self.summary & (!0 << w << 1);
            let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            (w << 6) | self.occupied[w].trailing_zeros() as usize
        };
        let ahead = i.wrapping_sub(from) & (RING - 1);
        (i, self.now + 1 + ahead as u64)
    }

    /// Empty list `i` into the run: sorted once, earliest last, its
    /// payloads read on the way so their cache misses overlap. The late
    /// heap is empty here; its buffer goes (see the module doc).
    fn gather(&mut self, i: usize) {
        self.occupied[i >> 6] &= !(1 << (i & 63));
        if self.occupied[i >> 6] == 0 {
            self.summary &= !(1 << (i >> 6));
        }
        let mut slot = std::mem::replace(&mut self.head[i], NIL);
        while slot != NIL {
            let link = self.slab.links[slot as usize];
            self.run.push(pack(link.seq, link.lane, slot));
            self.slab.touch(slot);
            slot = link.next;
        }
        // Lists are prepended to, so plain pushes come out latest first:
        // already in order, which the sort finds in one pass.
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        self.late = BinaryHeap::new();
    }

    /// Move every far key due in `(now, now + RING]` into the ring.
    fn migrate(&mut self) {
        let last = self.now.saturating_add(RING as u64);
        while let Some(key) = pop_due(&mut self.far, last) {
            self.link(key.at, key.seq, key.lane, key.slot);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    const RING_NS: u64 = RING as u64;

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
        q.push(Nanos(5 * RING_NS), ());
        q.pop();
        assert_eq!(q.peek_time(), Some(Nanos(5 * RING_NS)));
    }

    #[test]
    fn len_and_pop_counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Nanos(1), ());
        q.push(Nanos(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn events_beyond_the_ring_still_ordered() {
        // Mix events inside the ring, several spans out, and at extreme
        // timestamps; pop order must be globally sorted.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            100,
            RING_NS - 1,
            RING_NS,
            RING_NS + 1,
            3 * RING_NS + 17,
            10 * RING_NS,
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
    fn sparse_far_future_timers_jump_the_ring() {
        // A lone self-rescheduling timer with a period far beyond the
        // ring (the RTO pattern) must keep firing in order.
        let mut q = EventQueue::new();
        let period = 5 * RING_NS + 123;
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
    fn a_far_push_does_not_move_the_current_ns() {
        // A lone timer far ahead, then a near event: the near one must
        // still be filed in the ring, not merged through the late heap.
        let mut q = EventQueue::new();
        q.push(Nanos(100 * RING_NS), 0);
        q.push(Nanos(50), 1);
        assert!(q.late.is_empty() && q.summary != 0);
        assert_eq!(q.pop().unwrap().payload, 1);
        // A pop bounded below the timer leaves it, and `now`, in place.
        assert!(q.pop_at_or_before(Nanos(99 * RING_NS)).is_none());
        assert_eq!(q.now, 50);
        assert_eq!(q.pop().unwrap().payload, 0);
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
        q.push(Nanos(3 * RING_NS), 30);
        q.push(Nanos(5), 5);
        q.push(Nanos(RING_NS + 1), 10);
        // Advance the current ns before draining.
        assert_eq!(q.pop().unwrap().payload, 5);
        let drained = q.drain_all();
        // One popped and two drained: every push comes back.
        assert_eq!(
            drained.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert!(q.is_empty());
        // A reset queue must accept timestamps below the old `now` again.
        for ev in drained {
            q.restore(ev);
        }
        q.push(Nanos(1), 1);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 10, 30]);
    }

    #[test]
    fn same_time_ties_across_migration_boundaries() {
        // Ties scheduled before and after an event migrates from the far
        // heap into the ring must still pop in seq order.
        let mut q = EventQueue::new();
        let t = 2 * RING_NS + 500;
        q.push(Nanos(t), 0); // far
        q.push(Nanos(t - RING_NS + 1), 100); // ring
        assert_eq!(q.pop().unwrap().payload, 100); // migrates `t`
        q.push(Nanos(t), 1); // now within the ring
        q.push(Nanos(t), 2);
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
    }

    /// Key capacity held by the run and the heaps.
    fn key_capacity<T>(q: &EventQueue<T>) -> usize {
        q.run.capacity() + q.late.capacity() + q.far.capacity()
    }

    /// Payload slots the slab holds.
    fn slab_capacity<T>(q: &EventQueue<T>) -> usize {
        q.slab.chunks.len() * CHUNK
    }

    /// Element capacity held by the keys, the payload slab, its links
    /// and its free list: what the queue pins in memory whatever its
    /// length.
    fn retained<T>(q: &EventQueue<T>) -> usize {
        key_capacity(q) + slab_capacity(q) + q.slab.links.capacity() + q.slab.free.capacity()
    }

    #[test]
    fn capacity_follows_the_resident_count_not_its_high_water() {
        // 64 Ki events on 256 ns (held for 200k pops), then drained to
        // 1k: no buffer may keep the busy phase's size but the slab and
        // its links, which keep its resident count, and the run, which
        // keeps the most keys of one ns.
        const RESIDENT: usize = 1_000;
        // A whole number of chunks, and a power of two so that the free
        // list's and the links' doubling lands on it exactly.
        const HIGH_WATER: usize = 1 << 16;
        let mut q = EventQueue::new();
        q.push(Nanos(0), ());
        for i in 1..HIGH_WATER as u64 {
            q.push(Nanos(1_000 + i % 256), ());
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
        for (what, cap) in [
            ("slab", slab_capacity(&q)),
            ("links", q.slab.links.capacity()),
            ("free list", q.slab.free.capacity()),
        ] {
            assert!(cap <= HIGH_WATER, "{what} {cap}");
        }
        q.push(Nanos(u64::MAX), ());
        assert_eq!(q.drain_all().len(), RESIDENT + 1);
        assert_eq!(retained(&q), 0);
        for i in 0..RESIDENT as u64 {
            q.push(Nanos(i * 7), ());
        }
        assert!(retained(&q) <= 8 * RESIDENT, "retained {}", retained(&q));
    }
}

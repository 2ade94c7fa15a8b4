//! The timer-wheel `EventQueue` must be observationally identical to a
//! plain `(time, seq)`-ordered binary heap: same pop order, including
//! FIFO tie-breaks, under arbitrary interleavings of pushes and pops.
//!
//! This is the replay-safety contract of the substrate: swapping the
//! queue implementation must not change a single event's delivery order,
//! or every seeded experiment in the repo silently changes results.

use simcore::event::{EventQueue, Scheduled};
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a max-heap of `Reverse((time, seq, lane, payload))`.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32, u64)>>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, at: u64, payload: u64) {
        self.heap.push(Reverse((at, self.next_seq, 0, payload)));
        self.next_seq += 1;
    }

    fn push_keyed(&mut self, at: u64, seq: u64, lane: u32, payload: u64) {
        self.heap.push(Reverse((at, seq, lane, payload)));
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap
            .pop()
            .map(|Reverse((at, _, _, payload))| (at, payload))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }
}

/// Drive both queues through the same randomized schedule and assert
/// every pop agrees. Time distributions mix three regimes the wheel
/// handles differently: same-bucket ties, near-future (in-page), and
/// far-future (overflow-heap) events.
#[test]
fn wheel_matches_reference_heap_under_interleaving() {
    const CASES: u64 = 150;
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x3B0E, case);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut reference = RefQueue::default();
        let ops = 50 + rng.next_index(500);
        let mut now = 0u64; // lower bound for pushes, as the engine enforces
        let mut payload = 0u64;
        for _ in 0..ops {
            // 60% push, 40% pop — queues grow, then drain below.
            if rng.next_below(10) < 6 {
                // Mix of offsets: bucket-local (0..256), page-local
                // (..2 ms), and beyond-page (..200 ms); plus exact ties.
                let offset = match rng.next_below(4) {
                    0 => 0,
                    1 => rng.next_below(256),
                    2 => rng.next_below(2_000_000),
                    _ => rng.next_below(200_000_000),
                };
                let at = now + offset;
                wheel.push(Nanos(at), payload);
                reference.push(at, payload);
                payload += 1;
            } else {
                let got = wheel.pop().map(|s| (s.at.as_nanos(), s.payload));
                let want = reference.pop();
                assert_eq!(got, want, "case {case}: pop mismatch");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            assert_eq!(wheel.len(), reference.heap.len(), "case {case}");
            assert_eq!(
                wheel.peek_time().map(Nanos::as_nanos),
                reference.peek_time(),
                "case {case}: peek mismatch"
            );
        }
        // Drain completely: the tail must agree too.
        loop {
            let got = wheel.pop().map(|s| (s.at.as_nanos(), s.payload));
            let want = reference.pop();
            assert_eq!(got, want, "case {case}: drain mismatch");
            if got.is_none() {
                break;
            }
        }
    }
}

/// Heavy tie load: thousands of events at a handful of timestamps must
/// come out in exact insertion order per timestamp.
#[test]
fn massive_ties_pop_in_insertion_order() {
    let mut rng = Xoshiro256::seeded(0x71E5);
    let times: Vec<u64> = (0..8).map(|_| rng.next_below(5_000_000)).collect();
    let mut wheel: EventQueue<(u64, u64)> = EventQueue::new();
    let mut reference = RefQueue::default();
    for i in 0..4_000u64 {
        let t = times[rng.next_index(times.len())];
        wheel.push(Nanos(t), (t, i));
        reference.push(t, i);
    }
    while let Some(s) = wheel.pop() {
        let (rt, rp) = reference.pop().expect("same length");
        assert_eq!((s.at.as_nanos(), s.payload.1), (rt, rp));
        assert_eq!(s.at.as_nanos(), s.payload.0);
    }
    assert!(reference.pop().is_none());
}

// ---- Dense regime -------------------------------------------------------
//
// The cases above cap at 550 operations, so no 256 ns bucket ever holds
// enough events to be scattered into the queue's ns-resolution slots.
// The cases below put thousands of events inside one bucket, which is
// what a 256-host fabric does to the queue all the time.

/// Width of one wheel bucket and of one wheel page (private constants of
/// the queue, restated: the cases aim at their boundaries).
const BUCKET: u64 = 256;
const PAGE: u64 = 8192 * BUCKET;
/// Events placed inside the one dense bucket.
const DENSE: u64 = 6_000;

/// The queue under test and the reference, driven in lockstep.
#[derive(Default)]
struct Pair {
    wheel: EventQueue<u64>,
    reference: RefQueue,
    /// Time of the last pop: the lower bound for pushes, as in the engine.
    now: u64,
    next_payload: u64,
    keyed: bool,
}

impl Pair {
    /// Keyed mode draws `seq` from {0, 1, 2} so `(at, seq)` collides
    /// all the time; the unique payload doubles as the lane.
    fn keyed() -> Self {
        Pair {
            keyed: true,
            ..Pair::default()
        }
    }

    fn push(&mut self, at: u64) {
        let payload = self.next_payload;
        self.next_payload += 1;
        if self.keyed {
            let (seq, lane) = (payload % 3, payload as u32);
            self.wheel.push_keyed(Nanos(at), seq, lane, payload);
            self.reference.push_keyed(at, seq, lane, payload);
        } else {
            self.wheel.push(Nanos(at), payload);
            self.reference.push(at, payload);
        }
        self.check_heads();
    }

    fn pop(&mut self) -> Option<u64> {
        let got = self.wheel.pop().map(|s| (s.at.as_nanos(), s.payload));
        assert_eq!(got, self.reference.pop(), "pop mismatch at t={}", self.now);
        self.check_heads();
        let (at, _) = got?;
        self.now = at;
        Some(at)
    }

    fn check_heads(&self) {
        assert_eq!(self.wheel.len(), self.reference.heap.len());
        assert_eq!(
            self.wheel.peek_time().map(Nanos::as_nanos),
            self.reference.peek_time()
        );
    }

    /// One event ahead of the bucket starting at `base` (so the bucket
    /// fills through the wheel, not the empty-queue fast path), then
    /// `DENSE` events on ns `[0, width)` of it; pop the early event so
    /// the dense bucket is the one being drained.
    fn fill_bucket(&mut self, rng: &mut Xoshiro256, base: u64, width: u64) {
        assert_eq!(base % BUCKET, 0);
        self.push(base.saturating_sub(3 * BUCKET));
        for _ in 0..DENSE {
            self.push(base + rng.next_below(width));
        }
        self.pop();
    }

    /// Interleave `ops` pops and pushes; each push lands (a) on the
    /// current ns, (b) a later ns of the same bucket, (c) the next
    /// bucket, or (d) beyond the page — clamped to `u64::MAX`.
    fn churn(&mut self, rng: &mut Xoshiro256, ops: u32) {
        for _ in 0..ops {
            if rng.next_below(2) == 0 {
                self.pop();
                continue;
            }
            let bucket_last = self.now | (BUCKET - 1);
            let at = match rng.next_below(8) {
                0..=2 => self.now,
                3..=5 => self.now + rng.next_below(bucket_last - self.now + 1),
                6 => bucket_last.saturating_add(1 + rng.next_below(BUCKET)),
                _ => self.now.saturating_add(PAGE + rng.next_below(3 * PAGE)),
            };
            self.push(at);
        }
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

#[test]
fn dense_bucket_matches_reference_under_churn() {
    for (case, mut pair) in [Pair::default(), Pair::keyed()].into_iter().enumerate() {
        let mut rng = Xoshiro256::substream(0xD3A5E, case as u64);
        pair.fill_bucket(&mut rng, 40 * BUCKET, BUCKET);
        pair.churn(&mut rng, 30_000);
        pair.drain();
    }
}

#[test]
fn dense_bucket_at_the_end_of_time() {
    // The last bucket of `u64`: every bound the queue derives from it
    // (slot range, bucket end, page end) sits at `u64::MAX`.
    let mut rng = Xoshiro256::seeded(0xE0F);
    let mut pair = Pair::default();
    pair.fill_bucket(&mut rng, u64::MAX - (BUCKET - 1), BUCKET);
    pair.churn(&mut rng, 20_000);
    pair.drain();
}

#[test]
fn drain_all_and_restore_mid_bucket() {
    let mut rng = Xoshiro256::seeded(0xD4A1);
    let mut pair = Pair::default();
    pair.fill_bucket(&mut rng, 7 * BUCKET, BUCKET);
    pair.churn(&mut rng, 4_000);
    assert!(pair.wheel.len() > 4_000, "still deep inside the bucket");

    let drained: Vec<Scheduled<u64>> = pair.wheel.drain_all();
    assert!(pair.wheel.is_empty() && pair.wheel.peek_time().is_none());
    let mut keys = Vec::new();
    while let Some(Reverse(key)) = pair.reference.heap.pop() {
        keys.push(key);
    }
    let got: Vec<_> = drained
        .iter()
        .map(|s| (s.at.as_nanos(), s.seq, s.lane, s.payload))
        .collect();
    assert_eq!(got, keys, "drain_all is not in key order");

    // Restored in reverse, with fresh pushes in between (the insertion
    // counter survived), including one below everything drained.
    pair.now = 0;
    pair.push(BUCKET);
    for (ev, key) in drained.into_iter().zip(keys).rev() {
        pair.wheel.restore(ev);
        pair.reference.push_keyed(key.0, key.1, key.2, key.3);
        if key.3 % 1_000 == 0 {
            pair.push(key.0);
        }
    }
    pair.check_heads();
    pair.pop();
    pair.churn(&mut rng, 10_000);
    pair.drain();
}

#[test]
fn emptied_mid_bucket_then_refilled() {
    // Drain a scattered bucket dry while its later slots are unused,
    // then refill the same bucket: the first push takes the empty-queue
    // fast path, the rest file under slots of the bucket already open.
    let mut rng = Xoshiro256::seeded(0x3E11);
    let mut pair = Pair::default();
    let base = 900 * BUCKET;
    pair.fill_bucket(&mut rng, base, 100);
    pair.drain();
    assert!(pair.now < base + 100);
    pair.push(pair.now + 5);
    pair.push(pair.now + 2);
    for _ in 0..DENSE {
        pair.push(pair.now + rng.next_below(base + BUCKET - pair.now));
    }
    pair.push(base + BUCKET);
    pair.churn(&mut rng, 10_000);
    pair.drain();
    // And once more from a queue that went empty past the bucket.
    pair.fill_bucket(&mut rng, pair.now + 5 * BUCKET - pair.now % BUCKET, BUCKET);
    pair.churn(&mut rng, 5_000);
    pair.drain();
}

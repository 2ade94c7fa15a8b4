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

// ---- Payload conservation -----------------------------------------------
//
// The queue files keys at every level and keeps each payload once in a
// slab. A `u64` payload cannot tell a leaked or twice-taken slab slot
// from a correct one; a reference-counted payload that records its own
// key can.

use std::rc::Rc;

/// What a tracked payload records about itself.
#[derive(Debug, PartialEq)]
struct Tag {
    id: usize,
    at: u64,
    seq: u64,
    lane: u32,
}

/// Two queues (plain pushes on lane 0 in `main`, keyed pushes on lanes
/// ≥ 1 in `shard`, so keys stay unique when events move between them)
/// and a ledger holding one extra owner of every payload ever pushed.
struct Ledger {
    main: EventQueue<Rc<Tag>>,
    shard: EventQueue<Rc<Tag>>,
    /// `main`'s insertion counter, mirrored.
    main_seq: u64,
    shard_seq: u64,
    tags: Vec<Rc<Tag>>,
    returned: Vec<bool>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            main: EventQueue::new(),
            shard: EventQueue::new(),
            main_seq: 0,
            shard_seq: 0,
            tags: Vec::new(),
            returned: Vec::new(),
        }
    }

    fn tag(&mut self, at: u64, seq: u64, lane: u32) -> Rc<Tag> {
        let id = self.tags.len();
        let tag = Rc::new(Tag { id, at, seq, lane });
        self.tags.push(Rc::clone(&tag));
        self.returned.push(false);
        tag
    }

    fn push_main(&mut self, at: u64) {
        let tag = self.tag(at, self.main_seq, 0);
        self.main_seq += 1;
        self.main.push(Nanos(at), tag);
    }

    fn push_shard(&mut self, at: u64, lane: u32) {
        let tag = self.tag(at, self.shard_seq, lane);
        self.shard_seq += 1;
        self.shard.push_keyed(Nanos(at), tag.seq, lane, tag);
    }

    /// An event leaving the queues for good: it must carry its own key
    /// and come back exactly once.
    fn retire(&mut self, ev: Scheduled<Rc<Tag>>) -> u64 {
        let tag = &ev.payload;
        assert_eq!(
            (ev.at.as_nanos(), ev.seq, ev.lane),
            (tag.at, tag.seq, tag.lane),
            "payload {} came back under another key",
            tag.id
        );
        assert!(!self.returned[tag.id], "payload {} came back twice", tag.id);
        self.returned[tag.id] = true;
        ev.at.as_nanos()
    }

    /// Pop `main` (or `shard`) and retire what comes out.
    fn pop(&mut self, shard: bool) -> Option<u64> {
        let q = if shard {
            &mut self.shard
        } else {
            &mut self.main
        };
        let ev = q.pop()?;
        Some(self.retire(ev))
    }

    /// Half pushes, half pops on one queue, at the offsets `Pair::churn`
    /// uses: same ns, same bucket, next bucket, beyond the page.
    fn churn(&mut self, rng: &mut Xoshiro256, shard: bool, ops: u32) {
        let mut now = 0;
        for _ in 0..ops {
            if rng.next_below(2) == 0 {
                now = self.pop(shard).unwrap_or(now);
                continue;
            }
            let q = if shard { &self.shard } else { &self.main };
            now = q.peek_time().map_or(now, |t| t.as_nanos().max(now));
            let bucket_last = now | (BUCKET - 1);
            let at = match rng.next_below(8) {
                0..=2 => now,
                3..=5 => now + rng.next_below(bucket_last - now + 1),
                6 => bucket_last + 1 + rng.next_below(BUCKET),
                _ => now + PAGE + rng.next_below(3 * PAGE),
            };
            if shard {
                self.push_shard(at, 1 + rng.next_below(64) as u32);
            } else {
                self.push_main(at);
            }
        }
    }

    /// Every payload is either pending (ledger + queue own it) or has
    /// been retired (the ledger alone owns it).
    fn check_owners(&self) {
        for (tag, &back) in self.tags.iter().zip(&self.returned) {
            let want = if back { 1 } else { 2 };
            assert_eq!(Rc::strong_count(tag), want, "payload {}", tag.id);
        }
    }
}

#[test]
fn every_payload_comes_back_exactly_once_with_its_key() {
    let mut rng = Xoshiro256::seeded(0xC0AE);
    let mut l = Ledger::new();

    // A dense bucket on `main` (one early event so it fills through the
    // wheel and is scattered into ns slots), churned.
    let base = 40 * BUCKET;
    l.push_main(base - 3 * BUCKET);
    for _ in 0..DENSE {
        l.push_main(base + rng.next_below(BUCKET));
    }
    l.pop(false);
    l.churn(&mut rng, false, 20_000);
    assert!(l.main.len() > 4_000, "still deep inside the bucket");
    l.check_owners();

    // Fork: drain `main` mid-bucket; every other event goes back into
    // `main` (in reverse), the rest into `shard`, which also runs keyed
    // pushes of its own.
    let drained = l.main.drain_all();
    assert_eq!(
        drained.len() + l.returned.iter().filter(|&&b| b).count(),
        l.tags.len()
    );
    l.check_owners();
    for (i, ev) in drained.into_iter().enumerate().rev() {
        if i % 2 == 0 {
            l.main.restore(ev);
        } else {
            l.shard.restore(ev);
        }
    }
    l.check_owners();
    l.churn(&mut rng, true, 20_000);
    l.churn(&mut rng, false, 10_000);
    l.check_owners();

    // Absorb: what `shard` still holds moves back into `main`.
    for ev in l.shard.drain_all() {
        l.main.restore(ev);
    }
    assert!(l.shard.is_empty());
    l.churn(&mut rng, false, 10_000);
    while l.pop(false).is_some() {}
    assert!(l.main.is_empty());

    assert!(l.returned.iter().all(|&b| b), "a payload never came back");
    l.check_owners();
    // A queue dropped with events pending releases their payloads.
    l.push_main(7);
    l.push_shard(9, 3);
    drop(std::mem::take(&mut l.main));
    drop(std::mem::take(&mut l.shard));
    assert!(l.tags.iter().all(|t| Rc::strong_count(t) == 1));
}

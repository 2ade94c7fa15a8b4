//! The ring-based PSN queue (§3.3).
//!
//! Themis-D caches the PSN of every data packet it forwards on the last
//! (ToR → NIC) hop in a per-QP FIFO ring. When a NACK arrives, the switch
//! dequeues entries until it finds the first PSN *larger than* the NACK's
//! ePSN — that entry is the tPSN, the out-of-order packet that triggered
//! the NACK (the RNIC NACKs at most once per ePSN, so the trigger is the
//! first higher-PSN arrival).
//!
//! Per §4 each entry stores a **single truncated byte** of the PSN. The
//! "larger than" comparison therefore uses 8-bit serial-number arithmetic
//! with a ±127 window — sound because the queue only spans one last-hop
//! bandwidth-delay product (≈100 packets at the Table 1 reference point),
//! far below the 127-packet window.
//!
//! Capacity follows the paper's sizing rule:
//! `N_entries = ceil(BW · RTT_last · F / MTU)` with expansion factor
//! `F > 1`; on overflow the oldest entry is evicted (ring semantics),
//! which can only cause a conservative *forward* decision later.

use simcore::time::TimeDelta;

/// Queue statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsnQueueStats {
    /// Oldest entries overwritten because the ring was full.
    pub overflow_evictions: u64,
}

/// Result of a tPSN scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// The first dequeued entry serially greater than the ePSN, if any.
    pub tpsn: Option<u8>,
    /// Whether an entry *equal* to the ePSN was dequeued on the way —
    /// proof that the expected packet already passed this ToR and is en
    /// route to (or at) the NIC, making the NACK moot.
    pub saw_epsn: bool,
    /// How many entries serially below the ePSN were consumed before the
    /// tPSN (or queue end). Zero with a tPSN present means the queue no
    /// longer holds any context from the ePSN's era — its entries were
    /// evicted by ring overflow — so the verdict would be a coin flip.
    pub consumed_below: u32,
}

/// Fixed-capacity FIFO ring of truncated PSNs.
///
/// The Figure 4b walkthrough:
/// ```
/// use themis_core::psn_queue::PsnQueue;
/// let mut q = PsnQueue::with_capacity(8);
/// for psn in [0, 1, 3] {
///     q.push(psn); // packet 2 is delayed on the other path
/// }
/// // NACK with ePSN = 2: scan dequeues 0 and 1, identifies tPSN = 3.
/// assert_eq!(q.scan_for_tpsn(2).tpsn, Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct PsnQueue {
    buf: Vec<u8>,
    head: usize,
    len: usize,
    /// Statistics.
    pub stats: PsnQueueStats,
}

/// 8-bit serial comparison: is `a` ahead of `b` within a ±127 window?
#[inline]
fn serial8_greater(a: u8, b: u8) -> bool {
    let d = a.wrapping_sub(b);
    (1..=127).contains(&d)
}

impl PsnQueue {
    /// A ring holding up to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> PsnQueue {
        assert!(capacity > 0, "PSN queue needs at least one entry");
        PsnQueue {
            buf: vec![0; capacity],
            head: 0,
            len: 0,
            stats: PsnQueueStats::default(),
        }
    }

    /// The paper's sizing rule: `ceil(BW · RTT_last · F / MTU)` entries.
    ///
    /// `f_times_100` is the expansion factor ×100 (150 → F = 1.5),
    /// keeping the arithmetic integral.
    pub fn capacity_for(
        bw_bps: u64,
        rtt_last: TimeDelta,
        mtu_bytes: u32,
        f_times_100: u32,
    ) -> usize {
        let bdp_bytes = (bw_bps as u128 * rtt_last.as_nanos() as u128) / 8 / 1_000_000_000;
        let expanded = bdp_bytes * f_times_100 as u128;
        let entries = expanded.div_ceil(mtu_bytes as u128 * 100);
        (entries as usize).max(1)
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Current entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Switch memory: one byte per entry (§4).
    pub fn memory_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Record a forwarded data packet's PSN (truncated to one byte).
    pub fn push(&mut self, wire_psn: u32) {
        let byte = (wire_psn & 0xFF) as u8;
        if self.len == self.buf.len() {
            // Ring full: evict the oldest entry.
            self.head = (self.head + 1) % self.buf.len();
            self.len -= 1;
            self.stats.overflow_evictions += 1;
        }
        let tail = (self.head + self.len) % self.buf.len();
        self.buf[tail] = byte;
        self.len += 1;
    }

    /// Scan for the tPSN of a NACK with expected PSN `epsn`: dequeue until
    /// the first entry serially greater than `epsn`, consuming everything
    /// before it (those packets arrived before the trigger).
    ///
    /// The outcome reports the truncated tPSN (`None` if the queue drained
    /// without finding one, e.g. after overflow evictions — callers treat
    /// that conservatively as "cannot prove invalid") and whether an entry
    /// equal to `epsn` was consumed along the way. The latter means the
    /// "missing" packet already passed this ToR: it was merely overtaken
    /// in the fabric and sits on the last hop, so the NACK needs neither
    /// forwarding nor compensation.
    pub fn scan_for_tpsn(&mut self, epsn: u32) -> ScanOutcome {
        let e = (epsn & 0xFF) as u8;
        let mut saw_epsn = false;
        let mut consumed_below = 0u32;
        while self.len > 0 {
            let byte = self.buf[self.head];
            self.head = (self.head + 1) % self.buf.len();
            self.len -= 1;
            if byte == e {
                saw_epsn = true;
            }
            if serial8_greater(byte, e) {
                return ScanOutcome {
                    tpsn: Some(byte),
                    saw_epsn,
                    consumed_below,
                };
            }
            consumed_below += 1;
        }
        ScanOutcome {
            tpsn: None,
            saw_epsn,
            consumed_below,
        }
    }

    /// Non-destructive membership test: is `wire_psn`'s truncated byte
    /// among the currently queued entries?
    ///
    /// Used by Themis-D after blocking a NACK: if the blocked ePSN is
    /// still in the queue, the "missing" packet already passed the ToR
    /// (it was merely overtaken in the fabric), so no compensation must
    /// ever fire for it.
    pub fn contains(&self, wire_psn: u32) -> bool {
        let byte = (wire_psn & 0xFF) as u8;
        (0..self.len).any(|i| self.buf[(self.head + i) % self.buf.len()] == byte)
    }

    /// Iterate the queued truncated bytes in FIFO order (head first)
    /// without consuming them. Model-checker hook: canonical state
    /// hashing needs the queue contents, and soundly omits entries a
    /// future scan can never distinguish.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| self.buf[(self.head + i) % self.buf.len()])
    }

    /// Drop all entries (connection teardown).
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rule_matches_table1() {
        // 400 Gbps × 2 µs × 1.5 / 1500 B = 100 entries (§4 example).
        let cap = PsnQueue::capacity_for(400_000_000_000, TimeDelta::from_micros(2), 1500, 150);
        assert_eq!(cap, 100);
    }

    #[test]
    fn sizing_rule_rounds_up_and_floors_at_one() {
        // 100 Gbps × 1 µs × 1.5 / 1500 = 12.5 -> 13.
        let cap = PsnQueue::capacity_for(100_000_000_000, TimeDelta::from_micros(1), 1500, 150);
        assert_eq!(cap, 13);
        // Tiny BDP still yields a usable queue.
        let cap = PsnQueue::capacity_for(1_000_000, TimeDelta::from_micros(1), 1500, 150);
        assert_eq!(cap, 1);
    }

    #[test]
    fn fifo_scan_finds_first_greater_psn_figure_4b() {
        // Figure 4b: packets 0, 1, 3, 2 enqueued; NACK with ePSN = 2.
        let mut q = PsnQueue::with_capacity(8);
        for psn in [0u32, 1, 3, 2] {
            q.push(psn);
        }
        // Dequeue 0, 1 (≤ 2), find 3.
        let out = q.scan_for_tpsn(2);
        assert_eq!(out.tpsn, Some(3));
        assert!(!out.saw_epsn, "2 not yet dequeued");
        // 2 remains at the head for the next scan.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn figure_4b_second_nack() {
        // Continuation: packets 2 (left over), 6 in queue; NACK ePSN = 4.
        let mut q = PsnQueue::with_capacity(8);
        q.push(2);
        q.push(6);
        let out = q.scan_for_tpsn(4);
        assert_eq!(out.tpsn, Some(6));
        assert!(!out.saw_epsn);
        assert!(q.is_empty());
    }

    #[test]
    fn scan_miss_returns_none() {
        let mut q = PsnQueue::with_capacity(4);
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        let out = q.scan_for_tpsn(5);
        assert_eq!(out.tpsn, None);
        assert!(!out.saw_epsn);
        assert_eq!(out.consumed_below, 2, "the miss consumed both entries");
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut q = PsnQueue::with_capacity(3);
        for psn in 0..5u32 {
            q.push(psn);
        }
        assert_eq!(q.stats.overflow_evictions, 2);
        assert_eq!(q.len(), 3);
        // Oldest remaining entry is 2.
        assert_eq!(q.scan_for_tpsn(1).tpsn, Some(2));
    }

    #[test]
    fn truncation_preserves_order_within_window() {
        // PSNs around a 256 boundary: 254, 255, 256 (=0x00), 257.
        let mut q = PsnQueue::with_capacity(8);
        for psn in [254u32, 255, 257] {
            q.push(psn);
        }
        // ePSN 256: 254, 255 are smaller (serially), 257 is greater.
        let out = q.scan_for_tpsn(256);
        assert_eq!(out.tpsn, Some((257 & 0xFF) as u8));
        assert!(!out.saw_epsn);
    }

    #[test]
    fn scan_reports_consumed_epsn() {
        // The delayed packet 2 passed the ToR right behind its overtaker:
        // queue = [0, 1, 3, 2, 4]; a NACK with ePSN 2 dequeues 0, 1
        // (smaller), finds 3 — but with 2 behind 3? No: FIFO order means
        // 2 was pushed after 3. Scan stops at 3 without seeing 2.
        // Reorder so 2 precedes the first greater entry: [0, 2, 1, 3]:
        // dequeues 0, 2 (equal!), 1, finds 3 and reports saw_epsn.
        let mut q = PsnQueue::with_capacity(8);
        for psn in [0u32, 2, 1, 3] {
            q.push(psn);
        }
        let out = q.scan_for_tpsn(2);
        assert_eq!(out.tpsn, Some(3));
        assert!(out.saw_epsn, "entry equal to the ePSN was consumed");
    }

    #[test]
    fn serial8_window() {
        assert!(serial8_greater(1, 0));
        assert!(serial8_greater(127, 0));
        assert!(!serial8_greater(128, 0), "beyond the +127 window");
        assert!(!serial8_greater(0, 0));
        assert!(!serial8_greater(200, 201));
        assert!(serial8_greater(0, 255), "wraps: 0 is one ahead of 255");
        assert!(serial8_greater(5, 250));
    }

    #[test]
    fn scan_consumes_through_the_tpsn() {
        let mut q = PsnQueue::with_capacity(16);
        for psn in 0..10u32 {
            q.push(psn);
        }
        assert_eq!(q.len(), 10);
        let out = q.scan_for_tpsn(3); // dequeues 0..=3, finds 4 -> 5 steps
        assert_eq!(out.tpsn, Some(4));
        assert_eq!(out.consumed_below, 4);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn iter_walks_fifo_order_across_wrap() {
        let mut q = PsnQueue::with_capacity(3);
        for psn in 0..5u32 {
            q.push(psn); // 0, 1 evicted; ring wraps internally
        }
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
        let _ = q.scan_for_tpsn(2); // consumes 2, 3
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn clear_empties() {
        let mut q = PsnQueue::with_capacity(4);
        q.push(1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scan_for_tpsn(0).tpsn, None);
    }
}

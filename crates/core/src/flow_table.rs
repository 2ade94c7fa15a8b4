//! The Themis-D flow table (Figure 4a).
//!
//! One entry per cross-rack QP terminating at this ToR, holding the
//! per-flow PSN queue plus the NACK-compensation state of §3.4:
//!
//! * **BePSN** — the ePSN of the most recently *blocked* NACK;
//! * **Valid** — whether a compensation decision for BePSN is pending.
//!
//! §4 charges 20 bytes per entry: 13 B QP id + 3 B blocked ePSN +
//! 1 B valid flag + 3 B queue metadata (index, head, tail) — reproduced by
//! [`FlowTable::entry_overhead_bytes`] — plus 1 byte per PSN-queue slot.

use crate::psn_queue::PsnQueue;
use netsim::types::QpId;
use simcore::fx::FxHashMap;

/// §4: fixed bytes per flow-table entry (excluding the PSN queue).
pub const ENTRY_OVERHEAD_BYTES: usize = 13 + 3 + 1 + 3;

/// Slots for expected retransmissions / remembered tPSNs per flow.
const SIDE_SLOTS: usize = 4;

/// Extra bytes per entry beyond the paper's 20 B, for the two side
/// tables this implementation adds (see [`FlowEntry`] field docs):
/// 4 × 3 B expected-retransmission PSNs + 4 × 1 B recent tPSN bytes +
/// 2 cursor bytes.
pub const ENTRY_EXTENSION_BYTES: usize = SIDE_SLOTS * 3 + SIDE_SLOTS + 2;

/// Per-QP Themis-D state.
#[derive(Debug, Clone)]
pub struct FlowEntry {
    /// Ring of truncated PSNs in flight on the last hop.
    pub queue: PsnQueue,
    /// Blocked ePSN (wire, 24-bit) awaiting a compensation decision.
    pub bepsn: u32,
    /// Whether `bepsn` is armed for compensation.
    pub valid: bool,
    /// PSNs the ToR expects to see *retransmitted* (the ePSNs of NACKs it
    /// forwarded or generated). Retransmissions travel out of PSN order
    /// on their path, so they must not enter the ring queue (they would
    /// be mis-identified as tPSNs and poison Eq. 3) nor serve as
    /// same-path overtake proofs. This is information the switch already
    /// produces — no new wire state.
    pending_retx: [Option<u32>; SIDE_SLOTS],
    pending_idx: usize,
    /// Truncated bytes of recently identified tPSNs. A scan consumes
    /// exactly one entry above its ePSN (the tPSN); if a later NACK's
    /// ePSN equals one of these, that packet *did* pass the ToR even
    /// though its queue entry is gone — compensation must be suppressed.
    recent_tpsns: [Option<u8>; SIDE_SLOTS],
    tpsn_idx: usize,
}

impl FlowEntry {
    fn new(queue_capacity: usize) -> FlowEntry {
        FlowEntry {
            queue: PsnQueue::with_capacity(queue_capacity),
            bepsn: 0,
            valid: false,
            pending_retx: [None; SIDE_SLOTS],
            pending_idx: 0,
            recent_tpsns: [None; SIDE_SLOTS],
            tpsn_idx: 0,
        }
    }

    /// Record that `psn` is about to be retransmitted by the sender
    /// (its NACK was forwarded or compensated).
    pub fn expect_retransmission(&mut self, psn: u32) {
        self.pending_retx[self.pending_idx] = Some(psn);
        self.pending_idx = (self.pending_idx + 1) % SIDE_SLOTS;
    }

    /// If `psn` matches an expected retransmission, consume the slot and
    /// return true (the packet must stay out of the ring queue).
    pub fn take_expected_retransmission(&mut self, psn: u32) -> bool {
        for slot in &mut self.pending_retx {
            if *slot == Some(psn) {
                *slot = None;
                return true;
            }
        }
        false
    }

    /// Remember a scan-consumed tPSN (truncated byte).
    pub fn remember_tpsn(&mut self, tpsn_trunc: u8) {
        self.recent_tpsns[self.tpsn_idx] = Some(tpsn_trunc);
        self.tpsn_idx = (self.tpsn_idx + 1) % SIDE_SLOTS;
    }

    /// Whether `psn` matches a recently consumed tPSN (truncated compare).
    pub fn recently_scanned(&self, psn: u32) -> bool {
        let b = (psn & 0xFF) as u8;
        self.recent_tpsns.contains(&Some(b))
    }

    /// Switch memory consumed by this entry: the paper's 20 B + queue
    /// bytes, plus this implementation's side tables
    /// ([`ENTRY_EXTENSION_BYTES`]).
    pub fn memory_bytes(&self) -> usize {
        ENTRY_OVERHEAD_BYTES + ENTRY_EXTENSION_BYTES + self.queue.memory_bytes()
    }

    /// Whether the entry still carries protocol obligations that make
    /// eviction observable: an armed compensation, expected
    /// retransmissions, remembered tPSNs, or queued PSN context. A fresh
    /// lazily-recreated entry behaves identically to one without any of
    /// these, so `!has_pending_obligations()` is the eviction-safety
    /// guard ([`crate::themis_d::ThemisD::evict_flow`]).
    pub fn has_pending_obligations(&self) -> bool {
        self.valid
            || !self.queue.is_empty()
            || self.pending_retx.iter().any(Option::is_some)
            || self.recent_tpsns.iter().any(Option::is_some)
    }

    /// The expected-retransmission ring slots, in slot order.
    /// Model-checker hook: an entry can only ever be consumed by a
    /// future data arrival with a matching PSN, so slots matching no
    /// still-undecided PSN are observationally inert.
    pub fn pending_retx_slots(&self) -> &[Option<u32>] {
        &self.pending_retx
    }

    /// Next insertion position in the expected-retransmission ring.
    pub fn pending_retx_cursor(&self) -> usize {
        self.pending_idx
    }

    /// The remembered-tPSN ring slots, in slot order. Model-checker
    /// hook: a slot is only ever compared against future NACK ePSNs
    /// ([`FlowEntry::recently_scanned`]), so slots matching no such
    /// candidate are observationally inert.
    pub fn recent_tpsn_slots(&self) -> &[Option<u8>] {
        &self.recent_tpsns
    }

    /// Next insertion position in the remembered-tPSN ring.
    pub fn recent_tpsn_cursor(&self) -> usize {
        self.tpsn_idx
    }
}

/// All per-QP state of one Themis-D instance.
#[derive(Debug, Clone)]
pub struct FlowTable {
    entries: FxHashMap<QpId, FlowEntry>,
    queue_capacity: usize,
}

impl FlowTable {
    /// A table whose PSN queues hold `queue_capacity` entries each.
    pub fn new(queue_capacity: usize) -> FlowTable {
        FlowTable {
            entries: FxHashMap::default(),
            queue_capacity,
        }
    }

    /// Provision a QP at connection setup (handshake interception, §3.3).
    pub fn provision(&mut self, qp: QpId) {
        self.entry(qp);
    }

    /// Entry lookup, creating lazily if the handshake was missed.
    /// Single hash probe per packet (the per-data-packet hot path).
    pub fn entry(&mut self, qp: QpId) -> &mut FlowEntry {
        let capacity = self.queue_capacity;
        self.entries
            .entry(qp)
            .or_insert_with(|| FlowEntry::new(capacity))
    }

    /// Entry lookup without creation.
    pub fn get(&self, qp: QpId) -> Option<&FlowEntry> {
        self.entries.get(&qp)
    }

    /// Number of tracked QPs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove a QP (connection teardown).
    pub fn remove(&mut self, qp: QpId) -> bool {
        self.entries.remove(&qp).is_some()
    }

    /// §4 fixed overhead per entry.
    pub fn entry_overhead_bytes() -> usize {
        ENTRY_OVERHEAD_BYTES
    }

    /// Total switch memory consumed by this table.
    pub fn memory_bytes(&self) -> usize {
        self.entries.values().map(FlowEntry::memory_bytes).sum()
    }

    /// Iterate over all tracked flows (stats extraction).
    pub fn iter(&self) -> impl Iterator<Item = (&QpId, &FlowEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_overhead_matches_section4() {
        // 13 (QP id) + 3 (BePSN) + 1 (valid) + 3 (queue metadata) = 20.
        assert_eq!(FlowTable::entry_overhead_bytes(), 20);
    }

    #[test]
    fn per_qp_memory_matches_table1_example_plus_extension() {
        // Queue of 100 one-byte entries + 20 B entry = 120 B (§4: M_QP),
        // plus this implementation's 18 B side tables.
        let mut t = FlowTable::new(100);
        t.provision(QpId(1));
        assert_eq!(ENTRY_EXTENSION_BYTES, 18);
        assert_eq!(t.get(QpId(1)).unwrap().memory_bytes(), 120 + 18);
        assert_eq!(t.memory_bytes(), 138);
    }

    #[test]
    fn expected_retransmissions_are_consumed_once() {
        let mut t = FlowTable::new(8);
        let e = t.entry(QpId(1));
        e.expect_retransmission(42);
        assert!(e.take_expected_retransmission(42));
        assert!(!e.take_expected_retransmission(42), "slot consumed");
        assert!(!e.take_expected_retransmission(43));
    }

    #[test]
    fn expected_retransmissions_evict_oldest() {
        let mut t = FlowTable::new(8);
        let e = t.entry(QpId(1));
        for psn in 0..5u32 {
            e.expect_retransmission(psn);
        }
        assert!(!e.take_expected_retransmission(0), "oldest evicted");
        for psn in 1..5u32 {
            assert!(e.take_expected_retransmission(psn));
        }
    }

    #[test]
    fn recent_tpsns_ring() {
        let mut t = FlowTable::new(8);
        let e = t.entry(QpId(1));
        assert!(!e.recently_scanned(7));
        e.remember_tpsn(7);
        assert!(e.recently_scanned(7));
        assert!(e.recently_scanned(7 + 256), "truncated compare");
        for b in 10..14u8 {
            e.remember_tpsn(b);
        }
        assert!(!e.recently_scanned(7), "evicted after 4 newer tPSNs");
    }

    #[test]
    fn provision_vs_lazy_creation() {
        let mut t = FlowTable::new(10);
        t.provision(QpId(1));
        t.entry(QpId(1)).bepsn = 5;
        t.provision(QpId(1)); // idempotent
        assert_eq!(t.entry(QpId(1)).bepsn, 5, "existing -> not recreated");
        assert!(t.get(QpId(2)).is_none());
        let _ = t.entry(QpId(2)); // missing -> lazy
        assert!(t.get(QpId(2)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn compensation_fields_default_inactive() {
        let mut t = FlowTable::new(10);
        let e = t.entry(QpId(9));
        assert!(!e.valid);
        e.bepsn = 42;
        e.valid = true;
        assert!(t.get(QpId(9)).unwrap().valid);
    }

    #[test]
    fn pending_obligations_track_every_source() {
        let mut t = FlowTable::new(8);
        let e = t.entry(QpId(1));
        assert!(!e.has_pending_obligations(), "fresh entry is evictable");

        e.valid = true;
        assert!(e.has_pending_obligations(), "armed compensation");
        e.valid = false;

        e.queue.push(5);
        assert!(e.has_pending_obligations(), "queued PSN context");
        e.queue.clear();

        e.expect_retransmission(9);
        assert!(e.has_pending_obligations(), "expected retransmission");
        assert!(e.take_expected_retransmission(9));

        e.remember_tpsn(3);
        assert!(
            e.has_pending_obligations(),
            "remembered tPSN still suppresses compensation"
        );
    }

    #[test]
    fn remove_frees_entry() {
        let mut t = FlowTable::new(10);
        t.provision(QpId(3));
        assert!(t.remove(QpId(3)));
        assert!(!t.remove(QpId(3)));
        assert!(t.is_empty());
        assert_eq!(t.memory_bytes(), 0);
    }
}

//! Themis-D: NACK validation, blocking and compensation at the
//! destination ToR (§3.3, §3.4).
//!
//! For every data packet forwarded on the last hop, Themis-D records the
//! PSN in the flow's ring queue and runs the compensation check. For every
//! NACK arriving back from a local receiver, it identifies the triggering
//! PSN (tPSN) by scanning that queue, evaluates Eq. 3, and forwards valid
//! NACKs while blocking invalid ones.
//!
//! Blocking creates the §3.4 obligation: if the expected packet really was
//! lost, someone must eventually tell the sender, because the RNIC will
//! never NACK the same ePSN again. Themis-D arms `(BePSN, Valid)` in the
//! flow table and, on a later data packet:
//!
//! * PSN == BePSN → the "lost" packet arrived after all; disarm.
//! * PSN > BePSN on the *same path* (`PSN mod N == BePSN mod N`) → the
//!   expected packet is provably lost; synthesize a NACK for BePSN on
//!   behalf of the RNIC and disarm.

use crate::flow_table::FlowTable;
use crate::policy::{assert_valid_path_count, nack_valid_truncated, relative_path};
use netsim::hooks::ReverseAction;
use netsim::packet::{Packet, PacketKind};
use netsim::types::QpId;

/// 24-bit serial comparison: is `a` strictly ahead of `b`?
#[inline]
fn serial24_greater(a: u32, b: u32) -> bool {
    let d = a.wrapping_sub(b) & 0xFF_FFFF;
    (1..(1 << 23)).contains(&d)
}

/// Themis-D statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThemisDStats {
    /// NACKs inspected.
    pub nacks_seen: u64,
    /// Invalid NACKs blocked.
    pub nacks_blocked: u64,
    /// Valid NACKs forwarded (Eq. 3 held).
    pub nacks_forwarded_valid: u64,
    /// NACKs forwarded conservatively because no tPSN was found.
    pub nacks_forwarded_unknown: u64,
    /// Compensated NACKs generated (§3.4).
    pub compensations: u64,
    /// Compensations cancelled because the BePSN packet arrived.
    pub compensation_cancels: u64,
    /// Compensation armings suppressed because the blocked ePSN was still
    /// in the ring queue (already past the ToR, merely overtaken).
    pub compensation_suppressed: u64,
    /// Eviction requests refused because the entry still carried
    /// protocol obligations (armed compensation, queued context,
    /// expected retransmissions, or remembered tPSNs).
    pub evictions_deferred: u64,
    /// NACKs blocked (with compensation armed) because ring-overflow
    /// evictions destroyed the ePSN-era context, making the tPSN verdict
    /// meaningless; compensation recovers genuine losses shortly after.
    pub blocked_uncertain: u64,
}

/// The destination-side half of Themis.
#[derive(Debug, Clone)]
pub struct ThemisD {
    n_paths: usize,
    table: FlowTable,
    compensation: bool,
    /// Statistics.
    pub stats: ThemisDStats,
}

impl ThemisD {
    /// Build for `n_paths` paths with the given per-QP PSN-queue capacity.
    pub fn new(n_paths: usize, queue_capacity: usize, compensation: bool) -> ThemisD {
        assert_valid_path_count(n_paths);
        ThemisD {
            n_paths,
            table: FlowTable::new(queue_capacity),
            compensation,
            stats: ThemisDStats::default(),
        }
    }

    /// Number of paths.
    pub fn n_paths(&self) -> usize {
        self.n_paths
    }

    /// Change the Eq. 3 modulus to match a sender-side pathset
    /// restriction (§6). Must equal every affected Themis-S's
    /// [`crate::themis_s::ThemisS::effective_modulus`]; in-flight packets
    /// sprayed under the old modulus may be misclassified transiently
    /// (recovered by compensation or the sender RTO).
    pub fn set_modulus(&mut self, n: usize) {
        assert_valid_path_count(n);
        self.n_paths = n;
    }

    /// The flow table (memory accounting, tests).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Intercept a connection handshake: provision per-QP state (§3.3).
    pub fn on_handshake(&mut self, qp: QpId) {
        self.table.provision(qp);
    }

    /// Reclaim a flow-table entry under memory pressure or flow churn.
    ///
    /// Refused (returning `false`) while the entry still carries
    /// protocol obligations — a non-empty PSN queue, an armed §3.4
    /// compensation, expected retransmissions, or remembered tPSNs.
    /// Evicting such an entry is observable: a NACK still in flight from
    /// the receiver would be judged against a fresh empty entry, whose
    /// drained-queue scan forwards conservatively (sender disturbance
    /// the full entry would have blocked), and an armed compensation
    /// obligation would be silently dropped (a real loss never
    /// signalled). With the guard, a fresh lazily-recreated entry
    /// behaves identically to the evicted one, so eviction is invisible
    /// to the protocol — a property the model checker verifies
    /// exhaustively.
    pub fn evict_flow(&mut self, qp: QpId) -> bool {
        match self.table.get(qp) {
            Some(e) if !e.has_pending_obligations() => {
                self.table.remove(qp);
                true
            }
            Some(_) => {
                self.stats.evictions_deferred += 1;
                false
            }
            None => false,
        }
    }

    /// Remove a flow entry unconditionally, bypassing the
    /// [`ThemisD::evict_flow`] obligation guard. Model-checker hook
    /// only: the explorer uses it to demonstrate the guard is
    /// load-bearing (forcing an eviction that races an in-flight NACK
    /// produces a detectable protocol violation).
    pub fn force_remove_flow(&mut self, qp: QpId) -> bool {
        self.table.remove(qp)
    }

    /// Observe a data packet about to be forwarded to a local host.
    ///
    /// Records its PSN in the flow's ring queue and runs the compensation
    /// check; returns a synthesized NACK to inject when compensation
    /// fires.
    pub fn on_downstream_data(&mut self, pkt: &Packet) -> Option<Packet> {
        let PacketKind::Data { psn, .. } = pkt.kind else {
            return None;
        };
        let n = self.n_paths;
        let entry = self.table.entry(pkt.qp);

        // Retransmissions travel out of PSN order on their path, so they
        // must not enter the ring queue (a later scan would mis-identify
        // them as tPSNs and poison Eq. 3) nor prove same-path overtakes.
        // The ToR knows exactly which PSNs will be retransmitted: the
        // ePSNs of NACKs it forwarded or generated.
        let is_retransmission = entry.take_expected_retransmission(psn);

        let mut compensated = None;
        if entry.valid {
            if psn == entry.bepsn {
                // The packet a NACK was blocked for did arrive (possibly
                // as a retransmission): no compensation needed.
                entry.valid = false;
                self.stats.compensation_cancels += 1;
            } else if !is_retransmission
                && serial24_greater(psn, entry.bepsn)
                && relative_path(psn, n) == relative_path(entry.bepsn, n)
            {
                // A later packet on the same path overtook BePSN: the
                // BePSN packet is lost. NACK on behalf of the RNIC.
                entry.valid = false;
                entry.expect_retransmission(entry.bepsn);
                self.stats.compensations += 1;
                compensated = Some(Packet::nack(
                    pkt.qp,
                    pkt.dst, // receiver
                    pkt.src, // sender
                    pkt.udp_sport,
                    entry.bepsn,
                    true,
                ));
            }
        }
        if !is_retransmission {
            entry.queue.push(psn);
        }
        compensated
    }

    /// Validate a NACK from a local receiver (§3.3): find the tPSN and
    /// apply Eq. 3.
    pub fn on_reverse_nack(&mut self, qp: QpId, epsn: u32) -> ReverseAction {
        self.stats.nacks_seen += 1;
        let n = self.n_paths;
        let compensation = self.compensation;
        let entry = self.table.entry(qp);
        let outcome = entry.queue.scan_for_tpsn(epsn);
        if let Some(t) = outcome.tpsn {
            entry.remember_tpsn(t);
        }
        // If the expected packet already passed this ToR it was merely
        // overtaken in the fabric and sits on the last hop: the NACK is
        // moot regardless of the tPSN verdict — block it and arm nothing.
        // Three ways to know: this scan consumed an entry equal to the
        // ePSN (it was ahead of the tPSN), the entry is still queued
        // (behind the tPSN), or a recent scan consumed it as a tPSN.
        if outcome.saw_epsn || entry.queue.contains(epsn) || entry.recently_scanned(epsn) {
            self.stats.nacks_blocked += 1;
            self.stats.compensation_suppressed += 1;
            return ReverseAction::Block;
        }
        match outcome.tpsn {
            None => {
                // Queue exhausted (quiescent flow or unknown QP): cannot
                // prove the NACK invalid — forward it (this is the path
                // that recovers tail losses), and expect the consequent
                // retransmission.
                self.stats.nacks_forwarded_unknown += 1;
                entry.expect_retransmission(epsn);
                ReverseAction::Forward
            }
            Some(tpsn_trunc)
                if outcome.consumed_below == 0 && entry.queue.stats.overflow_evictions > 0 =>
            {
                // Every queued entry is newer than the ePSN *and* the
                // ring has evicted entries before: the ePSN's era was
                // destroyed by overflow, so this "tPSN" is unrelated and
                // Eq. 3 would be a coin flip. Block, and let compensation
                // decide: a genuinely lost ePSN is proven by the next
                // same-path packet; an already-delivered one produces at
                // most one stale NACK the sender ignores. (Without prior
                // evictions, zero consumed entries just means the ePSN
                // opens the window — the scan verdict is sound.)
                let _ = tpsn_trunc;
                self.stats.nacks_blocked += 1;
                self.stats.blocked_uncertain += 1;
                if compensation {
                    entry.bepsn = epsn;
                    entry.valid = true;
                }
                ReverseAction::Block
            }
            Some(tpsn_trunc) => {
                if nack_valid_truncated(tpsn_trunc, epsn, n) {
                    // Real loss: the sender will retransmit `epsn`.
                    self.stats.nacks_forwarded_valid += 1;
                    entry.expect_retransmission(epsn);
                    ReverseAction::Forward
                } else {
                    self.stats.nacks_blocked += 1;
                    if compensation {
                        entry.bepsn = epsn;
                        entry.valid = true;
                    }
                    ReverseAction::Block
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::types::HostId;

    const N: usize = 2;

    fn themis() -> ThemisD {
        ThemisD::new(N, 16, true)
    }

    fn data(psn: u32) -> Packet {
        Packet::data(
            QpId(1),
            HostId(0),
            HostId(9),
            700,
            psn,
            0,
            false,
            1000,
            false,
        )
    }

    fn feed(t: &mut ThemisD, psns: &[u32]) -> Vec<Packet> {
        psns.iter()
            .filter_map(|&p| t.on_downstream_data(&data(p)))
            .collect()
    }

    #[test]
    fn figure_4b_blocks_invalid_then_forwards_valid() {
        let mut t = themis();
        // Fig 4b timeline at the ToR: 0, 1, 3 pass; packet 2 is delayed
        // on the other path. The RNIC NACKs with ePSN=2 (triggered by 3).
        assert!(feed(&mut t, &[0, 1, 3]).is_empty());
        // tPSN = 3; 3 mod 2 != 2 mod 2 -> invalid -> block.
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        assert_eq!(t.stats.nacks_blocked, 1);
        // The delayed 2 arrives (cancels the armed compensation), then 6.
        assert!(feed(&mut t, &[2, 6]).is_empty());
        // NACK ePSN=4 triggered by 6: scan dequeues 2, finds tPSN = 6;
        // 6 mod 2 == 4 mod 2 -> valid -> forward.
        assert_eq!(t.on_reverse_nack(QpId(1), 4), ReverseAction::Forward);
        assert_eq!(t.stats.nacks_forwarded_valid, 1);
    }

    #[test]
    fn already_forwarded_bepsn_suppresses_compensation() {
        // The expected packet (PSN 2) passed the ToR *before* its NACK
        // was blocked — it sits in the ring queue behind the trigger. The
        // literal §3.4 rules would arm compensation and fire a spurious
        // compensated NACK on the next same-path packet; the queue
        // membership check suppresses the arming instead.
        let mut t = themis();
        assert!(feed(&mut t, &[0, 1, 3, 2]).is_empty());
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        assert_eq!(t.stats.compensation_suppressed, 1);
        let comp = feed(&mut t, &[6]);
        assert!(comp.is_empty(), "no spurious compensation");
        assert_eq!(t.stats.compensations, 0);
    }

    #[test]
    fn figure_4c_compensation_fires_on_same_path_overtake() {
        let mut t = themis();
        feed(&mut t, &[0, 1, 3]);
        // NACK ePSN=2 (triggered by 3): invalid, blocked, BePSN=2 armed.
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        // Packet 4 arrives: 4 > 2 and 4 mod 2 == 2 mod 2 -> the packet
        // with PSN 2 is provably lost -> compensated NACK for ePSN 2.
        let comp = feed(&mut t, &[4]);
        assert_eq!(comp.len(), 1);
        match comp[0].kind {
            PacketKind::Nack { epsn, compensated } => {
                assert_eq!(epsn, 2);
                assert!(compensated);
            }
            _ => panic!("expected NACK"),
        }
        // Addressed receiver -> sender.
        assert_eq!(comp[0].src, HostId(9));
        assert_eq!(comp[0].dst, HostId(0));
        assert_eq!(t.stats.compensations, 1);
        // Compensation fires once: another same-path packet is quiet.
        assert!(feed(&mut t, &[6]).is_empty());
    }

    #[test]
    fn compensation_cancelled_when_bepsn_arrives() {
        let mut t = themis();
        feed(&mut t, &[0, 1, 3]);
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        // The delayed packet 2 shows up: no loss, disarm quietly.
        assert!(feed(&mut t, &[2]).is_empty());
        assert_eq!(t.stats.compensation_cancels, 1);
        // Later same-path packets must not compensate anymore.
        assert!(feed(&mut t, &[4, 6]).is_empty());
        assert_eq!(t.stats.compensations, 0);
    }

    #[test]
    fn different_path_packet_does_not_compensate() {
        let mut t = themis();
        feed(&mut t, &[0, 1, 3]);
        t.on_reverse_nack(QpId(1), 2);
        // Packet 5 (path 1) cannot prove packet 2 (path 0) lost.
        assert!(feed(&mut t, &[5]).is_empty());
        assert_eq!(t.stats.compensations, 0);
        // But packet 6 (path 0) can.
        assert_eq!(feed(&mut t, &[6]).len(), 1);
    }

    #[test]
    fn compensation_disabled_blocks_without_arming() {
        let mut t = ThemisD::new(N, 16, false);
        feed(&mut t, &[0, 1, 3]);
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        assert!(feed(&mut t, &[4, 6, 8]).is_empty(), "no compensation");
        assert_eq!(t.stats.compensations, 0);
    }

    #[test]
    fn empty_queue_forwards_conservatively() {
        let mut t = themis();
        assert_eq!(t.on_reverse_nack(QpId(7), 0), ReverseAction::Forward);
        assert_eq!(t.stats.nacks_forwarded_unknown, 1);
    }

    #[test]
    fn handshake_provisions_flow_state() {
        let mut t = themis();
        t.on_handshake(QpId(3));
        assert!(t.table().get(QpId(3)).is_some(), "the entry exists");
        assert_eq!(t.table().len(), 1);
    }

    #[test]
    fn four_paths_validity() {
        let mut t = ThemisD::new(4, 32, true);
        // Packets 0,1,2,3,5,6,7 arrive; 4 lost. First OOO beyond epsn=4
        // is 5: 5 mod 4 != 4 mod 4 -> invalid NACK blocked.
        feed(&mut t, &[0, 1, 2, 3, 5]);
        assert_eq!(t.on_reverse_nack(QpId(1), 4), ReverseAction::Block);
        // Packet 8 (same path as 4): compensate.
        let comp = feed(&mut t, &[6, 7, 8]);
        assert_eq!(comp.len(), 1);
        assert_eq!(
            match comp[0].kind {
                PacketKind::Nack { epsn, .. } => epsn,
                _ => unreachable!(),
            },
            4
        );
    }

    #[test]
    fn evicted_context_blocks_and_arms_compensation() {
        // Tiny ring (capacity 2): by the time the NACK arrives, every
        // entry from the ePSN's era has been evicted. The verdict would
        // be a coin flip, so Themis-D blocks and arms compensation.
        let mut t = ThemisD::new(2, 2, true);
        // Packet 0 lost; 1..6 pass, overflowing the 2-slot ring.
        assert!(feed(&mut t, &[1, 2, 3, 4, 5, 6]).is_empty());
        // NACK(0): ring holds [5, 6]; nothing <= 0 is consumed.
        assert_eq!(t.on_reverse_nack(QpId(1), 0), ReverseAction::Block);
        assert_eq!(t.stats.blocked_uncertain, 1);
        // The next same-path packet proves the loss -> compensated NACK.
        let comp = feed(&mut t, &[8]);
        assert_eq!(comp.len(), 1);
        assert!(matches!(
            comp[0].kind,
            PacketKind::Nack {
                epsn: 0,
                compensated: true
            }
        ));
    }

    #[test]
    fn expected_retransmissions_stay_out_of_the_queue() {
        // A forwarded valid NACK predicts a retransmission of its ePSN;
        // when that packet flies by, it must not enter the ring queue
        // (out-of-PSN-order there) nor count as an overtake proof.
        let mut t = themis();
        feed(&mut t, &[0, 1]);
        // Packets 2 and 3 lost; 4 arrives -> NACK(2) with tPSN 4: valid.
        feed(&mut t, &[4]);
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Forward);
        assert_eq!(t.stats.nacks_forwarded_valid, 1);
        // The retransmitted 2 arrives late, after 5 and 6.
        feed(&mut t, &[5, 6]);
        let ring_len = |t: &ThemisD| t.table().get(QpId(1)).map_or(0, |e| e.queue.len());
        let before = ring_len(&t);
        assert!(feed(&mut t, &[2]).is_empty());
        assert_eq!(ring_len(&t), before, "retx excluded from the ring");
    }

    #[test]
    fn eviction_deferred_while_obligations_pending() {
        let mut t = themis();
        feed(&mut t, &[0, 1, 3]);
        // Armed compensation (blocked NACK) + queued context: refuse.
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        assert!(!t.evict_flow(QpId(1)));
        assert_eq!(t.stats.evictions_deferred, 1);
        assert_eq!(t.table().len(), 1, "entry survives");
        // The delayed 2 arrives and disarms the compensation...
        feed(&mut t, &[2]);
        assert_eq!(t.stats.compensation_cancels, 1);
        // ...but the queue now holds 2 and tPSN 3 is remembered: both
        // still shape future NACK verdicts, so eviction stays deferred.
        assert!(!t.evict_flow(QpId(1)));
        assert_eq!(t.stats.evictions_deferred, 2);
    }

    #[test]
    fn eviction_succeeds_on_quiescent_flow() {
        let mut t = themis();
        t.on_handshake(QpId(5));
        assert!(t.evict_flow(QpId(5)), "fresh provisioned entry is idle");
        assert!(t.table().get(QpId(5)).is_none());
        assert!(t.table().is_empty());
        assert!(!t.evict_flow(QpId(5)), "already gone");
        assert!(t.table().is_empty());
    }

    #[test]
    fn forced_eviction_loses_the_compensation_obligation() {
        // The negative control the model checker generalizes: force out
        // an entry with an armed compensation and the loss of PSN 2 is
        // never signalled to the sender.
        let mut t = themis();
        feed(&mut t, &[0, 1, 3]);
        assert_eq!(t.on_reverse_nack(QpId(1), 2), ReverseAction::Block);
        assert!(t.force_remove_flow(QpId(1)));
        // Packet 4 (same path as the lost 2) would have fired the
        // compensated NACK; the recreated entry knows nothing.
        assert!(feed(&mut t, &[4]).is_empty(), "obligation silently lost");
        assert_eq!(t.stats.compensations, 0);
    }

    #[test]
    fn serial24_wraps() {
        assert!(serial24_greater(0, 0xFF_FFFF));
        assert!(serial24_greater(5, 0xFF_FFF0));
        assert!(!serial24_greater(0xFF_FFFF, 0));
        assert!(!serial24_greater(7, 7));
        assert!(serial24_greater(8, 7));
    }

    #[test]
    fn valid_nack_for_true_loss_single_path_parity() {
        // Two paths; packet 0 lost in the fabric; packets 1, 2, 3 arrive.
        // First OOO arrival is 1 -> NACK(0) triggered by tPSN=1:
        // 1 mod 2 != 0 mod 2 -> blocked (cannot yet prove loss).
        // Then 2 arrives -> same path as 0 -> compensation proves loss.
        let mut t = themis();
        let comp1 = feed(&mut t, &[1]);
        assert!(comp1.is_empty());
        assert_eq!(t.on_reverse_nack(QpId(1), 0), ReverseAction::Block);
        let comp2 = feed(&mut t, &[2]);
        assert_eq!(comp2.len(), 1, "compensation recovers the real loss");
    }
}

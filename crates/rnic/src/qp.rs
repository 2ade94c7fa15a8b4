//! Queue-pair state machines.
//!
//! [`SendQp`] and [`RecvQp`] are pure state machines — they consume packet
//! fields and produce response packets / completion tags, with no access to
//! the event engine. The [`crate::nic::Nic`] entity drives them and owns
//! all scheduling. This split keeps the NIC-SR rules of §2.2 directly
//! unit-testable:
//!
//! * the receiver generates **at most one NACK per ePSN value**;
//! * NACKs carry **only the ePSN**;
//! * the ePSN advances to the smallest not-yet-received PSN;
//! * the Go-Back-N receiver discards out-of-order packets outright;
//! * the oracle receiver NACKs only real losses.

use crate::bitmap::OooBitmap;
use crate::config::TransportMode;
use crate::dcqcn::Dcqcn;
use crate::psn::{extend24, wire_psn};
use crate::reaction::{EntropyStats, OooReaction, OooReactionStats, SenderEntropy};
use netsim::packet::Packet;
use netsim::types::{HostId, QpId};
use simcore::stats::{RateMeter, TimeSeries};
use simcore::time::{Nanos, TimeDelta};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A message posted for transmission, occupying a contiguous PSN range.
#[derive(Debug, Clone, Copy)]
pub struct PostedMsg {
    /// Caller-chosen completion tag.
    pub tag: u64,
    /// First PSN of the message.
    pub first_psn: u64,
    /// Last PSN of the message (inclusive).
    pub last_psn: u64,
    /// Message length in bytes.
    pub bytes: u64,
}

/// Sender-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendQpStats {
    /// First-transmission data packets sent.
    pub data_packets: u64,
    /// Retransmitted data packets sent.
    pub retx_packets: u64,
    /// ACKs received.
    pub acks_received: u64,
    /// NACKs received.
    pub nacks_received: u64,
    /// CNPs received.
    pub cnps_received: u64,
    /// RTO expirations.
    pub rto_fires: u64,
    /// Stale NACKs ignored (ePSN already acknowledged past).
    pub stale_nacks: u64,
    /// Total data payload bytes sent (including retransmissions).
    pub bytes_sent: u64,
}

/// Optional per-flow tracing (Fig 1b / Fig 1c series).
#[derive(Debug, Clone)]
pub struct SendTrace {
    /// Wire sending rate over time (data packets, incl. retransmissions).
    pub rate: RateMeter,
    /// Per-bin retransmission ratio: each sent data packet records 1.0 if
    /// it was a retransmission and 0.0 otherwise, so bin means are the
    /// retransmission ratio of that bin (Fig 1b).
    pub retx_ratio: TimeSeries,
}

impl SendTrace {
    /// A trace with the given bin width.
    pub fn new(bin: TimeDelta) -> SendTrace {
        SendTrace {
            rate: RateMeter::new(bin),
            retx_ratio: TimeSeries::new(bin),
        }
    }
}

/// Sender side of a reliable connection.
#[derive(Debug)]
pub struct SendQp {
    /// Connection id.
    pub qp: QpId,
    /// Local host.
    pub me: HostId,
    /// Remote host.
    pub dst: HostId,
    /// UDP source port of this flow (ECMP entropy; Themis-S may rewrite
    /// it in flight, which does not change this stored base value).
    pub sport: u16,
    mtu: u32,
    transport: TransportMode,
    /// Everything below this extended PSN is cumulatively acknowledged.
    snd_una: u64,
    /// Next never-sent extended PSN.
    snd_nxt: u64,
    /// High-water mark: one past the highest PSN ever transmitted. Used
    /// to classify Go-Back-N rewound sends as retransmissions.
    snd_max: u64,
    /// End of allocated PSN space (exclusive).
    snd_end: u64,
    msgs: VecDeque<PostedMsg>,
    retx: BTreeSet<u64>,
    /// DCQCN reaction point.
    pub cc: Dcqcn,
    /// Earliest time the pacer allows the next packet.
    pub next_allowed: Nanos,
    /// RTO deadline while unacknowledged data exists.
    pub rto_deadline: Option<Nanos>,
    /// Statistics.
    pub stats: SendQpStats,
    /// Optional tracing, boxed to keep the always-scanned hot QP array
    /// slim (the trace payload is ~90 bytes and rarely enabled).
    pub trace: Option<Box<SendTrace>>,
    handshake_sent: bool,
    /// Per-packet entropy policy (scheme zoo); [`SenderEntropy::Fixed`]
    /// = the commodity behaviour of using `sport` on every packet.
    entropy: SenderEntropy,
}

impl SendQp {
    /// A fresh sender QP.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        qp: QpId,
        me: HostId,
        dst: HostId,
        sport: u16,
        mtu: u32,
        transport: TransportMode,
        cc: Dcqcn,
        entropy: SenderEntropy,
    ) -> SendQp {
        SendQp {
            qp,
            me,
            dst,
            sport,
            mtu,
            transport,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            snd_end: 0,
            msgs: VecDeque::new(),
            retx: BTreeSet::new(),
            cc,
            next_allowed: Nanos::ZERO,
            rto_deadline: None,
            stats: SendQpStats::default(),
            trace: None,
            handshake_sent: false,
            entropy,
        }
    }

    /// Feed an ACK-echoed entropy value to the entropy policy.
    pub fn on_ack_echo(&mut self, echo: u16) {
        self.entropy.on_ack_echo(echo);
    }

    /// Entropy-policy counters (`scheme.*` telemetry).
    pub fn entropy_stats(&self) -> EntropyStats {
        self.entropy.stats()
    }

    /// Allocate PSN space for a message; returns the range.
    pub fn post(&mut self, bytes: u64, tag: u64) -> (u64, u64) {
        let n = bytes.div_ceil(self.mtu as u64).max(1);
        let first = self.snd_end;
        let last = first + n - 1;
        self.snd_end = last + 1;
        self.msgs.push_back(PostedMsg {
            tag,
            first_psn: first,
            last_psn: last,
            bytes,
        });
        (first, last)
    }

    /// Whether any transmission work remains (new or retransmissions).
    #[inline]
    pub fn has_work(&self) -> bool {
        !self.retx.is_empty() || self.snd_nxt < self.snd_end
    }

    /// Whether unacknowledged data is outstanding.
    #[inline]
    pub fn has_unacked(&self) -> bool {
        self.snd_una < self.snd_nxt
    }

    /// Whether this QP may transmit at `now`.
    #[inline]
    pub fn ready(&self, now: Nanos) -> bool {
        self.has_work() && self.next_allowed <= now
    }

    /// Cumulative acknowledged PSN (tests).
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next new PSN (tests).
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Pending retransmissions (tests).
    pub fn retx_pending(&self) -> usize {
        self.retx.len()
    }

    /// Whether the one-time handshake packet still needs to be sent.
    pub fn take_handshake(&mut self) -> Option<Packet> {
        if self.handshake_sent {
            return None;
        }
        self.handshake_sent = true;
        Some(Packet::handshake(self.qp, self.me, self.dst, self.sport))
    }

    fn msg_for(&self, psn: u64) -> &PostedMsg {
        self.msgs
            .iter()
            .find(|m| m.first_psn <= psn && psn <= m.last_psn)
            .expect("PSN outside any live message: retx/ack accounting bug")
    }

    fn payload_for(&self, psn: u64) -> (u32, bool, u64) {
        let m = self.msg_for(psn);
        let _idx = psn - m.first_psn;
        let n = m.last_psn - m.first_psn + 1;
        let last = psn == m.last_psn;
        let payload = if last {
            (m.bytes - (n - 1) * self.mtu as u64) as u32
        } else {
            self.mtu
        };
        (payload.max(1), last, m.tag)
    }

    /// Build the next packet to transmit and update pacing/CC/stats.
    ///
    /// Caller must have checked [`SendQp::ready`]. Retransmissions take
    /// priority over first transmissions, like real NICs.
    pub fn next_packet(&mut self, now: Nanos) -> Packet {
        debug_assert!(self.ready(now));
        let (psn, from_retx_queue) = match self.retx.iter().next().copied() {
            Some(p) => {
                self.retx.remove(&p);
                (p, true)
            }
            None => {
                let p = self.snd_nxt;
                self.snd_nxt += 1;
                (p, false)
            }
        };
        // A send below the high-water mark is a retransmission whether it
        // came from the SR retransmit queue or a Go-Back-N rewind.
        let retransmission = from_retx_queue || psn < self.snd_max;
        self.snd_max = self.snd_max.max(psn + 1);
        let (payload, last, tag) = self.payload_for(psn);
        let sport = self.entropy.sport_for(self.sport, retransmission);
        let pkt = Packet::data(
            self.qp,
            self.me,
            self.dst,
            sport,
            wire_psn(psn),
            tag,
            last,
            payload,
            retransmission,
        );
        // Pacing: the next transmission may start after this packet's
        // serialization time at the *current DCQCN rate*.
        let rate = self.cc.rate_bps().max(1.0);
        let gap_ns = (pkt.wire_bytes as f64 * 8.0 / rate * 1e9).ceil() as u64;
        self.next_allowed = now + TimeDelta::from_nanos(gap_ns);
        self.cc.on_bytes_sent(pkt.wire_bytes as u64);
        if retransmission {
            self.stats.retx_packets += 1;
        } else {
            self.stats.data_packets += 1;
        }
        self.stats.bytes_sent += payload as u64;
        if let Some(t) = &mut self.trace {
            t.rate.record(now, pkt.wire_bytes as u64);
            t.retx_ratio
                .record(now, if retransmission { 1.0 } else { 0.0 });
        }
        pkt
    }

    /// Process a cumulative ACK; returns tags of fully acked messages.
    pub fn on_ack(&mut self, wire_epsn: u32) -> Vec<u64> {
        self.stats.acks_received += 1;
        let ext = extend24(wire_epsn, self.snd_una.max(1));
        self.advance_una(ext)
    }

    /// Process a NACK; returns (completed tags, whether a rate cut fired).
    ///
    /// A *stale* NACK — whose ePSN the sender has already cumulatively
    /// acknowledged past — is ignored entirely (no retransmission, no
    /// rate cut), as real RNICs discard out-of-window NACKs. Late
    /// compensated NACKs for packets that did arrive land here.
    pub fn on_nack(&mut self, wire_epsn: u32, now: Nanos) -> (Vec<u64>, bool) {
        self.stats.nacks_received += 1;
        let ext = extend24(wire_epsn, self.snd_una.max(1));
        if ext < self.snd_una {
            self.stats.stale_nacks += 1;
            return (Vec::new(), false);
        }
        // An accepted NACK is a loss signal: cached path knowledge
        // (e.g. the REPS entropy pool) may be stale.
        self.entropy.on_path_trouble();
        let completed = self.advance_una(ext);
        match self.transport {
            TransportMode::SelectiveRepeat | TransportMode::IdealOracle => {
                // Retransmit exactly the ePSN packet (§2.2). A stale NACK
                // (ePSN already cumulatively acknowledged — e.g. a late
                // compensated NACK for a packet that did arrive) is
                // ignored, as on real RNICs.
                if ext >= self.snd_una && ext < self.snd_nxt {
                    self.retx.insert(ext);
                }
            }
            TransportMode::GoBackN => {
                // Rewind: resend everything from the ePSN.
                self.snd_nxt = self.snd_nxt.min(ext.max(self.snd_una));
                self.retx.clear();
            }
        }
        let cut = self.cc.on_nack(now);
        (completed, cut)
    }

    /// Process a CNP.
    pub fn on_cnp(&mut self, now: Nanos) -> bool {
        self.stats.cnps_received += 1;
        self.cc.on_cnp(now)
    }

    /// RTO fired: retransmit the oldest unacknowledged packet.
    pub fn on_rto(&mut self) {
        if !self.has_unacked() {
            return;
        }
        self.stats.rto_fires += 1;
        self.entropy.on_path_trouble();
        match self.transport {
            TransportMode::SelectiveRepeat | TransportMode::IdealOracle => {
                self.retx.insert(self.snd_una);
            }
            TransportMode::GoBackN => {
                self.snd_nxt = self.snd_una;
                self.retx.clear();
            }
        }
    }

    fn advance_una(&mut self, ext: u64) -> Vec<u64> {
        if ext > self.snd_una {
            self.snd_una = ext.min(self.snd_nxt);
        }
        // Drop retransmissions that are now acknowledged.
        while let Some(&p) = self.retx.iter().next() {
            if p < self.snd_una {
                self.retx.remove(&p);
            } else {
                break;
            }
        }
        let mut done = Vec::new();
        while let Some(m) = self.msgs.front() {
            if m.last_psn < self.snd_una {
                done.push(m.tag);
                self.msgs.pop_front();
            } else {
                break;
            }
        }
        done
    }
}

/// Receiver-side statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecvQpStats {
    /// Data packets received (all).
    pub data_packets: u64,
    /// Out-of-order arrivals (PSN > ePSN).
    pub ooo_packets: u64,
    /// Duplicates (PSN < ePSN, or bitmap bit already set).
    pub dup_packets: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// NACKs sent.
    pub nacks_sent: u64,
    /// NACKs suppressed because the transport is the loss oracle and the
    /// expected packet was not actually lost.
    pub nacks_suppressed: u64,
    /// CNPs sent.
    pub cnps_sent: u64,
    /// Messages delivered in order.
    pub msgs_delivered: u64,
    /// Payload bytes delivered (first copies only).
    pub bytes_delivered: u64,
    /// Go-Back-N receiver discards of out-of-order packets.
    pub gbn_discards: u64,
    /// Times the extended ePSN crossed a 24-bit wire-PSN boundary —
    /// every packet beyond the first wrap travels with an aliased
    /// (truncated) PSN that [`extend24`] must reconstruct.
    pub psn_wraps: u64,
}

/// Receiver side of a reliable connection.
#[derive(Debug, Clone)]
pub struct RecvQp {
    /// Connection id.
    pub qp: QpId,
    /// Local host.
    pub me: HostId,
    /// Remote (sending) host.
    pub peer: HostId,
    /// Entropy value used on reverse-direction packets (ACK/NACK/CNP).
    pub reverse_sport: u16,
    transport: TransportMode,
    ack_coalescing: u32,
    cnp_interval: TimeDelta,
    epsn: u64,
    bitmap: OooBitmap,
    last_nacked: Option<u64>,
    inorder_since_ack: u32,
    msg_ends: BTreeMap<u64, u64>,
    oracle_lost: BTreeSet<u64>,
    last_cnp: Option<Nanos>,
    /// Statistics.
    pub stats: RecvQpStats,
    /// OOO-escalation policy (scheme zoo); [`OooReaction::Eager`] =
    /// commodity NIC-SR "every OOO arrival warrants a NACK".
    ooo: OooReaction,
    /// Entropy value of the most recent data packet; echoed on ACKs.
    last_data_sport: u16,
}

/// Result of processing one incoming data packet.
#[derive(Debug, Default)]
pub struct RecvOutcome {
    /// Response packets to transmit (ACK/NACK/CNP), in order.
    pub responses: Vec<Packet>,
    /// Tags of messages that completed in-order delivery.
    pub delivered: Vec<u64>,
}

impl RecvQp {
    /// A fresh receiver QP.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        qp: QpId,
        me: HostId,
        peer: HostId,
        reverse_sport: u16,
        transport: TransportMode,
        ack_coalescing: u32,
        cnp_interval: TimeDelta,
        ooo: OooReaction,
    ) -> RecvQp {
        RecvQp {
            qp,
            me,
            peer,
            reverse_sport,
            transport,
            ack_coalescing: ack_coalescing.max(1),
            cnp_interval,
            epsn: 0,
            bitmap: OooBitmap::new(),
            last_nacked: None,
            inorder_since_ack: 0,
            msg_ends: BTreeMap::new(),
            oracle_lost: BTreeSet::new(),
            last_cnp: None,
            stats: RecvQpStats::default(),
            ooo,
            last_data_sport: reverse_sport,
        }
    }

    /// OOO-reaction counters (`scheme.*` telemetry).
    pub fn ooo_stats(&self) -> OooReactionStats {
        self.ooo.stats()
    }

    /// Record the entropy value an incoming data packet travelled on,
    /// so subsequent ACKs can echo it. Called by the NIC before
    /// [`RecvQp::on_data`].
    pub fn note_data_sport(&mut self, sport: u16) {
        self.last_data_sport = sport;
    }

    /// Current expected PSN (extended).
    pub fn epsn(&self) -> u64 {
        self.epsn
    }

    /// The ePSN most recently NACKed, if any (at most one NACK per ePSN
    /// value ever leaves the wire). Model-checker hook: the canonical
    /// queue reduction derives the minimum future NACK threshold from it.
    pub fn last_nacked(&self) -> Option<u64> {
        self.last_nacked
    }

    /// Start the receive window at `epsn` instead of 0. Model-checker
    /// hook: positions a small window across the 24-bit wire-PSN wrap
    /// boundary to prove truncation transparency. Only valid on a QP
    /// that has not yet received anything.
    pub fn advance_to(&mut self, epsn: u64) {
        assert_eq!(
            self.stats.data_packets, 0,
            "advance_to is an initialization hook, not a seek"
        );
        assert_eq!(self.bitmap.set_count(), 0);
        self.epsn = epsn;
    }

    /// Digest of the decision-relevant receiver state (not the
    /// counters): ePSN, OOO window, NACK/ACK pacing state, pending
    /// message ends, and the OOO policy's own fingerprint. Two receivers
    /// with equal fingerprints and equal configuration produce identical
    /// responses to every future arrival sequence; the model checker
    /// folds this into its canonical state hash.
    pub fn state_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = simcore::fx::FxHasher::default();
        self.epsn.hash(&mut h);
        self.bitmap.hash_into(&mut h);
        self.last_nacked.hash(&mut h);
        self.inorder_since_ack.hash(&mut h);
        for (psn, tag) in &self.msg_ends {
            psn.hash(&mut h);
            tag.hash(&mut h);
        }
        for psn in &self.oracle_lost {
            psn.hash(&mut h);
        }
        self.last_cnp.map(|t| t.0).hash(&mut h);
        self.last_data_sport.hash(&mut h);
        self.ooo.state_fingerprint().hash(&mut h);
        h.finish()
    }

    /// Record an oracle loss notification (Ideal transport only).
    ///
    /// If the lost packet is the expected one, a NACK is produced
    /// immediately; otherwise the loss is remembered and NACKed when the
    /// ePSN reaches it.
    pub fn on_oracle_loss(&mut self, wire_psn_v: u32) -> Option<Packet> {
        let ext = extend24(wire_psn_v, self.epsn.max(1));
        if ext < self.epsn {
            return None; // already received or recovered
        }
        self.oracle_lost.insert(ext);
        self.maybe_oracle_nack()
    }

    fn maybe_oracle_nack(&mut self) -> Option<Packet> {
        if self.transport != TransportMode::IdealOracle {
            return None;
        }
        if self.oracle_lost.contains(&self.epsn) && self.last_nacked != Some(self.epsn) {
            self.last_nacked = Some(self.epsn);
            self.stats.nacks_sent += 1;
            return Some(Packet::nack(
                self.qp,
                self.me,
                self.peer,
                self.reverse_sport,
                wire_psn(self.epsn),
                false,
            ));
        }
        None
    }

    /// Process an incoming data packet.
    #[allow(clippy::too_many_arguments)]
    pub fn on_data(
        &mut self,
        wire_psn_v: u32,
        msg_tag: u64,
        last: bool,
        payload: u32,
        ecn_ce: bool,
        now: Nanos,
    ) -> RecvOutcome {
        let mut out = RecvOutcome::default();
        self.stats.data_packets += 1;

        // Notification point: CE-marked data may trigger a CNP, paced at
        // one per cnp_interval per QP.
        if ecn_ce {
            let due = match self.last_cnp {
                None => true,
                Some(t) => now.since(t) >= self.cnp_interval,
            };
            if due {
                self.last_cnp = Some(now);
                self.stats.cnps_sent += 1;
                out.responses
                    .push(Packet::cnp(self.qp, self.me, self.peer, self.reverse_sport));
            }
        }

        let ext = extend24(wire_psn_v, self.epsn.max(1));

        if ext < self.epsn {
            // Duplicate of an already-delivered packet (spurious
            // retransmission): re-ACK so the sender can clean up.
            self.stats.dup_packets += 1;
            self.push_ack(&mut out);
            return out;
        }

        if ext == self.epsn {
            if last {
                self.msg_ends.insert(ext, msg_tag);
            }
            self.stats.bytes_delivered += payload as u64;
            let adv = self.bitmap.advance();
            let before = self.epsn;
            self.epsn += adv;
            if before >> 24 != self.epsn >> 24 {
                self.stats.psn_wraps += 1;
            }
            self.ooo.on_advance();
            self.oracle_lost = self.oracle_lost.split_off(&self.epsn);
            self.inorder_since_ack += 1;

            // Deliver completed messages.
            let remaining = self.msg_ends.split_off(&self.epsn);
            for (_, tag) in std::mem::replace(&mut self.msg_ends, remaining) {
                self.stats.msgs_delivered += 1;
                out.delivered.push(tag);
            }

            let ack_due = self.inorder_since_ack >= self.ack_coalescing
                || adv > 1
                || !out.delivered.is_empty();
            if ack_due {
                self.push_ack(&mut out);
            }
            // Ideal transport: the new ePSN may be a known loss.
            if let Some(nack) = self.maybe_oracle_nack() {
                out.responses.push(nack);
            }
            return out;
        }

        // Out-of-order arrival: PSN > ePSN.
        self.stats.ooo_packets += 1;
        match self.transport {
            TransportMode::GoBackN => {
                // Discard; request resume from ePSN (once per ePSN value).
                self.stats.gbn_discards += 1;
                if self.last_nacked != Some(self.epsn) {
                    self.last_nacked = Some(self.epsn);
                    self.push_nack(&mut out);
                }
            }
            TransportMode::SelectiveRepeat => {
                if last {
                    self.msg_ends.insert(ext, msg_tag);
                }
                if self.bitmap.set(ext - self.epsn) {
                    self.stats.bytes_delivered += payload as u64;
                } else {
                    self.stats.dup_packets += 1;
                }
                // Commodity NIC-SR blindly assumes the expected packet was
                // lost; patient policies (Eunomia) buffer instead. Either
                // way: at most one NACK per ePSN value on the wire (§2.2).
                let due = self.ooo.nack_due(ext - self.epsn, now);
                if due && self.last_nacked != Some(self.epsn) {
                    self.last_nacked = Some(self.epsn);
                    self.push_nack(&mut out);
                }
            }
            TransportMode::IdealOracle => {
                if last {
                    self.msg_ends.insert(ext, msg_tag);
                }
                if self.bitmap.set(ext - self.epsn) {
                    self.stats.bytes_delivered += payload as u64;
                } else {
                    self.stats.dup_packets += 1;
                }
                // NACK only when the expected packet is a *known* loss.
                if self.oracle_lost.contains(&self.epsn) {
                    if let Some(nack) = self.maybe_oracle_nack() {
                        out.responses.push(nack);
                    }
                } else {
                    self.stats.nacks_suppressed += 1;
                }
            }
        }
        out
    }

    fn push_ack(&mut self, out: &mut RecvOutcome) {
        self.inorder_since_ack = 0;
        self.stats.acks_sent += 1;
        out.responses.push(Packet::ack(
            self.qp,
            self.me,
            self.peer,
            self.reverse_sport,
            wire_psn(self.epsn),
            self.last_data_sport,
        ));
    }

    fn push_nack(&mut self, out: &mut RecvOutcome) {
        self.stats.nacks_sent += 1;
        out.responses.push(Packet::nack(
            self.qp,
            self.me,
            self.peer,
            self.reverse_sport,
            wire_psn(self.epsn),
            false,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CcConfig;
    use crate::reaction::OooReactionKind;
    use netsim::packet::PacketKind;

    const LINE: u64 = 100_000_000_000;

    fn send_qp(transport: TransportMode) -> SendQp {
        SendQp::new(
            QpId(1),
            HostId(0),
            HostId(1),
            4000,
            1000,
            transport,
            Dcqcn::new(CcConfig::recommended(LINE), LINE),
            SenderEntropy::Fixed,
        )
    }

    fn recv_qp(transport: TransportMode) -> RecvQp {
        RecvQp::new(
            QpId(1),
            HostId(1),
            HostId(0),
            4000,
            transport,
            1,
            TimeDelta::from_micros(50),
            OooReaction::new(OooReactionKind::Eager),
        )
    }

    #[test]
    fn post_allocates_contiguous_psns() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        assert_eq!(s.post(2500, 1), (0, 2)); // 3 packets of mtu 1000
        assert_eq!(s.post(1000, 2), (3, 3));
        assert_eq!(s.post(1, 3), (4, 4));
        assert!(s.has_work());
    }

    #[test]
    fn next_packet_sizes_and_last_flags() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(2500, 9);
        let p0 = s.next_packet(Nanos::ZERO);
        let p1 = s.next_packet(s.next_allowed);
        let p2 = s.next_packet(s.next_allowed);
        match (p0.kind, p1.kind, p2.kind) {
            (
                PacketKind::Data {
                    psn: 0,
                    payload: 1000,
                    last: false,
                    msg_tag: 9,
                    ..
                },
                PacketKind::Data {
                    psn: 1,
                    payload: 1000,
                    last: false,
                    ..
                },
                PacketKind::Data {
                    psn: 2,
                    payload: 500,
                    last: true,
                    ..
                },
            ) => {}
            other => panic!("unexpected packets: {other:?}"),
        }
        assert!(!s.has_work());
        assert!(s.has_unacked());
    }

    #[test]
    fn pacing_spaces_packets_by_rate() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(10_000, 1);
        let t0 = Nanos::ZERO;
        let _ = s.next_packet(t0);
        // 1064B wire at 100G = 85.12ns -> ceil 86ns.
        assert_eq!(s.next_allowed.as_nanos(), 86);
        assert!(!s.ready(Nanos(50)));
        assert!(s.ready(Nanos(86)));
    }

    #[test]
    fn ack_advances_and_completes() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(2500, 42);
        for _ in 0..3 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        assert!(s.on_ack(2).is_empty()); // epsn 2: packets 0,1 acked
        assert_eq!(s.snd_una(), 2);
        let done = s.on_ack(3);
        assert_eq!(done, vec![42]);
        assert!(!s.has_unacked());
    }

    #[test]
    fn sr_nack_retransmits_only_epsn_packet() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(5000, 1);
        for _ in 0..5 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        let (_, _cut) = s.on_nack(2, Nanos::from_micros(10));
        assert_eq!(s.retx_pending(), 1);
        let p = s.next_packet(s.next_allowed.max(Nanos::from_micros(10)));
        match p.kind {
            PacketKind::Data {
                psn,
                retransmission,
                ..
            } => {
                assert_eq!(psn, 2);
                assert!(retransmission);
            }
            _ => panic!(),
        }
        assert_eq!(s.stats.retx_packets, 1);
        assert_eq!(s.snd_nxt(), 5, "SR must not rewind");
    }

    #[test]
    fn stale_nack_below_snd_una_is_ignored() {
        // A late compensated NACK can carry an ePSN the sender has
        // already completed past; it must not resurrect dead PSNs.
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(3000, 1);
        for _ in 0..3 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        let done = s.on_ack(3); // message fully acknowledged and popped
        assert_eq!(done, vec![1]);
        let (completed, _) = s.on_nack(1, Nanos::from_micros(50));
        assert!(completed.is_empty());
        assert_eq!(s.retx_pending(), 0, "stale NACK ignored");
        // Sender remains usable for the next message.
        s.post(1000, 2);
        let p = s.next_packet(s.next_allowed.max(Nanos::from_micros(50)));
        assert_eq!(p.data_psn(), Some(3));
    }

    #[test]
    fn gbn_nack_rewinds() {
        let mut s = send_qp(TransportMode::GoBackN);
        s.post(5000, 1);
        for _ in 0..5 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        s.on_nack(2, Nanos::from_micros(10));
        assert_eq!(s.snd_nxt(), 2, "GBN rewinds to the NACKed ePSN");
        assert_eq!(s.retx_pending(), 0);
    }

    #[test]
    fn nack_cuts_rate_when_slowdown_enabled() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(5000, 1);
        for _ in 0..5 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        let r0 = s.cc.rate_bps();
        let (_, cut) = s.on_nack(2, Nanos::from_micros(100));
        assert!(cut);
        assert!(s.cc.rate_bps() < r0);
    }

    #[test]
    fn rto_requeues_oldest_unacked() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        s.post(3000, 1);
        for _ in 0..3 {
            let t = s.next_allowed;
            s.next_packet(t);
        }
        s.on_ack(1);
        s.on_rto();
        assert_eq!(s.retx_pending(), 1);
        let p = s.next_packet(s.next_allowed);
        assert_eq!(p.data_psn(), Some(1));
        assert_eq!(s.stats.rto_fires, 1);
    }

    #[test]
    fn handshake_emitted_once() {
        let mut s = send_qp(TransportMode::SelectiveRepeat);
        assert!(s.take_handshake().is_some());
        assert!(s.take_handshake().is_none());
    }

    // ---------------- receiver ----------------

    #[test]
    fn in_order_stream_acks_and_delivers() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        let mut delivered = Vec::new();
        for psn in 0..3u32 {
            let out = r.on_data(psn, 7, psn == 2, 1000, false, Nanos(psn as u64));
            delivered.extend(out.delivered);
            // ack_coalescing = 1 -> every packet ACKs.
            assert_eq!(out.responses.len(), 1);
            match out.responses[0].kind {
                PacketKind::Ack { epsn, .. } => assert_eq!(epsn, psn + 1),
                _ => panic!("expected ACK"),
            }
        }
        assert_eq!(delivered, vec![7]);
        assert_eq!(r.epsn(), 3);
        assert_eq!(r.stats.nacks_sent, 0);
    }

    #[test]
    fn ooo_triggers_exactly_one_nack_per_epsn() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        // psn 1, 2, 3 arrive while epsn = 0.
        let o1 = r.on_data(1, 0, false, 1000, false, Nanos(0));
        assert_eq!(o1.responses.len(), 1);
        match o1.responses[0].kind {
            PacketKind::Nack { epsn, .. } => assert_eq!(epsn, 0),
            _ => panic!("expected NACK"),
        }
        let o2 = r.on_data(2, 0, false, 1000, false, Nanos(1));
        let o3 = r.on_data(3, 0, false, 1000, false, Nanos(2));
        assert!(o2.responses.is_empty(), "at most one NACK per ePSN");
        assert!(o3.responses.is_empty());
        assert_eq!(r.stats.nacks_sent, 1);
        assert_eq!(r.stats.ooo_packets, 3);
    }

    #[test]
    fn epsn_jumps_over_bitmap_and_acks() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        r.on_data(1, 0, false, 1000, false, Nanos(0));
        r.on_data(2, 0, false, 1000, false, Nanos(1));
        let out = r.on_data(0, 0, false, 1000, false, Nanos(2));
        assert_eq!(r.epsn(), 3);
        // ACK with the jumped epsn.
        assert!(out
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Ack { epsn: 3, .. })));
    }

    #[test]
    fn new_epsn_allows_new_nack() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        r.on_data(1, 0, false, 1000, false, Nanos(0)); // NACK for epsn 0
        r.on_data(0, 0, false, 1000, false, Nanos(1)); // epsn -> 2
        let out = r.on_data(3, 0, false, 1000, false, Nanos(2)); // OOO again
        assert!(out
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Nack { epsn: 2, .. })));
        assert_eq!(r.stats.nacks_sent, 2);
    }

    #[test]
    fn duplicate_below_epsn_reacks() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        r.on_data(0, 0, false, 1000, false, Nanos(0));
        let out = r.on_data(0, 0, false, 1000, false, Nanos(1));
        assert_eq!(r.stats.dup_packets, 1);
        assert!(matches!(
            out.responses[0].kind,
            PacketKind::Ack { epsn: 1, .. }
        ));
    }

    #[test]
    fn gbn_discards_ooo_without_buffering() {
        let mut r = recv_qp(TransportMode::GoBackN);
        r.on_data(1, 0, false, 1000, false, Nanos(0));
        assert_eq!(r.stats.gbn_discards, 1);
        // Delivering 0 must advance epsn only to 1 (psn 1 was discarded).
        r.on_data(0, 0, false, 1000, false, Nanos(1));
        assert_eq!(r.epsn(), 1);
    }

    #[test]
    fn ideal_suppresses_nacks_without_loss() {
        let mut r = recv_qp(TransportMode::IdealOracle);
        let out = r.on_data(1, 0, false, 1000, false, Nanos(0));
        assert!(out.responses.is_empty());
        assert_eq!(r.stats.nacks_suppressed, 1);
        assert_eq!(r.stats.nacks_sent, 0);
    }

    #[test]
    fn ideal_nacks_oracle_reported_loss() {
        let mut r = recv_qp(TransportMode::IdealOracle);
        // Packet 0 dropped; oracle reports it while epsn == 0.
        let nack = r.on_oracle_loss(0);
        assert!(nack.is_some());
        match nack.unwrap().kind {
            PacketKind::Nack { epsn: 0, .. } => {}
            _ => panic!(),
        }
        // Subsequent OOO arrival does not duplicate the NACK.
        let out = r.on_data(1, 0, false, 1000, false, Nanos(1));
        assert!(out.responses.is_empty());
        assert_eq!(r.stats.nacks_sent, 1);
    }

    #[test]
    fn ideal_nacks_loss_discovered_after_advance() {
        let mut r = recv_qp(TransportMode::IdealOracle);
        // Loss of psn 1 reported while epsn = 0.
        assert!(r.on_oracle_loss(1).is_none(), "not yet the expected PSN");
        // psn 0 arrives -> epsn becomes 1, which is a known loss -> NACK.
        let out = r.on_data(0, 0, false, 1000, false, Nanos(1));
        assert!(out
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Nack { epsn: 1, .. })));
    }

    #[test]
    fn cnp_paced_by_interval() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        let o0 = r.on_data(0, 0, false, 1000, true, Nanos::from_micros(0));
        assert!(o0
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Cnp)));
        let o1 = r.on_data(1, 0, false, 1000, true, Nanos::from_micros(10));
        assert!(!o1
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Cnp)));
        let o2 = r.on_data(2, 0, false, 1000, true, Nanos::from_micros(60));
        assert!(o2
            .responses
            .iter()
            .any(|p| matches!(p.kind, PacketKind::Cnp)));
        assert_eq!(r.stats.cnps_sent, 2);
    }

    #[test]
    fn ack_coalescing_batches_acks() {
        let mut r = RecvQp::new(
            QpId(1),
            HostId(1),
            HostId(0),
            4000,
            TransportMode::SelectiveRepeat,
            4,
            TimeDelta::from_micros(50),
            OooReaction::new(OooReactionKind::Eager),
        );
        let mut acks = 0;
        for psn in 0..8u32 {
            let out = r.on_data(psn, 0, false, 1000, false, Nanos(psn as u64));
            acks += out
                .responses
                .iter()
                .filter(|p| matches!(p.kind, PacketKind::Ack { .. }))
                .count();
        }
        assert_eq!(acks, 2, "8 in-order packets at coalescing 4 -> 2 ACKs");
    }

    #[test]
    fn message_delivery_requires_in_order_completion() {
        let mut r = recv_qp(TransportMode::SelectiveRepeat);
        // Two messages: psn 0..=1 (tag 10) and psn 2..=3 (tag 11).
        // The last packet of msg 10 arrives out of order; delivery of both
        // messages must wait for the hole at psn 0 to fill, then complete
        // in posting order.
        r.on_data(1, 10, true, 500, false, Nanos(0));
        r.on_data(2, 11, false, 1000, false, Nanos(1));
        r.on_data(3, 11, true, 500, false, Nanos(2));
        let out = r.on_data(0, 10, false, 1000, false, Nanos(3));
        assert_eq!(out.delivered, vec![10, 11]);
        assert_eq!(r.epsn(), 4);
        assert_eq!(r.stats.msgs_delivered, 2);
    }
}

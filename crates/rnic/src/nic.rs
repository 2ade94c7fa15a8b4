//! The host NIC entity.
//!
//! A [`Nic`] owns one egress port towards its ToR, a set of sender and
//! receiver QPs, and the timer machinery for DCQCN (alpha + rate-increase
//! timers), retransmission timeouts, and rate pacing.
//!
//! ## Arbitration and pacing
//!
//! Each sender QP is paced at its DCQCN rate ([`SendQp::next_allowed`]).
//! Whenever the port is idle the NIC transmits, preferring control packets
//! (ACK/NACK/CNP responses), then data from ready QPs in round-robin
//! order. If no QP is ready but work exists, a wake-up timer is armed at
//! the earliest pacing deadline. The port itself serializes at line rate,
//! so aggregate throughput is capped by the link while per-QP rates follow
//! DCQCN — the same split as real RNIC hardware.

use crate::config::{NicConfig, TransportMode};
use crate::dcqcn::{self, Dcqcn};
use crate::qp::{RecvQp, SendQp, SendTrace};
use crate::reaction::{OooReaction, SenderEntropy};
use netsim::event::{ControlMsg, Event};
use netsim::packet::{Packet, PacketKind};
use netsim::port::EgressPort;
use netsim::types::{HostId, NodeId, PortId, QpId};
use netsim::world::{Ctx, Entity};
use simcore::fx::FxHashMap;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use std::collections::VecDeque;
use telemetry::{EventKind, HistId, Sink};

/// Timer token kinds (low 3 bits of the token).
const TIMER_ALPHA: u64 = 0;
const TIMER_INCREASE: u64 = 1;
const TIMER_RTO: u64 = 2;
const TIMER_WAKEUP: u64 = 3;

/// Root of every NIC's random streams (the NIC-level stream and each
/// sender QP's entropy stream), salted per host and QP.
const NIC_SEED: u64 = 7;

#[inline]
fn token(kind: u64, qp_idx: usize) -> u64 {
    (qp_idx as u64) << 3 | kind
}

/// NIC-level statistics (beyond per-QP stats).
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Packets received for QPs this NIC does not know.
    pub unknown_qp: u64,
    /// NACKs the receiver QPs generated on the data path. NACKs issued
    /// for an oracle loss notification are not counted here (they are in
    /// [`crate::qp::RecvQpStats::nacks_sent`] with the rest).
    pub nacks_issued: u64,
    /// Retransmission timeouts that fired with data outstanding.
    pub rto_fired: u64,
    /// DCQCN rate cuts (on a NACK or a CNP).
    pub rate_cuts: u64,
}

/// The externally-visible state of one sender QP — the "queue pair
/// handle" a verbs-shaped frontend (sim-as-a-service) reports to
/// clients and serializes into checkpoints. Plain data, detached from
/// the live [`SendQp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpDescriptor {
    /// Connection id.
    pub qp: QpId,
    /// Local (sending) host.
    pub src: HostId,
    /// Remote (receiving) host.
    pub dst: HostId,
    /// Base UDP source port (flow entropy).
    pub sport: u16,
    /// Cumulative-ack frontier (extended PSN).
    pub snd_una: u64,
    /// Next never-sent extended PSN.
    pub snd_nxt: u64,
    /// Retransmissions currently queued.
    pub retx_pending: u64,
    /// Whether the QP still has unsent or unacked work outstanding.
    pub busy: bool,
}

impl QpDescriptor {
    /// Snapshot a live sender QP.
    pub fn of(s: &crate::qp::SendQp) -> QpDescriptor {
        QpDescriptor {
            qp: s.qp,
            src: s.me,
            dst: s.dst,
            sport: s.sport,
            snd_una: s.snd_una(),
            snd_nxt: s.snd_nxt(),
            retx_pending: s.retx_pending() as u64,
            busy: s.has_work() || s.has_unacked(),
        }
    }
}

/// A host NIC.
pub struct Nic {
    /// This NIC's host identity.
    pub host: HostId,
    cfg: NicConfig,
    port: EgressPort,
    send_qps: Vec<SendQp>,
    recv_qps: Vec<RecvQp>,
    send_index: FxHashMap<QpId, usize>,
    recv_index: FxHashMap<QpId, usize>,
    alpha_armed: Vec<bool>,
    increase_armed: Vec<bool>,
    driver: Option<NodeId>,
    rr_cursor: usize,
    ctrl_queue: VecDeque<Packet>,
    wakeup_at: Option<Nanos>,
    rng: Xoshiro256,
    /// Where events go, and the id of `rnic.ooo_gap` in that sink.
    telem: Option<(Sink, HistId)>,
    /// NIC-level statistics.
    pub stats: NicStats,
}

impl Nic {
    /// A NIC with the given uplink port (towards its ToR or peer).
    pub fn new(host: HostId, cfg: NicConfig, port: EgressPort) -> Nic {
        debug_assert_eq!(
            port.link.bandwidth_bps, cfg.line_rate_bps,
            "NIC line rate must match its access link"
        );
        Nic {
            host,
            cfg,
            port,
            send_qps: Vec::new(),
            recv_qps: Vec::new(),
            send_index: FxHashMap::default(),
            recv_index: FxHashMap::default(),
            alpha_armed: Vec::new(),
            increase_armed: Vec::new(),
            driver: None,
            rr_cursor: 0,
            ctrl_queue: VecDeque::new(),
            wakeup_at: None,
            rng: Xoshiro256::seeded(NIC_SEED ^ (host.0 as u64) << 32),
            telem: None,
            stats: NicStats::default(),
        }
    }

    /// Register the workload driver to receive completion notifications.
    pub fn set_driver(&mut self, driver: NodeId) {
        self.driver = Some(driver);
    }

    /// Time-bin width of the `rnic.ooo_gap` histogram.
    pub const OOO_GAP_BIN_NS: u64 = 1_000_000; // 1 ms
    /// Number of time bins of the `rnic.ooo_gap` histogram.
    pub const OOO_GAP_BINS: usize = 512;

    /// Install a telemetry sink: NACK, RTO and rate-cut events go to its
    /// ring, and each out-of-order arrival's PSN gap is observed into
    /// `ooo_gap` (registered on `sink` with [`Nic::OOO_GAP_BIN_NS`] and
    /// [`Nic::OOO_GAP_BINS`]). The matching counters live in
    /// [`Nic::stats`].
    pub fn set_telemetry(&mut self, sink: Sink, ooo_gap: HistId) {
        self.telem = Some((sink, ooo_gap));
    }

    /// Create the sender half of a connection towards `dst`.
    pub fn create_send_qp(&mut self, qp: QpId, dst: HostId, sport: u16) {
        let cc = Dcqcn::new(self.cfg.cc, self.cfg.line_rate_bps);
        // Each QP draws its own deterministic stream, derived from the
        // NIC seed so serial and sharded runs agree.
        let seed = NIC_SEED ^ 0x5EED_E4780 ^ ((self.host.0 as u64) << 32) ^ qp.0 as u64;
        let sqp = SendQp::new(
            qp,
            self.host,
            dst,
            sport,
            self.cfg.mtu_payload,
            self.cfg.transport,
            cc,
            SenderEntropy::new(self.cfg.reaction.entropy, seed),
        );
        self.send_index.insert(qp, self.send_qps.len());
        self.send_qps.push(sqp);
        self.alpha_armed.push(false);
        self.increase_armed.push(false);
    }

    /// Create the receiver half of a connection from `peer`.
    ///
    /// `reverse_sport` is the entropy value stamped on ACK/NACK/CNP
    /// packets flowing back to the sender.
    pub fn create_recv_qp(&mut self, qp: QpId, peer: HostId, reverse_sport: u16) {
        let rqp = RecvQp::new(
            qp,
            self.host,
            peer,
            reverse_sport,
            self.cfg.transport,
            self.cfg.ack_coalescing,
            OooReaction::new(self.cfg.reaction.ooo),
        );
        self.recv_index.insert(qp, self.recv_qps.len());
        self.recv_qps.push(rqp);
    }

    /// Enable per-flow tracing on a sender QP (Fig 1b/1c series).
    pub fn enable_send_trace(&mut self, qp: QpId, bin: TimeDelta) {
        if let Some(&i) = self.send_index.get(&qp) {
            self.send_qps[i].trace = Some(Box::new(SendTrace::new(bin)));
        }
    }

    /// Sender QP state (stats extraction).
    pub fn send_qp(&self, qp: QpId) -> Option<&SendQp> {
        self.send_index.get(&qp).map(|&i| &self.send_qps[i])
    }

    /// Export the verbs-visible handle of one sender QP, or `None` if
    /// this NIC holds no sender half for `qp`.
    pub fn describe_send_qp(&self, qp: QpId) -> Option<QpDescriptor> {
        self.send_qp(qp).map(QpDescriptor::of)
    }

    /// Receiver QP state (stats extraction).
    pub fn recv_qp(&self, qp: QpId) -> Option<&RecvQp> {
        self.recv_index.get(&qp).map(|&i| &self.recv_qps[i])
    }

    /// All sender QPs.
    pub fn send_qps(&self) -> &[SendQp] {
        &self.send_qps
    }

    /// All receiver QPs.
    pub fn recv_qps(&self) -> &[RecvQp] {
        &self.recv_qps
    }

    /// The NIC configuration.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// The uplink egress port (towards the ToR).
    pub fn uplink(&self) -> &EgressPort {
        &self.port
    }

    // ------------------------------------------------------------------
    // Sending machinery
    // ------------------------------------------------------------------

    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        while !self.port.is_busy() && !self.port.is_paused() {
            if let Some(p) = self.ctrl_queue.pop_front() {
                let _ = self.port.enqueue(p, PortId(0), ctx, None, &mut self.rng);
                continue;
            }
            let now = ctx.now();
            let n = self.send_qps.len();
            if n == 0 {
                break;
            }
            let mut found = None;
            for k in 0..n {
                let i = (self.rr_cursor + k) % n;
                if self.send_qps[i].ready(now) {
                    found = Some(i);
                    break;
                }
            }
            let Some(i) = found else {
                self.arm_wakeup(ctx);
                break;
            };
            let pkt = self.send_qps[i].next_packet(now);
            if self.send_qps[i].rto_deadline.is_none() {
                self.arm_rto(i, ctx);
            }
            self.rr_cursor = (i + 1) % n;
            let _ = self.port.enqueue(pkt, PortId(0), ctx, None, &mut self.rng);
        }
    }

    fn arm_wakeup(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let next = self
            .send_qps
            .iter()
            .filter(|q| q.has_work())
            .map(|q| q.next_allowed)
            .min();
        let Some(t) = next else {
            return;
        };
        let t = t.max(Nanos(now.as_nanos() + 1));
        let stale = self.wakeup_at.is_none_or(|w| w <= now || t < w);
        if stale {
            self.wakeup_at = Some(t);
            ctx.timer_in(t - now, token(TIMER_WAKEUP, 0));
        }
    }

    fn arm_rto(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        let deadline = ctx.now() + self.cfg.rto;
        self.send_qps[i].rto_deadline = Some(deadline);
        ctx.timer_in(self.cfg.rto, token(TIMER_RTO, i));
    }

    fn arm_cc_timers(&mut self, i: usize, ctx: &mut Ctx<'_>) {
        if !self.cfg.cc.enabled {
            return;
        }
        if !self.alpha_armed[i] {
            self.alpha_armed[i] = true;
            ctx.timer_in(dcqcn::ALPHA_TIMER, token(TIMER_ALPHA, i));
        }
        if !self.increase_armed[i] {
            self.increase_armed[i] = true;
            ctx.timer_in(self.cfg.cc.ti, token(TIMER_INCREASE, i));
        }
    }

    fn qp_active(&self, i: usize) -> bool {
        let q = &self.send_qps[i];
        q.has_work() || q.has_unacked()
    }

    // ------------------------------------------------------------------
    // Receive paths
    // ------------------------------------------------------------------

    /// `pkt` is a data packet; its fields arrive destructured by the caller.
    fn on_data_packet(
        &mut self,
        pkt: &Packet,
        psn: u32,
        msg_tag: u64,
        last: bool,
        payload: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(&i) = self.recv_index.get(&pkt.qp) else {
            self.stats.unknown_qp += 1;
            return;
        };
        // Remember the entropy this packet travelled on so the ACK it
        // may trigger can echo it (REPS feedback loop).
        self.recv_qps[i].note_data_sport(pkt.udp_sport);
        if let Some((sink, ooo_gap)) = &self.telem {
            // Out-of-order arrival depth: how far ahead of the expected
            // PSN this packet landed (0 for in-order arrivals).
            let epsn = self.recv_qps[i].epsn();
            let ext = crate::psn::extend24(psn, epsn);
            if ext > epsn {
                sink.observe(*ooo_gap, ext - epsn);
            }
        }
        let out = self.recv_qps[i].on_data(psn, msg_tag, last, payload, pkt.ecn_ce, ctx.now());
        for resp in out.responses {
            if let PacketKind::Nack { epsn, .. } = resp.kind {
                self.stats.nacks_issued += 1;
                if let Some((sink, _)) = &self.telem {
                    sink.event(EventKind::NackIssued, resp.qp.0 as u64, epsn as u64);
                }
            }
            self.ctrl_queue.push_back(resp);
        }
        if let Some(driver) = self.driver {
            for tag in out.delivered {
                ctx.control(
                    driver,
                    ControlMsg::MessageDelivered {
                        qp: pkt.qp,
                        msg_tag: tag,
                    },
                );
            }
        }
    }

    /// `echo` carries the ACK-echoed entropy value for ACKs and is
    /// `None` for NACKs.
    fn on_ack_packet(&mut self, qp: QpId, epsn: u32, echo: Option<u16>, ctx: &mut Ctx<'_>) {
        let Some(&i) = self.send_index.get(&qp) else {
            self.stats.unknown_qp += 1;
            return;
        };
        let now = ctx.now();
        let completed = match echo {
            None => {
                let (completed, cut) = self.send_qps[i].on_nack(epsn, now);
                if cut {
                    self.record_rate_cut(i);
                }
                completed
            }
            Some(echo_sport) => {
                self.send_qps[i].on_ack_echo(echo_sport);
                self.send_qps[i].on_ack(epsn)
            }
        };
        // Progress (or explicit loss signal) re-arms the RTO.
        if self.send_qps[i].has_unacked() {
            self.send_qps[i].rto_deadline = Some(now + self.cfg.rto);
        } else {
            self.send_qps[i].rto_deadline = None;
        }
        if let Some(driver) = self.driver {
            for tag in completed {
                ctx.control(driver, ControlMsg::MessageAcked { qp, msg_tag: tag });
            }
        }
        self.arm_cc_timers(i, ctx);
    }

    fn record_rate_cut(&mut self, i: usize) {
        self.stats.rate_cuts += 1;
        if let Some((sink, _)) = &self.telem {
            let q = &self.send_qps[i];
            sink.event(
                EventKind::RateChange,
                q.qp.0 as u64,
                (q.cc.rate_bps() / 1e6) as u64,
            );
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        let kind = tok & 0x7;
        let i = (tok >> 3) as usize;
        match kind {
            TIMER_WAKEUP => {
                self.wakeup_at = None;
                self.try_send(ctx);
            }
            TIMER_ALPHA => {
                if i >= self.send_qps.len() {
                    return;
                }
                self.send_qps[i].cc.on_alpha_timer();
                if self.qp_active(i) {
                    ctx.timer_in(dcqcn::ALPHA_TIMER, token(TIMER_ALPHA, i));
                } else {
                    self.alpha_armed[i] = false;
                }
            }
            TIMER_INCREASE => {
                if i >= self.send_qps.len() {
                    return;
                }
                self.send_qps[i].cc.on_increase_timer();
                if self.qp_active(i) {
                    ctx.timer_in(self.cfg.cc.ti, token(TIMER_INCREASE, i));
                } else {
                    self.increase_armed[i] = false;
                }
                self.try_send(ctx);
            }
            TIMER_RTO => {
                if i >= self.send_qps.len() {
                    return;
                }
                let now = ctx.now();
                match self.send_qps[i].rto_deadline {
                    None => {}
                    Some(d) if d <= now => {
                        if self.send_qps[i].has_unacked() {
                            self.send_qps[i].on_rto();
                            self.stats.rto_fired += 1;
                            if let Some((sink, _)) = &self.telem {
                                sink.event(EventKind::RtoFired, self.send_qps[i].qp.0 as u64, 0);
                            }
                            self.arm_rto(i, ctx);
                            self.try_send(ctx);
                        } else {
                            self.send_qps[i].rto_deadline = None;
                        }
                    }
                    Some(d) => {
                        // Deadline was pushed out by progress; chase it.
                        ctx.timer_in(d - now, token(TIMER_RTO, i));
                    }
                }
            }
            _ => debug_assert!(false, "unknown timer kind {kind}"),
        }
    }

    fn on_control(&mut self, msg: ControlMsg, ctx: &mut Ctx<'_>) {
        match msg {
            ControlMsg::PostSend { qp, bytes, msg_tag } => {
                let Some(&i) = self.send_index.get(&qp) else {
                    self.stats.unknown_qp += 1;
                    return;
                };
                if let Some(hs) = self.send_qps[i].take_handshake() {
                    self.ctrl_queue.push_back(hs);
                }
                self.send_qps[i].post(bytes, msg_tag);
                self.arm_cc_timers(i, ctx);
                self.try_send(ctx);
            }
            ControlMsg::OracleLoss { qp, psn } => {
                if self.cfg.transport != TransportMode::IdealOracle {
                    return;
                }
                if let Some(&i) = self.recv_index.get(&qp) {
                    if let Some(nack) = self.recv_qps[i].on_oracle_loss(psn) {
                        self.ctrl_queue.push_back(nack);
                        self.try_send(ctx);
                    }
                }
            }
            ControlMsg::MessageDelivered { .. } | ControlMsg::MessageAcked { .. } => {
                debug_assert!(false, "completion notification delivered to a NIC");
            }
            ControlMsg::TorLink { .. }
            | ControlMsg::SetPortDown { .. }
            | ControlMsg::SetPortLossRate { .. }
            | ControlMsg::SetPortExtraDelay { .. }
            | ControlMsg::SetReverseCorruptRate { .. }
            | ControlMsg::SetSprayEnabled { .. } => {
                // Switch-directed notifications; NICs take no action.
            }
        }
    }
}

impl Entity for Nic {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Packet { pkt, .. } => {
                match pkt.kind {
                    PacketKind::Data {
                        psn,
                        msg_tag,
                        last,
                        payload,
                        ..
                    } => self.on_data_packet(&pkt, psn, msg_tag, last, payload, ctx),
                    PacketKind::Ack { epsn, echo_sport } => {
                        self.on_ack_packet(pkt.qp, epsn, Some(echo_sport), ctx)
                    }
                    PacketKind::Nack { epsn, .. } => self.on_ack_packet(pkt.qp, epsn, None, ctx),
                    PacketKind::Cnp => {
                        if let Some(&i) = self.send_index.get(&pkt.qp) {
                            if self.send_qps[i].on_cnp(ctx.now()) {
                                self.record_rate_cut(i);
                            }
                        } else {
                            self.stats.unknown_qp += 1;
                        }
                    }
                    PacketKind::Handshake => {}
                }
                self.try_send(ctx);
            }
            Event::TxDone { port } => {
                debug_assert_eq!(port, PortId(0), "NIC has a single port");
                let _ = self.port.on_tx_done(PortId(0), ctx, None);
                self.try_send(ctx);
            }
            Event::Timer { token } => self.on_timer(token, ctx),
            Event::Control(msg) => self.on_control(msg, ctx),
            Event::Pfc { pause, .. } => {
                // Single-port NIC: the frame always addresses port 0.
                self.port.set_paused(pause, PortId(0), ctx);
                if !pause {
                    self.try_send(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::port::LinkSpec;
    use netsim::world::World;
    use simcore::engine::StopReason;

    /// The back-to-back link.
    const LINK: LinkSpec = LinkSpec::gbps(100, 1);

    /// NIC-SR at the link's line rate.
    fn sr() -> NicConfig {
        NicConfig::nic_sr(LINK.bandwidth_bps)
    }

    /// Two NICs wired back-to-back (no switch): host 0 at node 0, host 1
    /// at node 1, plus a driver-sink at node 2 recording completions.
    struct Harness {
        world: World,
        a: NodeId,
        b: NodeId,
        driver: NodeId,
    }

    struct DriverSink {
        delivered: Vec<(QpId, u64)>,
        acked: Vec<(QpId, u64)>,
        last_delivery: Nanos,
    }

    impl Entity for DriverSink {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            if let Event::Control(msg) = ev {
                match msg {
                    ControlMsg::MessageDelivered { qp, msg_tag } => {
                        self.delivered.push((qp, msg_tag));
                        self.last_delivery = ctx.now();
                    }
                    ControlMsg::MessageAcked { qp, msg_tag } => self.acked.push((qp, msg_tag)),
                    _ => {}
                }
            }
        }
    }

    fn build(cfg_a: NicConfig, cfg_b: NicConfig) -> Harness {
        let mut world = World::new();
        let a = world.reserve();
        let b = world.reserve();
        let mut nic_a = Nic::new(HostId(0), cfg_a, EgressPort::new(b, PortId(0), LINK));
        let mut nic_b = Nic::new(HostId(1), cfg_b, EgressPort::new(a, PortId(0), LINK));
        let driver = world.reserve();
        nic_a.set_driver(driver);
        nic_b.set_driver(driver);
        nic_a.create_send_qp(QpId(5), HostId(1), 4242);
        nic_b.create_recv_qp(QpId(5), HostId(0), 4242);
        world.install(a, Box::new(nic_a));
        world.install(b, Box::new(nic_b));
        world.install(
            driver,
            Box::new(DriverSink {
                delivered: vec![],
                acked: vec![],
                last_delivery: Nanos::ZERO,
            }),
        );
        Harness {
            world,
            a,
            b,
            driver,
        }
    }

    fn post(h: &mut Harness, bytes: u64, tag: u64) {
        h.world.seed_event(
            Nanos::ZERO,
            h.a,
            Event::Control(ControlMsg::PostSend {
                qp: QpId(5),
                bytes,
                msg_tag: tag,
            }),
        );
    }

    #[test]
    fn single_message_delivers_and_completes() {
        let mut h = build(sr(), sr());
        post(&mut h, 1_000_000, 77);
        let reason = h.world.run_until(Nanos::from_millis(100));
        assert_eq!(reason, StopReason::QueueEmpty, "simulation must drain");
        let d: &DriverSink = h.world.get(h.driver).unwrap();
        assert_eq!(d.delivered, vec![(QpId(5), 77)]);
        assert_eq!(d.acked, vec![(QpId(5), 77)]);
        let nic_b: &Nic = h.world.get(h.b).unwrap();
        let r = nic_b.recv_qp(QpId(5)).unwrap();
        assert_eq!(r.stats.bytes_delivered, 1_000_000);
        assert_eq!(r.stats.nacks_sent, 0, "in-order path must not NACK");
        let nic_a: &Nic = h.world.get(h.a).unwrap();
        let s = nic_a.send_qp(QpId(5)).unwrap();
        assert_eq!(s.stats.retx_packets, 0);
        assert_eq!(s.stats.data_packets, 1_000_000_u64.div_ceil(1500));
    }

    #[test]
    fn throughput_close_to_line_rate() {
        let mut h = build(sr(), sr());
        // 10 MB at ~100 Gbps ≈ 800 µs + small overheads.
        post(&mut h, 10_000_000, 1);
        h.world.run_until(Nanos::from_millis(50));
        let d: &DriverSink = h.world.get(h.driver).unwrap();
        let t = d.last_delivery.as_secs_f64();
        let gbps = 10_000_000.0 * 8.0 / t / 1e9;
        assert!(gbps > 85.0, "goodput {gbps:.1} Gbps too low");
        assert!(gbps <= 100.0, "goodput {gbps:.1} Gbps impossible");
    }

    #[test]
    fn multiple_messages_complete_in_order() {
        let mut h = build(sr(), sr());
        for tag in 0..5 {
            post(&mut h, 100_000, tag);
        }
        h.world.run_until(Nanos::from_millis(100));
        let d: &DriverSink = h.world.get(h.driver).unwrap();
        let tags: Vec<u64> = d.delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handshake_precedes_data() {
        let mut h = build(sr(), sr());
        post(&mut h, 1500, 1);
        h.world.run_until(Nanos::from_millis(10));
        // A's wire carried exactly one handshake and the one data packet.
        let nic_a: &Nic = h.world.get(h.a).unwrap();
        assert_eq!(
            nic_a.port.stats.tx_bytes,
            u64::from(
                netsim::packet::CONTROL_PACKET_BYTES + 1500 + netsim::packet::WIRE_HEADER_BYTES
            )
        );
        let d: &DriverSink = h.world.get(h.driver).unwrap();
        assert_eq!(d.delivered, vec![(QpId(5), 1)]);
    }

    #[test]
    fn two_qps_share_line_rate_fairly() {
        let mut world = World::new();
        let a = world.reserve();
        let b = world.reserve();
        let mut nic_a = Nic::new(HostId(0), sr(), EgressPort::new(b, PortId(0), LINK));
        let mut nic_b = Nic::new(HostId(1), sr(), EgressPort::new(a, PortId(0), LINK));
        nic_a.create_send_qp(QpId(1), HostId(1), 100);
        nic_a.create_send_qp(QpId(2), HostId(1), 200);
        nic_b.create_recv_qp(QpId(1), HostId(0), 100);
        nic_b.create_recv_qp(QpId(2), HostId(0), 200);
        world.install(a, Box::new(nic_a));
        world.install(b, Box::new(nic_b));
        for qp in [QpId(1), QpId(2)] {
            world.seed_event(
                Nanos::ZERO,
                a,
                Event::Control(ControlMsg::PostSend {
                    qp,
                    bytes: 3_000_000,
                    msg_tag: 0,
                }),
            );
        }
        world.run_until(Nanos::from_millis(10));
        let nic_b: &Nic = world.get(b).unwrap();
        let d1 = nic_b.recv_qp(QpId(1)).unwrap().stats.bytes_delivered;
        let d2 = nic_b.recv_qp(QpId(2)).unwrap().stats.bytes_delivered;
        assert_eq!(d1, 3_000_000);
        assert_eq!(d2, 3_000_000);
    }

    #[test]
    fn unknown_qp_counted_not_crashed() {
        let mut h = build(sr(), sr());
        let stray = Packet::data(QpId(99), HostId(0), HostId(1), 1, 0, 0, false, 100, false);
        h.world.seed_event(
            Nanos::ZERO,
            h.b,
            Event::Packet {
                pkt: stray,
                in_port: PortId(0),
            },
        );
        h.world.run_until(Nanos::from_millis(1));
        let nic_b: &Nic = h.world.get(h.b).unwrap();
        assert_eq!(nic_b.stats.unknown_qp, 1);
    }
}

//! Egress ports: store-and-forward serialization, FIFO queues, shared
//! buffer accounting, WRED/ECN marking and loss injection.
//!
//! Each entity (switch or NIC) owns its egress ports. A port serializes one
//! packet at a time at link bandwidth; when serialization completes
//! ([`EgressPort::on_tx_done`]) the packet propagates to the peer entity
//! after the link latency, and the next queued packet starts serializing.
//!
//! ECN marking follows the WRED scheme DCQCN assumes: a *data* packet
//! enqueued while the port queue holds more than `kmin` bytes is marked
//! Congestion-Experienced with probability rising linearly to `pmax` at
//! `kmax`, and always beyond `kmax`. Control packets (ACK/NACK/CNP) are
//! never marked — RoCE switches only mark data traffic.

use crate::packet::Packet;
use crate::types::{NodeId, PortId};
use crate::world::Ctx;
use simcore::rng::Xoshiro256;
use simcore::time::TimeDelta;
use std::collections::VecDeque;

/// Physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: TimeDelta,
}

impl LinkSpec {
    /// A link with the given Gbit/s bandwidth and latency in microseconds.
    pub fn gbps(gbps: u64, latency_us: u64) -> LinkSpec {
        LinkSpec {
            bandwidth_bps: gbps * 1_000_000_000,
            latency: TimeDelta::from_micros(latency_us),
        }
    }

    /// Serialization delay of `bytes` on this link.
    #[inline]
    pub fn serialization(&self, bytes: u64) -> TimeDelta {
        TimeDelta::serialization(bytes, self.bandwidth_bps)
    }
}

/// WRED/ECN marking thresholds (bytes of queued data at enqueue time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnConfig {
    /// No marking below this queue depth.
    pub kmin_bytes: u64,
    /// Always mark at or above this queue depth.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax` (linear ramp from `kmin`).
    pub pmax: f64,
}

impl EcnConfig {
    /// DCQCN-style defaults scaled to link speed: Kmin = 100 KB and
    /// Kmax = 400 KB at 100 Gbps, scaled linearly with bandwidth
    /// (the common NS-3 RDMA configuration).
    pub fn for_bandwidth(bandwidth_bps: u64) -> EcnConfig {
        let scale = bandwidth_bps as f64 / 100e9;
        EcnConfig {
            kmin_bytes: (100_000.0 * scale) as u64,
            kmax_bytes: (400_000.0 * scale) as u64,
            pmax: 0.2,
        }
    }

    /// Marking decision for a queue currently `queued_bytes` deep.
    pub fn should_mark(&self, queued_bytes: u64, rng: &mut Xoshiro256) -> bool {
        if queued_bytes < self.kmin_bytes {
            false
        } else if queued_bytes >= self.kmax_bytes {
            true
        } else {
            let span = (self.kmax_bytes - self.kmin_bytes) as f64;
            let p = self.pmax * (queued_bytes - self.kmin_bytes) as f64 / span;
            rng.next_bool(p)
        }
    }
}

/// Shared buffer pool of a switch. All egress queues of the switch draw
/// from this pool; when it is exhausted, arriving packets are dropped.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    capacity: u64,
    used: u64,
    /// Packets dropped because the pool was full.
    pub drops: u64,
    /// High-water mark of pool usage.
    pub peak_used: u64,
}

impl SharedBuffer {
    /// A pool holding `capacity` bytes.
    pub fn new(capacity: u64) -> SharedBuffer {
        SharedBuffer {
            capacity,
            used: 0,
            drops: 0,
            peak_used: 0,
        }
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Try to reserve `bytes`; returns false (and counts a drop) when full.
    pub fn try_reserve(&mut self, bytes: u64) -> bool {
        if self.used + bytes > self.capacity {
            self.drops += 1;
            false
        } else {
            self.used += bytes;
            self.peak_used = self.peak_used.max(self.used);
            true
        }
    }

    /// Release a previous reservation.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(self.used >= bytes, "buffer release underflow");
        self.used = self.used.saturating_sub(bytes);
    }
}

/// Outcome of [`EgressPort::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Port was idle; transmission started immediately.
    TxStarted,
    /// Packet joined the queue.
    Queued,
    /// Dropped: shared buffer exhausted.
    DroppedBuffer,
    /// Dropped: random loss injection.
    DroppedInjected,
}

impl EnqueueOutcome {
    /// True if the packet was accepted (queued or transmitting).
    pub fn accepted(self) -> bool {
        matches!(self, EnqueueOutcome::TxStarted | EnqueueOutcome::Queued)
    }
}

/// Per-port statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped for lack of buffer space.
    pub drops_buffer: u64,
    /// Packets dropped by loss injection.
    pub drops_injected: u64,
    /// Data packets ECN-marked at this port.
    pub ecn_marked: u64,
    /// Maximum queue depth seen, in bytes.
    pub peak_queue_bytes: u64,
}

/// One egress port: link to a peer entity plus a FIFO queue.
#[derive(Debug)]
pub struct EgressPort {
    /// Entity on the other end of the link.
    pub peer: NodeId,
    /// The ingress-port id the peer sees our packets arrive on.
    pub peer_in_port: PortId,
    /// Link physics.
    pub link: LinkSpec,
    /// ECN marking configuration; `None` disables marking.
    pub ecn: Option<EcnConfig>,
    /// Probability of dropping each enqueued packet (loss injection).
    pub loss_rate: f64,
    /// Administratively down (fault injection): every packet offered to
    /// the port — data and control alike — is dropped, as on a dead
    /// cable. Packets already queued drain normally.
    pub down: bool,
    /// Extra one-way propagation delay added on top of the link latency
    /// (fault injection: delay-jitter spikes).
    pub extra_delay: TimeDelta,
    /// Strict priority for control packets (ACK/NACK/CNP/handshake):
    /// they queue separately and always transmit before data, as RoCE
    /// deployments configure for CNPs. Off by default.
    pub ctrl_priority: bool,
    /// Statistics.
    pub stats: PortStats,
    queue: VecDeque<Packet>,
    ctrl_queue: VecDeque<Packet>,
    queued_bytes: u64,
    in_flight: Option<Packet>,
    paused: bool,
}

impl EgressPort {
    /// A port towards `peer` (arriving there on `peer_in_port`) over `link`.
    pub fn new(peer: NodeId, peer_in_port: PortId, link: LinkSpec) -> EgressPort {
        EgressPort {
            peer,
            peer_in_port,
            link,
            ecn: None,
            loss_rate: 0.0,
            down: false,
            extra_delay: TimeDelta::ZERO,
            ctrl_priority: false,
            stats: PortStats::default(),
            queue: VecDeque::new(),
            ctrl_queue: VecDeque::new(),
            queued_bytes: 0,
            in_flight: None,
            paused: false,
        }
    }

    /// Pop the next packet to transmit, respecting control priority.
    fn pop_next(&mut self) -> Option<Packet> {
        let p = match self.ctrl_queue.pop_front() {
            Some(p) => p,
            None => self.queue.pop_front()?,
        };
        self.queued_bytes -= p.wire_bytes as u64;
        Some(p)
    }

    /// Bytes waiting in the queues (excludes the packet on the wire).
    #[inline]
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets waiting in the queues.
    #[inline]
    pub fn queued_packets(&self) -> usize {
        self.queue.len() + self.ctrl_queue.len()
    }

    /// Whether the port is currently serializing a packet.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Whether the port is PFC-paused.
    #[inline]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Pause or resume this port (link-level flow control). The packet
    /// currently on the wire finishes; resuming restarts transmission
    /// from the queue.
    pub fn set_paused(&mut self, paused: bool, self_port: PortId, ctx: &mut Ctx<'_>) {
        self.paused = paused;
        if !paused && self.in_flight.is_none() {
            if let Some(next) = self.pop_next() {
                self.start_tx(next, self_port, ctx);
            }
        }
    }

    /// Offer a packet to this port.
    ///
    /// `self_port` is this port's id within the owning entity (used to
    /// address the TxDone event back to it). `shared` is the owning
    /// switch's buffer pool (None for NIC ports). Marks data packets per
    /// WRED, applies loss injection, and starts transmission when idle.
    pub fn enqueue(
        &mut self,
        mut pkt: Packet,
        self_port: PortId,
        ctx: &mut Ctx<'_>,
        shared: Option<&mut SharedBuffer>,
        rng: &mut Xoshiro256,
    ) -> EnqueueOutcome {
        if self.down {
            self.stats.drops_injected += 1;
            return EnqueueOutcome::DroppedInjected;
        }
        if self.loss_rate > 0.0 && pkt.is_data() && rng.next_bool(self.loss_rate) {
            self.stats.drops_injected += 1;
            return EnqueueOutcome::DroppedInjected;
        }
        if let Some(pool) = shared {
            if !pool.try_reserve(pkt.wire_bytes as u64) {
                self.stats.drops_buffer += 1;
                return EnqueueOutcome::DroppedBuffer;
            }
        }
        // WRED marking on data packets, based on the queue depth the packet
        // joins behind.
        if pkt.is_data() {
            if let Some(ecn) = &self.ecn {
                if ecn.should_mark(self.queued_bytes, rng) {
                    pkt.ecn_ce = true;
                    self.stats.ecn_marked += 1;
                }
            }
        }
        if self.in_flight.is_none() && !self.paused {
            self.start_tx(pkt, self_port, ctx);
            EnqueueOutcome::TxStarted
        } else {
            self.queued_bytes += pkt.wire_bytes as u64;
            self.stats.peak_queue_bytes = self.stats.peak_queue_bytes.max(self.queued_bytes);
            if self.ctrl_priority && !pkt.is_data() {
                self.ctrl_queue.push_back(pkt);
            } else {
                self.queue.push_back(pkt);
            }
            EnqueueOutcome::Queued
        }
    }

    fn start_tx(&mut self, pkt: Packet, self_port: PortId, ctx: &mut Ctx<'_>) {
        let ser = self.link.serialization(pkt.wire_bytes as u64);
        ctx.tx_done_in(ser, self_port);
        self.in_flight = Some(pkt);
    }

    /// Handle serialization completion: propagate the packet to the peer,
    /// release its buffer reservation, and start the next transmission.
    ///
    /// Returns the packet that departed (for tracing).
    pub fn on_tx_done(
        &mut self,
        self_port: PortId,
        ctx: &mut Ctx<'_>,
        shared: Option<&mut SharedBuffer>,
    ) -> Packet {
        let pkt = self
            .in_flight
            .take()
            .expect("TxDone on idle port: event/port state mismatch");
        if let Some(pool) = shared {
            pool.release(pkt.wire_bytes as u64);
        }
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += pkt.wire_bytes as u64;
        ctx.send_packet(
            self.peer,
            self.peer_in_port,
            pkt,
            self.link.latency + self.extra_delay,
        );
        if !self.paused {
            if let Some(next) = self.pop_next() {
                self.start_tx(next, self_port, ctx);
            }
        }
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_spec_math() {
        let l = LinkSpec::gbps(100, 1);
        assert_eq!(l.bandwidth_bps, 100_000_000_000);
        assert_eq!(l.latency.as_nanos(), 1_000);
        assert_eq!(l.serialization(1500).as_nanos(), 120);
    }

    #[test]
    fn ecn_config_scales_with_bandwidth() {
        let c100 = EcnConfig::for_bandwidth(100_000_000_000);
        let c400 = EcnConfig::for_bandwidth(400_000_000_000);
        assert_eq!(c100.kmin_bytes, 100_000);
        assert_eq!(c100.kmax_bytes, 400_000);
        assert_eq!(c400.kmin_bytes, 400_000);
        assert_eq!(c400.kmax_bytes, 1_600_000);
    }

    #[test]
    fn ecn_marking_regions() {
        let cfg = EcnConfig {
            kmin_bytes: 100,
            kmax_bytes: 200,
            pmax: 1.0,
        };
        let mut rng = Xoshiro256::seeded(1);
        assert!(!cfg.should_mark(0, &mut rng));
        assert!(!cfg.should_mark(99, &mut rng));
        assert!(cfg.should_mark(200, &mut rng));
        assert!(cfg.should_mark(10_000, &mut rng));
        // Mid-region probability ~ (150-100)/100 * pmax = 0.5.
        let hits = (0..10_000)
            .filter(|_| cfg.should_mark(150, &mut rng))
            .count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn paused_port_holds_queue_and_resumes() {
        use crate::event::Routed;
        use crate::packet::Packet;
        use crate::types::{HostId, QpId};
        use simcore::engine::Engine;
        use simcore::time::Nanos;

        // Drive a port directly with a hand-rolled Ctx via a tiny engine.
        let mut engine: Engine<Routed> = Engine::new();
        let mut port = EgressPort::new(NodeId(1), PortId(0), LinkSpec::gbps(100, 1));
        let mut rng = Xoshiro256::seeded(3);
        let pkt = |psn| Packet::data(QpId(0), HostId(0), HostId(1), 7, psn, 0, false, 1000, false);

        let mut ctx = crate::world::Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine);
        // Pause first, then enqueue: nothing starts.
        port.set_paused(true, PortId(0), &mut ctx);
        assert_eq!(
            port.enqueue(pkt(0), PortId(0), &mut ctx, None, &mut rng),
            EnqueueOutcome::Queued
        );
        assert!(!port.is_busy());
        assert!(port.is_paused());
        assert_eq!(port.queued_packets(), 1);
        // Resume: transmission starts from the queue.
        port.set_paused(false, PortId(0), &mut ctx);
        assert!(port.is_busy());
        assert_eq!(port.queued_packets(), 0);
    }

    #[test]
    fn pause_mid_transmission_finishes_current_packet() {
        use crate::event::Routed;
        use crate::packet::Packet;
        use crate::types::{HostId, QpId};
        use simcore::engine::Engine;
        use simcore::time::Nanos;

        let mut engine: Engine<Routed> = Engine::new();
        let mut port = EgressPort::new(NodeId(1), PortId(0), LinkSpec::gbps(100, 1));
        let mut rng = Xoshiro256::seeded(3);
        let pkt = |psn| Packet::data(QpId(0), HostId(0), HostId(1), 7, psn, 0, false, 1000, false);
        let mut ctx = crate::world::Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine);
        // Start a transmission, queue another, then pause.
        port.enqueue(pkt(0), PortId(0), &mut ctx, None, &mut rng);
        port.enqueue(pkt(1), PortId(0), &mut ctx, None, &mut rng);
        port.set_paused(true, PortId(0), &mut ctx);
        assert!(port.is_busy(), "wire packet keeps going");
        // Completion: packet departs but the next one must NOT start.
        let departed = port.on_tx_done(PortId(0), &mut ctx, None);
        assert_eq!(departed.data_psn(), Some(0));
        assert!(!port.is_busy());
        assert_eq!(port.queued_packets(), 1, "psn 1 held back");
        // Resume releases it.
        port.set_paused(false, PortId(0), &mut ctx);
        assert!(port.is_busy());
    }

    #[test]
    fn ctrl_priority_overtakes_queued_data() {
        use crate::event::Routed;
        use crate::packet::Packet;
        use crate::types::{HostId, QpId};
        use simcore::engine::Engine;
        use simcore::time::Nanos;

        let mut engine: Engine<Routed> = Engine::new();
        let mut port = EgressPort::new(NodeId(1), PortId(0), LinkSpec::gbps(100, 1));
        port.ctrl_priority = true;
        let mut rng = Xoshiro256::seeded(3);
        let data = |psn| Packet::data(QpId(0), HostId(0), HostId(1), 7, psn, 0, false, 1000, false);
        let cnp = Packet::cnp(QpId(0), HostId(1), HostId(0), 7);
        let mut ctx = crate::world::Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine);
        // First data starts immediately; second data and a CNP queue up.
        port.enqueue(data(0), PortId(0), &mut ctx, None, &mut rng);
        port.enqueue(data(1), PortId(0), &mut ctx, None, &mut rng);
        port.enqueue(cnp, PortId(0), &mut ctx, None, &mut rng);
        assert_eq!(port.queued_packets(), 2);
        // TxDone: the CNP must jump ahead of data packet 1.
        let departed = port.on_tx_done(PortId(0), &mut ctx, None);
        assert_eq!(departed.data_psn(), Some(0));
        let next_done = port.on_tx_done(PortId(0), &mut ctx, None);
        assert!(matches!(next_done.kind, crate::packet::PacketKind::Cnp));
        let last = port.on_tx_done(PortId(0), &mut ctx, None);
        assert_eq!(last.data_psn(), Some(1));
    }

    #[test]
    fn without_ctrl_priority_fifo_holds() {
        use crate::event::Routed;
        use crate::packet::Packet;
        use crate::types::{HostId, QpId};
        use simcore::engine::Engine;
        use simcore::time::Nanos;

        let mut engine: Engine<Routed> = Engine::new();
        let mut port = EgressPort::new(NodeId(1), PortId(0), LinkSpec::gbps(100, 1));
        let mut rng = Xoshiro256::seeded(3);
        let data = |psn| Packet::data(QpId(0), HostId(0), HostId(1), 7, psn, 0, false, 1000, false);
        let cnp = Packet::cnp(QpId(0), HostId(1), HostId(0), 7);
        let mut ctx = crate::world::Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine);
        port.enqueue(data(0), PortId(0), &mut ctx, None, &mut rng);
        port.enqueue(data(1), PortId(0), &mut ctx, None, &mut rng);
        port.enqueue(cnp, PortId(0), &mut ctx, None, &mut rng);
        port.on_tx_done(PortId(0), &mut ctx, None);
        let second = port.on_tx_done(PortId(0), &mut ctx, None);
        assert_eq!(second.data_psn(), Some(1), "FIFO without priority");
    }

    #[test]
    fn shared_buffer_reserve_release() {
        let mut b = SharedBuffer::new(1000);
        assert!(b.try_reserve(600));
        assert!(!b.try_reserve(500));
        assert_eq!(b.drops, 1);
        assert!(b.try_reserve(400));
        assert_eq!(b.used(), 1000);
        assert_eq!(b.peak_used, 1000);
        b.release(1000);
        assert_eq!(b.used(), 0);
        assert!(b.try_reserve(1));
    }
}

//! Simulation events.
//!
//! Every event is addressed to one entity ([`Routed`]) and carries an
//! [`Event`]: a packet arrival, an egress-port transmit completion, a
//! timer, or an out-of-band [`ControlMsg`] (workload commands, completion
//! notifications, and the loss oracle used by the Ideal baseline).

use crate::packet::Packet;
use crate::types::{NodeId, PortId, QpId};

/// An event addressed to an entity.
#[derive(Debug, Clone)]
pub struct Routed {
    /// Target entity.
    pub node: NodeId,
    /// The event payload.
    pub ev: Event,
}

/// What happened.
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet finished arriving on `in_port`.
    Packet {
        /// The packet.
        pkt: Packet,
        /// Ingress port at the receiving entity.
        in_port: PortId,
    },
    /// The egress port `port` finished serializing its current packet.
    TxDone {
        /// Which port completed.
        port: PortId,
    },
    /// A timer armed by the entity itself fired.
    Timer {
        /// Opaque token chosen by the entity when arming the timer.
        token: u64,
    },
    /// Out-of-band control message (no wire representation).
    Control(ControlMsg),
    /// Link-level priority-flow-control frame from the peer on `in_port`:
    /// pause (or resume) the egress port facing that peer. Modeled as an
    /// instantaneous link event — real PFC frames are 64 B and preempt
    /// data, so their serialization delay is negligible at these rates.
    Pfc {
        /// Our port facing the sender of the PFC frame.
        in_port: PortId,
        /// True = pause, false = resume.
        pause: bool,
    },
}

/// Control-plane messages between entities.
///
/// These have no network footprint: workload drivers commanding NICs,
/// NICs reporting completions, and the simulator's loss oracle (used only
/// by the `IdealOracle` transport baseline of Fig 1d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Post a message for transmission on a QP (driver → sender NIC).
    PostSend {
        /// Connection to send on.
        qp: QpId,
        /// Message length in bytes.
        bytes: u64,
        /// Caller-chosen tag reported back in completions.
        msg_tag: u64,
    },
    /// A message was fully received in order (receiver NIC → driver).
    MessageDelivered {
        /// Connection it arrived on.
        qp: QpId,
        /// Tag from the matching [`ControlMsg::PostSend`].
        msg_tag: u64,
    },
    /// A message was fully acknowledged (sender NIC → driver).
    MessageAcked {
        /// Connection it was sent on.
        qp: QpId,
        /// Tag from the matching [`ControlMsg::PostSend`].
        msg_tag: u64,
    },
    /// Oracle notification: a data packet of `qp` with PSN `psn` was
    /// dropped somewhere in the fabric. Only delivered when the world's
    /// loss oracle is enabled; implements the "Ideal" transport of Fig 1d,
    /// whose receiver NACKs real losses and nothing else.
    OracleLoss {
        /// Affected connection.
        qp: QpId,
        /// PSN of the dropped packet.
        psn: u32,
    },
    /// Failure-monitor notification to a ToR (Pingmesh-style, §6): a
    /// fabric link failed, or the failed link recovered. On failure the
    /// switch reverts its uplink policy to ECMP and tells its hook to
    /// stop spraying; on recovery it restores the policy it was built
    /// with and resumes the hook.
    TorLink {
        /// True = failed, false = recovered.
        failed: bool,
    },
    /// Fault injection (switch): administratively take egress port `port`
    /// down (or bring it back up). A down port blackholes everything
    /// offered to it — data and control alike — as a dead cable would;
    /// packets already queued behind the port drain normally.
    SetPortDown {
        /// Egress-port index at the addressed switch.
        port: u16,
        /// True = down (blackhole), false = restore.
        down: bool,
    },
    /// Fault injection (switch): random data-packet loss on egress `port`
    /// at the given rate in parts per million (integer so the message
    /// stays `Copy + Eq`); 0 clears the fault.
    SetPortLossRate {
        /// Egress-port index at the addressed switch.
        port: u16,
        /// Loss probability in packets-per-million.
        rate_ppm: u32,
    },
    /// Fault injection (switch): add `extra_ns` of one-way propagation
    /// delay on egress `port` (a delay-jitter spike); 0 clears it.
    SetPortExtraDelay {
        /// Egress-port index at the addressed switch.
        port: u16,
        /// Additional propagation delay in nanoseconds.
        extra_ns: u64,
    },
    /// Fault injection (switch): drop reverse-direction packets
    /// (ACK/NACK/CNP) traversing the addressed switch with the given
    /// probability in parts per million — models corruption loss on the
    /// reverse path; 0 clears the fault.
    SetReverseCorruptRate {
        /// Drop probability in packets-per-million.
        rate_ppm: u32,
    },
    /// Administrative mid-run toggle of the ToR hook's spraying (Themis
    /// enable/disable), independent of the link-failure fallback path.
    SetSprayEnabled {
        /// True = spraying active.
        on: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::HostId;

    #[test]
    fn events_are_constructible_and_cloneable() {
        let pkt = Packet::cnp(QpId(0), HostId(0), HostId(1), 99);
        let e = Event::Packet {
            pkt,
            in_port: PortId(2),
        };
        let r = Routed {
            node: NodeId(3),
            ev: e.clone(),
        };
        match r.ev {
            Event::Packet { in_port, .. } => assert_eq!(in_port, PortId(2)),
            _ => panic!(),
        }
        let c = ControlMsg::PostSend {
            qp: QpId(1),
            bytes: 100,
            msg_tag: 7,
        };
        assert_eq!(c, c);
    }
}

//! Uplink load-balancing policies.
//!
//! These are the baselines the paper compares against (§5) plus the
//! flowlet approach its related-work section dismisses (§2.3):
//!
//! * [`LbPolicy::Ecmp`] — flow-level hashing of the 5-tuple; the de-facto
//!   RDMA-network default whose collisions motivate the work (§2.1).
//! * [`LbPolicy::RandomSpray`] — random packet spraying \[13\]; used in the
//!   Fig 1 motivation experiment.
//! * [`LbPolicy::AdaptiveRouting`] — per-packet least-loaded uplink
//!   selection, the "AR" baseline of Fig 5.
//! * [`LbPolicy::Flowlet`] — flowlet switching (CONGA/LetFlow style):
//!   re-pick the least-loaded uplink only when a flow pauses longer than
//!   the gap threshold. The paper argues RNIC hardware pacing never
//!   creates such gaps, so flowlet LB degenerates to per-flow placement —
//!   an ablation in this repo demonstrates exactly that.
//!
//! Themis's PSN-based spraying is *not* an `LbPolicy`: it is applied by
//! the Themis-S ToR hook, which overrides the policy's choice per packet.

use crate::hash::{ecmp_hash, FiveTuple};
use crate::packet::Packet;
use crate::port::EgressPort;
use crate::types::QpId;
use simcore::fx::FxHashMap;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};

/// How a switch picks among its equal-cost uplinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Hash the 5-tuple once per flow (per packet, but the hash is
    /// flow-stable), as ECMP does.
    Ecmp,
    /// Pick a uniformly random uplink per packet.
    RandomSpray,
    /// Pick the uplink with the least queued bytes per packet, breaking
    /// ties uniformly at random.
    AdaptiveRouting,
    /// Flowlet switching: keep a flow's uplink while packets arrive
    /// within `gap` of each other; re-pick (least loaded) on a gap.
    Flowlet {
        /// Minimum inter-packet gap that starts a new flowlet.
        gap: TimeDelta,
    },
}

/// Per-flow flowlet bookkeeping.
#[derive(Debug, Clone, Copy)]
struct FlowletEntry {
    last_seen: Nanos,
    uplink: usize,
}

/// Mutable per-switch load-balancing state.
#[derive(Debug)]
pub struct LbState {
    flowlets: FxHashMap<QpId, FlowletEntry>,
    rng: Xoshiro256,
    /// How many bits to shift the ECMP hash before taking the modulus.
    /// Different tiers of a multi-tier fabric use different views of the
    /// hash so their choices decorrelate (see `topology::fat_tree`).
    pub ecmp_shift: u32,
    /// Flowlet statistics: new flowlets started (uplink re-picks).
    pub flowlet_switches: u64,
}

impl LbState {
    /// Fresh state with its own RNG substream.
    pub fn new(seed: u64, ecmp_shift: u32) -> LbState {
        LbState {
            flowlets: FxHashMap::default(),
            rng: Xoshiro256::substream(seed, 0x1b),
            ecmp_shift,
            flowlet_switches: 0,
        }
    }

    /// Number of flows with live flowlet state.
    pub fn tracked_flowlets(&self) -> usize {
        self.flowlets.len()
    }
}

/// Least-loaded member of `uplinks` (ties broken uniformly at random).
fn least_loaded(uplinks: &[usize], ports: &[EgressPort], rng: &mut Xoshiro256) -> usize {
    let mut best = u64::MAX;
    let mut best_count = 0usize;
    for &p in uplinks {
        let q = ports[p].queued_bytes();
        if q < best {
            best = q;
            best_count = 1;
        } else if q == best {
            best_count += 1;
        }
    }
    let mut pick = rng.next_index(best_count);
    for (i, &p) in uplinks.iter().enumerate() {
        if ports[p].queued_bytes() == best {
            if pick == 0 {
                return i;
            }
            pick -= 1;
        }
    }
    unreachable!("tie-break walked past all minima")
}

impl LbPolicy {
    /// Select an index into `uplinks` for `pkt` at time `now`.
    ///
    /// `ports` is the switch's full port array (for queue-depth inspection
    /// by adaptive routing and flowlet re-picks); `st` carries the
    /// policy's mutable per-switch state.
    pub fn select(
        &self,
        pkt: &Packet,
        uplinks: &[usize],
        ports: &[EgressPort],
        now: Nanos,
        st: &mut LbState,
    ) -> usize {
        debug_assert!(!uplinks.is_empty(), "LB called with no uplinks");
        let n = uplinks.len();
        match self {
            LbPolicy::Ecmp => {
                let h = ecmp_hash(&FiveTuple::of_packet(pkt)) as usize;
                (h >> st.ecmp_shift) % n
            }
            LbPolicy::RandomSpray => st.rng.next_index(n),
            LbPolicy::AdaptiveRouting => least_loaded(uplinks, ports, &mut st.rng),
            LbPolicy::Flowlet { gap } => {
                match st.flowlets.get_mut(&pkt.qp) {
                    Some(e) if now.since(e.last_seen) < *gap && e.uplink < n => {
                        e.last_seen = now;
                        e.uplink
                    }
                    _ => {
                        // Gap elapsed (or first packet): start a new
                        // flowlet on the least-loaded uplink.
                        let uplink = least_loaded(uplinks, ports, &mut st.rng);
                        st.flowlets.insert(
                            pkt.qp,
                            FlowletEntry {
                                last_seen: now,
                                uplink,
                            },
                        );
                        st.flowlet_switches += 1;
                        uplink
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::LinkSpec;
    use crate::types::{HostId, NodeId, PortId};

    fn mk_ports(n: usize) -> Vec<EgressPort> {
        (0..n)
            .map(|i| EgressPort::new(NodeId(100 + i as u32), PortId(0), LinkSpec::gbps(100, 1)))
            .collect()
    }

    fn data_pkt(src: u32, sport: u16, psn: u32) -> Packet {
        Packet::data(
            QpId(src),
            HostId(src),
            HostId(99),
            sport,
            psn,
            0,
            false,
            1000,
            false,
        )
    }

    fn st() -> LbState {
        LbState::new(1, 0)
    }

    #[test]
    fn ecmp_is_flow_stable() {
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s = st();
        let p = data_pkt(1, 777, 0);
        let first = LbPolicy::Ecmp.select(&p, &uplinks, &ports, Nanos::ZERO, &mut s);
        for psn in 1..100 {
            let p = data_pkt(1, 777, psn);
            assert_eq!(
                LbPolicy::Ecmp.select(&p, &uplinks, &ports, Nanos(psn as u64), &mut s),
                first
            );
        }
    }

    #[test]
    fn ecmp_distinguishes_flows() {
        let ports = mk_ports(8);
        let uplinks: Vec<usize> = (0..8).collect();
        let mut s = st();
        let mut seen = std::collections::HashSet::new();
        for sport in 0..64u16 {
            let p = data_pkt(1, 1000 + sport * 13, 0);
            seen.insert(LbPolicy::Ecmp.select(&p, &uplinks, &ports, Nanos::ZERO, &mut s));
        }
        assert!(seen.len() >= 6, "ECMP should spread flows, got {seen:?}");
    }

    #[test]
    fn ecmp_shift_changes_the_view() {
        // The same flow can land differently under a shifted hash view —
        // the decorrelation property multi-tier fabrics rely on. At least
        // one of a set of flows must differ between shift 0 and shift 8.
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s0 = LbState::new(1, 0);
        let mut s8 = LbState::new(1, 8);
        let differs = (0..32u16).any(|i| {
            let p = data_pkt(1, 1000 + i * 101, 0);
            LbPolicy::Ecmp.select(&p, &uplinks, &ports, Nanos::ZERO, &mut s0)
                != LbPolicy::Ecmp.select(&p, &uplinks, &ports, Nanos::ZERO, &mut s8)
        });
        assert!(differs, "shifted hash views should decorrelate");
    }

    #[test]
    fn random_spray_covers_all_uplinks() {
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s = st();
        let mut counts = [0u32; 4];
        for psn in 0..4000 {
            let p = data_pkt(1, 777, psn);
            counts[LbPolicy::RandomSpray.select(&p, &uplinks, &ports, Nanos::ZERO, &mut s)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "uneven spray: {counts:?}");
        }
    }

    #[test]
    fn adaptive_routing_tie_break_reaches_every_uplink() {
        let ports = mk_ports(3);
        let uplinks = [0, 1, 2];
        let mut s = st();
        let p = data_pkt(1, 777, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(LbPolicy::AdaptiveRouting.select(
                &p,
                &uplinks,
                &ports,
                Nanos::ZERO,
                &mut s,
            ));
        }
        assert_eq!(seen.len(), 3, "tie-break should reach every uplink");
    }

    #[test]
    fn flowlet_sticks_within_gap() {
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s = st();
        let gap = TimeDelta::from_micros(50);
        let policy = LbPolicy::Flowlet { gap };
        // Back-to-back packets (1us apart, inside the gap): same uplink.
        let first = policy.select(&data_pkt(1, 7, 0), &uplinks, &ports, Nanos::ZERO, &mut s);
        for i in 1..100u64 {
            let pick = policy.select(
                &data_pkt(1, 7, i as u32),
                &uplinks,
                &ports,
                Nanos::from_micros(i),
                &mut s,
            );
            assert_eq!(pick, first, "no gap -> no switch");
        }
        assert_eq!(s.flowlet_switches, 1, "only the initial placement");
    }

    #[test]
    fn flowlet_repicks_after_gap() {
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s = st();
        let policy = LbPolicy::Flowlet {
            gap: TimeDelta::from_micros(10),
        };
        policy.select(&data_pkt(1, 7, 0), &uplinks, &ports, Nanos::ZERO, &mut s);
        // 11us silence -> new flowlet.
        policy.select(
            &data_pkt(1, 7, 1),
            &uplinks,
            &ports,
            Nanos::from_micros(11),
            &mut s,
        );
        assert_eq!(s.flowlet_switches, 2);
        assert_eq!(s.tracked_flowlets(), 1);
    }

    #[test]
    fn flowlet_tracks_flows_independently() {
        let ports = mk_ports(4);
        let uplinks = [0, 1, 2, 3];
        let mut s = st();
        let policy = LbPolicy::Flowlet {
            gap: TimeDelta::from_micros(10),
        };
        for qp in 0..8u32 {
            policy.select(&data_pkt(qp, 7, 0), &uplinks, &ports, Nanos::ZERO, &mut s);
        }
        assert_eq!(s.tracked_flowlets(), 8);
        assert_eq!(s.flowlet_switches, 8);
    }
}

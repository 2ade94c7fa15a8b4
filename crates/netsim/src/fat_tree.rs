//! 3-tier fat-tree fabric (Al-Fares et al. \[9\]).
//!
//! The paper's multi-tier deployment story (§3.2): in a 3-tier Clos the
//! source ToR cannot pick the whole path by egress port — it controls
//! only the edge → aggregation hop, while the aggregation switch's ECMP
//! picks the core. Themis therefore rewrites the UDP source port through
//! a PathMap so that *both* ECMP stages land on the desired relative
//! path, with programmability required **only at the ToR**.
//!
//! ## Structure (radix `k`, `m = k/2`)
//!
//! * `k` pods; per pod `m` edge (ToR) switches and `m` aggregation
//!   switches; `m²` core switches.
//! * Edge `(p, e)`: `m` hosts + one uplink to each agg of pod `p`.
//! * Agg `(p, a)`: downlinks to the pod's edges + uplinks to cores
//!   `a·m + j` for `j < m`.
//! * Core `c = a·m + j`: one port per pod, to agg `a` of that pod.
//!
//! Between hosts in different pods there are exactly `m²` equal-cost
//! paths, indexed `path = agg_choice · m + core_choice` — realized by the
//! edge ECMP stage reading hash bits `[0, log2 m)` and the agg stage
//! reading bits `[8, 8 + log2 m)` (decorrelated views of one GF(2)-linear
//! hash, as on real ASICs; see [`crate::lb::LbState::ecmp_shift`]).
//!
//! `m` must be a power of two so both stages are XOR-steerable.

use crate::lb::LbPolicy;
use crate::port::{EcnConfig, EgressPort, LinkSpec};
use crate::switch::{Routes, Switch, SwitchConfig};
use crate::topology::{FabricPlan, HostAttachment};
use crate::types::{HostId, NodeId, PortId};
use crate::world::World;

/// Hash-view shift used by the aggregation tier (edges use shift 0).
pub const AGG_ECMP_SHIFT: u32 = 8;

/// Fat-tree fabric parameters: the radix and the root seed. Every link
/// is [`FatTreeConfig::LINK`], and every switch keeps
/// [`SwitchConfig::default`]'s lossy 64 MB shared buffer (no PFC, no
/// control-packet priority).
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Switch radix `k` (even; `k/2` must be a power of two).
    pub k: usize,
    /// Root seed.
    pub seed: u64,
}

impl FatTreeConfig {
    /// Every link of the fabric, host-to-edge and switch-to-switch.
    pub const LINK: LinkSpec = LinkSpec::gbps(100, 1);

    /// A `k`-ary fat tree (k=4: 16 hosts, 4 equal-cost inter-pod paths)
    /// at seed 1.
    pub fn small(k: usize) -> FatTreeConfig {
        FatTreeConfig { k, seed: 1 }
    }

    /// Hosts (NICs) per ToR: `k/2`.
    pub fn hosts_per_tor(&self) -> usize {
        self.k / 2
    }

    /// Hosts per pod: `(k/2)²`.
    pub fn hosts_per_pod(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    /// Total hosts: `k³/4`.
    pub fn n_hosts(&self) -> usize {
        self.k * self.hosts_per_pod()
    }

    /// ToR (edge) switches: `k²/2`.
    pub fn n_tors(&self) -> usize {
        self.k * self.k / 2
    }

    /// Aggregation switches: `k²/2`.
    pub fn n_aggs(&self) -> usize {
        self.k * self.k / 2
    }

    /// Core switches: `k²/4`.
    pub fn n_cores(&self) -> usize {
        self.k * self.k / 4
    }

    /// Equal-cost paths between hosts in different pods: `(k/2)²`, one
    /// per core switch.
    pub fn n_paths(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

/// Build a `k`-ary fat-tree with uplink policy `lb` on every switch,
/// WRED/ECN marking on every switch port, and the loss oracle's drop
/// notifications when `oracle_loss_notify` is set. Host `h` (pod
/// `h / m²`, edge `(h / m) % m`, slot `h % m`) occupies entity slot
/// `NodeId(h)`. Every switch routes by its [`Routes`] rule: the hosts
/// below it are one contiguous range.
///
/// In the returned plan, `leaves` are the edges (indexed `pod * m + e`)
/// and `spines` are the aggregation switches (indexed `pod * m + a`,
/// the `pod_local` ones) followed by the cores (indexed `a * m + j`).
pub fn build_fat_tree(cfg: &FatTreeConfig, lb: LbPolicy, oracle_loss_notify: bool) -> FabricPlan {
    let k = cfg.k;
    let m = cfg.hosts_per_tor();
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even");
    assert!(
        m.is_power_of_two(),
        "k/2 must be a power of two for XOR path steering"
    );
    let n_hosts = cfg.n_hosts();
    let (n_tors, n_aggs) = (cfg.n_tors(), cfg.n_aggs());
    // Hosts occupy `0..n_hosts`, then edges, aggs and cores follow in
    // installation order.
    let edge_node = |i: usize| NodeId((n_hosts + i) as u32);
    let agg_node = |i: usize| NodeId((n_hosts + n_tors + i) as u32);
    let core_node = |i: usize| NodeId((n_hosts + n_tors + n_aggs + i) as u32);
    let mut world = World::new();

    let host_nodes: Vec<NodeId> = (0..n_hosts).map(|_| world.reserve()).collect();
    for (h, node) in host_nodes.iter().enumerate() {
        assert_eq!(node.0 as usize, h, "host node-id convention violated");
    }

    let new_switch = |salt: u64, ecmp_shift: u32, first: usize, span: usize, per_port: usize| {
        let mut sw = Switch::new(&SwitchConfig {
            lb,
            oracle_loss_notify,
            seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt),
            ecmp_shift,
            ..SwitchConfig::default()
        });
        sw.set_routes(Routes {
            first: first as u32,
            span: span as u32,
            per_port: per_port as u32,
        });
        sw
    };
    let fabric_port = |peer: NodeId, peer_in_port: usize| {
        EgressPort::new(peer, PortId(peer_in_port as u16), FatTreeConfig::LINK)
    };
    let install = |world: &mut World, mut sw: Switch, id: NodeId| {
        sw.set_ecn_all_ports(|pt| Some(EcnConfig::for_bandwidth(pt.link.bandwidth_bps)));
        assert_eq!(world.add(Box::new(sw)), id, "switch node-id drift");
    };

    // Installation order (edges, aggs, cores) must match the arithmetic
    // node ids the ports are wired against.

    let mut hosts = Vec::with_capacity(n_hosts);
    for i in 0..n_tors {
        let (p, e) = (i / m, i % m);
        let mut sw = new_switch(i as u64, 0, i * m, m, 1);
        // Host ports 0..m.
        for s in 0..m {
            let node = host_nodes[i * m + s];
            sw.add_port(EgressPort::new(node, PortId(0), FatTreeConfig::LINK), true);
            hosts.push(HostAttachment {
                host: HostId(node.0),
                node,
                tor: edge_node(i),
                tor_port: PortId(s as u16),
                link: FatTreeConfig::LINK,
            });
        }
        // Uplinks m..2m: to each agg of this pod. Our packets arrive
        // at agg (p, a) on its downlink port e.
        for a in 0..m {
            sw.add_port(fabric_port(agg_node(p * m + a), e), false);
        }
        sw.set_uplinks((m..2 * m).collect());
        install(&mut world, sw, edge_node(i));
    }

    for i in 0..n_aggs {
        let (p, a) = (i / m, i % m);
        let mut sw = new_switch(10_000 + i as u64, AGG_ECMP_SHIFT, p * m * m, m * m, m);
        // Downlinks 0..m to edges; our packets arrive at edge (p, e)
        // on its uplink port m + a.
        for e in 0..m {
            sw.add_port(fabric_port(edge_node(p * m + e), m + a), false);
        }
        // Uplinks m..2m to cores a*m + j; arrive at core port p.
        for j in 0..m {
            sw.add_port(fabric_port(core_node(a * m + j), p), false);
        }
        sw.set_uplinks((m..2 * m).collect());
        install(&mut world, sw, agg_node(i));
    }

    // Every core steers each host to its pod.
    for c in 0..cfg.n_cores() {
        let (a, j) = (c / m, c % m);
        let mut sw = new_switch(20_000 + c as u64, 0, 0, n_hosts, m * m);
        // Port p towards agg (p, a); arrives at agg uplink port m + j.
        for p in 0..k {
            sw.add_port(fabric_port(agg_node(p * m + a), m + j), false);
        }
        install(&mut world, sw, core_node(c));
    }

    FabricPlan {
        world,
        hosts,
        leaves: (0..n_tors).map(edge_node).collect(),
        spines: (0..n_aggs)
            .map(agg_node)
            .chain((0..cfg.n_cores()).map(core_node))
            .collect(),
        pod_local: n_aggs,
        n_paths: cfg.n_paths(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::packet::Packet;
    use crate::types::QpId;
    use crate::world::{Ctx, Entity};
    use simcore::time::Nanos;

    #[test]
    fn k4_dimensions() {
        let cfg = FatTreeConfig::small(4);
        assert_eq!(cfg.n_hosts(), 16);
        assert_eq!(cfg.n_paths(), 4);
        let plan = build_fat_tree(&cfg, LbPolicy::Ecmp, false);
        assert_eq!(plan.hosts.len(), 16);
        assert_eq!(plan.leaves.len(), 8);
        assert_eq!(plan.pod_local, 8);
        assert_eq!(plan.spines.len() - plan.pod_local, 4);
        assert_eq!(plan.world.len(), 16 + 8 + 8 + 4);
    }

    #[test]
    fn k8_dimensions() {
        let cfg = FatTreeConfig::small(8);
        let plan = build_fat_tree(&cfg, LbPolicy::Ecmp, false);
        assert_eq!(plan.hosts.len(), 128);
        assert_eq!(plan.n_paths, 16);
        assert_eq!(plan.spines.len() - plan.pod_local, 16);
    }

    #[test]
    fn k32_counts_match_paper() {
        let cfg = FatTreeConfig::small(32);
        assert_eq!(cfg.n_tors(), 512);
        assert_eq!(cfg.n_aggs(), 512);
        assert_eq!(cfg.n_cores(), 256);
        assert_eq!(cfg.n_hosts(), 8192);
        assert_eq!(cfg.hosts_per_tor(), 16);
        assert_eq!(cfg.n_paths(), 256);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_radix() {
        build_fat_tree(&FatTreeConfig::small(3), LbPolicy::Ecmp, false);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_k6() {
        build_fat_tree(&FatTreeConfig::small(6), LbPolicy::Ecmp, false);
    }

    #[test]
    fn edges_assigned_correctly() {
        let plan = build_fat_tree(&FatTreeConfig::small(4), LbPolicy::Ecmp, false);
        // Hosts 0,1 share edge (0,0); hosts 2,3 share edge (0,1).
        assert_eq!(plan.hosts[0].tor, plan.hosts[1].tor);
        assert_ne!(plan.hosts[0].tor, plan.hosts[2].tor);
    }

    fn wiring(plan: &FabricPlan) -> Vec<u64> {
        crate::topology::wiring(&plan.world, plan.hosts.len())
    }

    /// Pins node ids, port order, link rates, uplink groups and routes.
    /// The literals were computed on the builder that still took its
    /// link rates as fields, with `FatTreeConfig::small(k)` unmodified.
    #[test]
    fn wiring_fingerprint_is_pinned() {
        use std::hash::{Hash, Hasher};
        for (k, want) in [
            (4, 0x1c9f_2453_301b_1916_u64),
            (8, 0x9084_5706_206d_72fb),
            (16, 0xa683_412b_1da5_c6b9),
        ] {
            let cfg = FatTreeConfig::small(k);
            let w = wiring(&build_fat_tree(&cfg, LbPolicy::Ecmp, false));
            assert_eq!(
                w,
                wiring(&build_fat_tree(&cfg, LbPolicy::Ecmp, false)),
                "k={k}: builds differ"
            );
            let mut h = simcore::fx::FxHasher::default();
            w.hash(&mut h);
            assert_eq!(h.finish(), want, "k={k}: wiring drifted");
        }
    }

    /// Sink that records arrivals.
    struct Sink {
        got: Vec<Packet>,
    }
    impl Entity for Sink {
        fn handle(&mut self, ev: Event, _ctx: &mut Ctx<'_>) {
            if let Event::Packet { pkt, .. } = ev {
                self.got.push(pkt);
            }
        }
    }

    /// Inject packets at a source edge and verify they reach the right
    /// host across pods, for many entropy values (all 4 paths work).
    #[test]
    fn inter_pod_forwarding_reaches_destination_on_every_path() {
        let cfg = FatTreeConfig::small(4);
        let mut plan = build_fat_tree(&cfg, LbPolicy::Ecmp, false);
        // Install sinks at every host slot.
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        // Host 0 (pod 0) -> host 15 (pod 3), 64 different sports.
        let src_edge = plan.hosts[0].tor;
        for sport in 0..64u16 {
            let pkt = Packet::data(
                QpId(sport as u32),
                HostId(0),
                HostId(15),
                1000 + sport * 7,
                0,
                0,
                false,
                1000,
                false,
            );
            plan.world.seed_event(
                Nanos(sport as u64),
                src_edge,
                Event::Packet {
                    pkt,
                    in_port: PortId(0), // host-facing
                },
            );
        }
        plan.world.run();
        let sink: &Sink = plan.world.get(NodeId(15)).unwrap();
        assert_eq!(sink.got.len(), 64, "every packet must arrive");
        // And nothing leaked to other hosts.
        for h in 0..15u32 {
            let s: &Sink = plan.world.get(NodeId(h)).unwrap();
            assert!(s.got.is_empty(), "host {h} received stray packets");
        }
    }

    #[test]
    fn intra_pod_cross_edge_goes_via_agg_only() {
        let cfg = FatTreeConfig::small(4);
        let mut plan = build_fat_tree(&cfg, LbPolicy::Ecmp, false);
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        // Host 0 (edge 0,0) -> host 2 (edge 0,1): same pod.
        let pkt = Packet::data(QpId(1), HostId(0), HostId(2), 777, 0, 0, false, 1000, false);
        plan.world.seed_event(
            Nanos::ZERO,
            plan.hosts[0].tor,
            Event::Packet {
                pkt,
                in_port: PortId(0),
            },
        );
        plan.world.run();
        let sink: &Sink = plan.world.get(NodeId(2)).unwrap();
        assert_eq!(sink.got.len(), 1);
        // Cores saw nothing.
        for &c in &plan.spines[plan.pod_local..] {
            let sw: &Switch = plan.world.get(c).unwrap();
            assert_eq!(
                sw.stats.rx_packets, 0,
                "intra-pod traffic must not hit cores"
            );
        }
    }

    #[test]
    fn ecmp_uses_all_four_inter_pod_paths() {
        let cfg = FatTreeConfig::small(4);
        let mut plan = build_fat_tree(&cfg, LbPolicy::Ecmp, false);
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        let src_edge = plan.hosts[0].tor;
        // Many flows with different entropy: every core should see some.
        for sport in 0..256u16 {
            let pkt = Packet::data(
                QpId(sport as u32),
                HostId(0),
                HostId(15),
                sport.wrapping_mul(2654),
                0,
                0,
                false,
                1000,
                false,
            );
            plan.world.seed_event(
                Nanos(sport as u64 * 200),
                src_edge,
                Event::Packet {
                    pkt,
                    in_port: PortId(0),
                },
            );
        }
        plan.world.run();
        for &c in &plan.spines[plan.pod_local..] {
            let sw: &Switch = plan.world.get(c).unwrap();
            assert!(
                sw.stats.rx_packets > 0,
                "core {c} unused: hash views too correlated"
            );
        }
    }
}

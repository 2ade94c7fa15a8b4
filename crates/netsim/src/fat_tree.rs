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
use crate::switch::{PfcConfig, Routes, Switch, SwitchConfig};
use crate::topology::HostAttachment;
use crate::types::{HostId, NodeId, PortId};
use crate::world::World;

/// Hash-view shift used by the aggregation tier (edges use shift 0).
pub const AGG_ECMP_SHIFT: u32 = 8;

/// Fat-tree fabric parameters.
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// Switch radix `k` (even; `k/2` must be a power of two).
    pub k: usize,
    /// Host-to-edge link.
    pub host_link: LinkSpec,
    /// All switch-to-switch links.
    pub fabric_link: LinkSpec,
    /// Per-switch shared buffer.
    pub buffer_bytes: u64,
    /// Uplink LB policy on edges and aggs.
    pub lb: LbPolicy,
    /// Enable WRED/ECN marking on all ports.
    pub ecn: bool,
    /// Enable the loss oracle.
    pub oracle_loss_notify: bool,
    /// Hop-by-hop PFC on every switch; `None` = lossy fabric.
    pub pfc: Option<PfcConfig>,
    /// Strict control-packet priority on every switch port.
    pub ctrl_priority: bool,
    /// Root seed.
    pub seed: u64,
}

impl FatTreeConfig {
    /// A k=4 test fabric (16 hosts, 4 equal-cost inter-pod paths) at
    /// 100 Gbps.
    pub fn small(k: usize) -> FatTreeConfig {
        FatTreeConfig {
            k,
            host_link: LinkSpec::gbps(100, 1),
            fabric_link: LinkSpec::gbps(100, 1),
            buffer_bytes: 64 * 1024 * 1024,
            lb: LbPolicy::Ecmp,
            ecn: true,
            oracle_loss_notify: false,
            pfc: None,
            ctrl_priority: false,
            seed: 1,
        }
    }

    /// Hosts per pod: `(k/2)²`.
    pub fn hosts_per_pod(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    /// Total hosts: `k³/4`.
    pub fn n_hosts(&self) -> usize {
        self.k * self.hosts_per_pod()
    }

    /// Equal-cost paths between hosts in different pods: `(k/2)²`.
    pub fn n_paths(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

/// A built fat-tree: switches installed, host slots reserved.
pub struct FatTreePlan {
    /// The world (host slots empty).
    pub world: World,
    /// Host attachments, indexed by host id.
    pub hosts: Vec<HostAttachment>,
    /// Edge (ToR) switches, indexed `pod * m + e`.
    pub edges: Vec<NodeId>,
    /// Aggregation switches, indexed `pod * m + a`.
    pub aggs: Vec<NodeId>,
    /// Core switches, indexed `a * m + j`.
    pub cores: Vec<NodeId>,
    /// Inter-pod equal-cost path count `(k/2)²`.
    pub n_paths: usize,
    /// Radix.
    pub k: usize,
}

impl FatTreePlan {
    /// Pod of `host`.
    pub fn pod_of(&self, host: HostId) -> usize {
        let m = self.k / 2;
        host.index() / (m * m)
    }

    /// Edge switch of `host`.
    pub fn edge_of(&self, host: HostId) -> NodeId {
        self.hosts[host.index()].tor
    }
}

/// First entity slot of the edge tier: hosts occupy `0..n_hosts`, then
/// edges, aggs, cores follow in installation order.
fn edge_node(n_hosts: usize, i: usize) -> NodeId {
    NodeId((n_hosts + i) as u32)
}
fn agg_node(n_hosts: usize, k: usize, i: usize) -> NodeId {
    NodeId((n_hosts + k * (k / 2) + i) as u32)
}
fn core_node(n_hosts: usize, k: usize, i: usize) -> NodeId {
    NodeId((n_hosts + 2 * k * (k / 2) + i) as u32)
}

/// Build a `k`-ary fat-tree. Host `h` (pod `h / m²`, edge `(h / m) % m`,
/// slot `h % m`) occupies entity slot `NodeId(h)`. Every switch routes
/// by its [`Routes`] rule: the hosts below it are one contiguous range.
pub fn build_fat_tree(cfg: &FatTreeConfig) -> FatTreePlan {
    let k = cfg.k;
    let m = k / 2;
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even");
    assert!(
        m.is_power_of_two(),
        "k/2 must be a power of two for XOR path steering"
    );
    let n_hosts = cfg.n_hosts();
    let mut world = World::new();

    let host_nodes: Vec<NodeId> = (0..n_hosts).map(|_| world.reserve()).collect();
    for (h, node) in host_nodes.iter().enumerate() {
        assert_eq!(node.0 as usize, h, "host node-id convention violated");
    }

    let new_switch = |salt: u64, ecmp_shift: u32, first: usize, span: usize, per_port: usize| {
        let mut sw = Switch::new(&SwitchConfig {
            buffer_bytes: cfg.buffer_bytes,
            lb: cfg.lb,
            oracle_loss_notify: cfg.oracle_loss_notify,
            seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt),
            ecmp_shift,
            pfc: cfg.pfc,
            ctrl_priority: cfg.ctrl_priority,
        });
        sw.set_routes(Routes {
            first: first as u32,
            span: span as u32,
            per_port: per_port as u32,
        });
        sw
    };
    let fabric_port = |peer: NodeId, peer_in_port: usize| {
        EgressPort::new(peer, PortId(peer_in_port as u16), cfg.fabric_link)
    };
    let install = |world: &mut World, mut sw: Switch| -> NodeId {
        if cfg.ecn {
            sw.set_ecn_all_ports(|pt| Some(EcnConfig::for_bandwidth(pt.link.bandwidth_bps)));
        }
        world.add(Box::new(sw))
    };

    // Installation order (edges, aggs, cores) must match the arithmetic
    // node ids the ports are wired against.

    let mut hosts = Vec::with_capacity(n_hosts);
    let mut edges = Vec::with_capacity(k * m);
    for i in 0..k * m {
        let (p, e) = (i / m, i % m);
        let mut sw = new_switch(i as u64, 0, i * m, m, 1);
        // Host ports 0..m.
        for s in 0..m {
            let port = EgressPort::new(host_nodes[i * m + s], PortId(0), cfg.host_link);
            sw.add_port(port, true);
        }
        // Uplinks m..2m: to each agg of this pod. Our packets arrive
        // at agg (p, a) on its downlink port e.
        for a in 0..m {
            sw.add_port(fabric_port(agg_node(n_hosts, k, p * m + a), e), false);
        }
        sw.set_uplinks((m..2 * m).collect());
        let id = install(&mut world, sw);
        assert_eq!(id, edge_node(n_hosts, i), "edge node-id drift");
        for s in 0..m {
            hosts.push(HostAttachment {
                host: HostId((i * m + s) as u32),
                node: host_nodes[i * m + s],
                tor: id,
                tor_port: PortId(s as u16),
                link: cfg.host_link,
            });
        }
        edges.push(id);
    }

    let mut aggs = Vec::with_capacity(k * m);
    for p in 0..k {
        for a in 0..m {
            let salt = 10_000 + (p * m + a) as u64;
            let mut sw = new_switch(salt, AGG_ECMP_SHIFT, p * m * m, m * m, m);
            // Downlinks 0..m to edges; our packets arrive at edge (p, e)
            // on its uplink port m + a.
            for e in 0..m {
                sw.add_port(fabric_port(edge_node(n_hosts, p * m + e), m + a), false);
            }
            // Uplinks m..2m to cores a*m + j; arrive at core port p.
            for j in 0..m {
                sw.add_port(fabric_port(core_node(n_hosts, k, a * m + j), p), false);
            }
            sw.set_uplinks((m..2 * m).collect());
            let id = install(&mut world, sw);
            assert_eq!(id, agg_node(n_hosts, k, p * m + a), "agg node-id drift");
            aggs.push(id);
        }
    }

    // Every core steers each host to its pod.
    let mut cores = Vec::with_capacity(m * m);
    for c in 0..m * m {
        let (a, j) = (c / m, c % m);
        let mut sw = new_switch(20_000 + c as u64, 0, 0, n_hosts, m * m);
        // Port p towards agg (p, a); arrives at agg uplink port m + j.
        for p in 0..k {
            sw.add_port(fabric_port(agg_node(n_hosts, k, p * m + a), m + j), false);
        }
        let id = install(&mut world, sw);
        assert_eq!(id, core_node(n_hosts, k, c), "core node-id drift");
        cores.push(id);
    }

    FatTreePlan {
        world,
        hosts,
        edges,
        aggs,
        cores,
        n_paths: cfg.n_paths(),
        k,
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
        let plan = build_fat_tree(&cfg);
        assert_eq!(plan.hosts.len(), 16);
        assert_eq!(plan.edges.len(), 8);
        assert_eq!(plan.aggs.len(), 8);
        assert_eq!(plan.cores.len(), 4);
        assert_eq!(plan.world.len(), 16 + 8 + 8 + 4);
    }

    #[test]
    fn k8_dimensions() {
        let cfg = FatTreeConfig::small(8);
        let plan = build_fat_tree(&cfg);
        assert_eq!(plan.hosts.len(), 128);
        assert_eq!(plan.n_paths, 16);
        assert_eq!(plan.cores.len(), 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_k6() {
        build_fat_tree(&FatTreeConfig::small(6));
    }

    #[test]
    fn pods_and_edges_assigned_correctly() {
        let plan = build_fat_tree(&FatTreeConfig::small(4));
        assert_eq!(plan.pod_of(HostId(0)), 0);
        assert_eq!(plan.pod_of(HostId(3)), 0);
        assert_eq!(plan.pod_of(HostId(4)), 1);
        assert_eq!(plan.pod_of(HostId(15)), 3);
        // Hosts 0,1 share edge (0,0); hosts 2,3 share edge (0,1).
        assert_eq!(plan.edge_of(HostId(0)), plan.edge_of(HostId(1)));
        assert_ne!(plan.edge_of(HostId(0)), plan.edge_of(HostId(2)));
    }

    fn wiring(plan: &FatTreePlan) -> Vec<u64> {
        crate::topology::wiring(&plan.world, plan.hosts.len())
    }

    /// Pins node ids, port order, link rates, uplink groups and routes
    /// to what the blueprint-per-pod builder (PRs 5-21) produced; the
    /// literals were computed by this test on that builder.
    #[test]
    fn wiring_fingerprint_is_pinned() {
        use std::hash::{Hash, Hasher};
        for (k, want) in [
            (4, 0x0341_3bdc_d72d_a068_u64),
            (8, 0x4117_32df_ff97_2592),
            (16, 0xb4af_3f92_7712_1086),
        ] {
            let mut cfg = FatTreeConfig::small(k);
            cfg.fabric_link = LinkSpec::gbps(400, 1);
            let w = wiring(&build_fat_tree(&cfg));
            assert_eq!(w, wiring(&build_fat_tree(&cfg)), "k={k}: builds differ");
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
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Inject packets at a source edge and verify they reach the right
    /// host across pods, for many entropy values (all 4 paths work).
    #[test]
    fn inter_pod_forwarding_reaches_destination_on_every_path() {
        let cfg = FatTreeConfig::small(4);
        let mut plan = build_fat_tree(&cfg);
        // Install sinks at every host slot.
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        // Host 0 (pod 0) -> host 15 (pod 3), 64 different sports.
        let src_edge = plan.edge_of(HostId(0));
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
        let mut plan = build_fat_tree(&cfg);
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        // Host 0 (edge 0,0) -> host 2 (edge 0,1): same pod.
        let pkt = Packet::data(QpId(1), HostId(0), HostId(2), 777, 0, 0, false, 1000, false);
        plan.world.seed_event(
            Nanos::ZERO,
            plan.edge_of(HostId(0)),
            Event::Packet {
                pkt,
                in_port: PortId(0),
            },
        );
        plan.world.run();
        let sink: &Sink = plan.world.get(NodeId(2)).unwrap();
        assert_eq!(sink.got.len(), 1);
        // Cores saw nothing.
        for &c in &plan.cores {
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
        let mut plan = build_fat_tree(&cfg);
        for att in &plan.hosts {
            plan.world.install(att.node, Box::new(Sink { got: vec![] }));
        }
        let src_edge = plan.edge_of(HostId(0));
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
        for &c in &plan.cores {
            let sw: &Switch = plan.world.get(c).unwrap();
            assert!(
                sw.stats.rx_packets > 0,
                "core {c} unused: hash views too correlated"
            );
        }
    }
}

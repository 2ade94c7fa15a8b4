//! Topology builders.
//!
//! * [`build_leaf_spine`] — the 2-tier Clos fabrics used throughout the
//!   paper's evaluation: the 16×16 leaf-spine of §5 and the 8-host
//!   motivation topology of Fig 1a.
//! * [`FatTreeDims`] — arithmetic for the 3-tier fat-tree of the §4 memory
//!   example (k = 32 → 512 ToRs, 8192 NICs, 256 equal-cost paths).
//!
//! Builders create and wire all switches, reserve entity slots for host
//! NICs (the `rnic` crate installs them), and return a [`FabricPlan`]
//! describing every attachment point.
//!
//! ## Path-index convention
//!
//! Uplink `i` of every leaf connects to spine `i`. Since a 2-tier Clos has
//! exactly one path per spine between any two leaves, *path index = spine
//! index* — the concrete realization of the paper's path indices
//! `0..N-1` (§3.2).

use crate::lb::LbPolicy;
use crate::port::{EcnConfig, EgressPort, LinkSpec};
use crate::switch::{PfcConfig, Routes, Switch, SwitchConfig};
use crate::types::{HostId, NodeId, PortId};
use crate::world::World;

/// Leaf-spine fabric parameters.
#[derive(Debug, Clone)]
pub struct LeafSpineConfig {
    /// Number of leaf (ToR) switches.
    pub n_leaves: usize,
    /// Hosts per leaf.
    pub hosts_per_leaf: usize,
    /// Number of spine switches (= number of equal-cost paths).
    pub n_spines: usize,
    /// Host-to-leaf link.
    pub host_link: LinkSpec,
    /// Leaf-to-spine link.
    pub fabric_link: LinkSpec,
    /// Per-switch shared buffer (paper: 64 MB).
    pub buffer_bytes: u64,
    /// Uplink load-balancing policy installed on every leaf.
    pub lb: LbPolicy,
    /// Enable WRED/ECN marking on all switch ports.
    pub ecn: bool,
    /// Enable the loss oracle (Ideal baseline of Fig 1d).
    pub oracle_loss_notify: bool,
    /// Hop-by-hop PFC on every switch; `None` = lossy fabric.
    pub pfc: Option<PfcConfig>,
    /// Strict control-packet priority on every switch port.
    pub ctrl_priority: bool,
    /// Root seed; each switch gets an independent substream.
    pub seed: u64,
}

impl LeafSpineConfig {
    /// The §5 evaluation fabric: 16 leaves × 16 hosts, 16 spines,
    /// 400 Gbps links with 1 µs delay, 64 MB buffers.
    pub fn paper_eval() -> LeafSpineConfig {
        LeafSpineConfig {
            n_leaves: 16,
            hosts_per_leaf: 16,
            n_spines: 16,
            host_link: LinkSpec::gbps(400, 1),
            fabric_link: LinkSpec::gbps(400, 1),
            buffer_bytes: 64 * 1024 * 1024,
            lb: LbPolicy::Ecmp,
            ecn: true,
            oracle_loss_notify: false,
            pfc: None,
            ctrl_priority: false,
            seed: 1,
        }
    }

    /// The Fig 1a motivation fabric: 8 hosts on 4 leaves, 2 spines,
    /// 100 Gbps everywhere. Ring neighbours within each group land on
    /// different leaves, so every flow crosses the spine layer.
    pub fn motivation() -> LeafSpineConfig {
        LeafSpineConfig {
            n_leaves: 4,
            hosts_per_leaf: 2,
            n_spines: 2,
            host_link: LinkSpec::gbps(100, 1),
            fabric_link: LinkSpec::gbps(100, 1),
            buffer_bytes: 64 * 1024 * 1024,
            lb: LbPolicy::RandomSpray,
            ecn: true,
            oracle_loss_notify: false,
            pfc: None,
            ctrl_priority: false,
            seed: 1,
        }
    }

    /// Total number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.n_leaves * self.hosts_per_leaf
    }
}

/// Where one host NIC plugs into the fabric.
#[derive(Debug, Clone, Copy)]
pub struct HostAttachment {
    /// The host.
    pub host: HostId,
    /// Its entity slot (== `NodeId(host.0)` by convention).
    pub node: NodeId,
    /// The ToR switch it connects to.
    pub tor: NodeId,
    /// The ToR's port towards this host (the NIC's packets arrive there).
    pub tor_port: PortId,
    /// The access link (same spec in both directions).
    pub link: LinkSpec,
}

/// A built fabric: all switches installed, host slots reserved.
pub struct FabricPlan {
    /// The world holding the switches (host slots still empty).
    pub world: World,
    /// One attachment per host, indexed by host id.
    pub hosts: Vec<HostAttachment>,
    /// Leaf switch entity ids, by leaf index.
    pub leaves: Vec<NodeId>,
    /// Spine switch entity ids, by spine index.
    pub spines: Vec<NodeId>,
    /// Number of equal-cost paths between hosts on different leaves.
    pub n_paths: usize,
}

impl FabricPlan {
    /// Leaf index of `host`.
    pub fn leaf_of(&self, host: HostId) -> usize {
        let hpl = self.hosts.len() / self.leaves.len();
        host.index() / hpl
    }
}

/// Build a leaf-spine fabric per `cfg`.
///
/// Host `h` lives on leaf `h / hosts_per_leaf` and occupies entity slot
/// `NodeId(h)`; switches occupy the following slots.
pub fn build_leaf_spine(cfg: &LeafSpineConfig) -> FabricPlan {
    assert!(cfg.n_leaves > 0 && cfg.hosts_per_leaf > 0 && cfg.n_spines > 0);
    let n_hosts = cfg.n_hosts();
    let mut world = World::new();

    // Reserve host slots first so NodeId(h) == HostId(h).
    let host_nodes: Vec<NodeId> = (0..n_hosts).map(|_| world.reserve()).collect();
    for (h, node) in host_nodes.iter().enumerate() {
        assert_eq!(node.0 as usize, h, "host node-id convention violated");
    }

    // Leaves take the slots after the hosts, spines the slots after
    // those; each switch is built whole, wired against these ids.
    let hpl = cfg.hosts_per_leaf;
    let leaf_node = |l: usize| NodeId((n_hosts + l) as u32);
    let spine_node = |s: usize| NodeId((n_hosts + cfg.n_leaves + s) as u32);
    let new_switch = |seed: u64, first: usize, span: usize, per_port: usize| {
        let mut sw = Switch::new(&SwitchConfig {
            buffer_bytes: cfg.buffer_bytes,
            lb: cfg.lb,
            oracle_loss_notify: cfg.oracle_loss_notify,
            seed,
            ecmp_shift: 0,
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
    let install = |world: &mut World, mut sw: Switch, id: NodeId| {
        if cfg.ecn {
            sw.set_ecn_all_ports(|p| Some(EcnConfig::for_bandwidth(p.link.bandwidth_bps)));
        }
        assert_eq!(world.add(Box::new(sw)), id, "switch node-id drift");
    };

    // Leaf l: ports [0, hpl) to its hosts, port hpl + s up to spine s,
    // arriving there on the spine's port l.
    let mut hosts = Vec::with_capacity(n_hosts);
    for l in 0..cfg.n_leaves {
        let seed = cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(l as u64);
        let mut sw = new_switch(seed, l * hpl, hpl, 1);
        for j in 0..hpl {
            let node = host_nodes[l * hpl + j];
            sw.add_port(EgressPort::new(node, PortId(0), cfg.host_link), true);
            hosts.push(HostAttachment {
                host: HostId(node.0),
                node,
                tor: leaf_node(l),
                tor_port: PortId(j as u16),
                link: cfg.host_link,
            });
        }
        for s in 0..cfg.n_spines {
            sw.add_port(fabric_port(spine_node(s), l), false);
        }
        sw.set_uplinks((hpl..hpl + cfg.n_spines).collect());
        install(&mut world, sw, leaf_node(l));
    }

    // Spine s: port l down to leaf l, arriving on that leaf's uplink
    // port for this spine.
    for s in 0..cfg.n_spines {
        let salt = 1_000_000 + s as u64;
        let seed = cfg.seed.wrapping_mul(0x85EB_CA6B).wrapping_add(salt);
        let mut sw = new_switch(seed, 0, n_hosts, hpl);
        for l in 0..cfg.n_leaves {
            sw.add_port(fabric_port(leaf_node(l), hpl + s), false);
        }
        install(&mut world, sw, spine_node(s));
    }

    FabricPlan {
        world,
        hosts,
        leaves: (0..cfg.n_leaves).map(leaf_node).collect(),
        spines: (0..cfg.n_spines).map(spine_node).collect(),
        n_paths: cfg.n_spines,
    }
}

/// Dimensions of a 3-tier fat-tree built from `k`-port switches
/// (Al-Fares et al. \[9\]), as used by the §4 memory example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeDims {
    /// Switch radix.
    pub k: usize,
}

impl FatTreeDims {
    /// Dimensions for radix `k` (must be even).
    pub fn new(k: usize) -> FatTreeDims {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree radix must be even");
        FatTreeDims { k }
    }

    /// Number of ToR (edge/leaf) switches: k²/2.
    pub fn n_tors(&self) -> usize {
        self.k * self.k / 2
    }

    /// Number of aggregation (spine) switches: k²/2.
    pub fn n_spines(&self) -> usize {
        self.k * self.k / 2
    }

    /// Number of core switches: k²/4.
    pub fn n_cores(&self) -> usize {
        self.k * self.k / 4
    }

    /// Number of hosts (GPUs/NICs): k³/4.
    pub fn n_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Hosts (NICs) per ToR: k/2.
    pub fn hosts_per_tor(&self) -> usize {
        self.k / 2
    }

    /// Maximum number of equal-cost paths between hosts in different pods:
    /// (k/2)² (one per core switch reachable via k/2 aggregation choices).
    pub fn max_equal_cost_paths(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

/// Every switch's wiring in node-id order, flattened: per port
/// `(peer, peer_in_port, bandwidth)`, the uplink group, and the routing
/// decision for every host. The builders' wiring-fingerprint tests hash
/// this walk.
#[cfg(test)]
pub(crate) fn wiring(world: &World, n_hosts: usize) -> Vec<u64> {
    use crate::switch::RouteEntry;
    let mut w = Vec::new();
    for id in n_hosts..world.len() {
        let sw: &Switch = world.get(NodeId(id as u32)).expect("switch slot");
        w.push(sw.num_ports() as u64);
        for i in 0..sw.num_ports() {
            let p = sw.port(i);
            w.extend([
                p.peer.0 as u64,
                p.peer_in_port.0 as u64,
                p.link.bandwidth_bps,
            ]);
        }
        w.push(sw.uplinks().len() as u64);
        w.extend(sw.uplinks().iter().map(|&u| u as u64));
        w.extend((0..n_hosts).map(|h| match sw.route(HostId(h as u32)) {
            RouteEntry::Port(p) => p as u64,
            RouteEntry::Uplinks => 1 << 32,
            RouteEntry::None => 2 << 32,
        }));
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins node ids, port order, link rates, uplink groups and routes
    /// of both paper fabrics; the literals were computed by this test on
    /// the builder that stored a dense per-destination route table.
    #[test]
    fn wiring_fingerprint_is_pinned() {
        use std::hash::{Hash, Hasher};
        for (cfg, want) in [
            (LeafSpineConfig::motivation(), 0x8696_fa34_60ed_6236_u64),
            (LeafSpineConfig::paper_eval(), 0x373b_3da4_43c7_08bc),
        ] {
            let plan = build_leaf_spine(&cfg);
            let w = wiring(&plan.world, plan.hosts.len());
            let mut h = simcore::fx::FxHasher::default();
            w.hash(&mut h);
            assert_eq!(h.finish(), want, "{} leaves: wiring drifted", cfg.n_leaves);
        }
    }

    #[test]
    fn paper_eval_dimensions() {
        let cfg = LeafSpineConfig::paper_eval();
        assert_eq!(cfg.n_hosts(), 256);
        let plan = build_leaf_spine(&cfg);
        assert_eq!(plan.hosts.len(), 256);
        assert_eq!(plan.leaves.len(), 16);
        assert_eq!(plan.spines.len(), 16);
        assert_eq!(plan.n_paths, 16);
        assert_eq!(plan.world.len(), 256 + 32);
    }

    #[test]
    fn motivation_dimensions() {
        let plan = build_leaf_spine(&LeafSpineConfig::motivation());
        assert_eq!(plan.hosts.len(), 8);
        assert_eq!(plan.n_paths, 2);
        // Ring neighbours h -> h+2 are always on different leaves
        // (2 hosts per leaf).
        for h in 0..8u32 {
            let next = (h + 2) % 8;
            assert_ne!(
                plan.leaf_of(HostId(h)),
                plan.leaf_of(HostId(next)),
                "ring hop {h}->{next} must cross racks"
            );
        }
    }

    #[test]
    fn node_id_convention_holds() {
        let plan = build_leaf_spine(&LeafSpineConfig::motivation());
        for att in &plan.hosts {
            assert_eq!(att.node.0, att.host.0);
        }
    }

    #[test]
    fn leaf_ports_are_wired_consistently() {
        let plan = build_leaf_spine(&LeafSpineConfig::motivation());
        let leaf0: &Switch = plan.world.get(plan.leaves[0]).unwrap();
        // 2 host ports + 2 uplinks.
        assert_eq!(leaf0.num_ports(), 4);
        assert_eq!(leaf0.uplinks(), &[2, 3]);
        // Uplink s goes to spine s.
        assert_eq!(leaf0.port(2).peer, plan.spines[0]);
        assert_eq!(leaf0.port(3).peer, plan.spines[1]);
        // Host port 0 goes to host entity 0.
        assert_eq!(leaf0.port(0).peer, NodeId(0));
    }

    #[test]
    fn spine_ports_point_back_at_leaf_uplinks() {
        let cfg = LeafSpineConfig::motivation();
        let plan = build_leaf_spine(&cfg);
        let spine1: &Switch = plan.world.get(plan.spines[1]).unwrap();
        // Spine 1 port l -> leaf l, arriving on leaf port hpl+1.
        for l in 0..cfg.n_leaves {
            assert_eq!(spine1.port(l).peer, plan.leaves[l]);
            assert_eq!(
                spine1.port(l).peer_in_port,
                PortId((cfg.hosts_per_leaf + 1) as u16)
            );
        }
    }

    #[test]
    fn fat_tree_k32_matches_paper() {
        let ft = FatTreeDims::new(32);
        assert_eq!(ft.n_tors(), 512);
        assert_eq!(ft.n_spines(), 512);
        assert_eq!(ft.n_cores(), 256);
        assert_eq!(ft.n_hosts(), 8192);
        assert_eq!(ft.hosts_per_tor(), 16);
        assert_eq!(ft.max_equal_cost_paths(), 256);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_odd_radix_rejected() {
        FatTreeDims::new(3);
    }
}

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
use crate::switch::{PfcConfig, RouteEntry, Switch, SwitchConfig};
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

    // Create switches (empty; ports wired below).
    let leaf_ids: Vec<NodeId> = (0..cfg.n_leaves)
        .map(|l| {
            world.add(Box::new(Switch::new(&SwitchConfig {
                buffer_bytes: cfg.buffer_bytes,
                lb: cfg.lb,
                oracle_loss_notify: cfg.oracle_loss_notify,
                seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(l as u64),
                ecmp_shift: 0,
                pfc: cfg.pfc,
                ctrl_priority: cfg.ctrl_priority,
            })))
        })
        .collect();
    let spine_ids: Vec<NodeId> = (0..cfg.n_spines)
        .map(|s| {
            world.add(Box::new(Switch::new(&SwitchConfig {
                buffer_bytes: cfg.buffer_bytes,
                lb: cfg.lb,
                oracle_loss_notify: cfg.oracle_loss_notify,
                seed: cfg
                    .seed
                    .wrapping_mul(0x85EB_CA6B)
                    .wrapping_add(1_000_000 + s as u64),
                ecmp_shift: 0,
                pfc: cfg.pfc,
                ctrl_priority: cfg.ctrl_priority,
            })))
        })
        .collect();

    let mut hosts = Vec::with_capacity(n_hosts);

    // Wire leaves: ports [0..hpl) host-facing, ports [hpl..hpl+n_spines) uplinks.
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        // Temporarily move the switch out to mutate it.
        let mut sw = Switch::new(&SwitchConfig::default());
        std::mem::swap(world.get_mut::<Switch>(leaf).expect("leaf exists"), &mut sw);

        for j in 0..cfg.hosts_per_leaf {
            let h = l * cfg.hosts_per_leaf + j;
            let host_node = host_nodes[h];
            let idx = sw.add_port(EgressPort::new(host_node, PortId(0), cfg.host_link), true);
            debug_assert_eq!(idx, j);
            hosts.push(HostAttachment {
                host: HostId(h as u32),
                node: host_node,
                tor: leaf,
                tor_port: PortId(j as u16),
                link: cfg.host_link,
            });
        }
        let mut uplinks = Vec::with_capacity(cfg.n_spines);
        for (s, &spine) in spine_ids.iter().enumerate() {
            // Our packets arrive at the spine on its port `l`.
            let idx = sw.add_port(
                EgressPort::new(spine, PortId(l as u16), cfg.fabric_link),
                false,
            );
            debug_assert_eq!(idx, cfg.hosts_per_leaf + s);
            uplinks.push(idx);
        }
        sw.set_uplinks(uplinks);

        // Routes: local hosts to their port; everyone else via uplinks.
        for h in 0..n_hosts {
            let entry = if h / cfg.hosts_per_leaf == l {
                RouteEntry::Port((h % cfg.hosts_per_leaf) as u16)
            } else {
                RouteEntry::Uplinks
            };
            sw.set_route(HostId(h as u32), entry);
        }
        if cfg.ecn {
            sw.set_ecn_all_ports(|p| Some(EcnConfig::for_bandwidth(p.link.bandwidth_bps)));
        }
        std::mem::swap(world.get_mut::<Switch>(leaf).expect("leaf exists"), &mut sw);
    }

    // Wire spines: port l towards leaf l (arriving on the leaf's uplink
    // port for this spine).
    for (s, &spine) in spine_ids.iter().enumerate() {
        let mut sw = Switch::new(&SwitchConfig::default());
        std::mem::swap(
            world.get_mut::<Switch>(spine).expect("spine exists"),
            &mut sw,
        );
        for (l, &leaf) in leaf_ids.iter().enumerate() {
            let leaf_in_port = PortId((cfg.hosts_per_leaf + s) as u16);
            let idx = sw.add_port(EgressPort::new(leaf, leaf_in_port, cfg.fabric_link), false);
            debug_assert_eq!(idx, l);
        }
        for h in 0..n_hosts {
            sw.set_route(
                HostId(h as u32),
                RouteEntry::Port((h / cfg.hosts_per_leaf) as u16),
            );
        }
        if cfg.ecn {
            sw.set_ecn_all_ports(|p| Some(EcnConfig::for_bandwidth(p.link.bandwidth_bps)));
        }
        std::mem::swap(
            world.get_mut::<Switch>(spine).expect("spine exists"),
            &mut sw,
        );
    }

    FabricPlan {
        world,
        hosts,
        leaves: leaf_ids,
        spines: spine_ids,
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

#[cfg(test)]
mod tests {
    use super::*;

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

//! Cluster assembly: fabric + NICs + Themis middleware + driver slot.
//!
//! One body, [`assemble`], builds every cluster. The paper's deployment
//! claim (§3.2) is that Themis needs programmability at the ToR only, so
//! a 2-tier and a 3-tier fabric differ in what a [`Topology`] answers —
//! the netsim plan, which switches are ToRs, the shard partition unit
//! and the spray mode the ToR must use — and in nothing else.

use crate::scheme::Scheme;
use netsim::fat_tree::{build_fat_tree, FatTreeConfig, AGG_ECMP_SHIFT};
use netsim::port::EgressPort;
use netsim::switch::Switch;
use netsim::topology::{build_leaf_spine, LeafSpineConfig};
use netsim::types::{HostId, NodeId};
use netsim::world::{ShardPlan, World, CONTROL_PLANE_LATENCY};
use rnic::{Nic, NicConfig, NicTelem, TransportMode};
use simcore::time::TimeDelta;
use themis_core::themis_s::SprayMode;
use themis_core::{ThemisConfig, ThemisMiddleware, ThemisTelem};

/// Event-ring capacity of every cluster's telemetry sink: large enough
/// to hold the full anomaly tail of a figure run, small enough that the
/// ring stays cache-resident.
pub const EVENT_RING_CAPACITY: usize = 4096;

/// Why a cluster cannot be assembled, or an accessor cannot answer:
/// every input-derived failure of this module is a value here, never a
/// panic. Binaries print it and exit 2; `themis_serve` replies with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The named entity id does not resolve to a [`Switch`] in this
    /// world (deleted, never installed, or a non-switch slot).
    StaleSwitch(NodeId),
    /// The named host index is out of range for this cluster.
    NoSuchHost(HostId),
    /// A leaf-spine dimension (named) is zero.
    EmptyFabric(&'static str),
    /// The fat-tree radix is odd, below 4, or `k/2` is not a power of
    /// two (the two ECMP stages are XOR-steered).
    Radix(usize),
    /// A link has zero bandwidth.
    ZeroLinkRate,
    /// The NIC line rate differs from the access link's bandwidth.
    LineRateMismatch {
        /// NIC line rate (bit/s).
        nic_bps: u64,
        /// Host link bandwidth (bit/s).
        link_bps: u64,
    },
    /// The scheme deploys Themis but the equal-cost path count is not a
    /// power of two in `1..=256` (`PSN mod N` must survive the 24-bit
    /// PSN wrap and fit the 1-byte PathMap index).
    PathCount(usize),
    /// An explicit shard count no partition can honour: zero, or more
    /// shards than the fabric has hosts.
    Shards {
        /// Requested shard count.
        shards: usize,
        /// Hosts in the fabric.
        hosts: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ClusterError::StaleSwitch(n) => {
                write!(f, "entity {} is not a live switch in this cluster", n.0)
            }
            ClusterError::NoSuchHost(h) => {
                write!(f, "host {} is out of range for this cluster", h.0)
            }
            ClusterError::EmptyFabric(what) => {
                write!(
                    f,
                    "the fabric has 0 {what}; leaves, hosts per leaf and spines must all be >= 1"
                )
            }
            ClusterError::Radix(k) => write!(
                f,
                "--k must be even with k/2 a power of two (4, 8, 16, 32), got {k}"
            ),
            ClusterError::ZeroLinkRate => write!(f, "link bandwidth must be > 0 bit/s"),
            ClusterError::LineRateMismatch { nic_bps, link_bps } => write!(
                f,
                "NIC line rate ({nic_bps} bit/s) must match the access link ({link_bps} bit/s)"
            ),
            ClusterError::PathCount(n) => write!(
                f,
                "Themis path count must be a power of two in 1..=256, got {n} equal-cost paths"
            ),
            ClusterError::Shards { shards: 0, .. } => {
                write!(f, "--shards must be >= 1 (1 = serial engine)")
            }
            ClusterError::Shards { shards, hosts } => write!(
                f,
                "--shards {shards} exceeds the fabric's {hosts} hosts; shards partition hosts"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Reject an explicit shard count no partition can honour. [`assemble`]
/// itself *clamps* (`auto` and `THEMIS_SHARDS` are ceilings that may
/// exceed any fabric); the front doors that take `--shards N` from a
/// user (`themis_load`, `themis_serve`) call this first.
pub fn check_shards(shards: usize, hosts: usize) -> Result<(), ClusterError> {
    if shards == 0 || shards > hosts {
        return Err(ClusterError::Shards { shards, hosts });
    }
    Ok(())
}

/// The fabric a cluster is assembled on: the existing netsim config of
/// either tier count, borrowed.
#[derive(Debug, Clone, Copy)]
pub enum Topology<'a> {
    /// 2-tier leaf-spine: ToRs are the leaves, shards partition leaves,
    /// the scheme's own spray mode stands.
    LeafSpine(&'a LeafSpineConfig),
    /// 3-tier fat-tree: ToRs are the edges, shards partition pods, and
    /// every Themis variant sprays through the two-tier PathMap — the
    /// source ToR cannot pick the whole path by egress selection, so it
    /// rewrites the UDP source port once and the edge and aggregation
    /// ECMP stages (reading decorrelated views of the hash) land the
    /// packet on the desired relative path.
    FatTree(&'a FatTreeConfig),
}

/// A checked [`Topology`] in numbers: what [`assemble`] needs besides
/// the built fabric.
pub(crate) struct Shape {
    /// Equal-cost path count.
    n_paths: usize,
    /// Shard partition units (leaves, or pods): the shard-count ceiling.
    units: usize,
    /// ToRs per partition unit (1, or `k/2`).
    tors_per_unit: usize,
    /// The middleware configuration every ToR gets, if the scheme
    /// deploys Themis.
    themis: Option<ThemisConfig>,
}

impl Topology<'_> {
    /// The one fabric-validity rule (clauses: [`assemble`], "Errors"): a
    /// handful of integer comparisons; nothing is built. The configs'
    /// `validate` methods call it so binaries can exit 2 before running.
    pub(crate) fn check(self, nic: &NicConfig, scheme: Scheme) -> Result<Shape, ClusterError> {
        let (host_link, fabric_link, n_paths, units, tors_per_unit, forced_spray) = match self {
            Topology::LeafSpine(c) => {
                let dims = [
                    (c.n_leaves, "leaves"),
                    (c.hosts_per_leaf, "hosts per leaf"),
                    (c.n_spines, "spines"),
                ];
                if let Some(&(_, what)) = dims.iter().find(|d| d.0 == 0) {
                    return Err(ClusterError::EmptyFabric(what));
                }
                (c.host_link, c.fabric_link, c.n_spines, c.n_leaves, 1, None)
            }
            Topology::FatTree(c) => {
                let m = c.k / 2;
                if c.k < 4 || !c.k.is_multiple_of(2) || !m.is_power_of_two() {
                    return Err(ClusterError::Radix(c.k));
                }
                let bits = m.trailing_zeros();
                let spray = SprayMode::PathMapTwoTier {
                    bits_stage1: bits,
                    shift_stage2: AGG_ECMP_SHIFT,
                    bits_stage2: bits,
                };
                (c.host_link, c.fabric_link, c.n_paths(), c.k, m, Some(spray))
            }
        };
        if host_link.bandwidth_bps == 0 || fabric_link.bandwidth_bps == 0 {
            return Err(ClusterError::ZeroLinkRate);
        }
        if nic.line_rate_bps != host_link.bandwidth_bps {
            return Err(ClusterError::LineRateMismatch {
                nic_bps: nic.line_rate_bps,
                link_bps: host_link.bandwidth_bps,
            });
        }
        // Last-hop RTT: 2 × (propagation + one MTU serialization). This is
        // the paper's Table 1 figure (2 µs at 400 Gbps → 100 queue entries);
        // `for_fabric` clamps the queue to the 127 entries the 1-byte
        // truncated PSN serial comparison of §3.3/§4 keeps unambiguous.
        let mtu_ser =
            TimeDelta::serialization(nic.mtu_payload as u64 + 64, host_link.bandwidth_bps);
        let last_hop_rtt =
            TimeDelta::from_nanos(2 * (host_link.latency.as_nanos() + mtu_ser.as_nanos()));
        let base = ThemisConfig::for_fabric(
            n_paths,
            host_link.bandwidth_bps,
            last_hop_rtt,
            nic.mtu_payload,
        );
        let themis = match scheme.themis_config(base) {
            None => None,
            Some(_) if !n_paths.is_power_of_two() || n_paths > 256 => {
                return Err(ClusterError::PathCount(n_paths));
            }
            Some(cfg) => Some(ThemisConfig {
                spray_mode: forced_spray.unwrap_or(cfg.spray_mode),
                ..cfg
            }),
        };
        Ok(Shape {
            n_paths,
            units,
            tors_per_unit,
            themis,
        })
    }
}

/// Everything needed to run a workload on a simulated cluster.
pub struct Cluster {
    /// The simulation world (switches + NICs installed, driver reserved).
    pub world: World,
    /// Host attachments, indexed by host id.
    pub hosts: Vec<HostId>,
    /// Leaf (ToR) switch entities.
    pub leaves: Vec<NodeId>,
    /// Spine switch entities.
    pub spines: Vec<NodeId>,
    /// Equal-cost path count.
    pub n_paths: usize,
    /// Reserved entity slot for the workload driver.
    pub driver: NodeId,
    /// The scheme the cluster was built for.
    pub scheme: Scheme,
    /// NIC configuration in force.
    pub nic_cfg: NicConfig,
    /// The telemetry sink of shard 0 (the driver's shard). In a serial
    /// build this is *the* cluster sink; in a sharded build it is where
    /// driver-side instruments report.
    pub telemetry: telemetry::Sink,
    /// One telemetry sink per shard (length 1 for a serial build). Every
    /// sink registers the same instrument names, so
    /// [`Cluster::snapshot_merged`] can fold them into one report.
    pub sinks: Vec<telemetry::Sink>,
}

impl Cluster {
    /// Checked switch access: resolves `id` to a live [`Switch`] or
    /// reports [`ClusterError::StaleSwitch`] when the id no longer names
    /// one (e.g. after a topology edit invalidated a cached core id).
    pub fn switch(&self, id: NodeId) -> Result<&Switch, ClusterError> {
        self.world
            .get::<Switch>(id)
            .ok_or(ClusterError::StaleSwitch(id))
    }

    /// All switch entity ids.
    pub fn all_switches(&self) -> Vec<NodeId> {
        self.leaves
            .iter()
            .chain(self.spines.iter())
            .copied()
            .collect()
    }

    /// Immutable NIC access.
    pub fn nic(&self, host: HostId) -> &Nic {
        self.world
            .get(NodeId(host.0))
            .expect("NIC installed for every host")
    }

    /// Snapshot this cluster's telemetry as one report: the serial sink
    /// directly, or the per-shard sinks merged by
    /// [`telemetry::RunReport::merge`]. A sharded run's merged report is
    /// byte-identical (once serialized) to the serial run's snapshot.
    pub fn snapshot_merged(&self) -> telemetry::RunReport {
        if self.sinks.len() == 1 {
            self.sinks[0].snapshot()
        } else {
            telemetry::RunReport::merge(self.sinks.iter().map(|s| s.snapshot()).collect())
        }
    }

    /// Aggregated Themis middleware stats across all ToRs (zeros when the
    /// scheme has no Themis).
    pub fn themis_stats(&self) -> ThemisAggregate {
        let mut agg = ThemisAggregate::default();
        for &leaf in &self.leaves {
            let Some(sw) = self.world.get::<Switch>(leaf) else {
                continue;
            };
            let Some(hook) = sw.hook() else { continue };
            let Some(m) = hook.as_any().downcast_ref::<ThemisMiddleware>() else {
                continue;
            };
            agg.sprayed += m.s.stats.sprayed;
            if let Some(d) = &m.d {
                agg.nacks_seen += d.stats.nacks_seen;
                agg.nacks_blocked += d.stats.nacks_blocked;
                agg.nacks_forwarded_valid += d.stats.nacks_forwarded_valid;
                agg.nacks_forwarded_unknown += d.stats.nacks_forwarded_unknown;
                agg.compensations += d.stats.compensations;
                agg.compensation_cancels += d.stats.compensation_cancels;
                agg.compensation_suppressed += d.stats.compensation_suppressed;
                agg.blocked_uncertain += d.stats.blocked_uncertain;
                agg.evictions_deferred += d.stats.evictions_deferred;
                agg.memory_bytes += m.memory_bytes() as u64;
            }
        }
        agg
    }
}

/// Fabric-wide Themis middleware counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThemisAggregate {
    /// Data packets sprayed by Themis-S instances.
    pub sprayed: u64,
    /// NACKs inspected by Themis-D instances.
    pub nacks_seen: u64,
    /// Invalid NACKs blocked.
    pub nacks_blocked: u64,
    /// Valid NACKs forwarded.
    pub nacks_forwarded_valid: u64,
    /// NACKs forwarded without a tPSN verdict.
    pub nacks_forwarded_unknown: u64,
    /// Compensated NACKs generated.
    pub compensations: u64,
    /// Compensations cancelled (BePSN arrived).
    pub compensation_cancels: u64,
    /// Compensation armings suppressed (blocked ePSN already past the ToR).
    pub compensation_suppressed: u64,
    /// NACKs blocked with an uncertain verdict (ring-overflow evictions
    /// destroyed the ePSN-era context).
    pub blocked_uncertain: u64,
    /// Guarded flow evictions refused because the entry still carried
    /// protocol obligations.
    pub evictions_deferred: u64,
    /// Total live Themis switch memory at run end.
    pub memory_bytes: u64,
}

/// Compute the per-shard-pair lookahead matrix `λ[i][j]` (row-major,
/// `n_shards × n_shards`, nanoseconds): the minimum latency of any
/// message a shard-`i` entity can address to a shard-`j` entity.
///
/// Three message classes cross shards at runtime:
/// * **Physical links** — every switch egress port and every NIC uplink
///   whose peer lives on another shard contributes its propagation
///   latency (serialization only adds on top, so the propagation alone
///   is a sound lower bound, even under fault-injected extra delay).
/// * **Control plane** — the driver exchanges setup/completion messages
///   with every NIC at [`CONTROL_PLANE_LATENCY`].
/// * **Oracle loss notifications** — with `oracle_loss_notify`, any
///   switch may message any NIC's shard at [`CONTROL_PLANE_LATENCY`].
///
/// Pairs that never exchange messages stay `u64::MAX` (no constraint);
/// the engine's min-plus closure handles the saturation. The diagonal is
/// left unconstrained too: intra-shard events go straight into the local
/// queue and self-influence via other shards is what the closure's cycle
/// terms compute.
fn lookahead_matrix(
    world: &World,
    shard_of: &[u16],
    n_shards: usize,
    driver: NodeId,
    oracle_loss_notify: bool,
) -> Vec<u64> {
    let n = n_shards;
    let mut lam = vec![u64::MAX; n * n];
    let tighten = |lam: &mut Vec<u64>, from: usize, to: usize, nanos: u64| {
        if from != to {
            let e = &mut lam[from * n + to];
            *e = (*e).min(nanos);
        }
    };
    let cpl = CONTROL_PLANE_LATENCY.as_nanos();
    let driver_shard = shard_of[driver.index()] as usize;
    let mut shard_has_nic = vec![false; n];
    for id in 0..world.len() {
        let node = NodeId(id as u32);
        let me = shard_of[id] as usize;
        if let Some(sw) = world.get::<Switch>(node) {
            for p in 0..sw.num_ports() {
                let port = sw.port(p);
                let peer = shard_of[port.peer.index()] as usize;
                tighten(&mut lam, me, peer, port.link.latency.as_nanos());
            }
        } else if let Some(nic) = world.get::<Nic>(node) {
            shard_has_nic[me] = true;
            let port = nic.uplink();
            let peer = shard_of[port.peer.index()] as usize;
            tighten(&mut lam, me, peer, port.link.latency.as_nanos());
            // Completion notifications NIC -> driver and control
            // messages driver -> NIC.
            tighten(&mut lam, me, driver_shard, cpl);
            tighten(&mut lam, driver_shard, me, cpl);
        }
    }
    if oracle_loss_notify {
        for id in 0..world.len() {
            if world.get::<Switch>(NodeId(id as u32)).is_some() {
                let me = shard_of[id] as usize;
                for (s, &has) in shard_has_nic.iter().enumerate() {
                    if has {
                        tighten(&mut lam, me, s, cpl);
                    }
                }
            }
        }
    }
    lam
}

/// Assemble a cluster on `topology`: the fabric with the scheme's
/// switch policy, one NIC per host, Themis middleware on every ToR when
/// the scheme calls for it, and a reserved driver slot. In the returned
/// [`Cluster`], `leaves` are the ToRs and `spines` every other switch
/// (a fat-tree's aggregation tier, then its cores).
///
/// `n_shards` engine shards (1 = serial) partition the fabric by
/// [`Topology`] unit — clamped to the unit count: each leaf or pod, its
/// hosts and its pod-local switches land on one shard, the remaining
/// switches are spread round-robin, and the driver lives on shard 0.
/// Host links (and a pod's edge↔agg links) never cross shards, so the
/// only cut edges are fabric links and control-plane messages. Every
/// shard gets its own telemetry sink with the full instrument set
/// registered, which [`Cluster::snapshot_merged`] folds back into a
/// single report that is byte-identical to a serial run's.
///
/// # Errors
///
/// The one fabric-validity rule, checked before anything is built:
/// fabric shape (no empty leaf-spine dimension; fat-tree radix even,
/// ≥ 4, `k/2` a power of two), link rates nonzero, NIC line rate equal
/// to the access link's, and — only for schemes that deploy Themis — a
/// power-of-two path count ≤ 256. [`crate::ExperimentConfig::validate`],
/// [`crate::LoadConfig::validate`] and
/// [`crate::ServiceConfig::validate`] apply the same rule without
/// building.
pub fn assemble(
    topology: Topology<'_>,
    nic_cfg: NicConfig,
    scheme: Scheme,
    n_shards: usize,
) -> Result<Cluster, ClusterError> {
    // The scheme supplies the NIC half of its configuration (transport
    // mode, sender entropy, OOO reaction) before anything derives from it.
    let nic_cfg = scheme.nic_config(nic_cfg);
    let shape = topology.check(&nic_cfg, scheme)?;
    // The Ideal transport needs drop notifications from switches.
    let oracle_loss_notify = nic_cfg.transport == TransportMode::IdealOracle;
    let lb = scheme.lb_policy();
    // `spines` is every non-ToR switch: its first `pod_local` entries
    // (the fat-tree's aggregation tier, pod-major like the ToRs) share
    // their pod's shard, the rest are spread round-robin.
    let (mut world, hosts, tors, spines, pod_local) = match topology {
        Topology::LeafSpine(c) => {
            let p = build_leaf_spine(&LeafSpineConfig {
                lb,
                oracle_loss_notify,
                ..c.clone()
            });
            (p.world, p.hosts, p.leaves, p.spines, 0)
        }
        Topology::FatTree(c) => {
            let p = build_fat_tree(&FatTreeConfig {
                lb,
                oracle_loss_notify,
                ..c.clone()
            });
            let (mut spines, pod_local) = (p.aggs, p.edges.len());
            spines.extend(p.cores);
            (p.world, p.hosts, p.edges, spines, pod_local)
        }
    };

    let n_shards = n_shards.clamp(1, shape.units);

    // Telemetry: one sink per shard; each shard engine mirrors its clock
    // and dispatch stamp into its own sink. All instrument families are
    // registered on every sink — in the same order — so the per-shard
    // registries carry identical name sets and merge cleanly.
    let sinks: Vec<telemetry::Sink> = (0..n_shards)
        .map(|_| telemetry::Sink::new(EVENT_RING_CAPACITY))
        .collect();
    world.engine.attach_clock(sinks[0].clock());
    world.engine.attach_stamp(sinks[0].stamp());
    let switch_telems: Vec<netsim::telem::SwitchTelem> = sinks
        .iter()
        .map(netsim::telem::SwitchTelem::register)
        .collect();

    // Unit-aligned partition: `tors` and the pod-local `spines` are
    // unit-major, so a unit's whole star maps to one shard.
    let unit_shard = |i: usize| ((i / shape.tors_per_unit) * n_shards / shape.units) as u16;
    let mut shard_of = vec![0u16; world.len() + 1]; // +1 for the driver slot
    for (i, &tor) in tors.iter().enumerate() {
        shard_of[tor.index()] = unit_shard(i);
    }
    for (i, &sw) in spines.iter().enumerate() {
        shard_of[sw.index()] = match i.checked_sub(pod_local) {
            None => unit_shard(i),
            Some(j) => (j % n_shards) as u16,
        };
    }
    for att in &hosts {
        shard_of[att.node.index()] = shard_of[att.tor.index()];
    }

    for &sw_id in tors.iter().chain(spines.iter()) {
        world
            .get_mut::<Switch>(sw_id)
            .expect("the netsim builder installed a switch at every id it returned")
            .set_telemetry(switch_telems[shard_of[sw_id.index()] as usize].clone());
    }

    // Themis middleware on every ToR — and only there.
    if let Some(themis_cfg) = shape.themis {
        let themis_telems: Vec<ThemisTelem> = sinks.iter().map(ThemisTelem::register).collect();
        for &tor in &tors {
            let sw = world
                .get_mut::<Switch>(tor)
                .expect("the netsim builder installed a switch at every ToR id");
            let mut mw = ThemisMiddleware::new(themis_cfg);
            mw.set_telemetry(themis_telems[shard_of[tor.index()] as usize].clone());
            sw.set_hook(Box::new(mw));
        }
    }

    // NICs.
    let nic_telems: Vec<NicTelem> = sinks.iter().map(NicTelem::register).collect();
    for att in &hosts {
        let port = EgressPort::new(att.tor, att.tor_port, att.link);
        let mut nic = Nic::new(att.host, nic_cfg, port);
        nic.set_telemetry(nic_telems[shard_of[att.node.index()] as usize].clone());
        world.install(att.node, Box::new(nic));
    }

    let driver = world.reserve();

    if n_shards > 1 {
        let matrix = lookahead_matrix(&world, &shard_of, n_shards, driver, oracle_loss_notify);
        let mut plan = ShardPlan::new(shard_of, n_shards, matrix);
        plan.telem = sinks.iter().map(|s| (s.clock(), s.stamp())).collect();
        world.set_shard_plan(plan);
    }

    Ok(Cluster {
        world,
        hosts: hosts.iter().map(|a| a.host).collect(),
        leaves: tors,
        spines,
        n_paths: shape.n_paths,
        driver,
        scheme,
        nic_cfg,
        telemetry: sinks[0].clone(),
        sinks,
    })
}

/// [`assemble`] on a leaf-spine fabric, serial. Panics with the
/// [`ClusterError`] on an invalid configuration (programmer error).
pub fn build_cluster(fabric_cfg: &LeafSpineConfig, nic_cfg: NicConfig, scheme: Scheme) -> Cluster {
    build_cluster_sharded(fabric_cfg, nic_cfg, scheme, 1)
}

/// [`assemble`] on a leaf-spine fabric over `n_shards` engine shards
/// (clamped to the leaf count). Panics like [`build_cluster`].
pub fn build_cluster_sharded(
    fabric_cfg: &LeafSpineConfig,
    nic_cfg: NicConfig,
    scheme: Scheme,
    n_shards: usize,
) -> Cluster {
    assemble(Topology::LeafSpine(fabric_cfg), nic_cfg, scheme, n_shards)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`assemble`] on a fat-tree over `n_shards` engine shards (clamped to
/// the pod count). Panics like [`build_cluster`].
pub fn build_fat_tree_cluster_sharded(
    fabric_cfg: &FatTreeConfig,
    nic_cfg: NicConfig,
    scheme: Scheme,
    n_shards: usize,
) -> Cluster {
    assemble(Topology::FatTree(fabric_cfg), nic_cfg, scheme, n_shards)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::aggregate_nics;
    use crate::session::{Session, Start};
    use collectives::ring::ring_once;
    use simcore::time::{Nanos, TimeDelta};

    const GBPS100: u64 = 100_000_000_000;

    /// {motivation, paper, fat-tree k=4, k=8} × every scheme × shards
    /// {1, 2, units+1}: the one body serves them all.
    #[test]
    fn one_assembly_serves_every_topology_scheme_and_shard_count() {
        let (mot, paper) = (LeafSpineConfig::motivation(), LeafSpineConfig::paper_eval());
        let (k4, k8) = (FatTreeConfig::small(4), FatTreeConfig::small(8));
        // (topology, line rate, partition units, hosts, paths)
        let rows = [
            (Topology::LeafSpine(&mot), GBPS100, 4, 8, 2),
            (Topology::LeafSpine(&paper), 4 * GBPS100, 16, 256, 16),
            (Topology::FatTree(&k4), GBPS100, 4, 16, 4),
            (Topology::FatTree(&k8), GBPS100, 8, 128, 16),
        ];
        for (topology, line, units, n_hosts, n_paths) in rows {
            let three_tier = matches!(topology, Topology::FatTree(_));
            for scheme in Scheme::ALL {
                for shards in [1, 2, units + 1] {
                    let at = format!("{topology:?} / {} / {shards} shard(s)", scheme.label());
                    let c = assemble(topology, NicConfig::nic_sr(line), scheme, shards)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!((c.hosts.len(), c.n_paths), (n_hosts, n_paths), "{at}");

                    // Hooks on ToRs only, and only for Themis variants;
                    // a 3-tier ToR always sprays through the two-tier
                    // PathMap, a 2-tier ToR never does.
                    let base = ThemisConfig::for_fabric(n_paths, line, TimeDelta::ZERO, 1500);
                    let deploys = scheme.themis_config(base).is_some();
                    for &tor in &c.leaves {
                        let sw = c.switch(tor).expect("live ToR");
                        assert_eq!(sw.lb(), scheme.lb_policy(), "{at}");
                        assert_eq!(sw.hook().is_some(), deploys, "{at}");
                        if let Some(hook) = sw.hook() {
                            let mw: &ThemisMiddleware =
                                hook.as_any().downcast_ref().expect("Themis hook");
                            let two_tier =
                                matches!(mw.config().spray_mode, SprayMode::PathMapTwoTier { .. });
                            assert_eq!(two_tier, three_tier, "{at}");
                        }
                    }
                    for &s in &c.spines {
                        assert!(c.switch(s).expect("live switch").hook().is_none(), "{at}");
                    }
                    if !deploys {
                        assert_eq!(c.themis_stats(), ThemisAggregate::default(), "{at}");
                    }

                    // The shard count is clamped to the partition units,
                    // serial installs no plan, every shard owns a ToR,
                    // every host shares its ToR's shard, driver on 0.
                    let want = shards.min(units);
                    assert_eq!(c.sinks.len(), want, "{at}");
                    let plan = c.world.shard_plan();
                    assert_eq!(plan.is_none(), want == 1, "{at}");
                    for &h in &c.hosts {
                        // NICs are installed at NodeId(host).
                        let tor = c.nic(h).uplink().peer;
                        assert!(
                            c.leaves.contains(&tor),
                            "{at}: host {h:?} hangs off {tor:?}"
                        );
                        if let Some(p) = plan {
                            assert_eq!(p.owner[h.index()], p.owner[tor.index()], "{at}");
                        }
                    }
                    if let Some(p) = plan {
                        assert_eq!(p.n_shards, want, "{at}");
                        assert_eq!(p.owner[c.driver.index()], 0, "{at}");
                        for shard in 0..want as u16 {
                            let owns = |t: &NodeId| p.owner[t.index()] == shard;
                            assert!(c.leaves.iter().any(owns), "{at}: shard {shard} is empty");
                        }
                    }
                }
            }
        }
    }

    /// Every clause of the validity rule is a typed error, from the one
    /// `check` that `assemble` and the configs' `validate` share.
    #[test]
    fn invalid_inputs_are_typed_errors_not_panics() {
        let mot = LeafSpineConfig::motivation;
        let nic = NicConfig::nic_sr(GBPS100);
        let ls = |c: &LeafSpineConfig, scheme| {
            assemble(Topology::LeafSpine(c), nic, scheme, 1)
                .map(|_| ())
                .unwrap_err()
        };
        for (cfg, what) in [
            (
                LeafSpineConfig {
                    n_leaves: 0,
                    ..mot()
                },
                "leaves",
            ),
            (
                LeafSpineConfig {
                    hosts_per_leaf: 0,
                    ..mot()
                },
                "hosts per leaf",
            ),
            (
                LeafSpineConfig {
                    n_spines: 0,
                    ..mot()
                },
                "spines",
            ),
        ] {
            assert_eq!(ls(&cfg, Scheme::Ecmp), ClusterError::EmptyFabric(what));
        }
        let mut dead = mot();
        dead.fabric_link.bandwidth_bps = 0;
        assert_eq!(ls(&dead, Scheme::Ecmp), ClusterError::ZeroLinkRate);
        dead = mot();
        dead.host_link.bandwidth_bps = 0;
        assert_eq!(ls(&dead, Scheme::Ecmp), ClusterError::ZeroLinkRate);
        assert_eq!(
            ls(&LeafSpineConfig::paper_eval(), Scheme::Ecmp),
            ClusterError::LineRateMismatch {
                nic_bps: GBPS100,
                link_bps: 4 * GBPS100
            }
        );
        // The path-count clause binds only schemes that deploy Themis.
        for n_spines in [3, 200, 512] {
            let odd = LeafSpineConfig { n_spines, ..mot() };
            assert_eq!(ls(&odd, Scheme::Themis), ClusterError::PathCount(n_spines));
            assert_eq!(
                ls(&odd, Scheme::SprayNoFilter),
                ClusterError::PathCount(n_spines)
            );
            assert!(assemble(Topology::LeafSpine(&odd), nic, Scheme::Reps, 1).is_ok());
        }
        for k in [0, 2, 5, 6, 12] {
            let err = assemble(
                Topology::FatTree(&FatTreeConfig::small(k)),
                nic,
                Scheme::Ecmp,
                1,
            );
            assert_eq!(err.map(|_| ()).unwrap_err(), ClusterError::Radix(k));
        }
        // k=64 is a fine fabric with 1024 paths: too many for Themis only.
        let k64 = FatTreeConfig::small(64);
        let check = |scheme| Topology::FatTree(&k64).check(&nic, scheme).map(|_| ());
        assert_eq!(check(Scheme::Themis), Err(ClusterError::PathCount(1024)));
        assert_eq!(check(Scheme::AdaptiveRouting), Ok(()));

        assert!(check_shards(1, 16).is_ok() && check_shards(16, 16).is_ok());
        for shards in [0, 17] {
            let err = ClusterError::Shards { shards, hosts: 16 };
            assert_eq!(check_shards(shards, 16), Err(err));
        }
    }

    #[test]
    #[should_panic(expected = "line rate")]
    fn the_panicking_builders_panic_with_the_error_s_display() {
        build_cluster(
            &LeafSpineConfig::motivation(),
            NicConfig::nic_sr(4 * GBPS100),
            Scheme::Ecmp,
        );
    }

    /// Run an inter-pod ring (one host per pod) on a k=4 fat-tree.
    fn run_interpod_ring(scheme: Scheme, bytes: u64) -> (Cluster, Option<Nanos>) {
        let cfg = FatTreeConfig::small(4);
        let cluster = build_fat_tree_cluster_sharded(&cfg, NicConfig::nic_sr(GBPS100), scheme, 1);
        // One host per pod, same local index: 0, 4, 8, 12.
        let hosts: Vec<HostId> = (0..4).map(|p| HostId(p * 4)).collect();
        let cluster = run_ring(cluster, &hosts, bytes);
        let ct = crate::experiment::driver_of(&cluster).tail_completion();
        (cluster, ct)
    }

    /// One `ring_once` over `hosts`, run for two simulated seconds.
    fn run_ring(cluster: Cluster, hosts: &[HostId], bytes: u64) -> Cluster {
        let mut session = Session::new(cluster, 5, TimeDelta::from_secs(2));
        session.post(hosts, ring_once(hosts.len(), bytes), Start::WithRun);
        session.kick_off();
        session.run_to(Nanos::from_secs(2));
        session.cluster
    }

    #[test]
    fn fat_tree_interpod_ring_completes_under_themis_without_retx() {
        let (cluster, ct) = run_interpod_ring(Scheme::Themis, 4 << 20);
        assert!(ct.is_some(), "ring must complete");
        let agg = cluster.themis_stats();
        assert!(agg.sprayed > 0, "two-tier PathMap spraying active");
        assert!(
            agg.nacks_blocked > 0,
            "4-path spraying reorders; invalid NACKs must be blocked: {agg:?}"
        );
        let nics = aggregate_nics(&cluster);
        assert_eq!(nics.retx_packets, 0, "no NACK reaches a sender");
        // All four cores carried traffic: the composite PathMap covers
        // the full path set.
        let core_rx: Vec<u64> = cluster.spines[8..]
            .iter()
            .map(|&c| {
                cluster
                    .switch(c)
                    .unwrap_or_else(|e| panic!("core id must stay live: {e}"))
                    .stats
                    .rx_packets
            })
            .collect();
        assert!(
            core_rx.iter().all(|&rx| rx > 0),
            "every core must carry sprayed traffic: {core_rx:?}"
        );
    }

    #[test]
    fn fat_tree_themis_not_slower_than_adaptive_routing_interpod() {
        let bytes = 4 << 20;
        let (_, themis_ct) = run_interpod_ring(Scheme::Themis, bytes);
        let (ar_cluster, ar_ct) = run_interpod_ring(Scheme::AdaptiveRouting, bytes);
        let nics = aggregate_nics(&ar_cluster);
        assert!(
            nics.retx_packets > 0,
            "AR over 3 tiers reorders and triggers spurious retx"
        );
        let (t, a) = (themis_ct.unwrap(), ar_ct.unwrap());
        assert!(
            t <= a,
            "Themis ({t}) must not lose to AR ({a}) on the fat-tree"
        );
    }

    #[test]
    fn fat_tree_intra_pod_flows_also_work_under_themis() {
        let cfg = FatTreeConfig::small(4);
        let nic = NicConfig::nic_sr(GBPS100);
        let cluster = build_fat_tree_cluster_sharded(&cfg, nic, Scheme::Themis, 1);
        // Host 0 (edge 0) -> host 2 (edge 1), same pod: only the agg
        // stage matters physically, but mod-N spraying still recovers.
        let cluster = run_ring(cluster, &[HostId(0), HostId(2)], 2 << 20);
        let d = crate::experiment::driver_of(&cluster);
        assert!(d.all_complete(), "intra-pod traffic must complete");
        // Cores untouched by intra-pod flows.
        for &c in &cluster.spines[8..] {
            let sw: &Switch = cluster.world.get(c).unwrap();
            assert_eq!(sw.stats.rx_packets, 0);
        }
    }
}

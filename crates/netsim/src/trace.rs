//! Fabric-wide statistics aggregation and the per-switch drop log's
//! record types.
//!
//! [`fabric_summary`] collects per-switch counters into a
//! [`FabricSummary`] after a run — the raw material for the
//! drop/mark/block columns of the experiment reports.

use crate::switch::Switch;
use crate::types::NodeId;
use crate::world::World;
use simcore::time::Nanos;

/// Why a switch dropped a packet (one entry per [`DropRecord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Shared buffer exhausted.
    Buffer,
    /// No route for the destination.
    NoRoute,
    /// Targeted `(qp, psn)` loss injection.
    Targeted,
    /// Random per-port loss injection.
    Injected,
    /// Egress port administratively down (link-failure blackhole).
    PortDown,
    /// Reverse-path (ACK/NACK/CNP) corruption loss injection.
    ReverseCorrupt,
}

/// One dropped packet, as recorded in a switch's always-on drop log.
///
/// The log is the ground truth the conformance oracle checks loss
/// recovery and packet conservation against: every drop of any cause
/// appends exactly one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// When the packet was dropped.
    pub at: Nanos,
    /// Connection.
    pub qp: crate::types::QpId,
    /// PSN for data packets, carried ePSN for ACK/NACK, 0 otherwise.
    pub psn: u32,
    /// Whether the dropped packet was a data packet.
    pub data: bool,
    /// Why it was dropped.
    pub cause: DropCause,
}

/// Aggregated counters across a set of switches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricSummary {
    /// Packets received by all switches.
    pub rx_packets: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Drops due to full shared buffers.
    pub drops_buffer: u64,
    /// Drops from targeted loss injection.
    pub drops_targeted: u64,
    /// Drops due to missing routes (should be zero in healthy runs).
    pub drops_no_route: u64,
    /// Data packets ECN-marked.
    pub ecn_marked: u64,
    /// Reverse-direction packets blocked by ToR hooks (invalid NACKs).
    pub hook_blocked: u64,
    /// Packets originated by ToR hooks (compensated NACKs).
    pub hook_emitted: u64,
    /// Peak shared-buffer usage over all switches, in bytes.
    pub peak_buffer_bytes: u64,
}

impl FabricSummary {
    /// Total packet drops of any cause.
    pub fn total_drops(&self) -> u64 {
        self.drops_buffer + self.drops_targeted + self.drops_no_route
    }
}

/// Aggregate counters from the given switches.
pub fn fabric_summary(world: &World, switches: &[NodeId]) -> FabricSummary {
    let mut sum = FabricSummary::default();
    for &id in switches {
        let Some(sw) = world.get::<Switch>(id) else {
            continue;
        };
        sum.rx_packets += sw.stats.rx_packets;
        sum.forwarded += sw.stats.forwarded;
        sum.drops_buffer += sw.stats.drops_buffer;
        sum.drops_targeted += sw.stats.drops_targeted;
        sum.drops_no_route += sw.stats.drops_no_route;
        sum.hook_blocked += sw.stats.hook_blocked;
        sum.hook_emitted += sw.stats.hook_emitted;
        sum.peak_buffer_bytes = sum.peak_buffer_bytes.max(sw.buffer().peak_used);
        for p in 0..sw.num_ports() {
            sum.ecn_marked += sw.port(p).stats.ecn_marked;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_leaf_spine, LeafSpineConfig};

    #[test]
    fn summary_over_idle_fabric_is_zero() {
        let plan = build_leaf_spine(&LeafSpineConfig::motivation());
        let all: Vec<NodeId> = plan
            .leaves
            .iter()
            .chain(plan.spines.iter())
            .copied()
            .collect();
        let s = fabric_summary(&plan.world, &all);
        assert_eq!(s, FabricSummary::default());
        assert_eq!(s.total_drops(), 0);
    }

    #[test]
    fn missing_entities_are_skipped() {
        let plan = build_leaf_spine(&LeafSpineConfig::motivation());
        // Host slots are reserved but empty; including them must not panic.
        let mut ids: Vec<NodeId> = (0..plan.world.len() as u32).map(NodeId).collect();
        ids.push(NodeId(9999)); // out of range: also skipped
        let s = fabric_summary(&plan.world, &ids);
        assert_eq!(s.total_drops(), 0);
    }
}

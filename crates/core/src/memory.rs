//! The §4 switch-memory overhead model.
//!
//! Reproduces the paper's estimate, Table 1 reference values included:
//!
//! ```text
//! M_PathMap = N_paths × 2 B
//! N_entries = ceil(BW × RTT_last × F / MTU)
//! M_QP      = 20 B + N_entries × 1 B
//! M_total   = M_PathMap + M_QP × N_QP × N_NIC
//! ```
//!
//! At the reference point (N_paths = 256, BW = 400 Gbps, RTT = 2 µs,
//! F = 1.5, MTU = 1500 B, 16 NICs/ToR, 100 cross-rack QPs/NIC) this yields
//! 192 512 B ≈ 193 KB — a fraction of a percent of modern Tofino SRAM.

use crate::flow_table::ENTRY_OVERHEAD_BYTES;
use crate::psn_queue::PsnQueue;
use simcore::time::TimeDelta;

/// Inputs of the §4 model (symbols of Table 1).
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    /// N_paths: equal-cost paths (PathMap entries).
    pub n_paths: usize,
    /// BW: last-hop bandwidth in bits/s.
    pub bw_bps: u64,
    /// RTT_last: last-hop round-trip time.
    pub rtt_last: TimeDelta,
    /// MTU in bytes.
    pub mtu: u32,
    /// F: queue expansion factor ×100 (150 = 1.5).
    pub f_times_100: u32,
    /// N_NIC: NICs per ToR.
    pub n_nic: usize,
    /// N_QP: cross-rack QPs per NIC.
    pub n_qp: usize,
}

impl MemoryModel {
    /// The Table 1 reference values.
    ///
    /// ```
    /// use themis_core::memory::MemoryModel;
    /// let m = MemoryModel::table1_reference();
    /// assert_eq!(m.total_bytes(), 192_512); // ≈193 KB, as §4 reports
    /// ```
    pub fn table1_reference() -> MemoryModel {
        MemoryModel {
            n_paths: 256,
            bw_bps: 400_000_000_000,
            rtt_last: TimeDelta::from_micros(2),
            mtu: 1500,
            f_times_100: 150,
            n_nic: 16,
            n_qp: 100,
        }
    }

    /// N_entries: PSN-queue slots per QP.
    pub fn n_entries(&self) -> usize {
        PsnQueue::capacity_for(self.bw_bps, self.rtt_last, self.mtu, self.f_times_100)
    }

    /// M_PathMap in bytes.
    pub fn pathmap_bytes(&self) -> usize {
        self.n_paths * 2
    }

    /// M_QP in bytes: 20 B flow-table entry + 1 B per queue slot.
    pub fn per_qp_bytes(&self) -> usize {
        ENTRY_OVERHEAD_BYTES + self.n_entries()
    }

    /// M_total in bytes (Eq. 4).
    pub fn total_bytes(&self) -> usize {
        self.pathmap_bytes() + self.per_qp_bytes() * self.n_qp * self.n_nic
    }

    /// M_total as a fraction of a switch SRAM of `sram_bytes`.
    pub fn fraction_of_sram(&self, sram_bytes: u64) -> f64 {
        self.total_bytes() as f64 / sram_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reference_values() {
        let m = MemoryModel::table1_reference();
        assert_eq!(m.n_entries(), 100);
        assert_eq!(m.pathmap_bytes(), 512);
        assert_eq!(m.per_qp_bytes(), 120);
    }

    #[test]
    fn total_matches_paper_193kb() {
        let m = MemoryModel::table1_reference();
        // 512 + 120 × 100 × 16 = 192 512 B ≈ 193 KB (§4 example).
        assert_eq!(m.total_bytes(), 192_512);
        let kb = m.total_bytes() as f64 / 1000.0;
        assert!((kb - 193.0).abs() < 1.0, "≈193 KB, got {kb:.1}");
    }

    /// The analytic model against the live structures: a `FlowTable`
    /// provisioned for every QP under the ToR plus the `PathMap` occupy
    /// exactly the modeled bytes plus this implementation's per-flow
    /// extension (EXPERIMENTS.md "known deviations").
    #[test]
    fn live_structures_occupy_the_modeled_bytes_plus_the_extension() {
        use crate::flow_table::{FlowTable, ENTRY_EXTENSION_BYTES};
        let m = MemoryModel::table1_reference();
        let pathmap = crate::pathmap::PathMap::build(m.n_paths);
        assert_eq!(pathmap.memory_bytes(), m.pathmap_bytes());
        let mut table = FlowTable::new(m.n_entries());
        let n_flows = m.n_qp * m.n_nic;
        for qp in 0..n_flows as u32 {
            table.provision(netsim::types::QpId(qp));
        }
        let live = table.memory_bytes() + pathmap.memory_bytes();
        assert_eq!(live, m.total_bytes() + n_flows * ENTRY_EXTENSION_BYTES);
        assert_eq!(live, 221_312);
    }

    #[test]
    fn sram_fraction_is_small() {
        let m = MemoryModel::table1_reference();
        // Well under 1% of a 64 MB (or even 32 MB) Tofino SRAM.
        assert!(m.fraction_of_sram(64 * 1024 * 1024) < 0.01);
        assert!(m.fraction_of_sram(32 * 1024 * 1024) < 0.01);
    }

    #[test]
    fn scales_linearly_in_qps_and_nics() {
        let base = MemoryModel::table1_reference();
        let double_qp = MemoryModel { n_qp: 200, ..base };
        assert_eq!(
            double_qp.total_bytes() - double_qp.pathmap_bytes(),
            2 * (base.total_bytes() - base.pathmap_bytes())
        );
    }

    #[test]
    fn hundred_gig_fabric_is_smaller() {
        let m = MemoryModel {
            bw_bps: 100_000_000_000,
            ..MemoryModel::table1_reference()
        };
        // 100G × 2us × 1.5 / 1500 = 25 entries.
        assert_eq!(m.n_entries(), 25);
        assert!(m.total_bytes() < MemoryModel::table1_reference().total_bytes());
    }
}

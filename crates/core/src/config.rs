//! Themis deployment configuration.

use crate::psn_queue::PsnQueue;
use crate::themis_s::SprayMode;
use simcore::time::TimeDelta;

/// Configuration for one ToR's Themis middleware.
#[derive(Debug, Clone, Copy)]
pub struct ThemisConfig {
    /// Number of equal-cost paths N (power of two ≤ 256).
    pub n_paths: usize,
    /// How Themis-S realizes the spraying policy.
    pub spray_mode: SprayMode,
    /// PSN-queue entries per QP (paper: `ceil(BW·RTT_last·F / MTU)`).
    pub queue_capacity: usize,
    /// Enable the §3.4 NACK-compensation mechanism.
    pub compensation: bool,
    /// Enable NACK filtering at Themis-D. Disabling this while keeping
    /// spraying is the "spray without Themis" ablation.
    pub filtering: bool,
}

impl ThemisConfig {
    /// Configuration for a fabric with `n_paths`, sizing the PSN queue by
    /// the paper's rule with expansion factor F = 1.5, then clamped into
    /// `[64, 127]`:
    ///
    /// * the upper bound is the 1-byte truncated-PSN serial window (§4's
    ///   one-byte entries are only unambiguous up to 127 outstanding
    ///   PSNs);
    /// * the lower bound adds burst headroom beyond the paper's rule —
    ///   transient 2×line-rate convergence on the last hop holds more
    ///   than one nominal BDP in flight, and an evicted entry for a
    ///   merely-delayed packet would otherwise turn into a spurious
    ///   compensated NACK (measured in EXPERIMENTS.md). 64 one-byte
    ///   slots cost nothing at switch scale.
    pub fn for_fabric(
        n_paths: usize,
        last_hop_bw_bps: u64,
        last_hop_rtt: TimeDelta,
        mtu_bytes: u32,
    ) -> ThemisConfig {
        let paper = PsnQueue::capacity_for(last_hop_bw_bps, last_hop_rtt, mtu_bytes, 150);
        ThemisConfig {
            n_paths,
            spray_mode: SprayMode::DirectEgress,
            queue_capacity: paper.clamp(64, 127),
            compensation: true,
            filtering: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_sizing_uses_paper_rule() {
        let c = ThemisConfig::for_fabric(256, 400_000_000_000, TimeDelta::from_micros(2), 1500);
        assert_eq!(c.queue_capacity, 100);
        assert!(c.compensation && c.filtering);
        assert_eq!(c.spray_mode, SprayMode::DirectEgress);
    }
}

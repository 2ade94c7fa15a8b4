//! NIC and congestion-control configuration.

use crate::reaction::TransportReaction;
use simcore::time::TimeDelta;

/// Which reliable-transport generation the NIC models (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Previous-generation RNICs (CX-4/5): receiver drops out-of-order
    /// packets; sender rewinds to the NACKed ePSN.
    GoBackN,
    /// Current-generation commodity RNICs (CX-6/7, BF3): out-of-order
    /// reception into a bitmap, NACK once per ePSN, selective retransmit.
    /// This is the "NIC-SR" the paper builds on.
    SelectiveRepeat,
    /// The Fig 1d upper bound: selective repeat whose receiver NACKs only
    /// packets the simulator's loss oracle reported as actually dropped,
    /// and whose NACKs never reduce the sending rate.
    IdealOracle,
}

/// DCQCN on/off plus the paper's two evaluation knobs, `T_I`
/// (rate-increase timer) and `T_D` (rate-decrease interval). The
/// algorithm's fixed parameters (gain, alpha timer, increase steps, byte
/// counter, rate floor, CNP spacing, NACK cut) are constants in
/// [`crate::dcqcn`].
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Master switch; disabled = fixed line rate and no NACK slowdown
    /// (the Ideal baseline). Enabled, a NACK cuts the rate like a CNP —
    /// the "unnecessary slow start" of commodity NIC-SR (§2.2).
    pub enabled: bool,
    /// Rate-increase timer T_I: period of recovery events at the sender.
    pub ti: TimeDelta,
    /// Rate-decrease interval T_D: minimum spacing between rate cuts.
    pub td: TimeDelta,
}

impl CcConfig {
    /// DCQCN with the recommended parameters of HPCC/DCQCN deployments:
    /// T_I = 900 µs, T_D = 4 µs (the leftmost configuration of Fig 5).
    /// The rate-scaled constants follow the line rate the
    /// [`crate::Dcqcn`] is built for; `_line_rate_bps` stays because the
    /// benchmark crate calls this signature.
    pub fn recommended(_line_rate_bps: u64) -> CcConfig {
        CcConfig::with_ti_td(900, 4)
    }

    /// The paper's Fig 5 sweep points: `(T_I, T_D)` in microseconds.
    pub fn paper_sweep() -> [(u64, u64); 5] {
        [(900, 4), (300, 4), (10, 4), (10, 50), (10, 200)]
    }

    /// DCQCN enabled with explicit `(T_I, T_D)` microsecond values.
    pub fn with_ti_td(ti_us: u64, td_us: u64) -> CcConfig {
        CcConfig {
            enabled: true,
            ti: TimeDelta::from_micros(ti_us),
            td: TimeDelta::from_micros(td_us),
        }
    }

    /// Congestion control disabled (fixed line rate, no NACK slowdown).
    pub fn disabled() -> CcConfig {
        CcConfig {
            enabled: false,
            ..CcConfig::with_ti_td(900, 4)
        }
    }
}

/// Host NIC configuration.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Payload bytes per full data packet (the paper's MTU row: 1500 B).
    pub mtu_payload: u32,
    /// Reliable-transport generation.
    pub transport: TransportMode,
    /// Send a cumulative ACK after this many in-order arrivals (1 = every
    /// packet). Message-completing and ePSN-jumping arrivals always ACK.
    pub ack_coalescing: u32,
    /// Retransmission timeout: last-resort recovery when no NACK can
    /// arrive (e.g. tail loss, or a blocked NACK that was never
    /// compensated).
    pub rto: TimeDelta,
    /// Line rate of the NIC's port in bits/s.
    pub line_rate_bps: u64,
    /// Congestion-control parameters.
    pub cc: CcConfig,
    /// Sender entropy + receiver OOO-escalation policies (the scheme
    /// zoo's transport half; commodity NIC-SR by default).
    pub reaction: TransportReaction,
}

impl NicConfig {
    /// NIC-SR + DCQCN defaults at the given line rate.
    pub fn nic_sr(line_rate_bps: u64) -> NicConfig {
        NicConfig {
            mtu_payload: 1500,
            transport: TransportMode::SelectiveRepeat,
            ack_coalescing: 1,
            rto: TimeDelta::from_millis(1),
            line_rate_bps,
            cc: CcConfig::recommended(line_rate_bps),
            reaction: TransportReaction::COMMODITY,
        }
    }

    /// The Ideal transport of Fig 1d: oracle-filtered NACKs, fixed rate.
    pub fn ideal(line_rate_bps: u64) -> NicConfig {
        NicConfig {
            transport: TransportMode::IdealOracle,
            cc: CcConfig::disabled(),
            ..NicConfig::nic_sr(line_rate_bps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_matches_paper_defaults() {
        let cc = CcConfig::recommended(400_000_000_000);
        assert_eq!(cc.ti, TimeDelta::from_micros(900));
        assert_eq!(cc.td, TimeDelta::from_micros(4));
        assert!(cc.enabled);
    }

    #[test]
    fn sweep_matches_figure_5_axis() {
        assert_eq!(
            CcConfig::paper_sweep(),
            [(900, 4), (300, 4), (10, 4), (10, 50), (10, 200)]
        );
    }

    #[test]
    fn with_ti_td_overrides_only_timers() {
        let a = CcConfig::recommended(100_000_000_000);
        let b = CcConfig::with_ti_td(10, 200);
        assert_eq!(b.ti, TimeDelta::from_micros(10));
        assert_eq!(b.td, TimeDelta::from_micros(200));
        assert_eq!(a.enabled, b.enabled);
    }

    #[test]
    fn ideal_disables_slowdowns() {
        let n = NicConfig::ideal(100_000_000_000);
        assert_eq!(n.transport, TransportMode::IdealOracle);
        assert!(!n.cc.enabled);
    }
}

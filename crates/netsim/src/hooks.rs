//! ToR-switch extension hooks — the deployment surface of Themis.
//!
//! The paper deploys Themis "only on ToR switches" (§3.1). The simulator
//! mirrors that: a ToR switch may carry one [`TorHook`] object that gets
//! invoked at the three places a programmable ToR pipeline can act:
//!
//! * **Upstream data** ([`TorHook::on_upstream_data`]): a data packet from a
//!   directly attached host is about to be forwarded into the fabric. This
//!   is where Themis-S applies the PSN-based spraying policy — either by
//!   choosing the egress uplink directly (2-tier mode) or by rewriting the
//!   UDP source port through the PathMap (multi-tier mode, Figure 3).
//! * **Downstream delivery** ([`TorHook::on_downstream`]): a packet is about
//!   to be queued on the last hop towards a local host. Themis-D records
//!   data-packet PSNs in its ring queue here and runs the NACK-compensation
//!   check (§3.3, §3.4).
//! * **Reverse control** ([`TorHook::on_reverse`]): an ACK/NACK/CNP from a
//!   local host is entering the fabric. Themis-D validates NACKs here and
//!   blocks the invalid ones (§3.3).
//!
//! Hooks can also *emit* packets (compensated NACKs); the switch injects
//! them into normal forwarding without re-running hooks on them.

use crate::packet::Packet;
use simcore::time::Nanos;
use std::any::Any;

/// Verdict for a reverse-direction control packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReverseAction {
    /// Let the packet through to the sender.
    Forward,
    /// Drop the packet at the ToR (an "invalid NACK" in Themis terms).
    Block,
}

/// Context passed to hook invocations.
pub struct HookCtx<'a> {
    /// Current simulation time.
    pub now: Nanos,
    /// Packets the hook wants the switch to originate (e.g. compensated
    /// NACKs). The switch routes them normally but does not re-invoke
    /// hooks on them.
    pub emit: &'a mut Vec<Packet>,
}

/// A programmable-ToR extension.
///
/// All methods have pass-through defaults so implementations override only
/// the pipeline stages they care about. `Send` because a hook lives in its
/// switch, which a sharded run moves onto a worker thread.
pub trait TorHook: Any + Send {
    /// Data packet from a local host about to be load-balanced upstream.
    ///
    /// May rewrite the packet header (PathMap mode). Returning `Some(i)`
    /// overrides the switch's load-balancing policy with uplink index `i`
    /// (0-based within the uplink group — 2-tier direct mode).
    fn on_upstream_data(
        &mut self,
        _pkt: &mut Packet,
        _n_uplinks: usize,
        _ctx: &mut HookCtx<'_>,
    ) -> Option<usize> {
        None
    }

    /// Packet about to be enqueued on the last hop toward a local host.
    fn on_downstream(&mut self, _pkt: &Packet, _ctx: &mut HookCtx<'_>) {}

    /// ACK/NACK/CNP from a local host entering the fabric.
    fn on_reverse(&mut self, _pkt: &Packet, _ctx: &mut HookCtx<'_>) -> ReverseAction {
        ReverseAction::Forward
    }

    /// A fabric link failed (`failed = true`) or recovered (`false`),
    /// per the §6 monitoring integration. Default: ignore.
    fn on_link_event(&mut self, _failed: bool) {}

    /// Administrative mid-run toggle of the hook's spraying (operator
    /// enabling/disabling Themis on a live ToR), distinct from the
    /// link-failure fallback. Default: ignore.
    fn on_admin_spray(&mut self, _enabled: bool) {}
}

impl dyn TorHook {
    /// Downcast support for stats extraction.
    pub fn as_any(&self) -> &dyn Any {
        self
    }

    /// Mutable downcast support (runtime reconfiguration, e.g. reverting
    /// to ECMP on link failure, §6).
    pub fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::{HostId, QpId};

    /// A hook that overrides nothing.
    struct Passive;
    impl TorHook for Passive {}

    #[test]
    fn default_hook_passes_everything() {
        let mut h = Passive;
        let mut emit = Vec::new();
        let mut ctx = HookCtx {
            now: Nanos::ZERO,
            emit: &mut emit,
        };
        let mut pkt = Packet::data(QpId(0), HostId(0), HostId(1), 7, 0, 0, false, 100, false);
        assert_eq!(h.on_upstream_data(&mut pkt, 4, &mut ctx), None);
        let nack = Packet::nack(QpId(0), HostId(1), HostId(0), 7, 0, false);
        assert_eq!(h.on_reverse(&nack, &mut ctx), ReverseAction::Forward);
        h.on_downstream(&pkt, &mut ctx);
        assert!(emit.is_empty());
    }
}

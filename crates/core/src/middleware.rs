//! The combined per-ToR middleware: Themis-S + Themis-D as one
//! [`TorHook`].
//!
//! Every ToR in a Themis deployment runs both halves: it is the *source*
//! ToR for traffic leaving its hosts and the *destination* ToR for
//! traffic reaching them (Figure 2). The hook dispatches:
//!
//! * upstream data → Themis-S spraying;
//! * downstream data → Themis-D PSN recording + compensation;
//! * downstream handshakes → Themis-D flow-table provisioning;
//! * reverse NACKs from local hosts → Themis-D validation
//!   (ACKs and CNPs always pass).

use crate::config::ThemisConfig;
use crate::themis_d::ThemisD;
use crate::themis_s::ThemisS;
use netsim::hooks::{HookCtx, ReverseAction, TorHook};
use netsim::packet::{Packet, PacketKind};
use telemetry::{EventKind, Sink};

/// One ToR's Themis instance.
#[derive(Debug)]
pub struct ThemisMiddleware {
    /// Source-side spraying.
    pub s: ThemisS,
    /// Destination-side NACK filtering; `None` in the
    /// spray-without-filtering ablation.
    pub d: Option<ThemisD>,
    cfg: ThemisConfig,
    sink: Option<Sink>,
}

impl ThemisMiddleware {
    /// Build from a deployment configuration.
    pub fn new(cfg: ThemisConfig) -> ThemisMiddleware {
        let s = ThemisS::new(cfg.n_paths, cfg.spray_mode);
        let d = cfg
            .filtering
            .then(|| ThemisD::new(cfg.n_paths, cfg.queue_capacity, cfg.compensation));
        ThemisMiddleware {
            s,
            d,
            cfg,
            sink: None,
        }
    }

    /// Install a telemetry sink for the NACK block and compensation
    /// events. The spray and verdict counters are [`ThemisS::stats`] and
    /// [`ThemisD::stats`].
    pub fn set_telemetry(&mut self, sink: Sink) {
        self.sink = Some(sink);
    }

    /// The configuration this instance was built from.
    pub fn config(&self) -> &ThemisConfig {
        &self.cfg
    }

    /// §6 link-failure fallback: stop spraying (traffic reverts to the
    /// switch's ECMP policy); filtering stays armed for in-flight packets.
    pub fn on_link_failure(&mut self) {
        self.s.set_enabled(false);
    }

    /// §6 pathset restriction: spray over a subset of paths (e.g. after
    /// a partial failure) instead of disabling Themis entirely. The same
    /// call must be applied to **every** ToR of the fabric so the Eq. 3
    /// modulus stays consistent between sources and destinations;
    /// `None` restores the full path set.
    pub fn set_pathset(&mut self, pathset: Option<Vec<usize>>) {
        self.s.set_pathset(pathset);
        let n = self.s.effective_modulus();
        if let Some(d) = self.d.as_mut() {
            d.set_modulus(n);
        }
    }

    /// Failure recovered: resume spraying over the full path set. Any
    /// pathset restriction applied during the outage is cleared — leaving
    /// it in place would permanently shrink the Eq. 3 modulus and desync
    /// it from ToRs that never saw the restriction.
    pub fn on_link_recovery(&mut self) {
        self.s.set_enabled(true);
        self.set_pathset(None);
    }

    /// Total switch memory consumed by this ToR's Themis state.
    pub fn memory_bytes(&self) -> usize {
        self.s.memory_bytes() + self.d.as_ref().map_or(0, |d| d.table().memory_bytes())
    }
}

impl TorHook for ThemisMiddleware {
    fn on_upstream_data(
        &mut self,
        pkt: &mut Packet,
        n_uplinks: usize,
        _ctx: &mut HookCtx<'_>,
    ) -> Option<usize> {
        // Direct egress requires one uplink per path; PathMap modes steer
        // paths via the header, so the local uplink count may be smaller
        // (e.g. m uplinks vs m² composite paths in a fat-tree).
        debug_assert!(
            n_uplinks == 0
                || self.cfg.spray_mode != crate::themis_s::SprayMode::DirectEgress
                || n_uplinks == self.s.n_paths(),
            "direct-egress Themis configured for {} paths but ToR has {n_uplinks} uplinks",
            self.s.n_paths()
        );
        self.s.spray(pkt)
    }

    fn on_downstream(&mut self, pkt: &Packet, ctx: &mut HookCtx<'_>) {
        let Some(d) = self.d.as_mut() else {
            return;
        };
        match pkt.kind {
            PacketKind::Data { .. } => {
                if let Some(comp) = d.on_downstream_data(pkt) {
                    if let (Some(sink), PacketKind::Nack { epsn, .. }) = (&self.sink, comp.kind) {
                        sink.event(EventKind::NackCompensated, comp.qp.0 as u64, epsn as u64);
                    }
                    ctx.emit.push(comp);
                }
            }
            PacketKind::Handshake => d.on_handshake(pkt.qp),
            _ => {}
        }
    }

    fn on_reverse(&mut self, pkt: &Packet, _ctx: &mut HookCtx<'_>) -> ReverseAction {
        let Some(d) = self.d.as_mut() else {
            return ReverseAction::Forward;
        };
        match pkt.kind {
            PacketKind::Nack { epsn, .. } => {
                let action = d.on_reverse_nack(pkt.qp, epsn);
                if let (Some(sink), ReverseAction::Block) = (&self.sink, action) {
                    sink.event(EventKind::NackBlocked, pkt.qp.0 as u64, epsn as u64);
                }
                action
            }
            _ => ReverseAction::Forward,
        }
    }

    fn on_link_event(&mut self, failed: bool) {
        if failed {
            self.on_link_failure();
        } else {
            self.on_link_recovery();
        }
    }

    fn on_admin_spray(&mut self, enabled: bool) {
        self.s.set_enabled(enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::types::{HostId, QpId};
    use simcore::time::Nanos;

    fn cfg() -> ThemisConfig {
        ThemisConfig {
            n_paths: 2,
            spray_mode: crate::themis_s::SprayMode::DirectEgress,
            queue_capacity: 16,
            compensation: true,
            filtering: true,
        }
    }

    fn hook_ctx(emit: &mut Vec<Packet>) -> HookCtx<'_> {
        HookCtx {
            now: Nanos::ZERO,
            emit,
        }
    }

    fn data(psn: u32) -> Packet {
        Packet::data(
            QpId(1),
            HostId(0),
            HostId(9),
            700,
            psn,
            0,
            false,
            1000,
            false,
        )
    }

    #[test]
    fn full_pipeline_blocks_and_compensates() {
        let mut m = ThemisMiddleware::new(cfg());
        let mut emit = Vec::new();

        // Upstream: data packets get sprayed.
        let mut up = data(5);
        let choice = m.on_upstream_data(&mut up, 2, &mut hook_ctx(&mut emit));
        assert!(choice.is_some());

        // Downstream: record 0, 1, 3 (packet 2 delayed on the other path).
        for psn in [0, 1, 3] {
            m.on_downstream(&data(psn), &mut hook_ctx(&mut emit));
        }
        assert!(emit.is_empty());

        // Reverse: invalid NACK blocked.
        let nack = Packet::nack(QpId(1), HostId(9), HostId(0), 700, 2, false);
        assert_eq!(
            m.on_reverse(&nack, &mut hook_ctx(&mut emit)),
            ReverseAction::Block
        );

        // Downstream: same-path overtake emits a compensated NACK.
        m.on_downstream(&data(4), &mut hook_ctx(&mut emit));
        assert_eq!(emit.len(), 1);
        assert!(matches!(
            emit[0].kind,
            PacketKind::Nack {
                epsn: 2,
                compensated: true
            }
        ));
    }

    #[test]
    fn telemetry_counts_classification_verdicts() {
        let sink = telemetry::Sink::new(16);
        let mut m = ThemisMiddleware::new(cfg());
        m.set_telemetry(sink.clone());
        let mut emit = Vec::new();

        let mut up = data(5);
        m.on_upstream_data(&mut up, 2, &mut hook_ctx(&mut emit));
        for psn in [0, 1, 3] {
            m.on_downstream(&data(psn), &mut hook_ctx(&mut emit));
        }
        let nack = Packet::nack(QpId(1), HostId(9), HostId(0), 700, 2, false);
        m.on_reverse(&nack, &mut hook_ctx(&mut emit));
        m.on_downstream(&data(4), &mut hook_ctx(&mut emit));

        let snap = sink.snapshot();
        let kinds: Vec<&str> = snap.events.ring.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["nack_blocked", "nack_compensated"]);
        // Both events carry the blocked/compensated ePSN.
        assert!(snap.events.ring.iter().all(|e| e.arg == 2));
    }

    #[test]
    fn acks_and_cnps_always_forward() {
        let mut m = ThemisMiddleware::new(cfg());
        let mut emit = Vec::new();
        let ack = Packet::ack(QpId(1), HostId(9), HostId(0), 700, 5, 700);
        let cnp = Packet::cnp(QpId(1), HostId(9), HostId(0), 700);
        assert_eq!(
            m.on_reverse(&ack, &mut hook_ctx(&mut emit)),
            ReverseAction::Forward
        );
        assert_eq!(
            m.on_reverse(&cnp, &mut hook_ctx(&mut emit)),
            ReverseAction::Forward
        );
    }

    #[test]
    fn handshake_provisions() {
        let mut m = ThemisMiddleware::new(cfg());
        let mut emit = Vec::new();
        let hs = Packet::handshake(QpId(4), HostId(0), HostId(9), 700);
        m.on_downstream(&hs, &mut hook_ctx(&mut emit));
        let d = m.d.as_ref().unwrap();
        assert!(d.table().get(QpId(4)).is_some(), "the entry exists");
    }

    #[test]
    fn no_filtering_ablation_forwards_everything() {
        let mut m = ThemisMiddleware::new(ThemisConfig {
            filtering: false,
            compensation: false,
            ..cfg()
        });
        let mut emit = Vec::new();
        for psn in [0, 1, 3] {
            m.on_downstream(&data(psn), &mut hook_ctx(&mut emit));
        }
        let nack = Packet::nack(QpId(1), HostId(9), HostId(0), 700, 2, false);
        assert_eq!(
            m.on_reverse(&nack, &mut hook_ctx(&mut emit)),
            ReverseAction::Forward
        );
        // Spraying still active.
        let mut up = data(5);
        assert!(m
            .on_upstream_data(&mut up, 2, &mut hook_ctx(&mut emit))
            .is_some());
    }

    #[test]
    fn failure_fallback_stops_spraying() {
        let mut m = ThemisMiddleware::new(cfg());
        let mut emit = Vec::new();
        m.on_link_failure();
        let mut up = data(5);
        assert_eq!(
            m.on_upstream_data(&mut up, 2, &mut hook_ctx(&mut emit)),
            None
        );
        m.on_link_recovery();
        assert!(m
            .on_upstream_data(&mut up, 2, &mut hook_ctx(&mut emit))
            .is_some());
    }

    #[test]
    fn memory_accounting_composes() {
        let mut m = ThemisMiddleware::new(ThemisConfig {
            n_paths: 256,
            spray_mode: crate::themis_s::SprayMode::PathMapRewrite,
            queue_capacity: 100,
            compensation: true,
            filtering: true,
        });
        let mut emit = Vec::new();
        // One flow provisioned: PathMap 512 B + the paper's (20 + 100) B
        // entry + this implementation's 18 B side tables.
        let hs = Packet::handshake(QpId(4), HostId(0), HostId(9), 700);
        m.on_downstream(&hs, &mut hook_ctx(&mut emit));
        assert_eq!(m.memory_bytes(), 512 + 120 + 18);
    }
}

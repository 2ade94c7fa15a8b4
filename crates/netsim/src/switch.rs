//! Output-queued switches.
//!
//! A [`Switch`] forwards packets by a closed-form rule on the destination
//! host ([`Routes`]). Leaf (ToR) switches have host-facing ports plus an
//! *uplink group* over which a [`LbPolicy`] (or a Themis-S override)
//! balances fabric-bound traffic; spine switches have exactly one route
//! per destination.
//!
//! ToR middleware ([`TorHook`]) is invoked at three pipeline points — see
//! [`crate::hooks`]. Hook-emitted packets (compensated NACKs) are routed
//! normally but never re-enter hooks, matching a real P4 pipeline where
//! recirculated packets carry a "generated" flag.

use crate::event::{ControlMsg, Event};
use crate::hooks::{HookCtx, ReverseAction, TorHook};
use crate::lb::{LbPolicy, LbState};
use crate::packet::{Packet, PacketKind};
use crate::port::{EcnConfig, EgressPort, EnqueueOutcome, SharedBuffer};
use crate::trace::{DropCause, DropRecord};
use crate::types::{HostId, NodeId, PortId, QpId};
use crate::world::{Ctx, Entity};
use simcore::fx::FxHashSet;
use simcore::rng::Xoshiro256;
use simcore::time::TimeDelta;

/// Per-destination routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEntry {
    /// Forward on a specific port (local host or fixed downlink).
    Port(u16),
    /// Forward via the uplink group, subject to load balancing.
    Uplinks,
    /// No route; packet is dropped and counted.
    None,
}

/// A switch's whole forwarding rule. In the Clos fabrics built here the
/// hosts below a switch are one contiguous id range, split evenly over
/// its first down ports: host `dst` in `[first, first + span)` leaves by
/// port `(dst - first) / per_port`; every other host goes to the uplink
/// group, or has no route on a switch without one. With `hpl` hosts per
/// leaf and fat-tree radix `k = 2m`:
///
/// | switch            | `first`  | `span`    | `per_port` |
/// |-------------------|----------|-----------|------------|
/// | leaf `l`          | `l·hpl`  | `hpl`     | 1          |
/// | spine             | 0        | `n_hosts` | `hpl`      |
/// | fat-tree edge `i` | `i·m`    | `m`       | 1          |
/// | agg of pod `p`    | `p·m²`   | `m²`      | `m`        |
/// | core              | 0        | `n_hosts` | `m²`       |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routes {
    /// First host below this switch.
    pub first: u32,
    /// Number of hosts below this switch.
    pub span: u32,
    /// Consecutive hosts behind each down port (≥ 1).
    pub per_port: u32,
}

/// Hop-by-hop priority-flow-control thresholds on the shared buffer.
///
/// When pool usage crosses `pause_bytes`, the switch sends PFC pause
/// frames to every link peer; when it drains below `resume_bytes`, it
/// sends resumes. A simplification of per-ingress-priority PFC that
/// preserves the property the experiments need: losslessness under
/// incast at the price of head-of-line blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcConfig {
    /// Send pause when shared-buffer usage reaches this many bytes.
    pub pause_bytes: u64,
    /// Send resume when usage falls back to this many bytes.
    pub resume_bytes: u64,
}

impl PfcConfig {
    /// Thresholds as fractions of the buffer: pause at 50%, resume at 25%.
    pub fn for_buffer(buffer_bytes: u64) -> PfcConfig {
        PfcConfig {
            pause_bytes: buffer_bytes / 2,
            resume_bytes: buffer_bytes / 4,
        }
    }
}

/// Switch construction parameters.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Shared buffer pool size in bytes (paper: 64 MB).
    pub buffer_bytes: u64,
    /// Load-balancing policy for the uplink group.
    pub lb: LbPolicy,
    /// Whether dropped data packets trigger an out-of-band
    /// [`ControlMsg::OracleLoss`] to the destination NIC (Ideal baseline).
    pub oracle_loss_notify: bool,
    /// RNG seed for this switch's random decisions.
    pub seed: u64,
    /// Bits to shift the ECMP hash before the uplink modulus; different
    /// tiers of a multi-tier fabric use different views (see
    /// [`crate::lb::LbState::ecmp_shift`]).
    pub ecmp_shift: u32,
    /// Hop-by-hop PFC; `None` = lossy fabric (drops on buffer overflow).
    pub pfc: Option<PfcConfig>,
    /// Strict priority for control packets on every egress port.
    pub ctrl_priority: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            buffer_bytes: 64 * 1024 * 1024,
            lb: LbPolicy::Ecmp,
            oracle_loss_notify: false,
            seed: 0,
            ecmp_shift: 0,
            pfc: None,
            ctrl_priority: false,
        }
    }
}

/// Forwarding statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets received.
    pub rx_packets: u64,
    /// Packets accepted for forwarding.
    pub forwarded: u64,
    /// Packets dropped: no route for destination.
    pub drops_no_route: u64,
    /// Packets dropped: shared buffer full.
    pub drops_buffer: u64,
    /// Packets dropped by targeted loss injection.
    pub drops_targeted: u64,
    /// Reverse-direction packets blocked by the ToR hook.
    pub hook_blocked: u64,
    /// Packets emitted (originated) by the ToR hook.
    pub hook_emitted: u64,
    /// PFC pause broadcasts sent.
    pub pfc_pauses: u64,
    /// PFC resume broadcasts sent.
    pub pfc_resumes: u64,
}

/// An output-queued switch entity.
pub struct Switch {
    ports: Vec<EgressPort>,
    host_facing: Vec<bool>,
    routes: Routes,
    uplinks: Vec<usize>,
    lb: LbPolicy,
    lb_state: LbState,
    buffer: SharedBuffer,
    hook: Option<Box<dyn TorHook>>,
    rng: Xoshiro256,
    oracle_loss_notify: bool,
    targeted_drops: FxHashSet<(QpId, u32)>,
    reverse_corrupt_ppm: u32,
    drop_log: Vec<DropRecord>,
    telem: Option<crate::telem::SwitchTelem>,
    ctrl_priority: bool,
    pfc: Option<PfcConfig>,
    pfc_upstream_paused: bool,
    /// Forwarding statistics.
    pub stats: SwitchStats,
    emit_scratch: Vec<Packet>,
}

impl Switch {
    /// An empty switch; wire ports and routes via the builder methods.
    pub fn new(cfg: &SwitchConfig) -> Switch {
        Switch {
            ports: Vec::new(),
            host_facing: Vec::new(),
            routes: Routes {
                first: 0,
                span: 0,
                per_port: 1,
            },
            uplinks: Vec::new(),
            lb: cfg.lb,
            lb_state: LbState::new(cfg.seed, cfg.ecmp_shift),
            buffer: SharedBuffer::new(cfg.buffer_bytes),
            hook: None,
            rng: Xoshiro256::seeded(cfg.seed),
            oracle_loss_notify: cfg.oracle_loss_notify,
            targeted_drops: FxHashSet::default(),
            reverse_corrupt_ppm: 0,
            drop_log: Vec::new(),
            telem: None,
            ctrl_priority: cfg.ctrl_priority,
            pfc: cfg.pfc,
            pfc_upstream_paused: false,
            stats: SwitchStats::default(),
            emit_scratch: Vec::new(),
        }
    }

    /// Broadcast PFC pause/resume to every link peer.
    fn broadcast_pfc(&mut self, pause: bool, ctx: &mut Ctx<'_>) {
        for p in &self.ports {
            ctx.send_pfc(p.peer, p.peer_in_port, pause, p.link.latency);
        }
        if pause {
            self.stats.pfc_pauses += 1;
        } else {
            self.stats.pfc_resumes += 1;
        }
    }

    /// Re-evaluate the shared-buffer watermarks after occupancy changed.
    fn check_pfc(&mut self, ctx: &mut Ctx<'_>) {
        let Some(cfg) = self.pfc else { return };
        if !self.pfc_upstream_paused && self.buffer.used() >= cfg.pause_bytes {
            self.pfc_upstream_paused = true;
            self.broadcast_pfc(true, ctx);
        } else if self.pfc_upstream_paused && self.buffer.used() <= cfg.resume_bytes {
            self.pfc_upstream_paused = false;
            self.broadcast_pfc(false, ctx);
        }
    }

    /// Append a port; returns its index. `host_facing` marks last-hop ports.
    pub fn add_port(&mut self, mut port: EgressPort, host_facing: bool) -> usize {
        port.ctrl_priority = self.ctrl_priority;
        self.ports.push(port);
        self.host_facing.push(host_facing);
        self.ports.len() - 1
    }

    /// Declare which ports form the load-balanced uplink group.
    ///
    /// The order of this list defines *path indices*: uplink `i` of the
    /// source ToR reaches spine `i`, which is path `i` in the paper's
    /// Eq. 1. Themis-S overrides return indices into this list.
    pub fn set_uplinks(&mut self, uplinks: Vec<usize>) {
        self.uplinks = uplinks;
    }

    /// Install the forwarding rule (default: no hosts below, everything
    /// via the uplink group).
    pub fn set_routes(&mut self, routes: Routes) {
        debug_assert!(routes.per_port > 0, "a down port carries at least one host");
        self.routes = routes;
    }

    /// The routing decision for `dst`.
    #[inline]
    pub fn route(&self, dst: HostId) -> RouteEntry {
        let below = dst.0.wrapping_sub(self.routes.first);
        if below < self.routes.span {
            RouteEntry::Port((below / self.routes.per_port) as u16)
        } else if self.uplinks.is_empty() {
            RouteEntry::None
        } else {
            RouteEntry::Uplinks
        }
    }

    /// Install ToR middleware.
    pub fn set_hook(&mut self, hook: Box<dyn TorHook>) {
        self.hook = Some(hook);
    }

    /// Replace the load-balancing policy (used by failure handling to
    /// revert a ToR to ECMP, §6).
    pub fn set_lb(&mut self, lb: LbPolicy) {
        self.lb = lb;
    }

    /// Current load-balancing policy.
    pub fn lb(&self) -> LbPolicy {
        self.lb
    }

    /// Load-balancing state (flowlet statistics, hash view).
    pub fn lb_state(&self) -> &LbState {
        &self.lb_state
    }

    /// Apply WRED/ECN marking configuration to every port.
    pub fn set_ecn_all_ports(&mut self, f: impl Fn(&EgressPort) -> Option<EcnConfig>) {
        for p in &mut self.ports {
            p.ecn = f(p);
        }
    }

    /// Schedule the data packet `(qp, psn)` to be dropped when it next
    /// traverses this switch (deterministic loss injection for tests).
    pub fn inject_targeted_drop(&mut self, qp: QpId, psn: u32) {
        self.targeted_drops.insert((qp, psn));
    }

    /// Set a random loss rate on port `idx`.
    pub fn set_port_loss_rate(&mut self, idx: usize, rate: f64) {
        self.ports[idx].loss_rate = rate;
    }

    /// Every drop this switch performed, in order, with its cause — the
    /// conformance oracle's ground truth.
    pub fn drop_log(&self) -> &[DropRecord] {
        &self.drop_log
    }

    /// Drain the drop log, leaving it empty. Long-horizon runs call this
    /// once per telemetry window so a sliding-window auditor can fold the
    /// records into bounded-memory tallies instead of letting the log
    /// grow for the whole run.
    pub fn take_drop_log(&mut self) -> Vec<DropRecord> {
        std::mem::take(&mut self.drop_log)
    }

    fn log_drop(&mut self, at: simcore::time::Nanos, pkt: &Packet, cause: DropCause) {
        let psn = match pkt.kind {
            PacketKind::Data { psn, .. } => psn,
            PacketKind::Ack { epsn, .. } | PacketKind::Nack { epsn, .. } => epsn,
            _ => 0,
        };
        self.drop_log.push(DropRecord {
            at,
            qp: pkt.qp,
            psn,
            data: pkt.is_data(),
            cause,
        });
    }

    /// Immutable port access (stats, tests).
    pub fn port(&self, idx: usize) -> &EgressPort {
        &self.ports[idx]
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The uplink group.
    pub fn uplinks(&self) -> &[usize] {
        &self.uplinks
    }

    /// Shared buffer state.
    pub fn buffer(&self) -> &SharedBuffer {
        &self.buffer
    }

    /// The installed hook, if any (downcast for stats extraction).
    pub fn hook(&self) -> Option<&dyn TorHook> {
        self.hook.as_deref()
    }

    /// Mutable access to the installed hook (runtime reconfiguration).
    pub fn hook_mut(&mut self) -> Option<&mut (dyn TorHook + 'static)> {
        self.hook.as_deref_mut()
    }

    /// Attach the shared per-switch telemetry handles (counters + drop
    /// ring); installed by the cluster builders after construction.
    pub fn set_telemetry(&mut self, telem: crate::telem::SwitchTelem) {
        self.telem = Some(telem);
    }

    /// Sum of buffer-full drops across ports plus pool-level drops.
    pub fn total_drops(&self) -> u64 {
        self.stats.drops_buffer + self.stats.drops_targeted + self.stats.drops_no_route
    }

    fn forward(&mut self, mut pkt: Packet, in_port: PortId, ctx: &mut Ctx<'_>) {
        self.stats.rx_packets += 1;

        // Targeted loss injection (tests / failure studies).
        if let PacketKind::Data { psn, .. } = pkt.kind {
            if !self.targeted_drops.is_empty() && self.targeted_drops.remove(&(pkt.qp, psn)) {
                self.stats.drops_targeted += 1;
                if let Some(t) = &self.telem {
                    t.on_targeted_drop(pkt.qp.0 as u64, psn as u64);
                }
                self.log_drop(ctx.now(), &pkt, DropCause::Targeted);
                self.notify_oracle_loss(&pkt, ctx);
                return;
            }
        }

        // Reverse-path corruption (fault injection): ACK/NACK/CNP lost
        // to bit errors before the switch can process them.
        if self.reverse_corrupt_ppm > 0
            && matches!(
                pkt.kind,
                PacketKind::Ack { .. } | PacketKind::Nack { .. } | PacketKind::Cnp
            )
            && self.rng.next_below(1_000_000) < self.reverse_corrupt_ppm as u64
        {
            self.stats.drops_targeted += 1;
            if let Some(t) = &self.telem {
                let seq = match pkt.kind {
                    PacketKind::Ack { epsn, .. } | PacketKind::Nack { epsn, .. } => epsn,
                    _ => 0,
                };
                t.on_targeted_drop(pkt.qp.0 as u64, seq as u64);
            }
            self.log_drop(ctx.now(), &pkt, DropCause::ReverseCorrupt);
            return;
        }

        let from_host = self
            .host_facing
            .get(in_port.index())
            .copied()
            .unwrap_or(false);

        // --- ToR hook pipeline ---------------------------------------
        let mut uplink_override = None;
        if self.hook.is_some() && from_host {
            match pkt.kind {
                PacketKind::Data { .. } => {
                    let n_uplinks = self.uplinks.len();
                    let hook = self.hook.as_mut().expect("checked above");
                    let mut hctx = HookCtx {
                        now: ctx.now(),
                        emit: &mut self.emit_scratch,
                    };
                    uplink_override = hook.on_upstream_data(&mut pkt, n_uplinks, &mut hctx);
                }
                PacketKind::Ack { .. } | PacketKind::Nack { .. } | PacketKind::Cnp => {
                    let hook = self.hook.as_mut().expect("checked above");
                    let mut hctx = HookCtx {
                        now: ctx.now(),
                        emit: &mut self.emit_scratch,
                    };
                    let action = hook.on_reverse(&pkt, &mut hctx);
                    if action == ReverseAction::Block {
                        self.stats.hook_blocked += 1;
                        if let Some(t) = &self.telem {
                            t.on_hook_blocked();
                        }
                        self.flush_emitted(ctx);
                        return;
                    }
                }
                PacketKind::Handshake => {}
            }
        }

        self.route_and_enqueue(pkt, uplink_override, true, ctx);
        self.flush_emitted(ctx);
    }

    /// Route `pkt` and enqueue it on the chosen egress port.
    ///
    /// `run_downstream_hook` is false for hook-emitted packets to prevent
    /// hook recursion.
    fn route_and_enqueue(
        &mut self,
        pkt: Packet,
        uplink_override: Option<usize>,
        run_downstream_hook: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let egress = match self.route(pkt.dst) {
            RouteEntry::Port(p) => p as usize,
            RouteEntry::Uplinks => {
                let idx = match uplink_override {
                    Some(i) if i < self.uplinks.len() => i,
                    Some(_) => {
                        debug_assert!(false, "hook returned out-of-range uplink");
                        0
                    }
                    None => {
                        let switches_before = self.lb_state.flowlet_switches;
                        let idx = self.lb.select(
                            &pkt,
                            &self.uplinks,
                            &self.ports,
                            ctx.now(),
                            &mut self.lb_state,
                        );
                        if self.lb_state.flowlet_switches > switches_before {
                            if let Some(t) = &self.telem {
                                t.on_flowlet_switch(pkt.qp.0 as u64, idx as u64);
                            }
                        }
                        idx
                    }
                };
                self.uplinks[idx]
            }
            RouteEntry::None => {
                self.stats.drops_no_route += 1;
                if let Some(t) = &self.telem {
                    t.on_no_route_drop(pkt.qp.0 as u64);
                }
                self.log_drop(ctx.now(), &pkt, DropCause::NoRoute);
                return;
            }
        };

        // Last-hop hook: Themis-D observes packets in FIFO-egress order,
        // which equals their arrival order at the NIC.
        if run_downstream_hook && self.host_facing[egress] {
            if let Some(hook) = self.hook.as_mut() {
                let mut hctx = HookCtx {
                    now: ctx.now(),
                    emit: &mut self.emit_scratch,
                };
                hook.on_downstream(&pkt, &mut hctx);
            }
        }

        let ecn_before = self.ports[egress].stats.ecn_marked;
        let qp = pkt.qp.0 as u64;
        let psn = pkt.data_psn().unwrap_or(0) as u64;
        let outcome = self.ports[egress].enqueue(
            pkt,
            PortId(egress as u16),
            ctx,
            Some(&mut self.buffer),
            &mut self.rng,
        );
        match outcome {
            EnqueueOutcome::TxStarted | EnqueueOutcome::Queued => {
                self.stats.forwarded += 1;
                if let Some(t) = &self.telem {
                    let marked = self.ports[egress].stats.ecn_marked - ecn_before;
                    if marked > 0 {
                        t.on_ecn_marked(marked);
                    }
                }
                self.check_pfc(ctx);
            }
            EnqueueOutcome::DroppedInjected => {
                // Injected losses (random per-port loss, down ports) are
                // deliberate faults, not congestion: they count with the
                // targeted drops, never as buffer drops.
                self.stats.drops_targeted += 1;
                if let Some(t) = &self.telem {
                    t.on_targeted_drop(qp, psn);
                }
                let cause = if self.ports[egress].down {
                    DropCause::PortDown
                } else {
                    DropCause::Injected
                };
                self.log_drop(ctx.now(), &pkt, cause);
                self.notify_oracle_loss(&pkt, ctx);
            }
            EnqueueOutcome::DroppedBuffer => {
                self.stats.drops_buffer += 1;
                if let Some(t) = &self.telem {
                    t.on_buffer_drop(qp, psn);
                }
                self.log_drop(ctx.now(), &pkt, DropCause::Buffer);
                self.notify_oracle_loss(&pkt, ctx);
            }
        }
    }

    fn flush_emitted(&mut self, ctx: &mut Ctx<'_>) {
        // Hook-emitted packets skip hooks themselves, so one pass cannot
        // produce new emissions; the loop guards the invariant anyway.
        while !self.emit_scratch.is_empty() {
            let mut batch = std::mem::take(&mut self.emit_scratch);
            for p in batch.drain(..) {
                self.stats.hook_emitted += 1;
                if let Some(t) = &self.telem {
                    t.on_hook_emitted();
                }
                self.route_and_enqueue(p, None, false, ctx);
            }
            if self.emit_scratch.is_empty() {
                // Hand the drained buffer back so its capacity is reused
                // instead of reallocated on the next hook emission.
                self.emit_scratch = batch;
            }
        }
    }

    fn notify_oracle_loss(&self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if !self.oracle_loss_notify {
            return;
        }
        if let PacketKind::Data { psn, .. } = pkt.kind {
            // Node-id convention: host h is entity h.
            ctx.control(
                NodeId(pkt.dst.0),
                ControlMsg::OracleLoss { qp: pkt.qp, psn },
            );
        }
    }
}

impl Entity for Switch {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        match ev {
            Event::Packet { pkt, in_port } => self.forward(pkt, in_port, ctx),
            Event::TxDone { port } => {
                self.ports[port.index()].on_tx_done(port, ctx, Some(&mut self.buffer));
                self.check_pfc(ctx);
            }
            Event::Pfc { in_port, pause } => {
                if let Some(p) = self.ports.get_mut(in_port.index()) {
                    p.set_paused(pause, in_port, ctx);
                }
            }
            Event::Control(ControlMsg::TorLinkFailure) => {
                // §6: revert to ECMP and stop the hook's spraying until
                // the monitor reports recovery.
                self.lb = LbPolicy::Ecmp;
                if let Some(h) = self.hook.as_mut() {
                    h.on_link_event(true);
                }
            }
            Event::Control(ControlMsg::TorLinkRecovery { lb }) => {
                self.lb = lb;
                if let Some(h) = self.hook.as_mut() {
                    h.on_link_event(false);
                }
            }
            Event::Control(ControlMsg::SetPortDown { port, down }) => {
                if let Some(p) = self.ports.get_mut(port as usize) {
                    p.down = down;
                }
            }
            Event::Control(ControlMsg::SetPortLossRate { port, rate_ppm }) => {
                if let Some(p) = self.ports.get_mut(port as usize) {
                    p.loss_rate = rate_ppm as f64 / 1e6;
                }
            }
            Event::Control(ControlMsg::SetPortExtraDelay { port, extra_ns }) => {
                if let Some(p) = self.ports.get_mut(port as usize) {
                    p.extra_delay = TimeDelta::from_nanos(extra_ns);
                }
            }
            Event::Control(ControlMsg::SetReverseCorruptRate { rate_ppm }) => {
                self.reverse_corrupt_ppm = rate_ppm;
            }
            Event::Control(ControlMsg::SetSprayEnabled { on }) => {
                if let Some(h) = self.hook.as_mut() {
                    h.on_admin_spray(on);
                }
            }
            Event::Timer { .. } | Event::Control(_) => {
                // Switches arm no timers and receive no other control
                // messages.
                debug_assert!(false, "unexpected event at switch");
            }
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::LinkSpec;
    use crate::world::World;
    use simcore::time::Nanos;

    /// Sink entity that records arriving packets with timestamps.
    pub(crate) struct Sink {
        pub got: Vec<(Nanos, Packet)>,
    }

    impl Entity for Sink {
        fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
            if let Event::Packet { pkt, .. } = ev {
                self.got.push((ctx.now(), pkt));
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn data(qp: u32, dst: u32, psn: u32) -> Packet {
        Packet::data(
            QpId(qp),
            HostId(0),
            HostId(dst),
            100,
            psn,
            0,
            false,
            1436,
            false,
        )
    }

    /// Host 1 is the one host below the switch, on port 0.
    const HOST1_ON_PORT0: Routes = Routes {
        first: 1,
        span: 1,
        per_port: 1,
    };

    /// World with: sink host at node 0 (HostId 0 unused), a switch, and a
    /// sink at node 1 reachable via port 0.
    fn one_switch_world() -> (World, NodeId, NodeId) {
        let mut w = World::new();
        let sink = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig::default());
        sw.add_port(
            EgressPort::new(sink, PortId(0), LinkSpec::gbps(100, 1)),
            true,
        );
        sw.set_routes(HOST1_ON_PORT0);
        let swid = w.add(Box::new(sw));
        (w, swid, sink)
    }

    #[test]
    fn forwards_by_route() {
        let (mut w, swid, sink) = one_switch_world();
        w.seed_event(
            Nanos::ZERO,
            swid,
            Event::Packet {
                pkt: data(0, 1, 0),
                in_port: PortId(9),
            },
        );
        w.run();
        let s: &Sink = w.get(sink).unwrap();
        assert_eq!(s.got.len(), 1);
        // 1500B at 100G = 120ns ser + 1us prop.
        assert_eq!(s.got[0].0, Nanos(1_120));
        let sw: &Switch = w.get(swid).unwrap();
        assert_eq!(sw.stats.forwarded, 1);
    }

    #[test]
    fn no_route_drops() {
        let (mut w, swid, sink) = one_switch_world();
        w.seed_event(
            Nanos::ZERO,
            swid,
            Event::Packet {
                pkt: data(0, 55, 0),
                in_port: PortId(9),
            },
        );
        w.run();
        let s: &Sink = w.get(sink).unwrap();
        assert!(s.got.is_empty());
        let sw: &Switch = w.get(swid).unwrap();
        assert_eq!(sw.stats.drops_no_route, 1);
    }

    #[test]
    fn fifo_order_preserved_on_one_port() {
        let (mut w, swid, sink) = one_switch_world();
        for psn in 0..50 {
            w.seed_event(
                Nanos(psn as u64),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        w.run();
        let s: &Sink = w.get(sink).unwrap();
        let psns: Vec<u32> = s.got.iter().filter_map(|(_, p)| p.data_psn()).collect();
        assert_eq!(psns, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn targeted_drop_removes_exactly_one_packet() {
        let (mut w, swid, sink) = one_switch_world();
        w.get_mut::<Switch>(swid)
            .unwrap()
            .inject_targeted_drop(QpId(0), 3);
        for psn in 0..6 {
            w.seed_event(
                Nanos(psn as u64 * 10),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        w.run();
        let s: &Sink = w.get(sink).unwrap();
        let psns: Vec<u32> = s.got.iter().filter_map(|(_, p)| p.data_psn()).collect();
        assert_eq!(psns, vec![0, 1, 2, 4, 5]);
        let sw: &Switch = w.get(swid).unwrap();
        assert_eq!(sw.stats.drops_targeted, 1);
        // Retransmission of psn 3 would pass (entry consumed).
        assert!(sw.targeted_drops.is_empty());
    }

    #[test]
    fn buffer_exhaustion_drops_and_counts() {
        let mut w = World::new();
        let sink = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig {
            buffer_bytes: 3_200, // fits ~2 packets of 1500B
            ..SwitchConfig::default()
        });
        sw.add_port(EgressPort::new(sink, PortId(0), LinkSpec::gbps(1, 1)), true);
        sw.set_routes(HOST1_ON_PORT0);
        let swid = w.add(Box::new(sw));
        for psn in 0..10 {
            w.seed_event(
                Nanos(psn as u64),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        w.run();
        let sw: &Switch = w.get(swid).unwrap();
        assert!(sw.stats.drops_buffer > 0, "expected buffer drops");
        let s: &Sink = w.get(sink).unwrap();
        assert_eq!(
            s.got.len() as u64 + sw.stats.drops_buffer,
            10,
            "every packet either arrives or is dropped"
        );
    }

    #[test]
    fn uplink_group_spreads_with_random_spray() {
        let mut w = World::new();
        let sink_a = w.add(Box::new(Sink { got: vec![] }));
        let sink_b = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig {
            lb: LbPolicy::RandomSpray,
            ..SwitchConfig::default()
        });
        let pa = sw.add_port(
            EgressPort::new(sink_a, PortId(0), LinkSpec::gbps(100, 1)),
            false,
        );
        let pb = sw.add_port(
            EgressPort::new(sink_b, PortId(0), LinkSpec::gbps(100, 1)),
            false,
        );
        // No hosts below: every destination takes the uplink group.
        sw.set_uplinks(vec![pa, pb]);
        let swid = w.add(Box::new(sw));
        for psn in 0..64 {
            w.seed_event(
                Nanos(psn as u64 * 1000),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        w.run();
        let a: &Sink = w.get(sink_a).unwrap();
        let b: &Sink = w.get(sink_b).unwrap();
        assert_eq!(a.got.len() + b.got.len(), 64);
        assert!((16..=48).contains(&a.got.len()), "uneven: {}", a.got.len());
    }

    /// Hook that blocks every NACK and emits a CNP marker per block.
    struct BlockAllNacks;
    impl TorHook for BlockAllNacks {
        fn on_reverse(&mut self, pkt: &Packet, ctx: &mut HookCtx<'_>) -> ReverseAction {
            if pkt.is_nack() {
                ctx.emit
                    .push(Packet::cnp(pkt.qp, pkt.src, pkt.dst, pkt.udp_sport));
                ReverseAction::Block
            } else {
                ReverseAction::Forward
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn pfc_watermarks_pause_and_resume_upstream() {
        // A switch with a tiny buffer and a slow egress link: filling it
        // past the pause watermark must broadcast pauses to its peers,
        // draining below the resume watermark must broadcast resumes.
        let mut w = World::new();
        let sink = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig {
            buffer_bytes: 20_000,
            pfc: Some(PfcConfig {
                pause_bytes: 10_000,
                resume_bytes: 5_000,
            }),
            ..SwitchConfig::default()
        });
        // Slow link so the queue builds.
        sw.add_port(EgressPort::new(sink, PortId(0), LinkSpec::gbps(1, 1)), true);
        sw.set_routes(HOST1_ON_PORT0);
        let swid = w.add(Box::new(sw));
        for psn in 0..12 {
            w.seed_event(
                Nanos(psn as u64),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        w.run();
        let sw: &Switch = w.get(swid).unwrap();
        assert!(sw.stats.pfc_pauses >= 1, "pause watermark crossed");
        assert!(sw.stats.pfc_resumes >= 1, "queue drained -> resume");
        assert_eq!(sw.stats.drops_buffer, 0, "12x1.5KB fits in 20KB");
        // The sink (a non-port entity here) received the PFC frames as
        // events; a real NIC would pause — covered by integration tests.
        let s: &Sink = w.get(sink).unwrap();
        assert_eq!(s.got.len(), 12, "all data eventually forwarded");
    }

    #[test]
    fn pfc_event_pauses_the_addressed_port() {
        let (mut w, swid, sink) = one_switch_world();
        // Pause port 0 via a PFC event, then send data: it must be held.
        w.seed_event(
            Nanos::ZERO,
            swid,
            Event::Pfc {
                in_port: PortId(0),
                pause: true,
            },
        );
        w.seed_event(
            Nanos(10),
            swid,
            Event::Packet {
                pkt: data(0, 1, 0),
                in_port: PortId(9),
            },
        );
        w.run_until(Nanos::from_micros(100));
        {
            let s: &Sink = w.get(sink).unwrap();
            assert!(s.got.is_empty(), "paused port must hold the packet");
        }
        // Resume: the packet flows.
        w.seed_event(
            w.now(),
            swid,
            Event::Pfc {
                in_port: PortId(0),
                pause: false,
            },
        );
        w.run_until(Nanos::from_millis(1));
        let s: &Sink = w.get(sink).unwrap();
        assert_eq!(s.got.len(), 1);
    }

    #[test]
    fn telemetry_mirrors_switch_stats() {
        let sink = telemetry::Sink::new(8);
        let mut w = World::new();
        w.engine.attach_clock(sink.clock());
        let dst = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig {
            buffer_bytes: 3_200, // fits ~2 packets of 1500B
            ..SwitchConfig::default()
        });
        sw.add_port(EgressPort::new(dst, PortId(0), LinkSpec::gbps(1, 1)), true);
        sw.set_routes(HOST1_ON_PORT0);
        sw.set_telemetry(crate::telem::SwitchTelem::register(&sink));
        let swid = w.add(Box::new(sw));
        for psn in 0..10 {
            w.seed_event(
                Nanos(psn as u64),
                swid,
                Event::Packet {
                    pkt: data(0, 1, psn),
                    in_port: PortId(9),
                },
            );
        }
        // One packet with no route.
        w.seed_event(
            Nanos(100),
            swid,
            Event::Packet {
                pkt: data(0, 55, 0),
                in_port: PortId(9),
            },
        );
        w.run();
        let sw: &Switch = w.get(swid).unwrap();
        let snap = sink.snapshot();
        assert_eq!(
            snap.counter("fabric.drops.buffer"),
            Some(sw.stats.drops_buffer)
        );
        assert_eq!(snap.counter("fabric.drops.no_route"), Some(1));
        // Every drop left a PacketDrop record stamped with simulated time.
        assert_eq!(
            snap.events.total,
            sw.stats.drops_buffer + sw.stats.drops_no_route
        );
        assert!(snap.events.ring.iter().all(|e| e.kind == "packet_drop"));
    }

    #[test]
    fn hook_blocks_reverse_and_emits() {
        let mut w = World::new();
        let sink = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig::default());
        // Port 0: host-facing (where the NACK comes from); port 1: upstream.
        sw.add_port(
            EgressPort::new(sink, PortId(0), LinkSpec::gbps(100, 1)),
            true,
        );
        let up = sw.add_port(
            EgressPort::new(sink, PortId(0), LinkSpec::gbps(100, 1)),
            false,
        );
        sw.set_uplinks(vec![up]);
        sw.set_hook(Box::new(BlockAllNacks));
        let swid = w.add(Box::new(sw));
        // NACK from local host (in_port 0 is host-facing) toward host 5.
        let nack = Packet::nack(QpId(0), HostId(1), HostId(5), 7, 10, false);
        w.seed_event(
            Nanos::ZERO,
            swid,
            Event::Packet {
                pkt: nack,
                in_port: PortId(0),
            },
        );
        w.run();
        let sw: &Switch = w.get(swid).unwrap();
        assert_eq!(sw.stats.hook_blocked, 1);
        assert_eq!(sw.stats.hook_emitted, 1);
        let s: &Sink = w.get(sink).unwrap();
        // Only the emitted CNP arrives; the NACK was blocked.
        assert_eq!(s.got.len(), 1);
        assert_eq!(s.got[0].1.kind.label(), "CNP");
    }

    #[test]
    fn hook_not_applied_to_fabric_ingress() {
        // A NACK arriving from the fabric (non host-facing in_port) must
        // not be filtered: Themis-D only validates NACKs generated by
        // *local* receivers.
        let mut w = World::new();
        let sink = w.add(Box::new(Sink { got: vec![] }));
        let mut sw = Switch::new(&SwitchConfig::default());
        sw.add_port(
            EgressPort::new(sink, PortId(0), LinkSpec::gbps(100, 1)),
            true,
        );
        sw.set_routes(HOST1_ON_PORT0);
        sw.set_hook(Box::new(BlockAllNacks));
        let swid = w.add(Box::new(sw));
        let nack = Packet::nack(QpId(0), HostId(9), HostId(1), 7, 10, false);
        w.seed_event(
            Nanos::ZERO,
            swid,
            Event::Packet {
                pkt: nack,
                in_port: PortId(5), // unknown port -> not host-facing
            },
        );
        w.run();
        let s: &Sink = w.get(sink).unwrap();
        assert_eq!(s.got.len(), 1, "fabric NACK must pass through");
    }
}

//! Link-failure tolerance (§6).
//!
//! When a fabric link fails, PSN-based spraying would keep steering a
//! deterministic fraction of every flow onto the dead path. The paper's
//! remedy: upon failure detection (via external monitoring such as
//! Pingmesh \[17\]), the affected ToR *disables Themis and reverts to ECMP*
//! until the failure clears. That transition is an engine event: the
//! monitor sends [`ControlMsg::TorLink`] `{ failed: true }` and later
//! `{ failed: false }` to each ToR, whose switch reverts its LB policy to
//! ECMP and later restores the one it was built with, and tells its hook
//! ([`ThemisMiddleware::on_link_failure`] /
//! [`ThemisMiddleware::on_link_recovery`]).
//!
//! For a partial failure, [`ThemisMiddleware::set_pathset`] keeps Themis
//! on but narrows it to the surviving paths; a harness reaches a ToR's
//! middleware through its cluster's typed accessors.
//!
//! This module holds no code of its own: the transitions live on the
//! switch and the middleware, and the tests below drive them as the
//! engine does.
//!
//! [`ControlMsg::TorLink`]: netsim::event::ControlMsg::TorLink
//! [`ThemisMiddleware::on_link_failure`]: crate::middleware::ThemisMiddleware::on_link_failure
//! [`ThemisMiddleware::on_link_recovery`]: crate::middleware::ThemisMiddleware::on_link_recovery
//! [`ThemisMiddleware::set_pathset`]: crate::middleware::ThemisMiddleware::set_pathset

#[cfg(test)]
mod tests {
    use crate::config::ThemisConfig;
    use crate::middleware::ThemisMiddleware;
    use crate::themis_s::SprayMode;
    use netsim::event::{ControlMsg, Event, Routed};
    use netsim::lb::LbPolicy;
    use netsim::switch::{Switch, SwitchConfig};
    use netsim::types::NodeId;
    use netsim::world::{Ctx, Entity};
    use simcore::engine::Engine;
    use simcore::time::Nanos;

    fn tor_with_themis() -> Switch {
        let mut sw = Switch::new(&SwitchConfig {
            lb: LbPolicy::RandomSpray,
            ..SwitchConfig::default()
        });
        let cfg = ThemisConfig {
            n_paths: 2,
            spray_mode: SprayMode::DirectEgress,
            queue_capacity: 16,
            compensation: true,
            filtering: true,
        };
        sw.set_hook(Box::new(ThemisMiddleware::new(cfg)));
        sw
    }

    /// Deliver `msg` to `sw` the way the engine does.
    fn control(sw: &mut Switch, msg: ControlMsg) {
        let mut engine: Engine<Routed> = Engine::new();
        sw.handle(
            Event::Control(msg),
            &mut Ctx::for_tests(NodeId(0), Nanos::ZERO, &mut engine),
        );
    }

    fn themis(sw: &Switch) -> &ThemisMiddleware {
        sw.hook().unwrap().as_any().downcast_ref().unwrap()
    }

    fn themis_mut(sw: &mut Switch) -> &mut ThemisMiddleware {
        sw.hook_mut().unwrap().as_any_mut().downcast_mut().unwrap()
    }

    #[test]
    fn failure_message_reverts_to_ecmp_and_disables_spray() {
        let mut sw = tor_with_themis();
        control(&mut sw, ControlMsg::TorLink { failed: true });
        assert_eq!(sw.lb(), LbPolicy::Ecmp);
        assert!(!themis(&sw).s.is_enabled());
    }

    #[test]
    fn recovery_message_resumes_spraying() {
        let mut sw = tor_with_themis();
        control(&mut sw, ControlMsg::TorLink { failed: true });
        control(&mut sw, ControlMsg::TorLink { failed: false });
        assert_eq!(sw.lb(), LbPolicy::RandomSpray);
        assert!(themis(&sw).s.is_enabled());
    }

    #[test]
    fn pathset_restriction_applies_to_both_halves() {
        let mut sw = tor_with_themis();
        themis_mut(&mut sw).set_pathset(Some(vec![0]));
        let m = themis(&sw);
        assert_eq!(m.s.effective_modulus(), 1);
        assert_eq!(m.d.as_ref().unwrap().n_paths(), 1);
    }

    #[test]
    fn restore_clears_pathset_restriction_applied_during_outage() {
        // §6 partial-failure sequence: restrict the pathset while the
        // link is degraded, then repair. The repair must restore the full
        // Eq. 3 modulus on both halves — a leftover restriction would
        // permanently desync this ToR from the rest of the fabric.
        let mut sw = tor_with_themis();
        themis_mut(&mut sw).set_pathset(Some(vec![0]));
        control(&mut sw, ControlMsg::TorLink { failed: true });
        control(&mut sw, ControlMsg::TorLink { failed: false });
        let m = themis(&sw);
        assert!(m.s.is_enabled());
        assert_eq!(m.s.effective_modulus(), 2, "pathset restriction cleared");
        assert_eq!(m.d.as_ref().unwrap().n_paths(), 2, "Eq. 3 modulus restored");
    }

    #[test]
    fn failure_message_without_themis_still_reverts_to_ecmp() {
        let mut sw = Switch::new(&SwitchConfig {
            lb: LbPolicy::RandomSpray,
            ..SwitchConfig::default()
        });
        control(&mut sw, ControlMsg::TorLink { failed: true });
        assert_eq!(sw.lb(), LbPolicy::Ecmp);
    }
}

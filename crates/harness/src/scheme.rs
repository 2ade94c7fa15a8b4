//! Load-balancing schemes under evaluation.
//!
//! The paper's §5 comparison plus the ablations called out in DESIGN.md
//! and the rival designs of SCHEMES.md. A [`Scheme`] is its row of
//! axes, the three orthogonal pieces that make a complete load balancer:
//!
//! * the switch-level LB policy ([`Scheme::lb_policy`]),
//! * the Themis ToR middleware, if any: spray mode, NACK filtering and
//!   compensation ([`Scheme::themis_config`], [`Scheme::nack_filtering`]),
//! * the NIC half — sender entropy policy and receiver OOO escalation,
//!   plus the ideal-transport override ([`Scheme::nic_config`]).
//!
//! The twelve schemes are associated consts (`Scheme::Themis`, ...).
//! Adding a scheme means adding one const of axes and listing it in
//! [`Scheme::ALL`]: labels, `--scheme` names and every answer are read
//! off its fields, and every runner (point-to-point, collectives,
//! fat-tree rings, fig binaries, fuzzer) picks them up through
//! [`crate::cluster::assemble`]. Every axis is a fieldless value: a
//! mechanism's published setting is a `const` beside the mechanism
//! (`netsim::lb::FLOWLET_GAP`, `rnic::reaction::{REPS_POOL,
//! SPRINKLERS_STRIPE, EUNOMIA_WINDOW, EUNOMIA_GAP_TIMEOUT}`), not a field
//! of the scheme. See DESIGN.md "Scheme zoo".

use netsim::lb::LbPolicy;
use rnic::{
    CcConfig, NicConfig, OooReactionKind, SenderEntropyKind, TransportMode, TransportReaction,
};
use themis_core::themis_s::SprayMode;
use themis_core::ThemisConfig;

/// A complete load-balancing configuration for a cluster: one of the
/// named schemes below. Its fields are private, so every scheme is one
/// of those consts.
///
/// Themis schemes leave the switch policy at ECMP: data packets are
/// overridden per packet by Themis-S, while control/reverse traffic
/// follows its flow's ECMP path. REPS and Sprinklers likewise ride on
/// plain ECMP — the *sender* re-rolls the entropy the switches hash on,
/// which is the whole point of sender-driven spraying over commodity
/// fabrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme {
    label: &'static str,
    /// `--scheme` spellings, the canonical one first.
    names: &'static [&'static str],
    lb: LbPolicy,
    /// The Themis middleware on every ToR; `None` leaves plain switches.
    tor: Option<Tor>,
    reaction: TransportReaction,
    /// The loss-oracle transport with congestion control disabled.
    ideal_no_cc: bool,
}

/// What the Themis middleware on a ToR does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tor {
    /// How Themis-S sprays (§3.2).
    spray: SprayMode,
    /// Themis-D blocks invalid NACKs (§3.3).
    filtering: bool,
    /// Themis-D compensates blocked NACKs (§3.4).
    compensation: bool,
}

/// Full Themis (§3): direct-egress spraying, filtering, compensation.
const THEMIS: Tor = Tor {
    spray: SprayMode::DirectEgress,
    filtering: true,
    compensation: true,
};

#[rustfmt::skip]
#[expect(
    non_upper_case_globals,
    reason = "the schemes keep the names callers already spell: perfbench and the examples say `Scheme::Themis`"
)]
impl Scheme {
    /// Flow-level ECMP — the de-facto baseline whose collisions motivate
    /// the paper (§2.1).
    pub const Ecmp: Scheme = Scheme { label: "ECMP", names: &["ecmp"], lb: LbPolicy::Ecmp, tor: None, reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Per-packet adaptive routing (least-loaded uplink) with raw NIC-SR —
    /// the "AR" baseline of Fig 5.
    pub const AdaptiveRouting: Scheme = Scheme { label: "AdaptiveRouting", names: &["ar", "adaptive"], lb: LbPolicy::AdaptiveRouting, tor: None, reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Random packet spraying with raw NIC-SR — the Fig 1 motivation
    /// configuration.
    pub const RandomSpray: Scheme = Scheme { label: "RandomSpray", names: &["spray", "random"], lb: LbPolicy::RandomSpray, tor: None, reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Flowlet switching (§2.3 related work): re-pick a path only after a
    /// 50 µs inter-packet gap. RNIC hardware pacing rarely produces such
    /// gaps, so this degenerates to per-flow placement — the paper's
    /// argument for why flowlet LB does not help RDMA.
    pub const Flowlet: Scheme = Scheme { label: "Flowlet", names: &["flowlet"], lb: LbPolicy::Flowlet, tor: None, reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Full Themis: PSN spraying + NACK filtering + compensation (§3).
    pub const Themis: Scheme = Scheme { label: "Themis", names: &["themis"], lb: LbPolicy::Ecmp, tor: Some(THEMIS), reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Themis with PathMap sport rewriting instead of direct egress
    /// selection (multi-tier deployment mode, §3.2).
    pub const ThemisPathMap: Scheme = Scheme { label: "Themis(PathMap)", names: &["themis-pathmap"], lb: LbPolicy::Ecmp, tor: Some(Tor { spray: SprayMode::PathMapRewrite, ..THEMIS }), reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Ablation: Themis without the §3.4 compensation mechanism.
    pub const ThemisNoCompensation: Scheme = Scheme { label: "Themis(no-comp)", names: &["themis-nocomp"], lb: LbPolicy::Ecmp, tor: Some(Tor { compensation: false, ..THEMIS }), reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Ablation: PSN spraying without NACK filtering (and so without
    /// compensation) — isolates how much of Themis's win comes from
    /// filtering vs. deterministic spraying.
    pub const SprayNoFilter: Scheme = Scheme { label: "Spray(no-filter)", names: &["spray-nofilter"], lb: LbPolicy::Ecmp, tor: Some(Tor { filtering: false, compensation: false, ..THEMIS }), reaction: TransportReaction::COMMODITY, ideal_no_cc: false };
    /// Upper bound: random spraying over the loss-oracle transport with
    /// congestion control disabled (the Fig 1d "Ideal" leg as a
    /// first-class scheme).
    pub const Oracle: Scheme = Scheme { label: "Oracle", names: &["oracle", "ideal"], lb: LbPolicy::RandomSpray, tor: None, reaction: TransportReaction::COMMODITY, ideal_no_cc: true };
    /// REPS (arXiv 2407.21625): sender-driven spraying over plain-ECMP
    /// switches that recycles ACK-echoed "known good" entropy values and
    /// flushes them on loss signals. See SCHEMES.md.
    pub const Reps: Scheme = Scheme { label: "REPS", names: &["reps"], lb: LbPolicy::Ecmp, tor: None, reaction: TransportReaction { entropy: SenderEntropyKind::Reps, ooo: OooReactionKind::Eager }, ideal_no_cc: false };
    /// Eunomia (arXiv 2412.08540): random spraying absorbed by an in-NIC
    /// per-QP ordering buffer with a bounded OOO window — NACKs fire only
    /// on window overflow or gap timeout. See SCHEMES.md.
    pub const Eunomia: Scheme = Scheme { label: "Eunomia", names: &["eunomia"], lb: LbPolicy::RandomSpray, tor: None, reaction: TransportReaction { entropy: SenderEntropyKind::Fixed, ooo: OooReactionKind::Eunomia }, ideal_no_cc: false };
    /// Sprinklers (arXiv 1407.0006): sender-driven randomized
    /// variable-size striping over plain-ECMP switches. See SCHEMES.md.
    pub const Sprinklers: Scheme = Scheme { label: "Sprinklers", names: &["sprinklers"], lb: LbPolicy::Ecmp, tor: None, reaction: TransportReaction { entropy: SenderEntropyKind::Sprinklers, ooo: OooReactionKind::Eager }, ideal_no_cc: false };
}

impl Scheme {
    /// All schemes, for sweeps.
    pub const ALL: [Scheme; 12] = [
        Scheme::Ecmp,
        Scheme::AdaptiveRouting,
        Scheme::RandomSpray,
        Scheme::Flowlet,
        Scheme::Themis,
        Scheme::ThemisPathMap,
        Scheme::ThemisNoCompensation,
        Scheme::SprayNoFilter,
        Scheme::Oracle,
        Scheme::Reps,
        Scheme::Eunomia,
        Scheme::Sprinklers,
    ];

    /// The full cross-scheme comparison set (`fig5 --scheme zoo`): the
    /// paper trio plus the oracle upper bound and the three rivals.
    pub const ZOO: [Scheme; 7] = [
        Scheme::Ecmp,
        Scheme::AdaptiveRouting,
        Scheme::Themis,
        Scheme::Oracle,
        Scheme::Reps,
        Scheme::Eunomia,
        Scheme::Sprinklers,
    ];

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Canonical CLI spelling: the first of the scheme's names, so
    /// `Scheme::parse(s.cli_name()) == Some(s)` for every scheme. Used
    /// wherever a scheme must round-trip through text — the `--scheme`
    /// flags and the fuzzing corpus header.
    pub fn cli_name(&self) -> &'static str {
        self.names[0]
    }

    /// Parse a CLI spelling (`--scheme`), case-blind: any spelling of
    /// any scheme in [`Scheme::ALL`]. The accepted names are listed in
    /// EXPERIMENTS.md.
    pub fn parse(s: &str) -> Option<Scheme> {
        let spelled = |x: &Scheme| x.names.iter().any(|n| n.eq_ignore_ascii_case(s));
        Scheme::ALL.into_iter().find(spelled)
    }

    /// The switch LB policy the leaves run.
    pub fn lb_policy(&self) -> LbPolicy {
        self.lb
    }

    /// Whether the scheme deploys Themis middleware on the ToRs.
    pub fn deploys_themis(&self) -> bool {
        self.tor.is_some()
    }

    /// The Themis middleware configuration this scheme deploys on the
    /// ToRs, if any. `base` supplies the fabric-derived parameters.
    pub fn themis_config(&self, base: ThemisConfig) -> Option<ThemisConfig> {
        self.tor.map(|t| ThemisConfig {
            spray_mode: t.spray,
            filtering: t.filtering,
            compensation: t.compensation,
            ..base
        })
    }

    /// `(filtering, compensation)` of the Themis-D this scheme deploys —
    /// the two flags [`Scheme::themis_config`] sets — or `(false, false)`
    /// without Themis. What the oracle may expect of the ToRs.
    pub fn nack_filtering(&self) -> (bool, bool) {
        self.tor
            .map_or((false, false), |t| (t.filtering, t.compensation))
    }

    /// The NIC configuration this scheme needs, derived from `base`.
    /// Applied once by [`crate::cluster::assemble`], so every runner —
    /// point to point, collectives, fat-tree rings, fuzzer — gets it
    /// for free.
    pub fn nic_config(&self, base: NicConfig) -> NicConfig {
        let nic = NicConfig {
            reaction: self.reaction,
            ..base
        };
        if !self.ideal_no_cc {
            return nic;
        }
        NicConfig {
            transport: TransportMode::IdealOracle,
            cc: CcConfig::disabled(),
            ..nic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::TimeDelta;

    fn base() -> ThemisConfig {
        ThemisConfig::for_fabric(16, 400_000_000_000, TimeDelta::from_micros(2), 1500)
    }

    fn base_nic() -> NicConfig {
        NicConfig::nic_sr(400_000_000_000)
    }

    /// The public `--scheme` / corpus-header vocabulary, stated by hand
    /// in `ALL` order: the consts are checked against this list, not
    /// against themselves, so a typo in a spelling or label fails here.
    #[test]
    fn parse_covers_every_scheme_and_rejects_junk() {
        let vocabulary = [
            (Scheme::Ecmp, "ecmp", "ECMP"),
            (Scheme::AdaptiveRouting, "ar", "AdaptiveRouting"),
            (Scheme::RandomSpray, "spray", "RandomSpray"),
            (Scheme::Flowlet, "flowlet", "Flowlet"),
            (Scheme::Themis, "themis", "Themis"),
            (Scheme::ThemisPathMap, "themis-pathmap", "Themis(PathMap)"),
            (
                Scheme::ThemisNoCompensation,
                "themis-nocomp",
                "Themis(no-comp)",
            ),
            (Scheme::SprayNoFilter, "spray-nofilter", "Spray(no-filter)"),
            (Scheme::Oracle, "oracle", "Oracle"),
            (Scheme::Reps, "reps", "REPS"),
            (Scheme::Eunomia, "eunomia", "Eunomia"),
            (Scheme::Sprinklers, "sprinklers", "Sprinklers"),
        ];
        assert_eq!(vocabulary.map(|v| v.0), Scheme::ALL);
        for (s, spelling, label) in vocabulary {
            assert_eq!(Scheme::parse(spelling), Some(s));
            assert_eq!(s.cli_name(), spelling);
            assert_eq!(s.label(), label);
        }
        assert_eq!(Scheme::parse("REPS"), Some(Scheme::Reps), "case-blind");
        assert_eq!(Scheme::parse("ideal"), Some(Scheme::Oracle));
        assert_eq!(Scheme::parse("bogus"), None);
    }

    #[test]
    fn every_scheme_has_its_own_label_and_spellings() {
        let mut labels = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for s in Scheme::ALL {
            assert!(labels.insert(s.label()), "label {} repeats", s.label());
            // Every spelling (canonical or alias) names exactly one
            // scheme and is stored in the lowercase form `--help` prints.
            for name in s.names {
                assert!(names.insert(*name), "spelling {name} repeats");
                assert_eq!(*name, name.to_ascii_lowercase());
                assert_eq!(Scheme::parse(name), Some(s));
            }
            assert_eq!(Scheme::parse(s.cli_name()), Some(s));
        }
    }

    /// Two presets that agree on every axis would be two names for one
    /// scheme.
    #[test]
    fn no_two_schemes_share_every_axis() {
        let axes = |s: Scheme| (s.lb, s.tor, s.reaction, s.ideal_no_cc);
        for (i, a) in Scheme::ALL.into_iter().enumerate() {
            for b in &Scheme::ALL[i + 1..] {
                assert_ne!(axes(a), axes(*b), "{} and {}", a.label(), b.label());
            }
        }
    }

    #[test]
    fn baselines_have_no_themis() {
        for s in [
            Scheme::Ecmp,
            Scheme::AdaptiveRouting,
            Scheme::RandomSpray,
            Scheme::Flowlet,
            Scheme::Oracle,
            Scheme::Reps,
            Scheme::Eunomia,
            Scheme::Sprinklers,
        ] {
            assert!(s.themis_config(base()).is_none());
        }
    }

    /// Every axis of a scheme is a one-byte fieldless value: no scheme
    /// carries a parameter of its own.
    #[test]
    fn scheme_axes_are_one_byte() {
        use std::mem::size_of;
        assert_eq!(size_of::<LbPolicy>(), 1);
        assert_eq!(size_of::<SprayMode>(), 1);
        assert_eq!(size_of::<SenderEntropyKind>(), 1);
        assert_eq!(size_of::<OooReactionKind>(), 1);
    }

    #[test]
    fn flowlet_uses_flowlet_policy() {
        assert_eq!(Scheme::Flowlet.lb_policy(), LbPolicy::Flowlet);
    }

    #[test]
    fn themis_variants_configure_correctly() {
        let t = Scheme::Themis.themis_config(base()).unwrap();
        assert!(t.filtering && t.compensation);
        assert_eq!(t.spray_mode, SprayMode::DirectEgress);
        let pm = Scheme::ThemisPathMap.themis_config(base()).unwrap();
        assert_eq!(pm.spray_mode, SprayMode::PathMapRewrite);
        let nc = Scheme::ThemisNoCompensation.themis_config(base()).unwrap();
        assert!(nc.filtering && !nc.compensation);
        let nf = Scheme::SprayNoFilter.themis_config(base()).unwrap();
        assert!(!nf.filtering);
    }

    #[test]
    fn nack_filtering_is_what_themis_config_sets() {
        for s in Scheme::ALL {
            let want = s
                .themis_config(base())
                .map_or((false, false), |t| (t.filtering, t.compensation));
            assert_eq!(s.nack_filtering(), want, "{}", s.label());
        }
    }

    #[test]
    fn themis_rides_on_ecmp_policy() {
        assert_eq!(Scheme::Themis.lb_policy(), LbPolicy::Ecmp);
        assert_eq!(
            Scheme::AdaptiveRouting.lb_policy(),
            LbPolicy::AdaptiveRouting
        );
    }

    #[test]
    fn zoo_schemes_configure_their_nic_half() {
        let oracle = Scheme::Oracle.nic_config(base_nic());
        assert_eq!(oracle.transport, TransportMode::IdealOracle);
        assert!(!oracle.cc.enabled);

        let reps = Scheme::Reps.nic_config(base_nic());
        assert_eq!(reps.reaction.entropy, SenderEntropyKind::Reps);
        assert_eq!(reps.reaction.ooo, OooReactionKind::Eager);
        assert_eq!(reps.transport, TransportMode::SelectiveRepeat);

        let eu = Scheme::Eunomia.nic_config(base_nic());
        assert_eq!(eu.reaction.entropy, SenderEntropyKind::Fixed);
        assert_eq!(eu.reaction.ooo, OooReactionKind::Eunomia);

        let spr = Scheme::Sprinklers.nic_config(base_nic());
        assert_eq!(spr.reaction.entropy, SenderEntropyKind::Sprinklers);

        // The incumbents keep the commodity NIC untouched.
        for s in [Scheme::Ecmp, Scheme::Themis, Scheme::RandomSpray] {
            let n = s.nic_config(base_nic());
            assert_eq!(n.reaction, TransportReaction::COMMODITY);
            assert_eq!(n.transport, TransportMode::SelectiveRepeat);
        }
    }

    #[test]
    fn sender_driven_schemes_ride_on_plain_ecmp() {
        assert_eq!(Scheme::Reps.lb_policy(), LbPolicy::Ecmp);
        assert_eq!(Scheme::Sprinklers.lb_policy(), LbPolicy::Ecmp);
        assert_eq!(Scheme::Eunomia.lb_policy(), LbPolicy::RandomSpray);
        assert_eq!(Scheme::Oracle.lb_policy(), LbPolicy::RandomSpray);
    }

    #[test]
    fn aliases_and_case_blind_input_parse_and_junk_does_not() {
        assert_eq!(Scheme::parse("adaptive"), Some(Scheme::AdaptiveRouting));
        assert_eq!(Scheme::parse("random"), Some(Scheme::RandomSpray));
        assert_eq!(Scheme::parse("ideal"), Some(Scheme::Oracle));
        assert_eq!(Scheme::parse("REPS"), Some(Scheme::Reps), "case-blind");
        assert_eq!(Scheme::parse("Themis-PathMap"), Some(Scheme::ThemisPathMap));
        assert_eq!(Scheme::parse("bogus"), None);
        assert_eq!(Scheme::parse(""), None);
    }

    /// `--scheme` has no spelling list of its own: what the flag accepts
    /// and what `--help` prints both come from the schemes' names.
    #[test]
    fn cli_scheme_choices_are_the_schemes_canonical_spellings() {
        let canonical: Vec<&str> = Scheme::ALL.iter().map(Scheme::cli_name).collect();
        let usage = crate::cli::THEMIS_LOAD.usage(None);
        assert!(usage.contains(&canonical.join(" | ")), "{usage}");
        let cli_src = include_str!("cli.rs");
        for name in Scheme::ALL
            .iter()
            .flat_map(|s| s.names)
            .filter(|n| n.contains('-'))
        {
            assert!(
                !cli_src.contains(&format!("\"{name}\"")),
                "cli.rs spells {name}"
            );
        }
    }
}

//! Load-balancing schemes under evaluation.
//!
//! The paper's §5 comparison plus the ablations called out in DESIGN.md
//! and the rival designs of SCHEMES.md. A [`Scheme`] names one row of a
//! `const` table whose columns are the three orthogonal pieces that make
//! a complete load balancer:
//!
//! * the switch-level LB policy ([`Scheme::lb_policy`]),
//! * the Themis ToR middleware variant, if any
//!   ([`Scheme::themis_config`]),
//! * the NIC half — transport override, sender entropy policy and
//!   receiver OOO escalation ([`Scheme::nic_config`]).
//!
//! Adding a scheme means adding a variant and its table row: labels,
//! `--scheme` names and all three answers are read off the row, and
//! every runner (point-to-point, collectives, fat-tree rings, fig
//! binaries, fuzzer) picks them up through [`crate::cluster::assemble`].
//! See DESIGN.md "Scheme zoo".

use netsim::lb::LbPolicy;
use rnic::{
    CcConfig, NicConfig, OooReactionKind, SenderEntropyKind, TransportMode, TransportReaction,
};
use simcore::time::TimeDelta;
use themis_core::themis_s::SprayMode;
use themis_core::ThemisConfig;

/// A complete load-balancing configuration for a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Flow-level ECMP — the de-facto baseline whose collisions motivate
    /// the paper (§2.1).
    Ecmp,
    /// Per-packet adaptive routing (least-loaded uplink) with raw NIC-SR —
    /// the "AR" baseline of Fig 5.
    AdaptiveRouting,
    /// Random packet spraying with raw NIC-SR — the Fig 1 motivation
    /// configuration.
    RandomSpray,
    /// Flowlet switching (§2.3 related work): re-pick a path only after a
    /// 50 µs inter-packet gap. RNIC hardware pacing rarely produces such
    /// gaps, so this degenerates to per-flow placement — the paper's
    /// argument for why flowlet LB does not help RDMA.
    Flowlet,
    /// Full Themis: PSN spraying + NACK filtering + compensation (§3).
    Themis,
    /// Themis with PathMap sport rewriting instead of direct egress
    /// selection (multi-tier deployment mode, §3.2).
    ThemisPathMap,
    /// Ablation: Themis without the §3.4 compensation mechanism.
    ThemisNoCompensation,
    /// Ablation: PSN spraying without NACK filtering — isolates how much
    /// of Themis's win comes from filtering vs. deterministic spraying.
    SprayNoFilter,
    /// Upper bound: random spraying over the loss-oracle transport with
    /// congestion control disabled (the Fig 1d "Ideal" leg as a
    /// first-class scheme).
    Oracle,
    /// REPS (arXiv 2407.21625): sender-driven spraying over plain-ECMP
    /// switches that recycles ACK-echoed "known good" entropy values and
    /// flushes them on loss signals. See SCHEMES.md.
    Reps,
    /// Eunomia (arXiv 2412.08540): random spraying absorbed by an in-NIC
    /// per-QP ordering buffer with a bounded OOO window — NACKs fire only
    /// on window overflow or gap timeout. See SCHEMES.md.
    Eunomia,
    /// Sprinklers (arXiv 1407.0006): sender-driven randomized
    /// variable-size striping over plain-ECMP switches. See SCHEMES.md.
    Sprinklers,
}

/// Which Themis middleware variant a scheme deploys on every ToR.
#[derive(Clone, Copy)]
enum Tor {
    /// No middleware: the ToR is a plain switch.
    None,
    /// PSN spraying by direct egress selection, filtering, compensation.
    Direct,
    /// As `Direct`, spraying by PathMap sport rewriting.
    PathMap,
    /// Filtering without the §3.4 compensation.
    NoCompensation,
    /// PSN spraying only.
    NoFilter,
}

/// What a scheme changes on the NIC.
#[derive(Clone, Copy)]
enum Nic {
    /// Nothing: the caller's NIC configuration stands.
    Unchanged,
    /// The loss-oracle transport with congestion control disabled.
    IdealNoCc,
    /// A non-commodity sender-entropy / OOO-reaction pair.
    Reaction(SenderEntropyKind, OooReactionKind),
}

/// One scheme, axis by axis.
struct Row {
    scheme: Scheme,
    label: &'static str,
    /// `--scheme` spellings, the canonical one first.
    names: &'static [&'static str],
    lb: LbPolicy,
    tor: Tor,
    nic: Nic,
    sprays: bool,
}

const FLOWLET: LbPolicy = LbPolicy::Flowlet {
    gap: Scheme::FLOWLET_GAP,
};
const REPS: Nic = Nic::Reaction(
    SenderEntropyKind::Reps {
        pool: Scheme::REPS_POOL,
    },
    OooReactionKind::Eager,
);
const EUNOMIA: Nic = Nic::Reaction(
    SenderEntropyKind::Fixed,
    OooReactionKind::Eunomia {
        window: Scheme::EUNOMIA_WINDOW,
        gap_timeout: Scheme::EUNOMIA_GAP_TIMEOUT,
    },
);
const SPRINKLERS: Nic = Nic::Reaction(
    SenderEntropyKind::Sprinklers {
        min_stripe: Scheme::SPRINKLERS_STRIPE.0,
        max_stripe: Scheme::SPRINKLERS_STRIPE.1,
    },
    OooReactionKind::Eager,
);

/// The scheme table, one row per variant in declaration order (row `i`
/// describes the variant with discriminant `i`; a test pins this).
///
/// Themis variants leave the switch policy at ECMP: data packets are
/// overridden per packet by Themis-S, while control/reverse traffic
/// follows its flow's ECMP path. REPS and Sprinklers likewise ride on
/// plain ECMP — the *sender* re-rolls the entropy the switches hash on,
/// which is the whole point of sender-driven spraying over commodity
/// fabrics. Flowlet switching only re-routes across genuine gaps, which
/// cannot reorder packets within a flowlet, so it does not count as
/// spraying.
#[rustfmt::skip]
const TABLE: [Row; 12] = [
    Row { scheme: Scheme::Ecmp, label: "ECMP", names: &["ecmp"], lb: LbPolicy::Ecmp, tor: Tor::None, nic: Nic::Unchanged, sprays: false },
    Row { scheme: Scheme::AdaptiveRouting, label: "AdaptiveRouting", names: &["ar", "adaptive"], lb: LbPolicy::AdaptiveRouting, tor: Tor::None, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::RandomSpray, label: "RandomSpray", names: &["spray", "random"], lb: LbPolicy::RandomSpray, tor: Tor::None, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::Flowlet, label: "Flowlet", names: &["flowlet"], lb: FLOWLET, tor: Tor::None, nic: Nic::Unchanged, sprays: false },
    Row { scheme: Scheme::Themis, label: "Themis", names: &["themis"], lb: LbPolicy::Ecmp, tor: Tor::Direct, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::ThemisPathMap, label: "Themis(PathMap)", names: &["themis-pathmap"], lb: LbPolicy::Ecmp, tor: Tor::PathMap, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::ThemisNoCompensation, label: "Themis(no-comp)", names: &["themis-nocomp"], lb: LbPolicy::Ecmp, tor: Tor::NoCompensation, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::SprayNoFilter, label: "Spray(no-filter)", names: &["spray-nofilter"], lb: LbPolicy::Ecmp, tor: Tor::NoFilter, nic: Nic::Unchanged, sprays: true },
    Row { scheme: Scheme::Oracle, label: "Oracle", names: &["oracle", "ideal"], lb: LbPolicy::RandomSpray, tor: Tor::None, nic: Nic::IdealNoCc, sprays: true },
    Row { scheme: Scheme::Reps, label: "REPS", names: &["reps"], lb: LbPolicy::Ecmp, tor: Tor::None, nic: REPS, sprays: true },
    Row { scheme: Scheme::Eunomia, label: "Eunomia", names: &["eunomia"], lb: LbPolicy::RandomSpray, tor: Tor::None, nic: EUNOMIA, sprays: true },
    Row { scheme: Scheme::Sprinklers, label: "Sprinklers", names: &["sprinklers"], lb: LbPolicy::Ecmp, tor: Tor::None, nic: SPRINKLERS, sprays: true },
];

impl Scheme {
    /// All schemes, for sweeps (the table's variants, in row order).
    pub const ALL: [Scheme; 12] = {
        let mut all = [Scheme::Ecmp; 12];
        let mut i = 0;
        while i < all.len() {
            all[i] = TABLE[i].scheme;
            i += 1;
        }
        all
    };

    /// The flowlet gap threshold used by [`Scheme::Flowlet`] (LetFlow-ish).
    pub const FLOWLET_GAP: TimeDelta = TimeDelta::from_micros(50);

    /// The Fig 5 comparison set.
    pub const PAPER_FIG5: [Scheme; 3] = [Scheme::Ecmp, Scheme::AdaptiveRouting, Scheme::Themis];

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

    /// REPS recycled-entropy cache capacity (default knob).
    pub const REPS_POOL: u16 = 16;

    /// Eunomia ordering-buffer window in packets (default knob).
    pub const EUNOMIA_WINDOW: u64 = 256;

    /// Eunomia head-gap timeout before a NACK is forced (default knob;
    /// well above per-path delay skew, well below the 1 ms RTO).
    pub const EUNOMIA_GAP_TIMEOUT: TimeDelta = TimeDelta::from_micros(100);

    /// Sprinklers stripe-length range in packets (default knob).
    pub const SPRINKLERS_STRIPE: (u16, u16) = (16, 64);

    fn row(&self) -> &'static Row {
        &TABLE[*self as usize]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        self.row().label
    }

    /// Canonical CLI spelling: the first of the row's names, so
    /// `Scheme::parse(s.cli_name()) == Some(s)` for every scheme. Used
    /// wherever a scheme must round-trip through text — the `--scheme`
    /// flags and the fuzzing corpus header.
    pub fn cli_name(&self) -> &'static str {
        self.row().names[0]
    }

    /// Parse a CLI spelling (`--scheme`), case-blind: any spelling of
    /// any row. The accepted names are listed in EXPERIMENTS.md.
    pub fn parse(s: &str) -> Option<Scheme> {
        let spelled = |r: &&Row| r.names.iter().any(|x| x.eq_ignore_ascii_case(s));
        TABLE.iter().find(spelled).map(|r| r.scheme)
    }

    /// The switch LB policy the leaves run.
    pub fn lb_policy(&self) -> LbPolicy {
        self.row().lb
    }

    /// The Themis middleware configuration this scheme deploys on the
    /// ToRs, if any. `base` supplies the fabric-derived parameters.
    pub fn themis_config(&self, base: ThemisConfig) -> Option<ThemisConfig> {
        let row = self.row();
        match row.tor {
            Tor::None => None,
            Tor::Direct => Some(ThemisConfig {
                spray_mode: SprayMode::DirectEgress,
                ..base
            }),
            Tor::PathMap => Some(base.with_pathmap()),
            Tor::NoCompensation => Some(base.without_compensation()),
            Tor::NoFilter => Some(base.without_filtering()),
        }
    }

    /// The NIC configuration this scheme needs, derived from `base`.
    /// Applied once by [`crate::cluster::assemble`], so every runner —
    /// point to point, collectives, fat-tree rings, fuzzer — gets it
    /// for free.
    pub fn nic_config(&self, base: NicConfig) -> NicConfig {
        let row = self.row();
        match row.nic {
            Nic::Unchanged => base,
            Nic::IdealNoCc => NicConfig {
                transport: TransportMode::IdealOracle,
                cc: CcConfig::disabled(base.line_rate_bps),
                ..base
            },
            Nic::Reaction(entropy, ooo) => NicConfig {
                reaction: TransportReaction { entropy, ooo },
                ..base
            },
        }
    }

    /// Whether the scheme sprays packets (out-of-order arrivals expected).
    pub fn sprays(&self) -> bool {
        self.row().sprays
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

    /// The public `--scheme` / corpus-header vocabulary, stated by hand:
    /// the table is checked against this list, not against itself, so a
    /// typo in a row's spelling or label fails here.
    #[test]
    fn parse_covers_every_scheme_and_rejects_junk() {
        for s in Scheme::ALL {
            let (spelling, label) = match s {
                Scheme::Ecmp => ("ecmp", "ECMP"),
                Scheme::AdaptiveRouting => ("ar", "AdaptiveRouting"),
                Scheme::RandomSpray => ("spray", "RandomSpray"),
                Scheme::Flowlet => ("flowlet", "Flowlet"),
                Scheme::Themis => ("themis", "Themis"),
                Scheme::ThemisPathMap => ("themis-pathmap", "Themis(PathMap)"),
                Scheme::ThemisNoCompensation => ("themis-nocomp", "Themis(no-comp)"),
                Scheme::SprayNoFilter => ("spray-nofilter", "Spray(no-filter)"),
                Scheme::Oracle => ("oracle", "Oracle"),
                Scheme::Reps => ("reps", "REPS"),
                Scheme::Eunomia => ("eunomia", "Eunomia"),
                Scheme::Sprinklers => ("sprinklers", "Sprinklers"),
            };
            assert_eq!(Scheme::parse(spelling), Some(s));
            assert_eq!(s.cli_name(), spelling);
            assert_eq!(s.label(), label);
        }
        assert_eq!(Scheme::parse("REPS"), Some(Scheme::Reps), "case-blind");
        assert_eq!(Scheme::parse("ideal"), Some(Scheme::Oracle));
        assert_eq!(Scheme::parse("bogus"), None);
    }

    #[test]
    fn table_has_one_row_per_variant_in_all_order() {
        assert_eq!(TABLE.len(), Scheme::ALL.len());
        let mut labels = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for (i, (row, s)) in TABLE.iter().zip(Scheme::ALL).enumerate() {
            assert_eq!(row.scheme, s);
            assert_eq!(s as usize, i, "{} is not row {i}", s.label());
            assert!(labels.insert(s.label()), "label {} repeats", s.label());
            // Every spelling (canonical or alias) names exactly one row
            // and is stored in the lowercase form `--help` prints.
            for name in row.names {
                assert!(names.insert(*name), "spelling {name} repeats");
                assert_eq!(*name, name.to_ascii_lowercase());
                assert_eq!(Scheme::parse(name), Some(s));
            }
            assert_eq!(Scheme::parse(s.cli_name()), Some(s));
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

    #[test]
    fn flowlet_uses_flowlet_policy() {
        assert_eq!(
            Scheme::Flowlet.lb_policy(),
            LbPolicy::Flowlet {
                gap: Scheme::FLOWLET_GAP
            }
        );
        assert!(!Scheme::Flowlet.sprays());
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
    fn themis_rides_on_ecmp_policy() {
        assert_eq!(Scheme::Themis.lb_policy(), LbPolicy::Ecmp);
        assert_eq!(
            Scheme::AdaptiveRouting.lb_policy(),
            LbPolicy::AdaptiveRouting
        );
        assert!(!Scheme::Ecmp.sprays());
        assert!(Scheme::Themis.sprays());
    }

    #[test]
    fn zoo_schemes_configure_their_nic_half() {
        let oracle = Scheme::Oracle.nic_config(base_nic());
        assert_eq!(oracle.transport, TransportMode::IdealOracle);
        assert!(!oracle.cc.enabled && !oracle.cc.nack_slowdown);

        let reps = Scheme::Reps.nic_config(base_nic());
        assert_eq!(
            reps.reaction.entropy,
            SenderEntropyKind::Reps {
                pool: Scheme::REPS_POOL
            }
        );
        assert_eq!(reps.reaction.ooo, OooReactionKind::Eager);
        assert_eq!(reps.transport, TransportMode::SelectiveRepeat);

        let eu = Scheme::Eunomia.nic_config(base_nic());
        assert_eq!(eu.reaction.entropy, SenderEntropyKind::Fixed);
        assert_eq!(
            eu.reaction.ooo,
            OooReactionKind::Eunomia {
                window: Scheme::EUNOMIA_WINDOW,
                gap_timeout: Scheme::EUNOMIA_GAP_TIMEOUT,
            }
        );

        let spr = Scheme::Sprinklers.nic_config(base_nic());
        assert_eq!(
            spr.reaction.entropy,
            SenderEntropyKind::Sprinklers {
                min_stripe: Scheme::SPRINKLERS_STRIPE.0,
                max_stripe: Scheme::SPRINKLERS_STRIPE.1,
            }
        );

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
        for s in [
            Scheme::Oracle,
            Scheme::Reps,
            Scheme::Eunomia,
            Scheme::Sprinklers,
        ] {
            assert!(s.sprays());
        }
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
    /// and what `--help` prints both come from this table.
    #[test]
    fn cli_scheme_choices_are_the_table_s_canonical_spellings() {
        let canonical: Vec<&str> = TABLE.iter().map(|r| r.names[0]).collect();
        let usage = crate::cli::THEMIS_LOAD.usage(None);
        assert!(usage.contains(&canonical.join(" | ")), "{usage}");
        let cli_src = include_str!("cli.rs");
        for name in TABLE
            .iter()
            .flat_map(|r| r.names)
            .filter(|n| n.contains('-'))
        {
            assert!(
                !cli_src.contains(&format!("\"{name}\"")),
                "cli.rs spells {name}"
            );
        }
    }
}

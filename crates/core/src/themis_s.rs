//! Themis-S: PSN-based packet spraying at the source ToR (§3.2).
//!
//! For every data packet from a directly attached host, Themis-S applies
//! Eq. 1 in one of two deployment modes:
//!
//! * [`SprayMode::DirectEgress`] — 2-tier Clos: the ToR fully determines
//!   the path, so Themis-S simply returns the uplink index
//!   `(PSN mod N + P_base) mod N`. `P_base` is the flow's ECMP hash, so
//!   disabling Themis degenerates to plain ECMP on the same path set.
//! * [`SprayMode::PathMapRewrite`] — multi-tier: the ToR XORs a PathMap
//!   delta into the UDP source port (Figure 3) and leaves egress selection
//!   to the regular ECMP stages, which now hash the packet onto the
//!   desired relative path. Only the ToR needs programmability.
//!   [`SprayMode::PathMapTwoTier`] is the fat tree's form: one rewrite
//!   steers both its edge and its aggregation ECMP stage.
//!
//! Non-data packets (ACK/NACK/CNP/handshake) are never sprayed: they
//! follow the flow's base path, keeping control-packet ordering intact.

use crate::pathmap::PathMap;
use crate::policy::{assert_valid_path_count, path_of, relative_path};
use netsim::fat_tree::AGG_ECMP_SHIFT;
use netsim::hash::{ecmp_hash, FiveTuple};
use netsim::packet::Packet;

/// How Themis-S realizes Eq. 1 on the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprayMode {
    /// Pick the egress uplink directly (2-tier Clos).
    DirectEgress,
    /// Rewrite the UDP source port through the PathMap (single ECMP
    /// stage reads the low hash bits).
    PathMapRewrite,
    /// Rewrite through a two-stage PathMap for the 3-tier fat tree: of
    /// the `log2(n_paths)` path bits (`n_paths = m²`), the edge stage
    /// reads the low half at hash bit 0 and the aggregation stage the
    /// rest at [`AGG_ECMP_SHIFT`], where the fat-tree builder points it.
    PathMapTwoTier,
}

/// Themis-S statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThemisSStats {
    /// Data packets sprayed.
    pub sprayed: u64,
    /// Packets passed through un-sprayed (disabled, or non-data).
    pub bypassed: u64,
}

/// The source-side half of Themis.
#[derive(Debug)]
pub struct ThemisS {
    n_paths: usize,
    /// The PathMap of the two rewrite modes; `None` in direct-egress
    /// mode, which never touches the header.
    pathmap: Option<PathMap>,
    enabled: bool,
    /// Restricted path subset (§6 future work): when set, spraying cycles
    /// over these path indices instead of all `0..n_paths`. Must be a
    /// power-of-two-sized set of distinct indices `< n_paths`, and every
    /// Themis-D that terminates affected flows must use the same modulus
    /// (see [`crate::themis_d::ThemisD::set_modulus`]).
    pathset: Option<Vec<usize>>,
    /// Statistics.
    pub stats: ThemisSStats,
}

impl ThemisS {
    /// Build for `n_paths` equal-cost paths.
    pub fn new(n_paths: usize, mode: SprayMode) -> ThemisS {
        assert_valid_path_count(n_paths);
        let pathmap = match mode {
            SprayMode::PathMapRewrite => Some(PathMap::build(n_paths)),
            SprayMode::PathMapTwoTier => {
                let bits = n_paths.trailing_zeros();
                let edge = bits / 2;
                Some(PathMap::build_two_tier(edge, AGG_ECMP_SHIFT, bits - edge))
            }
            SprayMode::DirectEgress => None,
        };
        ThemisS {
            n_paths,
            pathmap,
            enabled: true,
            pathset: None,
            stats: ThemisSStats::default(),
        }
    }

    /// Restrict spraying to a subset of path indices (§6: pathset
    /// adjustment around failures). `None` restores the full path set.
    ///
    /// # Panics
    /// Panics if the subset is not a power-of-two-sized list of distinct
    /// in-range indices — those are the same constraints the full path
    /// count satisfies, required for PSN-wrap continuity and the 1-byte
    /// truncated validity check.
    pub fn set_pathset(&mut self, pathset: Option<Vec<usize>>) {
        if let Some(ps) = &pathset {
            assert_valid_path_count(ps.len());
            assert!(ps.len() <= self.n_paths, "subset larger than path set");
            let mut seen = std::collections::HashSet::new();
            for &p in ps {
                assert!(p < self.n_paths, "path index {p} out of range");
                assert!(seen.insert(p), "duplicate path index {p}");
            }
        }
        self.pathset = pathset;
    }

    /// The effective spraying modulus: subset size if restricted, else
    /// the full path count. Themis-D's Eq. 3 modulus must equal this.
    pub fn effective_modulus(&self) -> usize {
        self.pathset.as_ref().map_or(self.n_paths, Vec::len)
    }

    /// Number of paths.
    pub fn n_paths(&self) -> usize {
        self.n_paths
    }

    /// Whether spraying is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable/disable spraying (the §6 link-failure fallback: disabled
    /// Themis-S leaves packets to the switch's regular ECMP policy).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The flow's ECMP base path for the current header.
    pub fn base_path(&self, pkt: &Packet) -> usize {
        (ecmp_hash(&FiveTuple::of_packet(pkt)) as usize) % self.n_paths
    }

    /// Apply the spraying policy to an upstream data packet.
    ///
    /// Returns `Some(uplink)` in direct mode; in PathMap mode rewrites the
    /// header in place and returns `None` (downstream ECMP decides).
    pub fn spray(&mut self, pkt: &mut Packet) -> Option<usize> {
        if !self.enabled {
            self.stats.bypassed += 1;
            return None;
        }
        let Some(psn) = pkt.data_psn() else {
            self.stats.bypassed += 1;
            return None;
        };
        self.stats.sprayed += 1;
        // Map the PSN to a path index, cycling over the restricted
        // subset when one is installed.
        let resolve = |rel: usize, pathset: &Option<Vec<usize>>| -> usize {
            match pathset {
                Some(ps) => ps[rel],
                None => rel,
            }
        };
        let n_eff = self.effective_modulus();
        match &self.pathmap {
            None => {
                let base = (ecmp_hash(&FiveTuple::of_packet(pkt)) as usize) % n_eff;
                let rel = path_of(psn, n_eff, base);
                Some(resolve(rel, &self.pathset))
            }
            Some(pm) => {
                let rel = relative_path(psn, n_eff);
                let delta = resolve(rel, &self.pathset);
                pkt.udp_sport = pm.rewrite(pkt.udp_sport, delta);
                None
            }
        }
    }

    /// Switch memory consumed (PathMap only; direct mode stores nothing).
    pub fn memory_bytes(&self) -> usize {
        self.pathmap.as_ref().map_or(0, PathMap::memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::types::{HostId, QpId};

    fn data(psn: u32, sport: u16) -> Packet {
        Packet::data(
            QpId(1),
            HostId(0),
            HostId(9),
            sport,
            psn,
            0,
            false,
            1000,
            false,
        )
    }

    #[test]
    fn direct_mode_follows_eq1() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        let mut p0 = data(0, 700);
        let base = s.base_path(&p0);
        for psn in 0..16u32 {
            let mut p = data(psn, 700);
            assert_eq!(s.spray(&mut p), Some((psn as usize % 4 + base) % 4));
            // Direct mode never touches the header.
            assert_eq!(p.udp_sport, 700);
        }
        assert_eq!(s.stats.sprayed, 16);
        let _ = s.spray(&mut p0);
    }

    #[test]
    fn direct_mode_uniform_coverage() {
        let mut s = ThemisS::new(8, SprayMode::DirectEgress);
        let mut counts = [0u32; 8];
        for psn in 0..800u32 {
            let mut p = data(psn, 700);
            counts[s.spray(&mut p).unwrap()] += 1;
        }
        assert_eq!(counts, [100; 8]);
    }

    #[test]
    fn pathmap_mode_rewrites_and_defers() {
        let mut s = ThemisS::new(4, SprayMode::PathMapRewrite);
        let mut p = data(7, 700); // 7 mod 4 = 3
        assert_eq!(s.spray(&mut p), None);
        // delta 3 applied.
        let pm = PathMap::build(4);
        assert_eq!(p.udp_sport, pm.rewrite(700, 3));
        assert_ne!(p.udp_sport, 700, "the source port changed");
    }

    #[test]
    fn pathmap_mode_same_mod_same_header() {
        let mut s = ThemisS::new(4, SprayMode::PathMapRewrite);
        let mut a = data(1, 700);
        let mut b = data(5, 700);
        s.spray(&mut a);
        s.spray(&mut b);
        assert_eq!(a.udp_sport, b.udp_sport, "PSN ≡ (mod N) ⇒ same path");
        let mut c = data(2, 700);
        s.spray(&mut c);
        assert_ne!(a.udp_sport, c.udp_sport);
    }

    #[test]
    fn disabled_sprayer_bypasses() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        s.set_enabled(false);
        let mut p = data(3, 700);
        assert_eq!(s.spray(&mut p), None);
        assert_eq!(s.stats.bypassed, 1);
        assert!(!s.is_enabled());
    }

    #[test]
    fn non_data_bypasses() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        let mut nack = Packet::nack(QpId(1), HostId(0), HostId(9), 700, 3, false);
        assert_eq!(s.spray(&mut nack), None);
        assert_eq!(s.stats.bypassed, 1);
        assert_eq!(s.stats.sprayed, 0);
    }

    /// The k=4 (4 paths) and k=8 (16 paths) fat trees: PSNs congruent
    /// mod `n_paths` share a rewrite, and the `n_paths` rewrites are the
    /// two-stage PathMap's at the aggregation tier's shift.
    #[test]
    fn two_tier_mode_rewrites() {
        for (n, bits) in [(4, 1), (16, 2)] {
            let mut s = ThemisS::new(n, SprayMode::PathMapTwoTier);
            let pm = PathMap::build_two_tier(bits, AGG_ECMP_SHIFT, bits);
            let mut a = data(1, 700);
            let mut b = data(1 + n as u32, 700);
            assert_eq!(s.spray(&mut a), None);
            assert_eq!(s.spray(&mut b), None);
            assert_eq!(a.udp_sport, b.udp_sport, "PSN ≡ (mod {n}) ⇒ same rewrite");
            let mut c = data(2, 700);
            s.spray(&mut c);
            assert_ne!(a.udp_sport, c.udp_sport);
            assert_eq!(c.udp_sport, pm.rewrite(700, 2), "n={n}");
        }
    }

    #[test]
    fn pathset_restricts_direct_spraying() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        s.set_pathset(Some(vec![0, 2]));
        assert_eq!(s.effective_modulus(), 2);
        let mut seen = std::collections::HashSet::new();
        for psn in 0..32u32 {
            let mut p = data(psn, 700);
            seen.insert(s.spray(&mut p).unwrap());
        }
        assert_eq!(seen, [0usize, 2].into_iter().collect());
        // Restore full set.
        s.set_pathset(None);
        assert_eq!(s.effective_modulus(), 4);
    }

    #[test]
    fn pathset_preserves_mod_equality_invariant() {
        // Two PSNs with equal residues modulo the subset size share a
        // path — the invariant Themis-D's Eq. 3 relies on.
        let mut s = ThemisS::new(8, SprayMode::DirectEgress);
        s.set_pathset(Some(vec![1, 5, 6, 7]));
        let path = |s: &mut ThemisS, psn: u32| {
            let mut p = data(psn, 700);
            s.spray(&mut p).unwrap()
        };
        for psn in 0..16u32 {
            assert_eq!(path(&mut s, psn), path(&mut s, psn + 4));
            assert_ne!(path(&mut s, psn), path(&mut s, psn + 1));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn pathset_size_must_be_power_of_two() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        s.set_pathset(Some(vec![0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn pathset_rejects_duplicates() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        s.set_pathset(Some(vec![1, 1]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pathset_rejects_out_of_range() {
        let mut s = ThemisS::new(4, SprayMode::DirectEgress);
        s.set_pathset(Some(vec![0, 9]));
    }

    #[test]
    fn memory_accounting() {
        assert_eq!(
            ThemisS::new(256, SprayMode::PathMapRewrite).memory_bytes(),
            512
        );
        assert_eq!(ThemisS::new(256, SprayMode::DirectEgress).memory_bytes(), 0);
    }
}

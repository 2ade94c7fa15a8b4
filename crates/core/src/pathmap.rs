//! The PathMap: offline-constructed UDP-sport rewrite table (§3.2, Fig 3).
//!
//! In multi-tier fabrics the source ToR cannot pick the whole path by
//! egress port alone; instead it *rewrites the UDP source port* so that
//! downstream ECMP stages hash the packet onto the desired relative path.
//! Zhang et al. \[37\] showed commodity ASIC hashes are GF(2)-linear, which
//! makes the rewrite table computable offline: for every relative path
//! delta `d` there is a 16-bit sport XOR-delta that moves *any* flow
//! exactly `d` paths over.
//!
//! One nuance faithfully carried over from \[37\]: with a linear hash,
//! "moving d paths over" is XOR in the path-index space (`path' = path ⊕
//! d`) rather than addition modulo N. Every Themis invariant is preserved:
//! packets with equal `PSN mod N` still share a path, distinct deltas
//! still reach distinct paths, and coverage of all N paths is exact —
//! which is all that Eq. 3 validity requires (the mapping from relative
//! delta to physical path merely needs to be a bijection).
//!
//! Each entry stores the 16-bit Δ(UDP sport); memory is `N × 2` bytes as
//! charged in §4.

use crate::policy::assert_valid_path_count;
use netsim::hash::{sport_delta_for_hash_delta, sport_delta_for_masked_delta};

/// Offline-computed sport-rewrite table, one entry per relative path.
///
/// ```
/// use themis_core::pathmap::PathMap;
/// let pm = PathMap::build(16);
/// assert_eq!(pm.n_paths(), 16);
/// assert_eq!(pm.memory_bytes(), 32);       // 2 bytes per entry (§4)
/// assert_eq!(pm.sport_delta(0), 0);        // delta 0 keeps the base path
/// let rewritten = pm.rewrite(4791, 5);     // XOR the delta-5 pattern in
/// assert_eq!(rewritten ^ pm.sport_delta(5), 4791);
/// ```
#[derive(Debug, Clone)]
pub struct PathMap {
    deltas: Vec<u16>,
    bits: u32,
}

impl PathMap {
    /// Build the table for `n_paths` (power of two ≤ 256), solving the
    /// GF(2) system for each relative delta.
    #[expect(
        clippy::expect_used,
        reason = "the CRC-16 sport basis spans the low 8 hash bits, so every delta of a \
                  path count <= 256 has a solution"
    )]
    pub fn build(n_paths: usize) -> PathMap {
        assert_valid_path_count(n_paths);
        let bits = n_paths.trailing_zeros();
        let deltas = (0..n_paths)
            .map(|d| {
                sport_delta_for_hash_delta(d as u16, bits)
                    .expect("CRC-16 sport basis spans the low hash bits")
            })
            .collect();
        PathMap { deltas, bits }
    }

    /// Build a table steering **two ECMP stages at once** — the 3-tier
    /// Clos deployment of §3.2.
    ///
    /// Stage 1 (edge → aggregation) reads hash bits `[0, bits_stage1)`;
    /// stage 2 (aggregation → core) reads `[shift_stage2,
    /// shift_stage2 + bits_stage2)`. A relative path delta
    /// `d = d1 + d2 · 2^bits_stage1` decomposes into per-stage XOR deltas
    /// `(d1, d2)`, and the solver finds one sport rewrite satisfying both
    /// constraints simultaneously. `n_paths = 2^(bits_stage1 +
    /// bits_stage2)`; the entry still costs 2 bytes (§4).
    #[expect(
        clippy::expect_used,
        reason = "the CRC-16 sport basis spans any two non-overlapping hash views within \
                  16 bits, which the assert below enforces"
    )]
    pub fn build_two_tier(bits_stage1: u32, shift_stage2: u32, bits_stage2: u32) -> PathMap {
        let bits = bits_stage1 + bits_stage2;
        let n_paths = 1usize << bits;
        assert_valid_path_count(n_paths);
        assert!(
            shift_stage2 >= bits_stage1 && shift_stage2 + bits_stage2 <= 16,
            "stage-2 hash view must not overlap stage 1 and must fit 16 bits"
        );
        let mask1 = ((1u32 << bits_stage1) - 1) as u16;
        let mask2 = (((1u32 << bits_stage2) - 1) as u16) << shift_stage2;
        let deltas = (0..n_paths)
            .map(|d| {
                let d1 = (d as u16) & mask1;
                let d2 = ((d >> bits_stage1) as u16) << shift_stage2;
                sport_delta_for_masked_delta(d1 | d2, mask1 | mask2)
                    .expect("CRC-16 sport basis spans both hash views")
            })
            .collect();
        PathMap { deltas, bits }
    }

    /// Number of relative paths covered.
    pub fn n_paths(&self) -> usize {
        self.deltas.len()
    }

    /// The Δ(UDP sport) for relative path `delta` (step ② of Figure 3).
    #[inline]
    pub fn sport_delta(&self, delta: usize) -> u16 {
        self.deltas[delta]
    }

    /// Apply the rewrite for `delta` to a source port (step ③: XOR).
    #[inline]
    pub fn rewrite(&self, sport: u16, delta: usize) -> u16 {
        sport ^ self.deltas[delta]
    }

    /// log2(number of paths): how many low hash bits select the path.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Switch memory for the table: 2 bytes per entry (§4).
    pub fn memory_bytes(&self) -> usize {
        self.deltas.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::hash::{ecmp_hash, FiveTuple};
    use netsim::types::HostId;

    #[test]
    fn delta_zero_is_identity() {
        for n in [2usize, 4, 16, 256] {
            let pm = PathMap::build(n);
            assert_eq!(pm.sport_delta(0), 0, "n={n}");
            assert_eq!(pm.rewrite(12345, 0), 12345);
        }
    }

    #[test]
    fn rewrite_moves_flow_by_exact_delta() {
        // For every flow and every delta: the rewritten packet hashes to
        // path (orig ⊕ delta) — the bijection Eq. 3 relies on.
        let n = 16usize;
        let pm = PathMap::build(n);
        let mask = (n - 1) as u16;
        for (src, dst, sport) in [(0u32, 7u32, 4000u16), (3, 200, 65000), (11, 12, 4791)] {
            let t = FiveTuple::new(HostId(src), HostId(dst), sport);
            let p0 = ecmp_hash(&t) & mask;
            for d in 0..n {
                let mut t2 = t;
                t2.sport = pm.rewrite(sport, d);
                let p = ecmp_hash(&t2) & mask;
                assert_eq!(p, p0 ^ d as u16, "src={src} d={d}");
            }
        }
    }

    #[test]
    fn all_deltas_reach_distinct_paths() {
        let n = 256usize;
        let pm = PathMap::build(n);
        let t = FiveTuple::new(HostId(1), HostId(2), 777);
        let mask = (n - 1) as u16;
        let mut seen = std::collections::HashSet::new();
        for d in 0..n {
            let mut t2 = t;
            t2.sport = pm.rewrite(777, d);
            seen.insert(ecmp_hash(&t2) & mask);
        }
        assert_eq!(seen.len(), n, "rewrites must cover every path exactly once");
    }

    #[test]
    fn same_relative_delta_same_path_across_psns() {
        // Two packets with PSN ≡ (mod N) get identical rewrites and hence
        // identical physical paths — the core Themis-D assumption.
        let n = 8usize;
        let pm = PathMap::build(n);
        for psn in 0..64u32 {
            let d1 = (psn as usize) % n;
            let d2 = ((psn + 8 * 5) as usize) % n;
            assert_eq!(pm.sport_delta(d1), pm.sport_delta(d2));
        }
    }

    #[test]
    fn two_tier_moves_both_stages_independently() {
        // Edge reads hash bits [0,2), agg reads [8,10): 16 paths total.
        let pm = PathMap::build_two_tier(2, 8, 2);
        assert_eq!(pm.n_paths(), 16);
        let t = FiveTuple::new(HostId(3), HostId(200), 5555);
        let h0 = ecmp_hash(&t);
        let (e0, a0) = ((h0 & 0b11), ((h0 >> 8) & 0b11));
        for d in 0..16usize {
            let (d1, d2) = ((d & 0b11) as u16, ((d >> 2) & 0b11) as u16);
            let mut t2 = t;
            t2.sport = pm.rewrite(5555, d);
            let h = ecmp_hash(&t2);
            assert_eq!(h & 0b11, e0 ^ d1, "stage-1 delta {d}");
            assert_eq!((h >> 8) & 0b11, a0 ^ d2, "stage-2 delta {d}");
        }
    }

    #[test]
    fn two_tier_covers_all_composite_paths() {
        // Every (edge choice, agg choice) pair is reachable exactly once.
        let pm = PathMap::build_two_tier(2, 8, 2);
        let t = FiveTuple::new(HostId(9), HostId(77), 60_000);
        let mut seen = std::collections::HashSet::new();
        for d in 0..16usize {
            let mut t2 = t;
            t2.sport = pm.rewrite(60_000, d);
            let h = ecmp_hash(&t2);
            seen.insert((h & 0b11, (h >> 8) & 0b11));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn two_tier_same_delta_same_header() {
        let pm = PathMap::build_two_tier(1, 8, 1);
        assert_eq!(pm.n_paths(), 4);
        // PSN ≡ (mod 4) ⇒ same rewrite ⇒ same composite path.
        assert_eq!(pm.sport_delta(1), pm.sport_delta(1));
        assert_ne!(pm.sport_delta(1), pm.sport_delta(2));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn two_tier_rejects_overlapping_views() {
        PathMap::build_two_tier(4, 2, 4);
    }

    #[test]
    fn memory_matches_section4() {
        // 256 paths × 2 bytes = 512 B.
        assert_eq!(PathMap::build(256).memory_bytes(), 512);
        assert_eq!(PathMap::build(2).memory_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_invalid_path_count() {
        PathMap::build(12);
    }
}

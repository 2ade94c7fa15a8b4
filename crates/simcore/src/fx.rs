//! A fast, non-cryptographic hasher for dense integer keys.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs ~1 ns per word — noticeable when the key is a
//! 4-byte QP or host id looked up once per simulated packet. Simulation
//! state is never attacker-controlled, so we trade that resistance for a
//! single multiply-rotate per word (the "Fx" scheme popularized by the
//! Firefox and rustc codebases, re-derived here so the workspace stays
//! dependency-free).
//!
//! Use the [`FxHashMap`]/[`FxHashSet`] aliases for hot-path tables keyed
//! on ids; keep the std default for anything configuration-sized.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiplicative mixing constant (2^64 / φ, forced odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ROTATE: u32 = 26;

/// Multiply-rotate hasher; one multiply per 8 bytes of input.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rest) = bytes.as_chunks::<8>();
        for &c in chunks {
            self.add_to_hash(u64::from_le_bytes(c));
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (deterministic: no per-map seed).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn dense_small_keys_spread() {
        // Sequential ids must not collide into a few buckets: check the
        // low bits (what HashMap uses for bucket selection) look spread.
        let mut low_bits = FxHashSet::default();
        for i in 0..256u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            low_bits.insert(h.finish() & 0xFF);
        }
        assert!(low_bits.len() > 150, "only {} distinct", low_bits.len());
    }

    #[test]
    fn tuple_keys_work() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }
}

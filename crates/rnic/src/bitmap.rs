//! Receiver-side out-of-order bitmap.
//!
//! NIC-SR receivers track packets that arrived ahead of the expected PSN
//! in a bitmap (§2.2). [`OooBitmap`] is a sliding window anchored at the
//! current ePSN: bit `i` says whether `epsn + i` has been received. When
//! the expected packet arrives, [`OooBitmap::advance`] slides the anchor
//! past the contiguous received prefix — this is exactly the RNIC rule
//! "the ePSN advances to the smallest PSN not yet received".

use std::collections::VecDeque;

const WORD_BITS: u64 = 64;

/// Sliding out-of-order reception window.
#[derive(Debug, Clone, Default)]
pub struct OooBitmap {
    /// Bit `i` of the window corresponds to `anchor + i`; bit 0 is the
    /// (by definition un-received) expected PSN itself.
    words: VecDeque<u64>,
    /// Number of bits currently set.
    set_count: usize,
}

impl OooBitmap {
    /// An empty window.
    pub fn new() -> OooBitmap {
        OooBitmap::default()
    }

    /// Number of PSNs marked received ahead of the anchor.
    pub fn set_count(&self) -> usize {
        self.set_count
    }

    /// Mark `offset` (distance from the expected PSN) as received.
    /// Returns false if the bit was already set (duplicate arrival).
    ///
    /// `offset` must be ≥ 1: offset 0 is the expected packet, which is
    /// consumed by [`OooBitmap::advance`] instead.
    pub fn set(&mut self, offset: u64) -> bool {
        debug_assert!(offset >= 1, "offset 0 is the expected packet");
        let word = (offset / WORD_BITS) as usize;
        let bit = offset % WORD_BITS;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.set_count += 1;
        true
    }

    /// Whether `offset` is marked received.
    pub fn is_set(&self, offset: u64) -> bool {
        let word = (offset / WORD_BITS) as usize;
        let bit = offset % WORD_BITS;
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// The expected packet arrived: consume it plus the contiguous run of
    /// already-received successors. Returns how many PSNs the ePSN
    /// advances by (≥ 1).
    pub fn advance(&mut self) -> u64 {
        // Position 0 (the expected packet itself) counts as received now;
        // find the first hole at offset ≥ 1.
        let mut advanced: u64 = 1;
        loop {
            if !self.is_set(advanced) {
                break;
            }
            advanced += 1;
        }
        self.shift(advanced);
        advanced
    }

    /// Slide the window down by `n` positions.
    fn shift(&mut self, n: u64) {
        // Cheap path: drop whole words.
        let whole_words = ((n / WORD_BITS) as usize).min(self.words.len());
        for w in self.words.drain(..whole_words) {
            self.set_count -= w.count_ones() as usize;
        }
        let rem = n % WORD_BITS;
        if rem == 0 || self.words.is_empty() {
            return;
        }
        // Shift the remaining bits down by `rem`.
        let dropped = (self.words[0] & ((1u64 << rem) - 1)).count_ones() as usize;
        self.set_count -= dropped;
        let len = self.words.len();
        for i in 0..len {
            let lo = self.words[i] >> rem;
            let hi = if i + 1 < len {
                self.words[i + 1] << (WORD_BITS - rem)
            } else {
                0
            };
            self.words[i] = lo | hi;
        }
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
    }

    /// Reset to empty (connection teardown).
    pub fn clear(&mut self) {
        self.words.clear();
        self.set_count = 0;
    }

    /// Hash the window contents into `h` (model-checker canonical state
    /// fingerprints). Trailing zero words are ignored so two windows
    /// with the same marked PSNs hash equal regardless of how they
    /// were grown and shrunk.
    pub fn hash_into<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash;
        let last = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        for w in self.words.iter().take(last) {
            w.hash(h);
        }
        self.set_count.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_with_no_ooo_moves_by_one() {
        let mut b = OooBitmap::new();
        assert_eq!(b.advance(), 1);
        assert_eq!(b.set_count(), 0);
    }

    #[test]
    fn advance_consumes_contiguous_run() {
        let mut b = OooBitmap::new();
        // Received psn+1, psn+2, psn+4 out of order.
        assert!(b.set(1));
        assert!(b.set(2));
        assert!(b.set(4));
        assert_eq!(b.set_count(), 3);
        // Expected packet arrives: advance past 0,1,2 -> 3.
        assert_eq!(b.advance(), 3);
        // Window now anchored at old+3: old offset 4 is now offset 1.
        assert!(b.is_set(1));
        assert_eq!(b.set_count(), 1);
        // Next expected (old+3) arrives: consume it and old+4.
        assert_eq!(b.advance(), 2);
        assert_eq!(b.set_count(), 0);
    }

    #[test]
    fn duplicate_set_reports_false() {
        let mut b = OooBitmap::new();
        assert!(b.set(5));
        assert!(!b.set(5));
        assert_eq!(b.set_count(), 1);
    }

    #[test]
    fn large_offsets_cross_words() {
        let mut b = OooBitmap::new();
        for off in [1u64, 63, 64, 65, 127, 128, 1000] {
            assert!(b.set(off));
        }
        assert_eq!(b.set_count(), 7);
        assert!(b.is_set(64));
        assert!(b.is_set(1000));
        assert!(!b.is_set(999));
        // Advance once: consumes offset 0 and 1 only (2 is a hole).
        assert_eq!(b.advance(), 2);
        // Old offsets shift down by 2.
        assert!(b.is_set(61));
        assert!(b.is_set(62));
        assert!(b.is_set(63));
        assert!(b.is_set(125));
        assert!(b.is_set(998));
    }

    #[test]
    fn shift_by_multiple_words() {
        let mut b = OooBitmap::new();
        for off in 1..=200u64 {
            b.set(off);
        }
        // Expected arrives: consume 0..=200 -> advance 201.
        assert_eq!(b.advance(), 201);
        assert_eq!(b.set_count(), 0);
    }

    #[test]
    fn simulated_reorder_stream_matches_reference() {
        // Feed a permuted stream into the bitmap and check the ePSN
        // advance pattern against a simple reference set-based model.
        let mut b = OooBitmap::new();
        let mut epsn: u64 = 0;
        let mut reference: std::collections::BTreeSet<u64> = (0..64u64).collect();
        let order = [3u64, 0, 1, 5, 2, 4, 7, 6, 10, 8, 9, 11];
        let mut ref_epsn = 0u64;
        let mut received = std::collections::BTreeSet::new();
        for psn in order {
            received.insert(psn);
            // Reference: advance ref_epsn through received.
            if psn == ref_epsn {
                while received.contains(&ref_epsn) {
                    ref_epsn += 1;
                }
            }
            // Model under test.
            if psn == epsn {
                epsn += b.advance();
            } else if psn > epsn {
                b.set(psn - epsn);
            }
            assert_eq!(epsn, ref_epsn, "after psn {psn}");
        }
        reference.clear();
    }

    #[test]
    fn clear_resets() {
        let mut b = OooBitmap::new();
        b.set(3);
        b.clear();
        assert_eq!(b.set_count(), 0);
        assert!(!b.is_set(3));
    }
}

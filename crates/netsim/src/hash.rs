//! GF(2)-linear flow hashing.
//!
//! Commodity switch ASICs hash the 5-tuple with CRC-like functions that are
//! *linear over GF(2)*: `H(x ⊕ y) = H(x) ⊕ H(y)` (for equal-length inputs,
//! zero initial value, no final XOR). Zhang et al. ("Hashing Linearity
//! Enables Relative Path Control in Data Centers", ATC'21 — the paper's
//! reference \[37\]) exploit exactly this property to steer a flow onto a
//! *relative* path by XOR-ing a precomputed delta into the UDP source port.
//! Themis-S builds its PathMap the same way (§3.2, Figure 3).
//!
//! We implement a CRC-16/CCITT (polynomial 0x1021) over the packed 5-tuple
//! with those linearity-preserving parameters, and expose
//! [`sport_delta_for_hash_delta`], the offline PathMap ingredient: a UDP
//! source-port XOR delta that changes the hash output by a chosen XOR delta.

use crate::packet::Packet;
use crate::types::HostId;

/// CRC-16 polynomial (CCITT), used with init = 0 and no final XOR so the
/// function is GF(2)-linear.
const POLY: u16 = 0x1021;

/// Bit-at-a-time CRC-16 update: the definition the table is built from
/// (at compile time) and the reference the tests hold the table to.
const fn crc16_update(mut crc: u16, byte: u8) -> u16 {
    crc ^= (byte as u16) << 8;
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x8000 != 0 {
            (crc << 1) ^ POLY
        } else {
            crc << 1
        };
        bit += 1;
    }
    crc
}

/// `TABLE[b]` = the CRC of the single byte `b`: one lookup advances the
/// CRC by a whole byte, so a 13-byte key costs 13 lookups, not 104 steps.
const TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = crc16_update(0, b as u8);
        b += 1;
    }
    table
};

/// CRC-16 of a byte slice (init 0, no reflection, no final XOR — linear).
#[inline]
pub fn crc16(data: &[u8]) -> u16 {
    data.iter().fold(0u16, |c, &b| {
        (c << 8) ^ TABLE[((c >> 8) as u8 ^ b) as usize]
    })
}

/// The fields ECMP hashes on: (src ip, dst ip, sport, dport, proto).
/// `dport` and `proto` are fixed for RoCEv2 (4791/UDP) but participate in
/// the hash as they would on a real ASIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiveTuple {
    /// Synthetic source IP (host id).
    pub src: u32,
    /// Synthetic destination IP (host id).
    pub dst: u32,
    /// UDP source port (the entropy field).
    pub sport: u16,
    /// UDP destination port (RoCEv2: 4791).
    pub dport: u16,
    /// IP protocol (UDP: 17).
    pub proto: u8,
}

/// RoCEv2 UDP destination port.
pub const ROCE_DPORT: u16 = 4791;
/// UDP protocol number.
pub const UDP_PROTO: u8 = 17;

impl FiveTuple {
    /// Extract the hashed fields from a packet.
    pub fn of_packet(p: &Packet) -> FiveTuple {
        FiveTuple {
            src: p.src.0,
            dst: p.dst.0,
            sport: p.udp_sport,
            dport: ROCE_DPORT,
            proto: UDP_PROTO,
        }
    }

    /// A tuple for an explicit host pair + sport (used in tests and the
    /// connection setup path).
    pub fn new(src: HostId, dst: HostId, sport: u16) -> FiveTuple {
        FiveTuple {
            src: src.0,
            dst: dst.0,
            sport,
            dport: ROCE_DPORT,
            proto: UDP_PROTO,
        }
    }

    /// Pack into the canonical 13-byte key the hash runs over.
    pub fn pack(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src.to_be_bytes());
        b[4..8].copy_from_slice(&self.dst.to_be_bytes());
        b[8..10].copy_from_slice(&self.sport.to_be_bytes());
        b[10..12].copy_from_slice(&self.dport.to_be_bytes());
        b[12] = self.proto;
        b
    }
}

/// The switch's ECMP hash of a 5-tuple.
///
/// GF(2)-linearity in the sport field — the property PathMaps exploit:
/// ```
/// use netsim::hash::{ecmp_hash, hash_delta_of_sport_delta, FiveTuple};
/// use netsim::types::HostId;
/// let t = FiveTuple::new(HostId(1), HostId(2), 4000);
/// let mut moved = t;
/// moved.sport ^= 0x0ABC;
/// assert_eq!(
///     ecmp_hash(&moved),
///     ecmp_hash(&t) ^ hash_delta_of_sport_delta(0x0ABC),
/// );
/// ```
pub fn ecmp_hash(t: &FiveTuple) -> u16 {
    crc16(&t.pack())
}

/// Hash delta caused by XOR-ing `sport_delta` into the UDP source port.
///
/// By linearity this is independent of the rest of the tuple: it equals the
/// CRC of a key that is zero everywhere except the sport field.
pub fn hash_delta_of_sport_delta(sport_delta: u16) -> u16 {
    let zeroed = FiveTuple {
        src: 0,
        dst: 0,
        sport: sport_delta,
        dport: 0,
        proto: 0,
    };
    crc16(&zeroed.pack())
}

/// Find a UDP source-port XOR delta whose hash contribution equals
/// `target` on the bit positions selected by `mask` (arbitrary elsewhere).
///
/// This is the general offline PathMap ingredient. Multi-tier fabrics use
/// *different views* of the same hash per tier (e.g. edge switches read
/// bits `[0, b)`, aggregation switches bits `[8, 8+b)`); a single sport
/// rewrite must then steer both stages at once, i.e. satisfy constraints
/// on a non-contiguous bit mask — exactly what this solver does.
///
/// Works by Gaussian elimination over GF(2): each of the 16 sport bits
/// contributes a fixed hash-delta vector; we solve for a combination
/// matching `target` on the masked positions. Returns `None` only if the
/// system is singular on those positions, which cannot happen for
/// CRC-16/CCITT with ≤ 16 constrained bits (the basis vectors are
/// linearly independent — verified by unit tests).
pub fn sport_delta_for_masked_delta(target: u16, mask: u16) -> Option<u16> {
    debug_assert_eq!(target & !mask, 0, "target outside mask");
    // Basis: hash delta of each single sport bit.
    let mut rows: Vec<(u16, u16)> = (0..16)
        .map(|i| {
            let sd = 1u16 << i;
            (hash_delta_of_sport_delta(sd), sd)
        })
        .collect();
    let mut target = target & mask;
    let mut solution: u16 = 0;
    // Eliminate over each masked position.
    for bit in 0..16 {
        let pos = 1u16 << bit;
        if mask & pos == 0 {
            continue;
        }
        // Find a row with this bit set.
        let idx = rows.iter().position(|(h, _)| h & pos != 0)?;
        let (h, s) = rows.remove(idx);
        // Reduce remaining rows.
        for (rh, rs) in rows.iter_mut() {
            if *rh & pos != 0 {
                *rh ^= h;
                *rs ^= s;
            }
        }
        if target & pos != 0 {
            target ^= h;
            solution ^= s;
        }
    }
    if target & mask != 0 {
        return None;
    }
    Some(solution)
}

/// [`sport_delta_for_masked_delta`] specialized to the low `bits` bits:
/// with `n = 2^bits` paths selected by the low hash bits, XOR-ing the
/// returned delta into the sport moves a packet from path `p` to
/// `p ⊕ target_hash_delta`.
pub fn sport_delta_for_hash_delta(target_hash_delta: u16, bits: u32) -> Option<u16> {
    debug_assert!(bits <= 16);
    let mask = if bits >= 16 {
        0xFFFF
    } else {
        ((1u32 << bits) - 1) as u16
    };
    sport_delta_for_masked_delta(target_hash_delta & mask, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial definition, byte by byte.
    fn crc16_reference(data: &[u8]) -> u16 {
        data.iter().fold(0u16, |c, &b| crc16_update(c, b))
    }

    #[test]
    fn table_matches_bit_serial_reference() {
        for d in 0..=u16::MAX {
            let key = FiveTuple {
                src: 0,
                dst: 0,
                sport: d,
                dport: 0,
                proto: 0,
            };
            assert_eq!(
                hash_delta_of_sport_delta(d),
                crc16_reference(&key.pack()),
                "sport delta {d:#x}"
            );
        }
        let mut rng = simcore::rng::Xoshiro256::seeded(0xC5C);
        for _ in 0..100_000 {
            let mut key = [0u8; 13];
            key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            key[5..].copy_from_slice(&rng.next_u64().to_le_bytes());
            assert_eq!(crc16(&key), crc16_reference(&key), "key {key:?}");
        }
    }

    #[test]
    fn ecmp_hash_golden_vectors() {
        // Literal outputs of CRC-16/CCITT (poly 0x1021, init 0, no
        // reflection, no final XOR — "XMODEM") over the packed tuple.
        // PathMaps and every ECMP placement in the goldens hang off
        // these: a change here changes which uplink every flow takes.
        for (src, dst, sport, want) in [
            (0u32, 1u32, 49_152u16, 0xDE91),
            (3, 250, 4_000, 0x8177),
            (255, 16, 65_535, 0xCE05),
        ] {
            let t = FiveTuple::new(HostId(src), HostId(dst), sport);
            assert_eq!(ecmp_hash(&t), want, "{t:?}");
        }
        // The catalogue check value of the same CRC.
        assert_eq!(crc16(b"123456789"), 0x31C3);
    }

    #[test]
    fn crc_is_gf2_linear_in_sport() {
        // H(sport ⊕ d) = H(sport) ⊕ H_delta(d) for every tuple.
        for sport in [0u16, 1, 999, 4096, 65535] {
            for d in [1u16, 2, 0x00FF, 0xABCD] {
                let base = FiveTuple::new(HostId(7), HostId(11), sport);
                let moved = FiveTuple::new(HostId(7), HostId(11), sport ^ d);
                assert_eq!(
                    ecmp_hash(&moved),
                    ecmp_hash(&base) ^ hash_delta_of_sport_delta(d),
                    "sport={sport} d={d}"
                );
            }
        }
    }

    #[test]
    fn sport_basis_is_linearly_independent() {
        // All 2^16 XOR combinations of the 16 basis vectors must be
        // distinct; equivalently the map d -> hash_delta(d) is injective.
        // Spot-check injectivity on the low 8 bits via full enumeration of
        // one byte and check the solver round-trips everywhere.
        for bits in [1u32, 2, 3, 4, 8] {
            let n = 1u16 << bits;
            for delta in 0..n {
                let sd = sport_delta_for_hash_delta(delta, bits).expect("solver must find a delta");
                let got = hash_delta_of_sport_delta(sd);
                assert_eq!(
                    got & (n - 1),
                    delta,
                    "bits={bits} delta={delta} sd={sd:#x} got={got:#x}"
                );
            }
        }
    }

    #[test]
    fn pathmap_moves_paths_as_designed() {
        // With n = 2^bits paths chosen by low hash bits, rewriting the
        // sport with the solved delta moves path p to p ⊕ delta for every
        // flow — the property Themis-S relies on.
        let bits = 4;
        let n = 1u16 << bits;
        for delta in 0..n {
            let sd = sport_delta_for_hash_delta(delta, bits as u32).unwrap();
            for (src, dst, sport) in [(0u32, 5u32, 100u16), (9, 2, 60000), (100, 101, 4791)] {
                let t = FiveTuple {
                    src,
                    dst,
                    sport,
                    dport: ROCE_DPORT,
                    proto: UDP_PROTO,
                };
                let mut t2 = t;
                t2.sport ^= sd;
                let p1 = ecmp_hash(&t) & (n - 1);
                let p2 = ecmp_hash(&t2) & (n - 1);
                assert_eq!(p2, p1 ^ delta);
            }
        }
    }

    #[test]
    fn hash_spreads_flows() {
        // 256 flows across 16 buckets: no bucket should be empty and no
        // bucket should hold more than ~3x its fair share.
        let mut counts = [0u32; 16];
        for src in 0..16u32 {
            for sport in 0..16u16 {
                let t = FiveTuple {
                    src,
                    dst: 1000,
                    sport: 49152 + sport * 7,
                    dport: ROCE_DPORT,
                    proto: UDP_PROTO,
                };
                counts[(ecmp_hash(&t) % 16) as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "bucket {i} empty");
            assert!(c < 48, "bucket {i} overloaded: {c}");
        }
    }

    #[test]
    fn masked_solver_handles_non_contiguous_masks() {
        // Constrain bits {0,1} and {8,9} simultaneously — the two-tier
        // fabric case (edge reads low bits, agg reads bits 8..).
        let mask: u16 = 0b0000_0011_0000_0011;
        for t0 in 0..4u16 {
            for t1 in 0..4u16 {
                let target = t0 | (t1 << 8);
                let sd = sport_delta_for_masked_delta(target, mask)
                    .expect("solvable for 4 constrained bits");
                let got = hash_delta_of_sport_delta(sd);
                assert_eq!(got & mask, target, "t0={t0} t1={t1} sd={sd:#x}");
            }
        }
    }

    #[test]
    fn masked_solver_covers_full_16_bits() {
        // Even all 16 bits constrained at once is solvable (the CRC-16
        // sport basis is full rank).
        for target in [0u16, 1, 0xBEEF, 0xFFFF] {
            let sd = sport_delta_for_masked_delta(target, 0xFFFF).expect("full rank");
            assert_eq!(hash_delta_of_sport_delta(sd), target);
        }
    }

    #[test]
    fn packed_key_is_13_bytes() {
        // Matches the 13-byte QP/flow key of the §4 memory accounting.
        let t = FiveTuple::new(HostId(1), HostId(2), 3);
        assert_eq!(t.pack().len(), 13);
    }
}

//! Randomized property tests over the core invariants.
//!
//! Formerly proptest-based; now driven by seeded `simcore::rng::Xoshiro256`
//! loops so the workspace builds with no external crates (and failures
//! reproduce exactly from the printed case parameters).
//!
//! * The NIC-SR receiver delivers every message exactly once for *any*
//!   arrival permutation and duplication pattern.
//! * Eq. 3 on truncated PSNs agrees with the full-width check for any
//!   valid path count.
//! * The ring PSN queue finds the same tPSN a reference model does.
//! * `extend24` round-trips any in-window wire PSN.
//! * The PathMap moves any flow by exactly the requested delta.

use rnic::config::TransportMode;
use rnic::psn::{extend24, wire_psn};
use rnic::qp::RecvQp;
use rnic::reaction::{OooReaction, OooReactionKind, SenderEntropy};
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use themis::netsim::hash::{ecmp_hash, FiveTuple};
use themis::netsim::types::{HostId, QpId};
use themis::themis_core::pathmap::PathMap;
use themis::themis_core::policy::{nack_valid, nack_valid_truncated};
use themis::themis_core::psn_queue::PsnQueue;

const CASES: u64 = 300;

fn recv_qp() -> RecvQp {
    RecvQp::new(
        QpId(1),
        HostId(1),
        HostId(0),
        4000,
        TransportMode::SelectiveRepeat,
        1,
        OooReaction::new(OooReactionKind::Eager),
    )
}

/// Any permutation of a packet stream (with an optional duplicated
/// suffix) is fully reassembled: the ePSN ends one past the last
/// packet and delivered bytes equal the unique payload.
#[test]
fn receiver_reassembles_any_permutation() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x9E1, case);
        let n = 1 + rng.next_index(59);
        let dups = rng.next_index(10);
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        // Append duplicates of random packets.
        let mut stream = order.clone();
        for _ in 0..dups {
            stream.push(order[rng.next_index(order.len())]);
        }
        let mut r = recv_qp();
        let mut delivered_tags = Vec::new();
        for (i, &psn) in stream.iter().enumerate() {
            let last = psn == (n as u32 - 1);
            let out = r.on_data(psn, 7, last, 1000, false, Nanos(i as u64));
            delivered_tags.extend(out.delivered);
        }
        assert_eq!(r.epsn(), n as u64, "case {case}: n={n} dups={dups}");
        assert_eq!(delivered_tags, vec![7u64], "case {case}");
        assert_eq!(r.stats.bytes_delivered, n as u64 * 1000, "case {case}");
    }
}

/// The at-most-one-NACK-per-ePSN rule holds for any stream.
#[test]
fn at_most_one_nack_per_epsn() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x9E2, case);
        let n = 2 + rng.next_index(58);
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let mut r = recv_qp();
        let mut nacks_per_epsn = std::collections::HashMap::new();
        for (i, &psn) in order.iter().enumerate() {
            let epsn_before = r.epsn();
            let out = r.on_data(psn, 0, false, 100, false, Nanos(i as u64));
            for resp in &out.responses {
                if resp.is_nack() {
                    *nacks_per_epsn.entry(epsn_before).or_insert(0u32) += 1;
                }
            }
        }
        for (epsn, count) in nacks_per_epsn {
            assert!(count <= 1, "case {case}: ePSN {epsn} NACKed {count} times");
        }
    }
}

/// Truncated Eq. 3 agrees with the full-width version for every
/// power-of-two path count and any PSN pair.
#[test]
fn truncated_validity_matches_full() {
    let mut rng = Xoshiro256::seeded(0x9E3);
    for case in 0..2000 {
        let tpsn = rng.next_below(1 << 24) as u32;
        let epsn = rng.next_below(1 << 24) as u32;
        let bits = rng.next_below(9) as u32;
        let n = 1usize << bits;
        assert_eq!(
            nack_valid_truncated((tpsn & 0xFF) as u8, epsn, n),
            nack_valid(tpsn, epsn, n),
            "case {case}: tpsn={tpsn} epsn={epsn} n={n}"
        );
    }
}

/// The ring queue's destructive scan returns the same tPSN as a
/// reference model (first element serially greater than ePSN) and
/// consumes exactly the elements before it.
#[test]
fn psn_queue_matches_reference_scan() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x9E4, case);
        let len = 1 + rng.next_index(99);
        let psns: Vec<u32> = (0..len).map(|_| rng.next_below(200) as u32).collect();
        let epsn = rng.next_below(200) as u32;
        let mut q = PsnQueue::with_capacity(128);
        for &p in &psns {
            q.push(p);
        }
        // Reference: scan the same list.
        let e = (epsn & 0xFF) as u8;
        let greater = |x: u8| (1..=127).contains(&x.wrapping_sub(e));
        let reference = psns.iter().map(|&p| (p & 0xFF) as u8).find(|&b| greater(b));
        let reference_saw_epsn = psns
            .iter()
            .map(|&p| (p & 0xFF) as u8)
            .take_while(|&b| !greater(b))
            .any(|b| b == e);
        let out = q.scan_for_tpsn(epsn);
        assert_eq!(
            out.tpsn, reference,
            "case {case}: psns={psns:?} epsn={epsn}"
        );
        assert_eq!(out.saw_epsn, reference_saw_epsn, "case {case}");
    }
}

/// extend24 inverts wire_psn for any value within ±2^23 of the
/// reference.
#[test]
fn extend24_round_trips() {
    let mut rng = Xoshiro256::seeded(0x9E5);
    for case in 0..2000 {
        let reference = rng.next_below(1u64 << 40);
        let offset = rng.next_below(1 << 23) as i64 - (1 << 22);
        let truth = reference.saturating_add_signed(offset);
        assert_eq!(
            extend24(wire_psn(truth), reference),
            truth,
            "case {case}: reference={reference} offset={offset}"
        );
    }
}

/// PathMap rewriting moves any flow by exactly the requested XOR
/// delta in path space.
#[test]
fn pathmap_moves_any_flow_exactly() {
    let mut rng = Xoshiro256::seeded(0x9E6);
    for case in 0..500 {
        let src = rng.next_below(10_000) as u32;
        let dst = rng.next_below(10_000) as u32;
        let sport = rng.next_below(u16::MAX as u64) as u16;
        let bits = 1 + rng.next_below(8) as u32;
        let n = 1usize << bits;
        let delta = rng.next_index(n);
        let pm = PathMap::build(n);
        let mask = (n - 1) as u16;
        let t = FiveTuple {
            src,
            dst,
            sport,
            dport: 4791,
            proto: 17,
        };
        let mut t2 = t;
        t2.sport = pm.rewrite(sport, delta);
        let before = ecmp_hash(&t) & mask;
        let after = ecmp_hash(&t2) & mask;
        assert_eq!(
            after,
            before ^ delta as u16,
            "case {case}: src={src} dst={dst} sport={sport} n={n} delta={delta}"
        );
    }
}

/// Posting any mix of message sizes keeps the sender's PSN space
/// contiguous and completions in order.
#[test]
fn sender_psn_space_is_contiguous() {
    use rnic::dcqcn::Dcqcn;
    use rnic::qp::SendQp;
    use rnic::CcConfig;
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x9E7, case);
        let n_msgs = 1 + rng.next_index(19);
        let sizes: Vec<u64> = (0..n_msgs).map(|_| 1 + rng.next_below(9_999)).collect();
        let mut s = SendQp::new(
            QpId(1),
            HostId(0),
            HostId(1),
            4000,
            1000,
            TransportMode::SelectiveRepeat,
            Dcqcn::new(CcConfig::disabled(), 100_000_000_000),
            SenderEntropy::Fixed,
        );
        let mut expected_first = 0u64;
        let mut last_end = 0u64;
        for (tag, &bytes) in sizes.iter().enumerate() {
            let (first, last) = s.post(bytes, tag as u64);
            assert_eq!(first, expected_first, "case {case}: sizes={sizes:?}");
            let pkts = bytes.div_ceil(1000).max(1);
            assert_eq!(last, first + pkts - 1, "case {case}");
            expected_first = last + 1;
            last_end = last;
        }
        // Send everything, ACK everything, and expect ordered completions.
        let mut now = Nanos::ZERO;
        while s.has_work() {
            now = s.next_allowed.max(now);
            let _ = s.next_packet(now);
        }
        let done = s.on_ack(wire_psn(last_end + 1));
        assert_eq!(
            done,
            (0..sizes.len() as u64).collect::<Vec<_>>(),
            "case {case}"
        );
    }
}

//! Randomized property tests over the substrate crates (engine, DCQCN,
//! bitmap, schedules, topologies, load balancing).
//!
//! Formerly proptest-based; now driven by seeded `simcore::rng::Xoshiro256`
//! loops so the workspace builds with no external crates.

use rnic::bitmap::OooBitmap;
use rnic::dcqcn::Dcqcn;
use rnic::CcConfig;
use simcore::engine::Engine;
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use themis::collectives::ring::ring_allreduce;
use themis::collectives::schedule::Schedule;
use themis::netsim::lb::{LbPolicy, LbState};
use themis::netsim::packet::Packet;
use themis::netsim::port::{EgressPort, LinkSpec};
use themis::netsim::types::{HostId, NodeId, PortId, QpId};

const CASES: u64 = 200;

/// The engine delivers any multiset of timestamps in non-decreasing
/// order, with ties in insertion order.
#[test]
fn engine_orders_any_schedule() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x5A1, case);
        let len = 1 + rng.next_index(199);
        let times: Vec<u64> = (0..len).map(|_| rng.next_below(10_000)).collect();
        let mut e: Engine<(u64, usize)> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(Nanos(t), (t, i));
        }
        let seen: Vec<(u64, usize)> = std::iter::from_fn(|| e.step())
            .map(|ev| ev.payload)
            .collect();
        assert_eq!(seen.len(), times.len(), "case {case}");
        for w in seen.windows(2) {
            assert!(w[0].0 <= w[1].0, "case {case}: time order violated");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "case {case}: FIFO tie-break violated");
            }
        }
    }
}

/// DCQCN's rate stays within [min_rate, line_rate] under any
/// interleaving of CNPs, NACKs, timers and byte-counter events.
#[test]
fn dcqcn_rate_always_bounded() {
    const LINE: u64 = 100_000_000_000;
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x5A2, case);
        let cfg = CcConfig::recommended(LINE);
        let mut d = Dcqcn::new(cfg, LINE);
        let n_ops = 1 + rng.next_index(299);
        let mut now = 0u64;
        for _ in 0..n_ops {
            now += rng.next_below(20_000);
            match rng.next_below(5) {
                0 => {
                    d.on_cnp(Nanos(now));
                }
                1 => {
                    d.on_nack(Nanos(now));
                }
                2 => d.on_increase_timer(),
                3 => d.on_alpha_timer(),
                _ => d.on_bytes_sent(rng.next_below(1 << 22)),
            }
            assert!(
                d.rate_bps() >= cfg.min_rate_bps - 1.0 && d.rate_bps() <= LINE as f64 + 1.0,
                "case {case}: rate {} out of bounds",
                d.rate_bps()
            );
            assert!((0.0..=1.0).contains(&d.alpha()), "case {case}");
        }
    }
}

/// The OOO bitmap advances exactly like a BTreeSet reference model
/// for any permutation with duplicates.
#[test]
fn bitmap_matches_set_reference() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x5A3, case);
        let n = 1 + rng.next_index(149);
        let dups = rng.next_index(20);
        let mut order: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut order);
        let mut stream = order.clone();
        for _ in 0..dups {
            stream.push(order[rng.next_index(order.len())]);
        }

        let mut bitmap = OooBitmap::new();
        let mut epsn = 0u64;
        let mut reference: std::collections::BTreeSet<u64> = Default::default();
        let mut ref_epsn = 0u64;
        for &psn in &stream {
            // Reference model.
            reference.insert(psn);
            while reference.contains(&ref_epsn) {
                ref_epsn += 1;
            }
            // Model under test (mirrors the receiver's use).
            match psn.cmp(&epsn) {
                std::cmp::Ordering::Equal => epsn += bitmap.advance(),
                std::cmp::Ordering::Greater => {
                    bitmap.set(psn - epsn);
                }
                std::cmp::Ordering::Less => {}
            }
            assert_eq!(epsn, ref_epsn, "case {case}: after psn {psn}");
        }
        assert_eq!(
            epsn, n as u64,
            "case {case}: everything eventually delivered"
        );
    }
}

/// Ring allreduce schedules are well-formed for any rank count and
/// buffer size: validated DAG, correct transfer count, uniform
/// per-rank send volume, and depth 2(N-1)-1.
#[test]
fn ring_allreduce_well_formed() {
    let mut rng = Xoshiro256::seeded(0x5A4);
    for case in 0..100 {
        let n = 2 + rng.next_index(38);
        let total = 1 + rng.next_below(1 << 30);
        let s = ring_allreduce(n, total);
        assert_eq!(s.transfers.len(), 2 * (n - 1) * n, "case {case}: n={n}");
        let depth = s.validate();
        assert_eq!(depth, 2 * (n - 1) - 1, "case {case}");
        let v0 = s.bytes_sent_by(0);
        for r in 1..n {
            assert_eq!(s.bytes_sent_by(r), v0, "case {case}: rank {r}");
        }
    }
}

/// Any schedule's dependencies are topologically executable: playing
/// transfers in dependency order delivers them all (no orphan deps).
#[test]
fn schedules_are_executable() {
    let mut rng = Xoshiro256::seeded(0x5A5);
    for case in 0..100 {
        let n = 2 + rng.next_index(14);
        let total = 1 + rng.next_below(1 << 20);
        let kind = rng.next_below(4) as u8;
        let s: Schedule = match kind {
            0 => ring_allreduce(n, total),
            1 => themis::collectives::alltoall::alltoall(n, total),
            2 => themis::collectives::ring::ring_allgather(n, total),
            _ => themis::collectives::alltoall::incast(n, total),
        };
        let m = s.transfers.len();
        let mut delivered = vec![false; m];
        let mut progress = true;
        let mut remaining = m;
        while progress {
            progress = false;
            for i in 0..m {
                if !delivered[i] && s.transfers[i].deps.iter().all(|&d| delivered[d]) {
                    delivered[i] = true;
                    remaining -= 1;
                    progress = true;
                }
            }
        }
        assert_eq!(remaining, 0, "case {case}: kind {kind} n={n} deadlocked");
    }
}

/// Every LB policy returns an in-range uplink for arbitrary packets.
#[test]
fn lb_policies_stay_in_range() {
    let mut rng = Xoshiro256::seeded(0x5A6);
    for case in 0..500 {
        let n_uplinks = 1 + rng.next_index(31);
        let sport = rng.next_below(u16::MAX as u64) as u16;
        let psn = rng.next_below(1 << 24) as u32;
        let now_us = rng.next_below(10_000);
        let ports: Vec<EgressPort> = (0..n_uplinks)
            .map(|i| EgressPort::new(NodeId(i as u32), PortId(0), LinkSpec::gbps(100, 1)))
            .collect();
        let uplinks: Vec<usize> = (0..n_uplinks).collect();
        let policy = match rng.next_below(4) {
            0 => LbPolicy::Ecmp,
            1 => LbPolicy::RandomSpray,
            2 => LbPolicy::AdaptiveRouting,
            _ => LbPolicy::Flowlet {
                gap: simcore::time::TimeDelta::from_micros(50),
            },
        };
        let mut st = LbState::new(7, 0);
        let pkt = Packet::data(
            QpId(1),
            HostId(0),
            HostId(9),
            sport,
            psn,
            0,
            false,
            1000,
            false,
        );
        let pick = policy.select(&pkt, &uplinks, &ports, Nanos::from_micros(now_us), &mut st);
        assert!(pick < n_uplinks, "case {case}: {policy:?} picked {pick}");
    }
}

/// Two-tier PathMaps preserve the bijection for every legal
/// (bits1, shift2, bits2) combination.
#[test]
fn two_tier_pathmap_bijective() {
    use themis::netsim::hash::{ecmp_hash, FiveTuple};
    use themis::themis_core::pathmap::PathMap;
    let mut rng = Xoshiro256::seeded(0x5A7);
    for case in 0..100 {
        let bits1 = 1 + rng.next_below(3) as u32;
        let bits2 = 1 + rng.next_below(3) as u32;
        let sport = rng.next_below(u16::MAX as u64) as u16;
        let src = rng.next_below(1000) as u32;
        let dst = rng.next_below(1000) as u32;
        let shift2 = 8;
        let pm = PathMap::build_two_tier(bits1, shift2, bits2);
        let n = 1usize << (bits1 + bits2);
        let t = FiveTuple {
            src,
            dst,
            sport,
            dport: 4791,
            proto: 17,
        };
        let mut seen = std::collections::HashSet::new();
        for d in 0..n {
            let mut t2 = t;
            t2.sport = pm.rewrite(sport, d);
            let h = ecmp_hash(&t2);
            let stage1 = h & ((1 << bits1) - 1);
            let stage2 = (h >> shift2) & ((1 << bits2) - 1);
            seen.insert((stage1, stage2));
        }
        assert_eq!(
            seen.len(),
            n,
            "case {case}: bits1={bits1} bits2={bits2} deltas must reach distinct composite paths"
        );
    }
}

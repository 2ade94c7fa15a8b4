//! Pairwise Alltoall.
//!
//! Every rank sends a `total / N` slice of its buffer to every other rank,
//! all transfers independent and posted at t = 0 — the densest traffic
//! matrix in AI workloads (mixture-of-experts dispatch). With N(N−1)
//! simultaneous flows per group the pattern stresses last-hop incast and
//! core load balancing at once.

use crate::schedule::{Schedule, Transfer};

/// Alltoall of a `total_bytes` buffer over `n` ranks: each ordered pair
/// exchanges `total / n` bytes, everything concurrent.
pub fn alltoall(n: usize, total_bytes: u64) -> Schedule {
    assert!(n >= 2, "alltoall needs at least two ranks");
    let chunk = (total_bytes / n as u64).max(1);
    let mut transfers = Vec::with_capacity(n * (n - 1));
    for src in 0..n {
        for off in 1..n {
            // Destination order staggered per source so rank 0 is not
            // everyone's first target.
            let dst = (src + off) % n;
            transfers.push(Transfer {
                src,
                dst,
                bytes: chunk,
                deps: vec![],
            });
        }
    }
    Schedule {
        name: "alltoall",
        n_ranks: n,
        transfers,
    }
}

/// N-to-1 incast: every rank sends `bytes_per_source` to rank 0, all at
/// once. The classic buffer-pressure stress (distributed storage reads,
/// parameter-server fan-in): the sink's last hop sees `N−1` line-rate
/// senders converge.
pub fn incast(n: usize, bytes_per_source: u64) -> Schedule {
    assert!(n >= 2, "incast needs at least one sender and the sink");
    Schedule {
        name: "incast",
        n_ranks: n,
        transfers: (1..n)
            .map(|src| Transfer {
                src,
                dst: 0,
                bytes: bytes_per_source.max(1),
                deps: vec![],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_covers_all_ordered_pairs() {
        let n = 16;
        let s = alltoall(n, 300 << 20);
        assert_eq!(s.transfers.len(), n * (n - 1));
        s.validate();
        let mut pairs = std::collections::HashSet::new();
        for t in &s.transfers {
            assert!(pairs.insert((t.src, t.dst)), "duplicate pair");
        }
        assert_eq!(pairs.len(), n * (n - 1));
    }

    #[test]
    fn alltoall_is_fully_concurrent() {
        let s = alltoall(8, 1 << 20);
        assert_eq!(s.validate(), 0);
        assert_eq!(s.roots().count(), s.transfers.len());
    }

    #[test]
    fn per_rank_volume() {
        let n = 16u64;
        let total = 300u64 << 20;
        let s = alltoall(n as usize, total);
        assert_eq!(s.bytes_sent_by(0), (n - 1) * (total / n));
    }

    #[test]
    fn incast_converges_on_rank_zero() {
        let s = incast(4, 1 << 20);
        assert_eq!(s.transfers.len(), 3);
        s.validate();
        assert!(s.transfers.iter().all(|t| t.dst == 0));
        assert_eq!(s.roots().count(), 3, "all senders start at once");
        assert_eq!(s.bytes_sent_by(0), 0, "the sink sends nothing");
        assert_eq!(s.total_wire_bytes(), 3 << 20);
    }

    #[test]
    #[should_panic(expected = "at least one sender")]
    fn incast_needs_two_ranks() {
        incast(1, 100);
    }
}

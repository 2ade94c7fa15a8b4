//! The transport-reaction half of the scheme boundary.
//!
//! A load-balancing *scheme* is the product of two orthogonal choices
//! (see DESIGN.md "Scheme zoo"):
//!
//! * **Path choice** — which uplink each packet takes. Lives in the
//!   switches ([`netsim::lb::LbPolicy`]) or, for sender-driven schemes,
//!   in the entropy the NIC stamps on each packet (the UDP source port
//!   that ECMP hashes on).
//! * **Transport reaction** — how the endpoints react to the
//!   out-of-order arrivals and losses that path choice produces.
//!
//! This module is the second half: a [`TransportReaction`] bundles a
//! [`SenderEntropy`] policy (per-packet entropy choice plus reaction to
//! ACK-carried path feedback and loss signals) with an [`OooReaction`]
//! (when the receiver escalates an out-of-order gap to a NACK). The
//! default pair — [`SenderEntropy::Fixed`] + [`OooReaction::Eager`] —
//! reproduces the commodity NIC-SR behaviour of §2.2 exactly; the rival
//! schemes of SCHEMES.md are the other variants:
//!
//! * **REPS** (arXiv 2407.21625) — [`SenderEntropy::Reps`]: cache the entropy
//!   values echoed back by ACKs (proof the path worked) and recycle
//!   them on subsequent sends; fall back to fresh random entropy when
//!   the cache is empty and flush it on any loss signal.
//! * **Sprinklers** (arXiv 1407.0006) — [`SenderEntropy::Sprinklers`]: spray at
//!   flowcell granularity — randomized variable-size stripes of
//!   consecutive packets share one entropy value, bounding reordering
//!   to stripe boundaries.
//! * **Eunomia** (arXiv 2412.08540) — [`OooReaction::Eunomia`]: an in-NIC
//!   per-QP ordering buffer with a bounded window. Out-of-order
//!   arrivals are buffered silently; a NACK is generated only when the
//!   window overflows or the head gap stays open past a timeout.
//!
//! Each rival ships its published setting, a `const` here
//! ([`REPS_POOL`], [`SPRINKLERS_STRIPE`], [`EUNOMIA_WINDOW`],
//! [`EUNOMIA_GAP_TIMEOUT`]), so its kind is a fieldless variant. Each
//! policy is a plain enum value owned by its QP: a new mechanism is a new
//! variant plus its match arms. All policy state is per-QP and
//! driven in the canonical dispatch order, so every policy is
//! bit-identical between the serial and sharded engines. Randomized
//! policies derive their stream from the NIC seed (no global RNG).

use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// Published settings and configuration kinds (fieldless `Copy` data;
// each QP's policy is built from these at QP-creation time).
// ---------------------------------------------------------------------

/// REPS recycled-entropy cache capacity: ACK echoes beyond it evict the
/// oldest credit.
pub const REPS_POOL: usize = 16;

/// Sprinklers stripe-length range in packets, both ends inclusive.
pub const SPRINKLERS_STRIPE: (u64, u64) = (16, 64);

/// Eunomia ordering-buffer capacity in packets: a gap wider than this
/// overflows the buffer and forces a NACK.
pub const EUNOMIA_WINDOW: u64 = 256;

/// How long Eunomia lets the head gap stay open before a NACK is forced:
/// well above per-path delay skew, well below the 1 ms RTO. Checked on
/// arrivals; the sender RTO is the backstop when no further packets
/// arrive.
pub const EUNOMIA_GAP_TIMEOUT: TimeDelta = TimeDelta::from_micros(100);

/// Which [`SenderEntropy`] policy a NIC installs on its sender QPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderEntropyKind {
    /// One fixed entropy value per flow (commodity default): the path is
    /// chosen by the switches, not the sender.
    Fixed,
    /// REPS recycled-entropy spraying over a [`REPS_POOL`]-entry cache.
    Reps,
    /// Sprinklers randomized variable-size striping, stripes drawn from
    /// [`SPRINKLERS_STRIPE`].
    Sprinklers,
}

/// Which [`OooReaction`] policy a NIC installs on its receiver QPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OooReactionKind {
    /// Commodity NIC-SR: every out-of-order arrival immediately warrants
    /// a NACK (at most one per ePSN value, enforced by the QP).
    Eager,
    /// Eunomia bounded ordering buffer: hold NACKs while the gap is
    /// younger than [`EUNOMIA_GAP_TIMEOUT`] and narrower than
    /// [`EUNOMIA_WINDOW`].
    Eunomia,
}

/// A complete transport reaction: the sender and receiver halves that,
/// together with the switch-level [`netsim::lb::LbPolicy`], make up a
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReaction {
    /// Sender-side per-packet entropy policy.
    pub entropy: SenderEntropyKind,
    /// Receiver-side out-of-order escalation policy.
    pub ooo: OooReactionKind,
}

impl TransportReaction {
    /// The commodity NIC-SR reaction: fixed entropy, eager NACKs.
    pub const COMMODITY: TransportReaction = TransportReaction {
        entropy: SenderEntropyKind::Fixed,
        ooo: OooReactionKind::Eager,
    };
}

impl Default for TransportReaction {
    fn default() -> TransportReaction {
        TransportReaction::COMMODITY
    }
}

// ---------------------------------------------------------------------
// Sender half
// ---------------------------------------------------------------------

/// Counters every [`SenderEntropy`] policy reports (exported as the
/// `scheme.*` telemetry namespace by the harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct EntropyStats {
    /// Sends that reused an ACK-echoed ("known good") entropy value.
    pub recycled_sends: u64,
    /// Sends that drew a fresh random entropy value.
    pub fresh_sends: u64,
    /// Times the recycled-entropy cache was flushed by a loss signal.
    pub pool_clears: u64,
    /// ACK echoes dropped because the cache was full.
    pub pool_evictions: u64,
    /// Stripes started (Sprinklers).
    pub stripes_started: u64,
}

impl EntropyStats {
    /// Field-wise sum (cluster-level aggregation).
    pub fn add(&mut self, other: &EntropyStats) {
        self.recycled_sends += other.recycled_sends;
        self.fresh_sends += other.fresh_sends;
        self.pool_clears += other.pool_clears;
        self.pool_evictions += other.pool_evictions;
        self.stripes_started += other.stripes_started;
    }
}

/// Sender-side per-packet entropy policy: a per-QP state machine that
/// sees the PSN stream, the ACK-echoed entropy feedback and loss
/// signals, and decides the UDP source port of every outgoing data
/// packet.
#[derive(Debug, Clone)]
pub enum SenderEntropy {
    /// The commodity policy: always the flow's base entropy.
    Fixed,
    /// REPS: recycle ACK-echoed entropy values, fresh entropy otherwise.
    ///
    /// The cache is a queue of *credits*: every ACK echo deposits one
    /// (the echoed path just proved it can deliver), every data send
    /// withdraws one. In steady state each delivered packet funds the
    /// entropy of one future packet, so the flow keeps circulating over
    /// paths that work. Any loss signal (accepted NACK or RTO) flushes
    /// the cache — the failure-mitigation rule of the paper — after
    /// which the flow explores with fresh random entropy until ACKs
    /// refill it.
    Reps {
        /// Cached entropy credits, oldest first, at most [`REPS_POOL`].
        pool: VecDeque<u16>,
        /// Fresh-entropy stream.
        rng: Xoshiro256,
        /// Counters.
        stats: EntropyStats,
    },
    /// Sprinklers: randomized variable-size striping.
    ///
    /// Consecutive packets share one entropy value for the length of a
    /// *stripe*; stripe lengths are drawn uniformly from
    /// [`SPRINKLERS_STRIPE`] so stripe boundaries of competing flows
    /// decorrelate. Reordering is confined to stripe boundaries — a
    /// fraction `~1/stripe_len` of packets — instead of every packet as
    /// in uniform spraying.
    Sprinklers {
        /// Entropy of the current stripe.
        current: u16,
        /// Packets left in the current stripe.
        remaining: u64,
        /// Stripe entropy and length stream.
        rng: Xoshiro256,
        /// Counters.
        stats: EntropyStats,
    },
}

/// Ephemeral-range random entropy: 0xC000..=0xFFFF, the range the QP
/// allocator draws from, so sender-chosen values are indistinguishable
/// from allocator-chosen ones on the wire.
#[inline]
fn fresh_sport(rng: &mut Xoshiro256) -> u16 {
    0xC000 | (rng.next_below(1 << 14) as u16)
}

impl SenderEntropy {
    /// The policy `kind` names. `seed` must be unique per QP so
    /// randomized policies draw independent deterministic streams.
    pub fn new(kind: SenderEntropyKind, seed: u64) -> SenderEntropy {
        match kind {
            SenderEntropyKind::Fixed => SenderEntropy::Fixed,
            SenderEntropyKind::Reps => SenderEntropy::Reps {
                pool: VecDeque::with_capacity(REPS_POOL),
                rng: Xoshiro256::seeded(seed),
                stats: EntropyStats::default(),
            },
            SenderEntropyKind::Sprinklers => SenderEntropy::Sprinklers {
                current: 0,
                remaining: 0,
                rng: Xoshiro256::seeded(seed),
                stats: EntropyStats::default(),
            },
        }
    }

    /// Choose the UDP source port for the next data packet.
    /// `base_sport` is the flow's allocator-assigned port (the value a
    /// fixed-entropy flow always uses).
    pub fn sport_for(&mut self, base_sport: u16, retransmission: bool) -> u16 {
        match self {
            SenderEntropy::Fixed => base_sport,
            SenderEntropy::Reps {
                pool, rng, stats, ..
            } => {
                // Retransmissions always explore a fresh path: the old
                // one just failed to deliver this packet.
                if !retransmission {
                    if let Some(ev) = pool.pop_front() {
                        stats.recycled_sends += 1;
                        return ev;
                    }
                }
                stats.fresh_sends += 1;
                fresh_sport(rng)
            }
            SenderEntropy::Sprinklers {
                current,
                remaining,
                rng,
                stats,
            } => {
                if *remaining == 0 {
                    let (lo, hi) = SPRINKLERS_STRIPE;
                    *current = fresh_sport(rng);
                    *remaining = lo + rng.next_below(hi - lo + 1);
                    stats.stripes_started += 1;
                    stats.fresh_sends += 1;
                } else {
                    stats.recycled_sends += 1;
                }
                *remaining -= 1;
                *current
            }
        }
    }

    /// An ACK arrived echoing the entropy value its triggering data
    /// packet travelled on — proof that path currently works.
    pub fn on_ack_echo(&mut self, echo: u16) {
        if let SenderEntropy::Reps { pool, stats, .. } = self {
            if pool.len() == REPS_POOL {
                pool.pop_front();
                stats.pool_evictions += 1;
            }
            pool.push_back(echo);
        }
    }

    /// A loss signal arrived (NACK accepted or RTO fired): cached path
    /// knowledge may be stale.
    pub fn on_path_trouble(&mut self) {
        if let SenderEntropy::Reps { pool, stats, .. } = self {
            pool.clear();
            stats.pool_clears += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EntropyStats {
        match self {
            SenderEntropy::Fixed => EntropyStats::default(),
            SenderEntropy::Reps { stats, .. } | SenderEntropy::Sprinklers { stats, .. } => *stats,
        }
    }
}

// ---------------------------------------------------------------------
// Receiver half
// ---------------------------------------------------------------------

/// Counters every [`OooReaction`] policy reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct OooReactionStats {
    /// Out-of-order arrivals whose NACK the policy allowed.
    pub nacks_allowed: u64,
    /// Out-of-order arrivals silently buffered (NACK withheld).
    pub nacks_held: u64,
    /// NACKs forced by ordering-buffer overflow.
    pub window_overflow_nacks: u64,
    /// NACKs forced by the head gap outliving the timeout.
    pub gap_timeout_nacks: u64,
}

impl OooReactionStats {
    /// Field-wise sum (cluster-level aggregation).
    pub fn add(&mut self, other: &OooReactionStats) {
        self.nacks_allowed += other.nacks_allowed;
        self.nacks_held += other.nacks_held;
        self.window_overflow_nacks += other.window_overflow_nacks;
        self.gap_timeout_nacks += other.gap_timeout_nacks;
    }
}

/// Receiver-side out-of-order escalation policy: decides *whether* an
/// out-of-order arrival warrants a NACK right now. The QP still enforces
/// the wire rule of at most one NACK per ePSN value on top.
#[derive(Debug, Clone)]
pub enum OooReaction {
    /// Commodity NIC-SR: every out-of-order arrival warrants a NACK
    /// immediately (§2.2 — the blind "expected packet must be lost"
    /// assumption whose consequences motivate the paper).
    Eager {
        /// Counters.
        stats: OooReactionStats,
    },
    /// Eunomia: bounded in-NIC ordering buffer with patient NACKs.
    ///
    /// Out-of-order arrivals are buffered silently while (a) the gap
    /// fits [`EUNOMIA_WINDOW`] and (b) the head gap has been open for
    /// less than [`EUNOMIA_GAP_TIMEOUT`]. Either bound breaking forces a
    /// NACK. The timeout is checked on arrivals (the model adds no new
    /// timers); a gap with no subsequent arrivals is recovered by the
    /// sender's RTO — a documented divergence from the published design,
    /// which runs a receiver-side ordering timer.
    Eunomia {
        /// When the current head gap opened, if one is open.
        gap_open_since: Option<Nanos>,
        /// Counters.
        stats: OooReactionStats,
    },
}

impl OooReaction {
    /// The policy `kind` names.
    pub fn new(kind: OooReactionKind) -> OooReaction {
        match kind {
            OooReactionKind::Eager => OooReaction::Eager {
                stats: OooReactionStats::default(),
            },
            OooReactionKind::Eunomia => OooReaction::Eunomia {
                gap_open_since: None,
                stats: OooReactionStats::default(),
            },
        }
    }

    /// A data packet landed `gap` PSNs ahead of the expected PSN at
    /// `now`. Returns true when the transport should NACK.
    pub fn nack_due(&mut self, gap: u64, now: Nanos) -> bool {
        match self {
            OooReaction::Eager { stats } => {
                stats.nacks_allowed += 1;
                true
            }
            OooReaction::Eunomia {
                gap_open_since,
                stats,
            } => {
                let opened = *gap_open_since.get_or_insert(now);
                if gap > EUNOMIA_WINDOW {
                    stats.window_overflow_nacks += 1;
                    stats.nacks_allowed += 1;
                    return true;
                }
                if now.since(opened) >= EUNOMIA_GAP_TIMEOUT {
                    stats.gap_timeout_nacks += 1;
                    stats.nacks_allowed += 1;
                    return true;
                }
                stats.nacks_held += 1;
                false
            }
        }
    }

    /// The expected PSN advanced — the head gap (if any) closed.
    pub fn on_advance(&mut self) {
        if let OooReaction::Eunomia { gap_open_since, .. } = self {
            *gap_open_since = None;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OooReactionStats {
        match self {
            OooReaction::Eager { stats } | OooReaction::Eunomia { stats, .. } => *stats,
        }
    }

    /// Digest of the *decision-relevant* mutable state — not the
    /// counters. Two policies of one kind with equal fingerprints react
    /// identically to every future arrival; the model checker folds this
    /// into its canonical state hash.
    pub fn state_fingerprint(&self) -> u64 {
        match self {
            OooReaction::Eager { .. } => 0,
            // The gap clock is the only mutable input to future verdicts
            // (window and timeout are constants).
            OooReaction::Eunomia { gap_open_since, .. } => gap_open_since.map_or(u64::MAX, |t| t.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps() -> SenderEntropy {
        SenderEntropy::new(SenderEntropyKind::Reps, 7)
    }

    fn sprinklers(seed: u64) -> SenderEntropy {
        SenderEntropy::new(SenderEntropyKind::Sprinklers, seed)
    }

    fn eunomia() -> OooReaction {
        OooReaction::new(OooReactionKind::Eunomia)
    }

    /// The lengths of the complete stripes among `n` sends.
    fn stripe_lengths(e: &mut SenderEntropy, n: usize) -> Vec<u64> {
        let mut lens = Vec::new();
        let mut cur = e.sport_for(0, false);
        let mut len = 1u64;
        for _ in 1..n {
            let s = e.sport_for(0, false);
            if s == cur {
                len += 1;
            } else {
                lens.push(len);
                cur = s;
                len = 1;
            }
        }
        lens
    }

    fn pool_len(e: &SenderEntropy) -> usize {
        match e {
            SenderEntropy::Reps { pool, .. } => pool.len(),
            _ => 0,
        }
    }

    #[test]
    fn fixed_entropy_is_the_identity() {
        let mut e = SenderEntropy::new(SenderEntropyKind::Fixed, 1);
        assert_eq!(e.sport_for(4242, false), 4242);
        assert_eq!(e.sport_for(4242, true), 4242);
        e.on_ack_echo(1); // ignored
        e.on_path_trouble(); // ignored
        assert_eq!(e.stats().fresh_sends, 0);
        assert_eq!(e.stats().pool_clears, 0);
    }

    #[test]
    fn reps_recycles_echoed_entropy_in_fifo_order() {
        let mut e = reps();
        // No credits yet: fresh entropy.
        let first = e.sport_for(4242, false);
        assert!(first >= 0xC000);
        assert_eq!(e.stats().fresh_sends, 1);
        // Two echoes, recycled in arrival order.
        e.on_ack_echo(0xCAAA);
        e.on_ack_echo(0xCBBB);
        assert_eq!(e.sport_for(4242, false), 0xCAAA);
        assert_eq!(e.sport_for(4242, false), 0xCBBB);
        assert_eq!(e.stats().recycled_sends, 2);
        // Pool drained: fresh again.
        let _ = e.sport_for(4242, false);
        assert_eq!(e.stats().fresh_sends, 2);
    }

    #[test]
    fn reps_flushes_pool_on_trouble_and_retransmits_fresh() {
        let mut e = reps();
        e.on_ack_echo(0xCAAA);
        e.on_path_trouble();
        assert_eq!(pool_len(&e), 0);
        assert_eq!(e.stats().pool_clears, 1);
        // A retransmission never reuses a cached value.
        e.on_ack_echo(0xCBBB);
        let s = e.sport_for(4242, true);
        assert_ne!(s, 0xCBBB);
        assert_eq!(pool_len(&e), 1, "credit kept for the next first-send");
    }

    #[test]
    fn reps_pool_is_bounded() {
        let mut e = reps();
        for ev in 0..=REPS_POOL as u16 {
            e.on_ack_echo(0xC001 + ev);
        }
        assert_eq!(pool_len(&e), REPS_POOL);
        assert_eq!(e.stats().pool_evictions, 1);
        assert_eq!(e.sport_for(0, false), 0xC002, "oldest was evicted");
    }

    #[test]
    fn sprinklers_holds_entropy_within_a_stripe() {
        let mut e = sprinklers(11);
        let s0 = e.sport_for(4242, false);
        // The first `lo` sends are one stripe, whatever length it drew.
        for _ in 1..SPRINKLERS_STRIPE.0 {
            assert_eq!(e.sport_for(4242, false), s0, "same stripe");
        }
        assert_eq!(e.stats().stripes_started, 1);
        let s1 = loop {
            let s = e.sport_for(4242, false);
            if e.stats().stripes_started == 2 {
                break s;
            }
            assert_eq!(s, s0, "same stripe");
        };
        // 16k-value space: a collision is possible but not for this seed.
        assert_ne!(s0, s1, "new stripe re-rolls entropy");
    }

    #[test]
    fn sprinklers_stripe_lengths_stay_in_range() {
        let mut e = sprinklers(3);
        let lens = stripe_lengths(&mut e, 2000);
        let (lo, hi) = SPRINKLERS_STRIPE;
        assert!(lens.iter().all(|&l| (lo..=hi).contains(&l)), "{lens:?}");
        assert!(lens.len() > 10, "many stripes over 2000 packets");
        assert!(lens.iter().any(|&l| l != lens[0]), "lengths vary: {lens:?}");
    }

    #[test]
    fn eager_always_nacks() {
        let mut r = OooReaction::new(OooReactionKind::Eager);
        assert!(r.nack_due(1, Nanos::ZERO));
        assert!(r.nack_due(500, Nanos(5)));
        assert_eq!(r.stats().nacks_allowed, 2);
        assert_eq!(r.stats().nacks_held, 0);
        assert_eq!(r.state_fingerprint(), 0);
    }

    #[test]
    fn eunomia_holds_young_small_gaps() {
        let mut r = eunomia();
        assert!(!r.nack_due(3, Nanos::ZERO));
        assert!(!r.nack_due(10, Nanos::from_micros(50)));
        assert_eq!(r.stats().nacks_held, 2);
    }

    /// The published window, in literal packets: a gap of 256 holds, one
    /// of 257 overflows.
    #[test]
    fn eunomia_nacks_on_window_overflow() {
        let mut r = eunomia();
        assert!(!r.nack_due(256, Nanos::ZERO), "a full window holds");
        assert!(r.nack_due(257, Nanos::ZERO));
        assert_eq!(r.stats().window_overflow_nacks, 1);
    }

    /// The published timeout, in literal nanoseconds: a two-packet gap
    /// opened at 0 is held at 99 999 ns and NACKed at 100 000 ns.
    #[test]
    fn eunomia_nacks_when_gap_outlives_timeout() {
        let mut r = eunomia();
        assert!(!r.nack_due(2, Nanos::ZERO));
        assert!(!r.nack_due(2, Nanos(99_999)));
        assert!(r.nack_due(2, Nanos(100_000)));
        assert_eq!(r.stats().gap_timeout_nacks, 1);
    }

    #[test]
    fn eunomia_advance_resets_the_gap_clock() {
        let mut r = eunomia();
        assert_eq!(r.state_fingerprint(), u64::MAX);
        assert!(!r.nack_due(2, Nanos(7)));
        assert_eq!(r.state_fingerprint(), 7);
        r.on_advance();
        assert_eq!(r.state_fingerprint(), u64::MAX);
        // A new gap opening one timeout later is young again.
        assert!(!r.nack_due(2, Nanos(EUNOMIA_GAP_TIMEOUT.as_nanos())));
        assert_eq!(r.stats().gap_timeout_nacks, 0);
    }
}

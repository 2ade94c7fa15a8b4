//! Trace-driven protocol-invariant oracle.
//!
//! After (or instead of) asserting on headline metrics, a test hands the
//! finished [`Cluster`] to [`check`], which audits the run against the
//! transport/Themis contract using *ground truth* the simulator keeps
//! precisely for this purpose — per-switch [`DropRecord`] logs, per-QP
//! NIC counters, per-ToR Themis-D counters, and the collective driver's
//! duplicate-delivery canary:
//!
//! 1. **Exactly-once delivery** — no transfer completes twice
//!    (`stray_deliveries == 0`) and the delivered payload equals the
//!    workload's byte count.
//! 2. **Loss recovery** — when the run is expected to complete, every
//!    sender drained (`snd_una == snd_end`, empty retransmit queue) and
//!    at least one retransmission was emitted per distinct dropped data
//!    `(qp, psn)` (a retransmission names a single PSN, so distinct drops
//!    bound retransmissions from below).
//! 3. **NACK filtering** — in a run with no loss of any kind, no RTOs and
//!    no compensation activity, a filtering ToR forwards no NACK to the
//!    sender, and the sender retransmits nothing. In lossy runs the
//!    spurious-retransmission *ratio* stays under a configurable bound
//!    (out-of-PSN-order retransmissions can cascade a bounded number of
//!    Eq. 3-"valid" spurious NACKs — see `tests/pfc.rs`).
//! 4. **Compensation discipline** — a build without compensation never
//!    compensates; with it, every arming traces back to a blocked NACK
//!    (`compensations + cancels + suppressed ≤ nacks_blocked`), and under
//!    deterministic-loss-only plans the RTO backstop stays (nearly)
//!    silent because blocked-NACK losses are recovered in-band.
//! 5. **Packet conservation** — data packets sent equal data packets
//!    received plus logged drops (exactly, once the fabric has drained;
//!    as an inequality otherwise), and the drop log reconciles with the
//!    switch counters: nothing vanishes without a [`DropRecord`].
//!
//! The low-level predicates live in [`predicates`] so the exhaustive
//! model checker (`tests/model_check.rs`) can reuse them verbatim on its
//! abstract executions.

use crate::cluster::Cluster;
use crate::scheme::Scheme;
use collectives::driver::Driver;
use netsim::switch::Switch;
use netsim::trace::{DropCause, DropRecord};
use std::collections::HashSet;

/// What the oracle may assume about the run it audits.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// The workload was sized to finish before the horizon: senders must
    /// have drained and every group completed.
    pub expect_complete: bool,
    /// The scheme under test filters NACKs at the ToR (Themis-D present).
    pub filtering: bool,
    /// The scheme under test arms blocked-NACK compensation.
    pub compensation: bool,
    /// Exact payload bytes the workload delivers, when the caller knows
    /// it (`groups × schedule bytes`).
    pub expected_bytes: Option<u64>,
    /// Upper bound on sender RTO expirations. `None` disables the check —
    /// required for plans that destroy control packets (lost ACKs leave
    /// the RTO as the only backstop, which is correct behaviour).
    pub max_rto_fires: Option<u64>,
    /// Bound on `retx / (data + retx)` in runs with zero data drops
    /// (spurious-cascade tolerance; see invariant 3).
    pub max_spurious_retx_ratio: f64,
    /// The event queue drained before the horizon: nothing is in flight,
    /// so conservation must hold with equality.
    pub quiesced: bool,
}

impl OracleConfig {
    /// Baseline expectations for a fault-free, sized-to-complete run of
    /// `scheme` (the e2e-test configuration).
    pub fn for_scheme(scheme: Scheme) -> OracleConfig {
        let (filtering, compensation) = match scheme {
            Scheme::Themis | Scheme::ThemisPathMap => (true, true),
            Scheme::ThemisNoCompensation => (true, false),
            Scheme::Ecmp
            | Scheme::AdaptiveRouting
            | Scheme::RandomSpray
            | Scheme::Flowlet
            | Scheme::SprayNoFilter
            | Scheme::Oracle
            | Scheme::Reps
            | Scheme::Eunomia
            | Scheme::Sprinklers => (false, false),
        };
        OracleConfig {
            expect_complete: true,
            filtering,
            compensation,
            expected_bytes: None,
            max_rto_fires: Some(2),
            max_spurious_retx_ratio: 0.02,
            quiesced: false,
        }
    }

    /// Same, but with the exact delivered-byte count pinned.
    pub fn with_expected_bytes(mut self, bytes: u64) -> OracleConfig {
        self.expected_bytes = Some(bytes);
        self
    }

    /// Disable the RTO bound (plans that may destroy control packets).
    pub fn without_rto_bound(mut self) -> OracleConfig {
        self.max_rto_fires = None;
        self
    }
}

/// One invariant breach.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable invariant tag (`delivery`, `recovery`, `filtering`,
    /// `compensation`, `conservation`, `accounting`).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Everything the oracle measured while auditing, for callers that want
/// to assert further (or print context on failure).
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Invariant breaches (empty = conformant).
    pub violations: Vec<Violation>,
    /// Data packets sent (first transmissions + retransmissions).
    pub data_sent: u64,
    /// Data packets received at known recv QPs.
    pub data_received: u64,
    /// Data drops recorded in switch drop logs.
    pub data_dropped: u64,
    /// Distinct `(qp, psn)` pairs among dropped data packets.
    pub distinct_losses: u64,
    /// Control (ACK/NACK/CNP/handshake) drops recorded anywhere,
    /// including NIC receive-path corruption.
    pub control_dropped: u64,
    /// Total sender retransmissions.
    pub retx_packets: u64,
    /// Total sender RTO expirations.
    pub rto_fires: u64,
}

/// Bounded-memory summary of switch drop logs: everything the audit
/// needs from [`DropRecord`]s, accumulable batch by batch.
///
/// A long-horizon run drains each switch's log once per telemetry
/// window ([`netsim::switch::Switch::take_drop_log`]) and folds the
/// batch in with [`DropTally::add_records`]; memory then scales with
/// the busiest *window*, not the whole run. `distinct_losses` becomes
/// the **sum of per-batch distinct `(qp, psn)` counts** — a sound
/// lower bound for the retransmission check (invariant 2): each drop
/// consumes one transmission of that PSN and delivery requires one
/// more, so even re-drops of the same PSN in later windows each imply
/// a further retransmission. Per-cause totals are exact either way, so
/// counter reconciliation (invariant 5) is unaffected.
#[derive(Debug, Clone, Default)]
pub struct DropTally {
    /// Data drops recorded.
    pub data_dropped: u64,
    /// Control drops recorded (excluding NIC receive-path corruption,
    /// which the audit adds from NIC stats).
    pub control_dropped: u64,
    /// Distinct `(qp, psn)` data drops, summed per added batch.
    pub distinct_losses: u64,
    /// Drops with [`DropCause::Buffer`].
    pub buffer: u64,
    /// Drops with an injected-style cause (`Targeted`, `Injected`,
    /// `PortDown`, `ReverseCorrupt` — the `fabric.drops.targeted`
    /// family).
    pub injected_like: u64,
    /// Drops with [`DropCause::NoRoute`].
    pub no_route: u64,
}

impl DropTally {
    /// Fold one batch of drop records in. Distinctness of `(qp, psn)`
    /// is computed within the batch only (see the type docs for why the
    /// sum stays a sound lower bound).
    pub fn add_records(&mut self, records: &[DropRecord]) {
        let mut distinct: HashSet<(u32, u32)> = HashSet::new();
        for d in records {
            if d.data {
                self.data_dropped += 1;
                distinct.insert((d.qp.0, d.psn));
            } else {
                self.control_dropped += 1;
            }
            match d.cause {
                DropCause::Buffer => self.buffer += 1,
                DropCause::Targeted
                | DropCause::Injected
                | DropCause::PortDown
                | DropCause::ReverseCorrupt => self.injected_like += 1,
                DropCause::NoRoute => self.no_route += 1,
            }
        }
        self.distinct_losses += distinct.len() as u64;
    }

    /// Whole-run tally from still-resident switch drop logs (the
    /// classic single-shot audit path; one batch, so `distinct_losses`
    /// is globally distinct).
    pub fn gather(cluster: &Cluster) -> DropTally {
        let mut records: Vec<DropRecord> = Vec::new();
        for id in cluster.all_switches() {
            if let Some(sw) = cluster.world.get::<Switch>(id) {
                records.extend_from_slice(sw.drop_log());
            }
        }
        let mut t = DropTally::default();
        t.add_records(&records);
        t
    }

    /// Drain every switch's drop log into this tally (the sliding-window
    /// path). Call once per window; the logs are left empty.
    pub fn drain_window(&mut self, cluster: &mut Cluster) {
        let mut records: Vec<DropRecord> = Vec::new();
        for id in cluster.all_switches() {
            if let Some(sw) = cluster.world.get_mut::<Switch>(id) {
                records.append(&mut sw.take_drop_log());
            }
        }
        // One batch per window: distinctness is per-window by design.
        self.add_records(&records);
    }
}

/// Audit `cluster` (after its run) against `cfg`. Empty vec = pass.
pub fn check(cluster: &Cluster, cfg: &OracleConfig) -> Vec<Violation> {
    audit(cluster, cfg).violations
}

/// [`check`] + panic with every violation listed — the one-liner for
/// e2e tests.
pub fn assert_conformant(cluster: &Cluster, cfg: &OracleConfig) {
    let report = audit(cluster, cfg);
    assert!(
        report.violations.is_empty(),
        "protocol-invariant oracle found {} violation(s):\n  {}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n  ")
    );
}

/// Full audit with measurements (whole-run drop logs still resident).
pub fn audit(cluster: &Cluster, cfg: &OracleConfig) -> OracleReport {
    audit_with_tally(cluster, cfg, &DropTally::gather(cluster))
}

/// Full audit against a pre-accumulated [`DropTally`] — the
/// bounded-memory path for long runs that drained switch logs window by
/// window ([`DropTally::drain_window`]).
pub fn audit_with_tally(cluster: &Cluster, cfg: &OracleConfig, drops: &DropTally) -> OracleReport {
    let mut r = OracleReport::default();

    // ---- Gather ground truth. -------------------------------------
    r.data_dropped = drops.data_dropped;
    r.control_dropped = drops.control_dropped;
    r.distinct_losses = drops.distinct_losses;

    let mut stray = 0u64;
    let mut incomplete = 0usize;
    if let Some(driver) = cluster.world.get::<Driver>(cluster.driver) {
        stray = driver.stray_deliveries;
        incomplete = driver.completions().iter().filter(|c| c.is_none()).count();
    }

    let mut bytes_delivered = 0u64;
    let mut undrained: Vec<String> = Vec::new();
    let mut nic_unknown = 0u64;
    let mut nic_corrupted = 0u64;
    for &h in &cluster.hosts {
        let nic = cluster.nic(h);
        nic_unknown += nic.stats.unknown_qp;
        nic_corrupted += nic.stats.corrupted_rx;
        for s in nic.send_qps() {
            r.data_sent += s.stats.data_packets + s.stats.retx_packets;
            r.retx_packets += s.stats.retx_packets;
            r.rto_fires += s.stats.rto_fires;
            if s.has_work() || s.has_unacked() {
                undrained.push(format!(
                    "qp {} on host {}: snd_una {} snd_nxt {} retx_pending {}",
                    s.qp.0,
                    h.0,
                    s.snd_una(),
                    s.snd_nxt(),
                    s.retx_pending()
                ));
            }
        }
        for q in nic.recv_qps() {
            r.data_received += q.stats.data_packets;
            bytes_delivered += q.stats.bytes_delivered;
        }
    }
    r.control_dropped += nic_corrupted;

    let themis = cluster.themis_stats();

    // ---- Invariant 1: exactly-once delivery. ----------------------
    if let Some(v) = predicates::no_duplicate_delivery(stray) {
        r.violations.push(v);
    }
    if let Some(expected) = cfg.expected_bytes {
        if cfg.expect_complete && bytes_delivered != expected {
            r.violations.push(Violation {
                invariant: "delivery",
                detail: format!("delivered {bytes_delivered} bytes, workload carries {expected}"),
            });
        }
    }

    // ---- Invariant 2: loss recovery before the horizon. -----------
    if cfg.expect_complete {
        if incomplete > 0 {
            r.violations.push(Violation {
                invariant: "recovery",
                detail: format!("{incomplete} group(s) never completed"),
            });
        }
        for u in &undrained {
            r.violations.push(Violation {
                invariant: "recovery",
                detail: format!("sender not drained at horizon: {u}"),
            });
        }
        if let Some(v) = predicates::losses_retransmitted(r.distinct_losses, r.retx_packets) {
            r.violations.push(v);
        }
    }

    // ---- Invariant 3: NACK filtering. -----------------------------
    if cfg.filtering {
        let clean = r.data_dropped == 0
            && r.control_dropped == 0
            && r.rto_fires == 0
            && themis.compensations == 0
            && themis.nacks_forwarded_unknown == 0;
        if clean && themis.nacks_forwarded_valid > 0 {
            r.violations.push(Violation {
                invariant: "filtering",
                detail: format!(
                    "{} NACK(s) forwarded as valid in a loss-free run",
                    themis.nacks_forwarded_valid
                ),
            });
        }
        if clean && r.retx_packets > 0 {
            r.violations.push(Violation {
                invariant: "filtering",
                detail: format!(
                    "{} spurious retransmission(s) in a loss-free run",
                    r.retx_packets
                ),
            });
        }
        // Unfiltered baselines (raw NIC-SR under spraying) legitimately
        // retransmit heavily with zero drops — the bound only binds when
        // a filter is claimed.
        if r.data_dropped == 0 {
            if let Some(v) = predicates::spurious_retx_bounded(
                r.data_sent - r.retx_packets,
                r.retx_packets,
                cfg.max_spurious_retx_ratio,
            ) {
                r.violations.push(v);
            }
        }
    }

    // ---- Invariant 4: compensation discipline. --------------------
    if !cfg.compensation && themis.compensations + themis.compensation_cancels > 0 {
        r.violations.push(Violation {
            invariant: "compensation",
            detail: format!(
                "compensation disabled but fired {} time(s) (+{} cancels)",
                themis.compensations, themis.compensation_cancels
            ),
        });
    }
    if cfg.filtering {
        let armings =
            themis.compensations + themis.compensation_cancels + themis.compensation_suppressed;
        if armings > themis.nacks_blocked {
            r.violations.push(Violation {
                invariant: "compensation",
                detail: format!(
                    "{} compensation outcomes but only {} blocked NACKs — \
                     compensation fired without a blocked NACK",
                    armings, themis.nacks_blocked
                ),
            });
        }
    }
    if let Some(max_rto) = cfg.max_rto_fires {
        if r.rto_fires > max_rto {
            r.violations.push(Violation {
                invariant: "compensation",
                detail: format!(
                    "{} RTO expirations (bound {max_rto}) — blocked-NACK losses \
                     were not recovered in-band",
                    r.rto_fires
                ),
            });
        }
    }

    // ---- Invariant 5: packet conservation. ------------------------
    if let Some(v) = predicates::conservation(
        r.data_sent,
        r.data_received,
        r.data_dropped,
        nic_unknown,
        cfg.quiesced,
    ) {
        r.violations.push(v);
    }

    // Drop-log ↔ switch-counter reconciliation (the telemetry exports
    // are derived from these same counters). Per-cause totals are exact
    // even when accumulated window by window.
    let fabric = netsim::trace::fabric_summary(&cluster.world, &cluster.all_switches());
    for (name, counter, logged) in [
        ("fabric.drops.buffer", fabric.drops_buffer, drops.buffer),
        (
            "fabric.drops.targeted",
            fabric.drops_targeted,
            drops.injected_like,
        ),
        (
            "fabric.drops.no_route",
            fabric.drops_no_route,
            drops.no_route,
        ),
    ] {
        if counter != logged {
            r.violations.push(Violation {
                invariant: "accounting",
                detail: format!("{name} counts {counter} but the drop log records {logged}"),
            });
        }
    }

    r
}

/// The oracle's pure invariant predicates, shared with the exhaustive
/// model checker. Each returns `None` on pass.
pub mod predicates {
    use super::Violation;

    /// Invariant 1 core: the application layer saw no duplicate
    /// completion.
    pub fn no_duplicate_delivery(stray_deliveries: u64) -> Option<Violation> {
        (stray_deliveries > 0).then(|| Violation {
            invariant: "delivery",
            detail: format!("{stray_deliveries} duplicate deliveries to the application"),
        })
    }

    /// Invariant 2 core: a retransmission names one PSN, so distinct
    /// dropped `(qp, psn)` pairs lower-bound the retransmission count in
    /// any run that delivered everything.
    pub fn losses_retransmitted(distinct_losses: u64, retx_packets: u64) -> Option<Violation> {
        (retx_packets < distinct_losses).then(|| Violation {
            invariant: "recovery",
            detail: format!(
                "{distinct_losses} distinct data (qp, psn) drops but only \
                 {retx_packets} retransmissions"
            ),
        })
    }

    /// Invariant 3 core: with zero real data loss, retransmissions are
    /// spurious by definition and their ratio must stay under `bound`.
    pub fn spurious_retx_bounded(
        first_tx: u64,
        retx_packets: u64,
        bound: f64,
    ) -> Option<Violation> {
        let total = first_tx + retx_packets;
        if total == 0 {
            return None;
        }
        let ratio = retx_packets as f64 / total as f64;
        (ratio > bound).then(|| Violation {
            invariant: "filtering",
            detail: format!(
                "spurious retransmission ratio {ratio:.4} exceeds {bound} \
                 ({retx_packets}/{total}) with zero data drops"
            ),
        })
    }

    /// Model-checker form of invariant 3: every NACK that reached the
    /// sender names the one genuinely lost PSN (no collateral damage).
    pub fn no_collateral_nacks(sender_nacks: &[u32], lost: Option<u32>) -> Option<Violation> {
        let bad: Vec<u32> = sender_nacks
            .iter()
            .copied()
            .filter(|&e| Some(e) != lost)
            .collect();
        (!bad.is_empty()).then(|| Violation {
            invariant: "filtering",
            detail: format!("collateral NACKs {bad:?} for loss {lost:?}"),
        })
    }

    /// Model-checker form of invariant 4 (liveness): when a same-path
    /// successor proves the loss after the NACK armed compensation, the
    /// sender must have been told about exactly that PSN.
    pub fn loss_signalled(compensable: bool, sender_nacks: &[u32], lost: u32) -> Option<Violation> {
        (compensable && !sender_nacks.contains(&lost)).then(|| Violation {
            invariant: "compensation",
            detail: format!("provable loss of PSN {lost} never signalled to the sender"),
        })
    }

    /// Invariant 5 core: sent = received + dropped (+ slack for packets
    /// that landed on a NIC without a provisioned QP), with equality
    /// required once the fabric has drained.
    pub fn conservation(
        sent: u64,
        received: u64,
        dropped: u64,
        unknown_qp_slack: u64,
        quiesced: bool,
    ) -> Option<Violation> {
        if received + dropped > sent {
            return Some(Violation {
                invariant: "conservation",
                detail: format!(
                    "received {received} + dropped {dropped} exceeds sent {sent} — \
                     the fabric duplicated packets"
                ),
            });
        }
        if quiesced {
            let missing = sent - received - dropped;
            if missing > unknown_qp_slack {
                return Some(Violation {
                    invariant: "conservation",
                    detail: format!(
                        "{missing} data packet(s) vanished without a drop record \
                         (sent {sent}, received {received}, dropped {dropped}, \
                         unknown-QP slack {unknown_qp_slack})"
                    ),
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::predicates::*;

    #[test]
    fn predicate_edges() {
        assert!(no_duplicate_delivery(0).is_none());
        assert!(no_duplicate_delivery(1).is_some());

        assert!(losses_retransmitted(0, 0).is_none());
        assert!(losses_retransmitted(3, 3).is_none());
        assert!(losses_retransmitted(3, 2).is_some());

        assert!(spurious_retx_bounded(0, 0, 0.01).is_none());
        assert!(spurious_retx_bounded(1000, 5, 0.01).is_none());
        assert!(spurious_retx_bounded(1000, 50, 0.01).is_some());

        assert!(no_collateral_nacks(&[7], Some(7)).is_none());
        assert!(no_collateral_nacks(&[7, 8], Some(7)).is_some());
        assert!(no_collateral_nacks(&[], None).is_none());
        assert!(no_collateral_nacks(&[3], None).is_some());

        assert!(loss_signalled(true, &[5], 5).is_none());
        assert!(loss_signalled(true, &[], 5).is_some());
        assert!(loss_signalled(false, &[], 5).is_none());
    }

    #[test]
    fn conservation_edges() {
        assert!(conservation(10, 8, 2, 0, true).is_none());
        assert!(conservation(10, 8, 1, 0, false).is_none(), "in flight ok");
        assert!(conservation(10, 8, 1, 0, true).is_some(), "vanished");
        assert!(
            conservation(10, 8, 1, 1, true).is_none(),
            "unknown-QP slack"
        );
        assert!(conservation(10, 9, 2, 0, false).is_some(), "duplication");
    }
}

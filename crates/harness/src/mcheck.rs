//! A partial-order-reduced explorer for the Themis protocol state space.
//!
//! `tests/model_check.rs` used to brute-force every arrival interleaving
//! of a 4-path, 8-packet window (~186k executions). That approach is
//! dead on arrival at 8 paths × 16 packets × ≤3 concurrent losses: the
//! raw execution count is ~10¹⁴. This module replaces enumeration with
//! a depth-first search over *protocol states* driving the real
//! components ([`RecvQp`], [`ThemisD`]), cut down by two reductions:
//!
//! * **Canonical state hashing** — every reached state is reduced to a
//!   64-bit fingerprint of its decision-relevant content (receiver
//!   window, flow-table entry, NACKs in flight, loss bookkeeping;
//!   never statistics counters). Interleaving prefixes that commute —
//!   cross-path arrival orders the receiver and Themis-D cannot
//!   distinguish — converge to the same fingerprint and are explored
//!   once. This is where the bulk of the 10⁹× reduction comes from:
//!   arrival orders only *branch* the search where they produce
//!   distinguishable states (the commutation points).
//! * **Canonical PSN-queue filtering** — a protocol-derived reduction:
//!   the set of scan thresholds the ring queue can ever see again is
//!   computable from the state (ePSNs of NACKs in flight plus future
//!   receiver ePSNs, a shrink-monotone set), and so is the number of
//!   future scans (receiver NACK ePSNs are strictly increasing, so at
//!   most one scan per candidate threshold). A reachability pass over
//!   "first serially-greater entry" positions, bounded by that scan
//!   budget, marks exactly the ring entries some future scan could
//!   return as its tPSN; everything else is consumed silently (or
//!   never compared) by every future scan and is omitted from the
//!   fingerprint — collapsing, e.g., all no-loss tails that differ
//!   only in drained-but-unscanned queue context, and post-loss tails
//!   that differ in entries behind the one scan still pending. Sound
//!   only while the ring has never overflowed and the window is
//!   smaller than the 8-bit serial half-window (both enforced per
//!   state).
//!
//! Loss nondeterminism is folded into the search as explicit `Lose`
//! moves (instead of an outer loop over loss subsets), and the NACK
//! return delay is a per-NACK branch — so states are shared across
//! loss subsets and delay assignments too.
//!
//! The safety and liveness monitors ride *inside* the state (and its
//! fingerprint), which is what makes deduplication sound: two merged
//! states agree on everything the verdicts depend on.
//!
//! Invariant classes checked (see DESIGN.md and the oracle contract):
//!
//! * **No collateral damage** — a NACK reaching the sender (forwarded
//!   or compensated) never names a PSN that already passed the ToR
//!   without being lost.
//! * **Every observable loss is signalled** — at every terminal state,
//!   the lowest lost PSN has been named to the sender whenever a
//!   same-path successor passed the ToR after its NACK arrived there.
//! * **PSN-queue truncation aliasing under 24-bit wrap-around** — the
//!   whole exploration can be re-based just below `2²⁴` via
//!   [`CheckConfig::psn_base`]; the state graph must be isomorphic to
//!   the base-0 run (identical state/terminal/verdict tallies).
//! * **Flow-table eviction racing an in-flight NACK** — guarded
//!   evictions ([`ThemisD::evict_flow`]) may fire at any point without
//!   changing any verdict; a forced eviction
//!   ([`ThemisD::force_remove_flow`]) must produce a detectable
//!   violation (the negative control proving the guard load-bearing).

use netsim::hooks::ReverseAction;
use netsim::packet::{Packet, PacketKind};
use netsim::types::{HostId, QpId};
use rnic::config::TransportMode;
use rnic::qp::RecvQp;
use rnic::reaction::{OooReaction, OooReactionKind};
use simcore::fx::{FxHashSet, FxHasher};
use simcore::time::{Nanos, TimeDelta};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use themis_core::themis_d::ThemisD;

/// The QP under exploration (single-flow model, like the old checker).
const QP: QpId = QpId(1);
/// 24-bit wire-PSN mask.
const PSN_MASK: u64 = 0xFF_FFFF;

/// How the explorer exercises flow-table eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionMode {
    /// No eviction moves.
    Off,
    /// A guarded [`ThemisD::evict_flow`] move is enabled at every state;
    /// it must never change a verdict.
    Guarded,
    /// One forced [`ThemisD::force_remove_flow`] move is enabled per
    /// execution path; used as the negative control — the run is
    /// *expected* to produce violations.
    Forced,
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Spraying modulus (power of two; PSN mod N path assignment).
    pub n_paths: usize,
    /// Window size in packets (PSNs `psn_base .. psn_base + window`).
    pub window: u64,
    /// Maximum concurrent losses explored.
    pub max_losses: usize,
    /// NACK last-hop return delays branched per emitted NACK, in
    /// subsequent-ToR-arrival ticks.
    pub nack_delays: Vec<u32>,
    /// First PSN of the window (extended). Must be a multiple of
    /// `n_paths` so path parity survives wire truncation; set near
    /// `2²⁴` to drive the window across the wrap boundary.
    pub psn_base: u64,
    /// Maximum delivery reorder depth: a packet may arrive at the ToR
    /// only when every packet more than `max_skew` PSNs below it is
    /// already decided (delivered or lost). `None` explores unbounded
    /// reordering — the full interleaving space, exponential in the
    /// window. Real fabrics bound skew by per-hop buffering; the
    /// tentpole config uses half a path stripe, which keeps cross-path
    /// overtakes racing on every stripe while pruning arrival orders no
    /// bounded-buffer fabric can produce. Loss *decisions* are exempt
    /// (a lost packet never occupies fabric buffering).
    pub max_skew: Option<u64>,
    /// Per-QP ring-queue capacity.
    pub queue_capacity: usize,
    /// Whether Themis-D arms §3.4 compensation.
    pub compensation: bool,
    /// Receiver OOO-escalation policy.
    pub ooo: OooReactionKind,
    /// Eviction moves.
    pub eviction: EvictionMode,
    /// Hard state budget (explosion guard; exceeded → `complete=false`).
    pub max_states: u64,
}

impl CheckConfig {
    /// The tentpole configuration: 8 paths, 16-packet window, up to 3
    /// concurrent losses, NACK delays {0, 2}, reorder skew 4.
    pub fn tentpole() -> CheckConfig {
        CheckConfig {
            n_paths: 8,
            window: 16,
            max_losses: 3,
            nack_delays: vec![0, 2],
            psn_base: 0,
            max_skew: Some(4),
            queue_capacity: 64,
            compensation: true,
            ooo: OooReactionKind::Eager,
            eviction: EvictionMode::Off,
            max_states: 5_000_000,
        }
    }
}

/// What one exploration found.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Unique canonical states expanded.
    pub states: u64,
    /// Transitions applied (successor states constructed).
    pub transitions: u64,
    /// Successors that merged into an already-visited canonical state.
    pub dedup_hits: u64,
    /// Terminal states reached (all arrivals done, no NACKs in flight).
    pub terminals: u64,
    /// Terminals where the lowest lost PSN was signalled to the sender.
    pub signalled_terminals: u64,
    /// Terminals that were silent acceptably (loss not provable at the
    /// ToR — the sender-RTO backstop corner) or had no losses.
    pub silent_ok_terminals: u64,
    /// Forwarded NACKs naming a PSN that had *not yet* reached the ToR
    /// (indistinguishable from a tail loss at forward time; the strict
    /// no-collateral claim requires this to be zero).
    pub uncertain_forwards: u64,
    /// Invariant violations (capped at 16 descriptions).
    pub violations: Vec<String>,
    /// Total violation count (even past the description cap).
    pub violation_count: u64,
    /// False iff the state budget was exhausted before the space was.
    pub complete: bool,
}

impl CheckReport {
    /// The logged reduction evidence: brute-force executions this
    /// exploration stands in for, per state actually expanded.
    pub fn reduction_ratio(&self, cfg: &CheckConfig) -> f64 {
        brute_force_executions(cfg) / (self.states.max(1) as f64)
    }
}

/// How many executions the pre-reduction checker would need for the
/// same coverage: every per-path FIFO merge the fabric model admits ×
/// every loss subset up to `max_losses` × a delay assignment per
/// execution. With `max_skew` set, arrival interleavings are counted by
/// dynamic programming over per-path progress vectors under the same
/// skew constraint the explorer enforces (losses relax enabling in a
/// way this count ignores, so it is a slight under-count — the logged
/// reduction ratio errs conservative). With `max_skew: None` the DP
/// reduces to the plain multinomial of per-path window shares.
pub fn brute_force_executions(cfg: &CheckConfig) -> f64 {
    let paths: Vec<u64> = {
        let mut counts = vec![0u64; cfg.n_paths];
        for i in 0..cfg.window {
            counts[(i % cfg.n_paths as u64) as usize] += 1;
        }
        counts
    };
    let mut memo: std::collections::HashMap<Vec<u64>, f64> = std::collections::HashMap::new();
    fn orders(
        heads: &mut Vec<u64>,
        paths: &[u64],
        n: u64,
        skew: Option<u64>,
        memo: &mut std::collections::HashMap<Vec<u64>, f64>,
    ) -> f64 {
        if heads.iter().zip(paths).all(|(h, c)| h == c) {
            return 1.0;
        }
        if let Some(&v) = memo.get(heads) {
            return v;
        }
        let min_undecided = (0..paths.len())
            .filter(|&p| heads[p] < paths[p])
            .map(|p| heads[p] * n + p as u64)
            .min()
            .unwrap();
        let mut total = 0.0;
        for p in 0..paths.len() {
            if heads[p] >= paths[p] {
                continue;
            }
            let ext = heads[p] * n + p as u64;
            if let Some(sk) = skew {
                if ext > min_undecided + sk {
                    continue;
                }
            }
            heads[p] += 1;
            total += orders(heads, paths, n, skew, memo);
            heads[p] -= 1;
        }
        memo.insert(heads.clone(), total);
        total
    }
    let interleavings = orders(
        &mut vec![0; cfg.n_paths],
        &paths,
        cfg.n_paths as u64,
        cfg.max_skew,
        &mut memo,
    );
    let mut subsets = 0f64;
    for k in 0..=cfg.max_losses as u64 {
        let mut c = 1f64;
        for j in 0..k {
            c = c * (cfg.window - j) as f64 / (j + 1) as f64;
        }
        subsets += c;
    }
    interleavings * subsets * cfg.nack_delays.len().max(1) as f64
}

/// Liveness bookkeeping for one lost PSN (monitor-in-state).
#[derive(Debug, Clone, PartialEq, Eq)]
struct LossRecord {
    /// Extended PSN.
    ext: u64,
    /// A reverse NACK naming this PSN was scanned at the ToR.
    nack_scanned: bool,
    /// A same-path higher PSN passed the ToR after that scan — the loss
    /// became provable at the ToR.
    proof_after_scan: bool,
    /// A NACK naming this PSN reached the sender.
    signalled: bool,
}

/// One explored protocol state. Statistics inside the components are
/// carried along but never hashed.
#[derive(Clone)]
struct State {
    /// Per-path index of the next PSN to deliver or lose.
    heads: Vec<u8>,
    /// Lost PSNs with their liveness bookkeeping.
    lost: Vec<LossRecord>,
    receiver: RecvQp,
    themis: ThemisD,
    /// NACKs in flight back to the ToR: (remaining delay, extended ePSN).
    pending: VecDeque<(u32, u64)>,
    /// Every ePSN a ToR scan has been performed for (sorted). A NACK can
    /// be scanned *before* its packet's lose/deliver decision is made
    /// (the receiver NACKs its hole, which is still undecided at the
    /// head), so loss records backfill `nack_scanned` from this set.
    scanned: Vec<u64>,
    /// Arrival clock (drives the receiver's OOO gap timer).
    now: u64,
    /// The one forced eviction of this path has fired.
    forced_evicted: bool,
}

/// 8-bit serial "a strictly ahead of b" (mirrors the ring queue's).
#[inline]
fn serial8_greater(a: u8, b: u8) -> bool {
    (1..=127).contains(&a.wrapping_sub(b))
}

struct Explorer<'a> {
    cfg: &'a CheckConfig,
    /// Per-path extended-PSN FIFO sequences.
    paths: Vec<Vec<u64>>,
    visited: FxHashSet<u64>,
    report: CheckReport,
}

/// Explore the full state space of `cfg` and report what was found.
pub fn explore(cfg: &CheckConfig) -> CheckReport {
    assert!(
        cfg.n_paths.is_power_of_two(),
        "PSN mod N needs a power of two"
    );
    assert_eq!(
        cfg.psn_base % cfg.n_paths as u64,
        0,
        "psn_base must preserve path parity across wire truncation"
    );
    assert!(cfg.window < 128, "8-bit serial reduction window");
    assert!(
        cfg.queue_capacity >= cfg.window as usize,
        "no ring overflow"
    );
    let paths: Vec<Vec<u64>> = (0..cfg.n_paths as u64)
        .map(|p| {
            (0..cfg.window)
                .map(|i| cfg.psn_base + i)
                .filter(|psn| psn % cfg.n_paths as u64 == p)
                .collect()
        })
        .collect();
    let mut ex = Explorer {
        cfg,
        paths,
        visited: FxHashSet::default(),
        report: CheckReport {
            complete: true,
            ..CheckReport::default()
        },
    };

    let mut receiver = RecvQp::new(
        QP,
        HostId(1),
        HostId(0),
        4000,
        TransportMode::SelectiveRepeat,
        1,
        TimeDelta::from_micros(50),
        OooReaction::new(cfg.ooo),
    );
    receiver.advance_to(cfg.psn_base);
    let init = State {
        heads: vec![0; cfg.n_paths],
        lost: Vec::new(),
        receiver,
        themis: ThemisD::new(cfg.n_paths, cfg.queue_capacity, cfg.compensation),
        pending: VecDeque::new(),
        scanned: Vec::new(),
        now: 0,
        forced_evicted: false,
    };
    let h = ex.canonical_hash(&init);
    ex.visited.insert(h);
    ex.dfs(init);
    ex.report
}

impl Explorer<'_> {
    fn dfs(&mut self, s: State) {
        if !self.report.complete {
            return;
        }
        self.report.states += 1;
        if self.report.states > self.cfg.max_states {
            self.report.complete = false;
            return;
        }
        let succs = self.successors(&s);
        if succs.is_empty() {
            self.terminal(&s);
            return;
        }
        for succ in succs {
            self.report.transitions += 1;
            let h = self.canonical_hash(&succ);
            if self.visited.insert(h) {
                self.dfs(succ);
            } else {
                self.report.dedup_hits += 1;
            }
        }
    }

    /// Partial-order reduction for losses: a `Lose` touches no component
    /// and does not tick the clock, so it commutes with every move on
    /// every other path (and, being exempt from the skew bound, can
    /// always move *earlier*). Each execution is therefore
    /// verdict-equivalent to its *canonical-early* form, where each loss
    /// fires immediately after the previous decision on its own path —
    /// i.e. as a prefix loss before any delivery, or glued to the
    /// preceding same-path delivery. Only canonical-early interleavings
    /// are generated: prefix-loss moves while nothing has been
    /// delivered, plus compound "deliver, then lose the next k" moves —
    /// standalone loss placements never become states.
    fn successors(&mut self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        let budget_left = self.cfg.max_losses - s.lost.len();
        let mut remaining_total = 0usize;
        let mut min_undecided = u64::MAX;
        for p in 0..self.cfg.n_paths {
            remaining_total += self.paths[p].len() - s.heads[p] as usize;
            if let Some(&e) = self.paths[p].get(s.heads[p] as usize) {
                min_undecided = min_undecided.min(e);
            }
        }
        // heads counts decisions; every decision that isn't a loss is a
        // delivery.
        let decided: usize = s.heads.iter().map(|&h| h as usize).sum();
        let delivered_any = decided > s.lost.len();
        for p in 0..self.cfg.n_paths {
            let rem = self.paths[p].len() - s.heads[p] as usize;
            if rem == 0 {
                continue;
            }
            // Canonical-early prefix losses: while nothing has been
            // delivered yet, any per-path prefix may be declared lost.
            if !delivered_any && budget_left > 0 {
                for k in 1..=budget_left.min(rem) {
                    let mut v = s.clone();
                    for _ in 0..k {
                        let ext = self.paths[p][v.heads[p] as usize];
                        v.heads[p] += 1;
                        Self::push_loss(&mut v, ext);
                    }
                    out.push(v);
                }
            }
            // Deliver the head of path p (skew-permitting), then lose
            // the next k packets of the same path; branch on the return
            // delay of any NACK the receiver emits in response.
            let ext = self.paths[p][s.heads[p] as usize];
            if let Some(skew) = self.cfg.max_skew {
                if ext > min_undecided + skew {
                    continue;
                }
            }
            for k in 0..=budget_left.min(rem - 1) {
                let mut base = s.clone();
                base.heads[p] += 1;
                let nacked = self.apply_arrival(&mut base, ext);
                for _ in 0..k {
                    let lost_ext = self.paths[p][base.heads[p] as usize];
                    base.heads[p] += 1;
                    Self::push_loss(&mut base, lost_ext);
                }
                match nacked {
                    None => {
                        self.tick_pending(&mut base);
                        out.push(base);
                    }
                    Some(epsn_ext) => {
                        for &d in &self.cfg.nack_delays {
                            let mut v = base.clone();
                            v.pending.push_back((d, epsn_ext));
                            self.tick_pending(&mut v);
                            out.push(v);
                        }
                    }
                }
            }
        }
        if remaining_total == 0 && !s.pending.is_empty() {
            // Quiescent fabric: the in-flight NACKs drain one round per
            // move (the post-arrival flush of the old checker).
            let mut v = s.clone();
            self.tick_pending(&mut v);
            out.push(v);
        }
        if out.is_empty() {
            // Terminal: no scan can ever happen again, so an eviction
            // move here is vacuous — keep the state terminal.
            return out;
        }
        match self.cfg.eviction {
            EvictionMode::Off => {}
            EvictionMode::Guarded => {
                // The switch may reclaim the entry at any point; refused
                // evictions leave the canonical state unchanged (pure
                // dedup hits), successful ones must change no verdict.
                let mut v = s.clone();
                v.themis.evict_flow(QP);
                out.push(v);
            }
            EvictionMode::Forced => {
                if !s.forced_evicted && s.themis.table().get(QP).is_some() {
                    let mut v = s.clone();
                    v.themis.force_remove_flow(QP);
                    v.forced_evicted = true;
                    out.push(v);
                }
            }
        }
        out
    }

    /// Record the loss of `ext` (vanishes upstream of the ToR: no clock
    /// tick, no component sees it). `nack_scanned` is backfilled from
    /// the scans that happened before this decision point.
    fn push_loss(s: &mut State, ext: u64) {
        s.lost.push(LossRecord {
            ext,
            nack_scanned: s.scanned.binary_search(&ext).is_ok(),
            proof_after_scan: false,
            signalled: false,
        });
    }

    /// One data packet passes the ToR and lands at the receiver.
    /// Returns the extended ePSN of a receiver NACK, if one was emitted.
    fn apply_arrival(&mut self, s: &mut State, ext: u64) -> Option<u64> {
        let wire = (ext & PSN_MASK) as u32;
        let pkt = Packet::data(QP, HostId(0), HostId(1), 4000, wire, 0, false, 1000, false);
        if let Some(comp) = s.themis.on_downstream_data(&pkt) {
            if let PacketKind::Nack { epsn, .. } = comp.kind {
                self.register_sender_nack(s, epsn);
            }
        }
        // This arrival may prove earlier losses at the ToR (same path,
        // higher PSN, after their NACK was scanned there).
        let n = self.cfg.n_paths as u64;
        for rec in &mut s.lost {
            if rec.nack_scanned && ext > rec.ext && ext % n == rec.ext % n {
                rec.proof_after_scan = true;
            }
        }
        s.now += 1;
        let out = s
            .receiver
            .on_data(wire, 0, false, 1000, false, Nanos(s.now));
        for resp in out.responses {
            if let PacketKind::Nack { .. } = resp.kind {
                // An OOO NACK always names the receiver's current hole.
                return Some(s.receiver.epsn());
            }
        }
        None
    }

    /// Advance every in-flight NACK by one arrival tick; those due now
    /// are scanned by Themis-D in emission order.
    fn tick_pending(&mut self, s: &mut State) {
        let mut rest = VecDeque::with_capacity(s.pending.len());
        while let Some((d, ext)) = s.pending.pop_front() {
            if d == 0 {
                if let Err(pos) = s.scanned.binary_search(&ext) {
                    s.scanned.insert(pos, ext);
                }
                for rec in &mut s.lost {
                    if rec.ext == ext {
                        rec.nack_scanned = true;
                    }
                }
                let wire = (ext & PSN_MASK) as u32;
                if s.themis.on_reverse_nack(QP, wire) == ReverseAction::Forward {
                    self.register_sender_nack(s, wire);
                }
            } else {
                rest.push_back((d - 1, ext));
            }
        }
        s.pending = rest;
    }

    /// A NACK (forwarded or compensated) reached the sender naming
    /// `wire_epsn`: liveness credit if it names a loss, safety violation
    /// if it names a PSN that already passed the ToR.
    fn register_sender_nack(&mut self, s: &mut State, wire_epsn: u32) {
        let n = self.cfg.n_paths as u64;
        for rec in &mut s.lost {
            if (rec.ext & PSN_MASK) as u32 == wire_epsn {
                rec.signalled = true;
                return;
            }
        }
        // Not lost: locate the window PSN it names (window < 2²⁴ so the
        // wire value is unambiguous).
        let Some(ext) = (0..self.cfg.window)
            .map(|i| self.cfg.psn_base + i)
            .find(|e| (e & PSN_MASK) as u32 == wire_epsn)
        else {
            self.violation(format!(
                "sender NACK names wire PSN {wire_epsn} outside the window"
            ));
            return;
        };
        let path = (ext % n) as usize;
        let pos = ((ext - self.cfg.psn_base) / n) as usize;
        if pos < s.heads[path] as usize {
            // Delivered packets are beyond the head and not in `lost`.
            self.violation(format!(
                "collateral NACK: PSN {ext} already passed the ToR undropped \
                 (heads {:?}, lost {:?})",
                s.heads,
                s.lost.iter().map(|r| r.ext).collect::<Vec<_>>(),
            ));
        } else {
            // Still in flight: at forward time the ToR cannot tell this
            // apart from a tail loss.
            self.report.uncertain_forwards += 1;
        }
    }

    fn terminal(&mut self, s: &State) {
        self.report.terminals += 1;
        if let Some(rec) = s.lost.iter().min_by_key(|r| r.ext) {
            if rec.proof_after_scan && !rec.signalled {
                self.violation(format!(
                    "observable loss never signalled: PSN {} was proven lost \
                     at the ToR (same-path successor after its NACK) but the \
                     sender was never told",
                    rec.ext
                ));
            }
            if rec.signalled {
                self.report.signalled_terminals += 1;
            } else {
                self.report.silent_ok_terminals += 1;
            }
        } else {
            self.report.silent_ok_terminals += 1;
        }
    }

    fn violation(&mut self, msg: String) {
        self.report.violation_count += 1;
        if self.report.violations.len() < 16 {
            self.report.violations.push(msg);
        }
    }

    /// Every ePSN a future ring-queue scan can carry: NACKs already in
    /// flight plus every ePSN value the receiver can still emit.
    /// Emission holes are reachable ePSN values, and ePSN only advances
    /// through deliveries — it can never pass the lowest lost PSN
    /// (nothing retransmits inside the model), so no future threshold
    /// exceeds `min(lost)`. The set is *shrink-monotone*: every
    /// candidate at any future state is already a candidate now, which
    /// is what makes "inert now" mean "inert forever" for the filters
    /// built on it. Empty iff no scan can ever happen again.
    fn future_scan_thresholds(&self, s: &State, out: &mut Vec<u64>) {
        out.clear();
        out.extend(s.pending.iter().map(|&(_, e)| e));
        let epsn = s.receiver.epsn();
        if s.receiver.last_nacked() != Some(epsn) {
            out.push(epsn);
        }
        let l_min = s.lost.iter().map(|r| r.ext).min().unwrap_or(u64::MAX);
        if l_min != u64::MAX && l_min > epsn {
            out.push(l_min);
        }
        for (p, path) in self.paths.iter().enumerate() {
            // Undecided packets strictly below the lowest loss can still
            // become NACKed holes (including by being lost themselves,
            // which only lowers the lowest loss).
            for &ext in &path[s.heads[p] as usize..] {
                if ext > epsn && ext < l_min {
                    out.push(ext);
                }
            }
        }
    }

    /// Canonical 64-bit fingerprint: everything future verdicts can
    /// depend on, nothing else.
    fn canonical_hash(&self, s: &State) -> u64 {
        // Eviction is the object under test in Forced mode, so entry
        // *presence* is hashed honestly there: an inert-but-present
        // entry must not merge with an absent one, because the forced
        // eviction move is available only in the former. The content
        // filters below stay on — they erase only what no future scan
        // can observe, and eviction availability never depends on entry
        // content.
        let no_absent_merge = self.cfg.eviction == EvictionMode::Forced;
        let mut h = FxHasher::default();
        s.heads.hash(&mut h);
        let mut lost: Vec<&LossRecord> = s.lost.iter().collect();
        lost.sort_by_key(|r| r.ext);
        for r in lost {
            r.ext.hash(&mut h);
            r.nack_scanned.hash(&mut h);
            r.proof_after_scan.hash(&mut h);
            r.signalled.hash(&mut h);
        }
        0xB0D1u16.hash(&mut h);
        for &(d, e) in &s.pending {
            d.hash(&mut h);
            e.hash(&mut h);
        }
        // Scan flags only matter for packets whose lose/deliver decision
        // is still open (they backfill future loss records); flags for
        // decided packets are inert and omitted.
        let n = self.cfg.n_paths as u64;
        0x5CA7u16.hash(&mut h);
        for &e in &s.scanned {
            let path = (e % n) as usize;
            let pos = (e - self.cfg.psn_base) / n;
            if pos >= s.heads[path] as u64 {
                e.hash(&mut h);
            }
        }
        s.forced_evicted.hash(&mut h);
        s.receiver.state_fingerprint().hash(&mut h);
        match s.themis.table().get(QP) {
            None => 0xDEADu16.hash(&mut h),
            Some(e) => {
                // Reduction soundness guards: never overflowed, window
                // inside the 8-bit serial half-window (asserted at
                // explore() entry), all live bytes distinct.
                assert_eq!(
                    e.queue.stats.overflow_evictions, 0,
                    "canonical queue filter requires an overflow-free ring"
                );
                let mut cands = Vec::new();
                self.future_scan_thresholds(s, &mut cands);
                // Keep only *observable* ring entries: entry j can be a
                // scan outcome iff some future threshold t admits it as
                // the first serially-greater entry — every entry from
                // some reachable scan start up to j must sit at or below
                // t, and j above it. A scan pops through its tPSN, so
                // the next scan starts just past it: starts are
                // reachable transitively, and the total number of
                // future scans is bounded by the number of candidate
                // thresholds (one NACK per candidate; the set is
                // shrink-monotone). Everything unobservable is consumed
                // silently (or never compared) by every future scan, so
                // its presence and order are inert. Threshold reuse
                // within the count budget is deliberately allowed —
                // over-approximating behaviours only refines the
                // partition, never merges states the true use-once
                // semantics could tell apart.
                let entries: Vec<u8> = e.queue.iter().collect();
                let kept: Vec<u8> = {
                    let tbs: Vec<u8> = cands.iter().map(|&c| (c & 0xFF) as u8).collect();
                    let budget = tbs.len();
                    let mut observable = vec![false; entries.len()];
                    // scans_used[s] = fewest scans spending which start
                    // position s becomes the scan head; usize::MAX =
                    // unreachable.
                    let mut scans_used = vec![usize::MAX; entries.len() + 1];
                    scans_used[0] = 0;
                    for start in 0..entries.len() {
                        let used = scans_used[start];
                        if used >= budget {
                            continue;
                        }
                        let mut maxpre: Option<u8> = None;
                        for j in start..entries.len() {
                            let ej = entries[j];
                            if tbs.iter().any(|&t| {
                                serial8_greater(ej, t)
                                    && maxpre.is_none_or(|mp| !serial8_greater(mp, t))
                            }) {
                                observable[j] = true;
                                scans_used[j + 1] = scans_used[j + 1].min(used + 1);
                            }
                            maxpre = Some(match maxpre {
                                Some(mp) if serial8_greater(mp, ej) => mp,
                                _ => ej,
                            });
                        }
                    }
                    entries
                        .iter()
                        .zip(&observable)
                        .filter(|&(_, &o)| o)
                        .map(|(&b, _)| b)
                        .collect()
                };
                // A remembered tPSN is only ever compared against future
                // NACK ePSNs; an expected retransmission only against
                // future data arrivals. Slots matching neither are inert
                // (the candidate sets only shrink), and a ring with no
                // live slot is hashed as if empty — cursor included,
                // since eviction order can only matter once a live slot
                // exists.
                let tpsn_live = e
                    .recent_tpsn_slots()
                    .iter()
                    .flatten()
                    .any(|&b| cands.iter().any(|&c| (c & 0xFF) as u8 == b));
                let retx_live = e.pending_retx_slots().iter().flatten().any(|&psn| {
                    self.paths.iter().enumerate().any(|(p, path)| {
                        path[s.heads[p] as usize..]
                            .iter()
                            .any(|&ext| (ext & PSN_MASK) as u32 == psn)
                    })
                });
                let sides_inert = !tpsn_live && !retx_live;
                if !no_absent_merge && !e.valid && sides_inert && kept.is_empty() {
                    // Observationally identical to an absent entry: a
                    // lazy re-creation scans, suppresses and arms
                    // exactly the same way. Normalizing the two together
                    // is what lets guarded evictions dedup instantly.
                    0xDEADu16.hash(&mut h);
                } else {
                    0xF10Bu16.hash(&mut h);
                    e.valid.hash(&mut h);
                    if e.valid {
                        e.bepsn.hash(&mut h);
                    }
                    if tpsn_live {
                        e.recent_tpsn_slots().hash(&mut h);
                        e.recent_tpsn_cursor().hash(&mut h);
                    }
                    if retx_live {
                        e.pending_retx_slots().hash(&mut h);
                        e.pending_retx_cursor().hash(&mut h);
                    }
                    kept.hash(&mut h);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CheckConfig {
        CheckConfig {
            n_paths: 4,
            window: 8,
            max_losses: 2,
            nack_delays: vec![0, 2],
            psn_base: 0,
            max_skew: None,
            queue_capacity: 64,
            compensation: true,
            ooo: OooReactionKind::Eager,
            eviction: EvictionMode::Off,
            max_states: 2_000_000,
        }
    }

    #[test]
    fn small_config_is_clean_and_reduced() {
        let cfg = small();
        let r = explore(&cfg);
        assert!(r.complete);
        assert_eq!(r.violations, Vec::<String>::new());
        assert_eq!(r.uncertain_forwards, 0);
        assert!(r.signalled_terminals > 0, "losses do get signalled");
        assert!(
            r.reduction_ratio(&cfg) > 5.0,
            "hash dedup must beat brute force: {} states vs {} executions",
            r.states,
            brute_force_executions(&cfg)
        );
    }

    #[test]
    fn brute_force_count_matches_old_checker() {
        // The pre-reduction checker enumerated 2520 interleavings × 37
        // loss subsets × 2 delays = 186 480 executions at 4×8×≤2.
        let cfg = small();
        assert_eq!(brute_force_executions(&cfg) as u64, 2520 * 37 * 2);
    }

    #[test]
    fn guarded_eviction_changes_nothing_at_small_scale() {
        let mut cfg = small();
        cfg.max_losses = 1;
        let base = explore(&cfg);
        cfg.eviction = EvictionMode::Guarded;
        let evict = explore(&cfg);
        assert_eq!(evict.violations, Vec::<String>::new());
        assert_eq!(base.violation_count, evict.violation_count);
        assert_eq!(
            (base.signalled_terminals > 0),
            (evict.signalled_terminals > 0)
        );
    }
}

//! Coverage-guided fuzzing for the protocol-invariant oracle.
//!
//! The blind fuzzer behind `themis_fuzz` samples independent fault plans
//! from a root seed; every case explores wherever the sampler happens to
//! land. This module adds the AFL-style feedback loop on top of the same
//! deterministic machinery:
//!
//! * **Coverage features** come from the run's telemetry snapshot — a
//!   feature is a `(counter name, log₂ value bucket)` pair, so "the run
//!   forwarded a valid NACK", "the fabric dropped 8–15 packets to
//!   buffer pressure", "a REPS pool eviction fired", "the receiver
//!   crossed a 24-bit PSN wrap" are all distinct features — plus one
//!   feature per oracle invariant tag that fired. Everything observable
//!   about a run (NACK verdicts, per-cause drops, RTO firings,
//!   `scheme.*` internals) is already a counter, so the feature map
//!   needs no per-subsystem plumbing.
//! * **The corpus** keeps every case whose run contributed at least one
//!   new feature, optionally [ddmin]-minimized to the events that still
//!   reproduce its novel coverage. Corpus cases serialize to a versioned
//!   text form (`themis-corpus v1` header + `themis-faultplan v1` body)
//!   and replay bit-identically for any shard count — which is what lets
//!   `tests/corpus/` double as a deterministic regression suite.
//! * **Guided mutation**: instead of always sampling a fresh plan, a
//!   guided case usually mutates a corpus parent — splicing two parents'
//!   event lists, perturbing timestamps and rates, or swapping in a
//!   freshly sampled episode. Mutations compound faults beyond what the
//!   independent sampler reaches at the same budget, which is exactly
//!   the acceptance criterion (`tests/fuzz_coverage.rs` asserts guided
//!   coverage strictly dominates blind at equal budget).
//!
//! Everything is driven by [`Xoshiro256::substream`]\(root, k\): the
//! same `(seed, budget, mode, pins)` always fuzzes the same cases, finds
//! the same features and emits the same corpus, byte for byte.
//!
//! [ddmin]: crate::shrink::ddmin

use crate::faults::{Fault, FaultEvent, FaultPlan, FaultSpace};
use crate::oracle::{self, OracleConfig, Violation};
use crate::scheme::Scheme;
use crate::shrink::ddmin;
use crate::{
    expected_delivered_bytes, planned_transfers, run_collective_with_faults, Collective,
    ExperimentConfig, ExperimentResult,
};
use simcore::fx::FxHasher;
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Header prefix of the corpus-case text form.
pub const CORPUS_HEADER_V1: &str = "# themis-corpus v1";

/// How the fuzzer picks its next case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Independent sampling only (the pre-coverage behaviour): case `k`
    /// is fully derived from `substream(seed, k)`.
    Blind,
    /// Coverage feedback: cases usually mutate a corpus parent once the
    /// corpus is non-empty; fresh samples are mixed in to keep exploring.
    Guided,
}

/// Log₂ bucketing for counter values: 0 → 0, 1 → 1, 2..3 → 2,
/// 4..7 → 3, … — a counter only yields a new feature when it changes
/// magnitude, not on every ±1.
pub fn bucket(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// The set of coverage features seen so far. Feature identities are
/// `FxHasher` digests of `(name, bucket)` — stable across runs and
/// platforms, so corpus files and coverage floors are reproducible.
#[derive(Debug, Clone, Default)]
pub struct FeatureMap {
    seen: HashSet<u64>,
}

impl FeatureMap {
    /// Empty map.
    pub fn new() -> FeatureMap {
        FeatureMap::default()
    }

    /// Distinct features observed.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    fn feature_id(name: &str, bucket: u32) -> u64 {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        bucket.hash(&mut h);
        h.finish()
    }

    /// The curated coverage signal: protocol *reactions*, not raw volume.
    /// Volume counters (bytes delivered, packets forwarded, buffer peaks,
    /// sim length) bucket-wiggle with every config seed, which would
    /// reward blind config churn over actually provoking the recovery
    /// machinery; the counters that matter are the ones a fault has to
    /// *earn* — NACK verdicts, per-cause drops, RTO firings, retx/dup/OOO
    /// traffic, scheme-internal decisions, PSN-wrap crossings.
    fn is_coverage_counter(name: &str) -> bool {
        name.starts_with("themis.nacks.")
            || name.starts_with("agg.themis.")
            || name.starts_with("scheme.")
            || name.starts_with("fabric.drops")
            || name.starts_with("agg.fabric.drops")
            || matches!(
                name,
                "fabric.hook_blocked"
                    | "fabric.hook_emitted"
                    | "fabric.flowlet_switches"
                    | "fabric.ecn_marked"
                    | "rnic.rto_fired"
                    | "rnic.nacks_issued"
                    | "rnic.rate_cuts"
                    | "agg.nic.psn_wraps"
                    | "agg.nic.rto_fires"
                    | "agg.nic.retx_packets"
                    | "agg.nic.dup_packets"
                    | "agg.nic.ooo_packets"
                    | "agg.nic.nacks_sent"
                    | "agg.nic.nacks_received"
                    | "agg.nic.cnps_received"
            )
    }

    /// Extract the feature ids of one run: every non-zero telemetry
    /// counter contributes `(name, log₂ bucket)`, every oracle violation
    /// its stable invariant tag.
    pub fn features_of(result: &ExperimentResult, violations: &[Violation]) -> Vec<u64> {
        let mut out = Vec::new();
        for (name, value) in &result.telemetry.counters {
            if *value > 0 && Self::is_coverage_counter(name) {
                out.push(Self::feature_id(name, bucket(*value)));
            }
        }
        for v in violations {
            out.push(Self::feature_id("oracle.violation", 0) ^ Self::feature_id(v.invariant, 0));
        }
        out
    }

    /// Fold one run into the map; returns the feature ids that were new.
    pub fn observe(&mut self, result: &ExperimentResult, violations: &[Violation]) -> Vec<u64> {
        Self::features_of(result, violations)
            .into_iter()
            .filter(|&f| self.seen.insert(f))
            .collect()
    }

    /// Whether the map contains every id in `ids`.
    pub fn contains_all(&self, ids: &[u64]) -> bool {
        ids.iter().all(|f| self.seen.contains(f))
    }
}

/// One replayable fuzz case: everything a run needs, in one text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Scheme under test (also the oracle's judging scheme on replay).
    pub scheme: Scheme,
    /// Traffic pattern.
    pub collective: Collective,
    /// Per-group buffer in KiB.
    pub kb: u64,
    /// Seed of the experiment config (fabric RNG etc.).
    pub cfg_seed: u64,
    /// The fault scenario.
    pub plan: FaultPlan,
}

impl CorpusCase {
    /// Serialize to the versioned corpus text form: a header line with
    /// the run parameters, then the `themis-faultplan v1` body.
    pub fn to_text(&self) -> String {
        format!(
            "{CORPUS_HEADER_V1} scheme={} collective={} kb={} cfg_seed={}\n{}",
            self.scheme.cli_name(),
            self.collective.label().to_ascii_lowercase(),
            self.kb,
            self.cfg_seed,
            self.plan.to_text()
        )
    }

    /// Parse the corpus text form.
    pub fn from_text(text: &str) -> Result<CorpusCase, String> {
        let mut lines = text.lines();
        let header = loop {
            match lines.next() {
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => break l.trim(),
                None => return Err("empty corpus case".into()),
            }
        };
        let rest = header
            .strip_prefix(CORPUS_HEADER_V1)
            .ok_or_else(|| format!("unsupported corpus header: {header:?}"))?;
        let mut scheme = None;
        let mut collective = None;
        let mut kb = None;
        let mut cfg_seed = None;
        for tok in rest.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad corpus header token {tok:?}"))?;
            match key {
                "scheme" => {
                    scheme =
                        Some(Scheme::parse(val).ok_or_else(|| format!("unknown scheme {val:?}"))?)
                }
                "collective" => {
                    collective = Some(
                        Collective::parse(val)
                            .ok_or_else(|| format!("unknown collective {val:?}"))?,
                    )
                }
                "kb" => kb = Some(val.parse().map_err(|_| format!("bad kb {val:?}"))?),
                "cfg_seed" => {
                    cfg_seed = Some(val.parse().map_err(|_| format!("bad cfg_seed {val:?}"))?)
                }
                other => return Err(format!("unknown corpus header key {other:?}")),
            }
        }
        let plan = FaultPlan::from_text(&lines.collect::<Vec<_>>().join("\n"))?;
        Ok(CorpusCase {
            scheme: scheme.ok_or("missing scheme= in corpus header")?,
            collective: collective.ok_or("missing collective= in corpus header")?,
            kb: kb.ok_or("missing kb= in corpus header")?,
            cfg_seed: cfg_seed.ok_or("missing cfg_seed= in corpus header")?,
            plan,
        })
    }

    /// The experiment configuration this case runs under.
    pub fn experiment_config(&self, shards: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::motivation_small(self.scheme, self.cfg_seed);
        cfg.shards = shards;
        cfg
    }

    /// Oracle expectations for `plan` under `judge` (normally
    /// [`CorpusCase::scheme`]; fault-seeded acceptance demos decouple
    /// them).
    pub fn oracle_config(&self, judge: Scheme, plan: &FaultPlan, quiesced: bool) -> OracleConfig {
        let cfg = self.experiment_config(1);
        let mut o = OracleConfig::for_scheme(judge).with_expected_bytes(expected_delivered_bytes(
            &cfg,
            self.collective,
            self.kb << 10,
        ));
        o.quiesced = quiesced;
        if plan.has_random_loss() || plan.drops_control() {
            // Lost ACKs/handshakes legitimately leave the RTO as the
            // only backstop; only deterministic-loss plans pin the bound.
            o = o.without_rto_bound();
        }
        o
    }

    /// Run this case (with `plan` substituted for the stored one) and
    /// judge it against `judge`. Bit-identical for any `shards`.
    pub fn run_with(
        &self,
        plan: &FaultPlan,
        judge: Scheme,
        shards: usize,
    ) -> (ExperimentResult, Vec<Violation>) {
        let cfg = self.experiment_config(shards);
        let (result, cluster) =
            run_collective_with_faults(&cfg, self.collective, self.kb << 10, plan);
        let quiesced = result.sim_end < cfg.horizon;
        let violations = oracle::check(&cluster, &self.oracle_config(judge, plan, quiesced));
        (result, violations)
    }

    /// Run this case as stored, judged against its own scheme.
    pub fn run(&self, shards: usize) -> (ExperimentResult, Vec<Violation>) {
        self.run_with(&self.plan, self.scheme, shards)
    }

    /// The fault-sampling domain of this case (used both to sample fresh
    /// plans and to keep mutations inside the installable space).
    pub fn fault_space(&self, max_episodes: usize) -> FaultSpace {
        let cfg = self.experiment_config(1);
        FaultSpace {
            n_leaves: cfg.fabric.n_leaves,
            n_uplinks: cfg.fabric.n_spines,
            // The motivation workload finishes within a few hundred µs;
            // episodes landing later are harmless no-ops.
            horizon: Nanos::from_micros(500),
            max_episodes,
            targets: planned_transfers(&cfg, self.collective, self.kb << 10)
                .into_iter()
                .map(|(qp, n_psn)| (qp.0, n_psn))
                .collect(),
        }
    }
}

/// Fuzzing-loop parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; case `k` derives from `substream(root_seed, k)`.
    pub root_seed: u64,
    /// Number of cases to run.
    pub budget: u64,
    /// Scheme the runs execute.
    pub scheme: Scheme,
    /// Scheme the oracle judges against (normally `scheme`; the
    /// `THEMIS_FUZZ_BREAK` acceptance demo decouples them).
    pub judge: Scheme,
    /// Pin the collective (default: sampled per case).
    pub collective: Option<Collective>,
    /// Pin the per-group buffer in KiB (default: sampled 64..=512).
    pub kb: Option<u64>,
    /// Maximum fault episodes per freshly sampled plan.
    pub max_episodes: usize,
    /// Engine shards per case (bit-identical for any value).
    pub shards: usize,
    /// Blind or coverage-guided case selection.
    pub mode: Mode,
    /// ddmin-minimize corpus entries to the events that still reproduce
    /// their novel coverage (costs extra runs; used when emitting
    /// `tests/corpus/`).
    pub minimize_corpus: bool,
    /// Keep fuzzing past failing cases (collecting all failures) instead
    /// of stopping at the first.
    pub keep_going: bool,
}

impl FuzzConfig {
    /// Defaults matching the `themis_fuzz` CLI.
    pub fn new(scheme: Scheme) -> FuzzConfig {
        FuzzConfig {
            root_seed: 0xCAFE_F00D,
            budget: 300,
            scheme,
            judge: scheme,
            collective: None,
            kb: None,
            max_episodes: 5,
            shards: 1,
            mode: Mode::Guided,
            minimize_corpus: false,
            keep_going: false,
        }
    }
}

/// One failing case, as collected under `keep_going`.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Case index `k` within the run.
    pub index: u64,
    /// The case that failed (with its *original*, unshrunk plan).
    pub case: CorpusCase,
    /// Violations under the original plan.
    pub violations: Vec<String>,
    /// ddmin-minimal plan still violating, and the violations under it.
    pub minimal_plan: FaultPlan,
    /// Violations under the minimal plan.
    pub minimal_violations: Vec<String>,
    /// Predicate evaluations the shrink spent.
    pub shrink_runs: usize,
}

impl CaseFailure {
    /// Case `index`, which broke `violations` under its own plan (judged
    /// against `judge`), with its plan shrunk by [`shrink_failure`].
    pub fn shrink(
        index: u64,
        case: &CorpusCase,
        violations: &[Violation],
        judge: Scheme,
        shards: usize,
    ) -> CaseFailure {
        let (minimal_plan, shrink_runs) = shrink_failure(case, judge, shards);
        let (_, minimal_violations) = case.run_with(&minimal_plan, judge, shards);
        CaseFailure {
            index,
            case: case.clone(),
            violations: violations.iter().map(|v| v.to_string()).collect(),
            minimal_plan,
            minimal_violations: minimal_violations.iter().map(|v| v.to_string()).collect(),
            shrink_runs,
        }
    }
}

/// What a fuzzing run found.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Distinct fault plans among them.
    pub distinct_plans: usize,
    /// Coverage accumulated over the whole run.
    pub features: FeatureMap,
    /// Cases that contributed new coverage (minimized if configured).
    pub corpus: Vec<CorpusCase>,
    /// Failing cases (first only, unless `keep_going`).
    pub failures: Vec<CaseFailure>,
}

/// The collective menu blind sampling draws from (order is part of the
/// bit-compat contract with the historical fuzzer).
const MENU: [Collective; 6] = [
    Collective::Allreduce,
    Collective::Alltoall,
    Collective::AllGather,
    Collective::ReduceScatter,
    Collective::RingOnce,
    Collective::Incast,
];

/// Derive a *fresh* case exactly like the pre-coverage fuzzer did:
/// collective (unless pinned), buffer size (unless pinned), config seed,
/// then the sampled plan — all from `rng` in that order, so blind-mode
/// case `k` is bit-identical to the historical `--seed S --only K`.
pub fn derive_case(rng: &mut Xoshiro256, cfg: &FuzzConfig) -> CorpusCase {
    let collective = match cfg.collective {
        Some(c) => c,
        None => MENU[rng.next_below(MENU.len() as u64) as usize],
    };
    let kb = match cfg.kb {
        Some(v) => v,
        None => rng.next_range(64, 513),
    };
    let mut case = CorpusCase {
        scheme: cfg.scheme,
        collective,
        kb,
        cfg_seed: rng.next_u64(),
        plan: FaultPlan::none(),
    };
    case.plan = FaultPlan::sample(rng, &case.fault_space(cfg.max_episodes));
    case
}

/// Mutate a parent plan: splice with a second parent, perturb event
/// parameters, or swap in a freshly sampled episode. Always normalizes,
/// so the result is a valid canonical plan (installation skips anything
/// out of range for the fabric).
pub fn mutate_plan(
    rng: &mut Xoshiro256,
    parent: &FaultPlan,
    other: &FaultPlan,
    space: &FaultSpace,
) -> FaultPlan {
    let mut events: Vec<FaultEvent> = parent.events.clone();
    match rng.next_below(4) {
        0 => {
            // Splice: keep most of the parent, graft in the other
            // parent's events — compounds fault episodes beyond what one
            // sampler draw (≤ max_episodes) produces.
            events.retain(|_| rng.next_below(8) < 7);
            for ev in &other.events {
                if rng.next_below(4) < 3 {
                    events.push(*ev);
                }
            }
        }
        3 => {
            // Amplify: stack a time-shifted copy of the parent onto
            // itself — same fault classes, doubled intensity, pushing
            // reaction counters into buckets a single sampler draw
            // cannot reach.
            let h_us = space.horizon.as_nanos() / 1_000;
            let shift_us = rng.next_range(5, h_us / 8 + 6);
            for ev in parent.events.clone() {
                let at_us = (ev.at.as_nanos() / 1_000 + shift_us).min(h_us);
                events.push(FaultEvent {
                    at: Nanos(at_us * 1_000),
                    fault: ev.fault,
                });
            }
        }
        1 => {
            // Perturb: jitter timestamps (µs-quantized) and scale rates/
            // magnitudes of about half the events.
            let h_us = space.horizon.as_nanos() / 1_000;
            for ev in &mut events {
                if rng.next_below(2) == 1 {
                    continue;
                }
                let t_us = ev.at.as_nanos() / 1_000;
                let jitter = rng.next_range(0, h_us / 4 + 2);
                let t_us = if rng.next_below(2) == 0 {
                    t_us.saturating_add(jitter).min(h_us)
                } else {
                    t_us.saturating_sub(jitter)
                };
                if !matches!(ev.fault, Fault::TargetedDrop { .. }) {
                    // Targeted drops are armed pre-run; their timestamp
                    // is semantically zero and stays there.
                    ev.at = Nanos(t_us * 1_000);
                }
                let scale = |v: u64, lo: u64, hi: u64, rng: &mut Xoshiro256| {
                    (v * rng.next_range(50, 201) / 100).clamp(lo, hi)
                };
                // A neutral value is a clear: scaling it would turn it
                // into an injection (and spend a draw).
                match &mut ev.fault {
                    Fault::DelaySpike { extra_ns, .. } if *extra_ns > 0 => {
                        *extra_ns = scale(*extra_ns, 1_000, 40_000, rng);
                    }
                    Fault::UplinkLoss { rate_ppm, .. } if *rate_ppm > 0 => {
                        *rate_ppm = scale(*rate_ppm as u64, 100, 50_000, rng) as u32;
                    }
                    Fault::ReverseCorrupt { rate_ppm, .. } if *rate_ppm > 0 => {
                        *rate_ppm = scale(*rate_ppm as u64, 100, 20_000, rng) as u32;
                    }
                    Fault::TargetedDrop { psn, .. } => {
                        // Slide the kill a few PSNs; stays in range
                        // because the sampler left a tail margin.
                        *psn = psn
                            .saturating_add(rng.next_below(5) as u32)
                            .saturating_sub(2);
                    }
                    _ => {}
                }
            }
        }
        _ => {
            // Episode swap: drop a random contiguous chunk, then append a
            // freshly sampled single-episode plan.
            if !events.is_empty() {
                let from = rng.next_below(events.len() as u64) as usize;
                let len = 1 + rng.next_below(2) as usize;
                events.drain(from..(from + len).min(events.len()));
            }
            let mut one = space.clone();
            one.max_episodes = 1;
            for _ in 0..4 {
                let fresh = FaultPlan::sample(rng, &one);
                if !fresh.is_empty() {
                    events.extend(fresh.events);
                    break;
                }
            }
        }
    }
    let mut plan = FaultPlan { events };
    plan.normalize();
    repair_pairing(&mut plan, space);
    plan
}

/// Re-establish the sampler's injection/clear pairing after a mutation
/// sliced events apart: every surviving injection must have a matching
/// clear strictly later, or the outage persists past the workload and
/// the oracle (rightly) reports undelivered bytes — a scenario bug, not
/// a protocol bug. Orphan clears are left alone (clearing an inactive
/// fault is a no-op).
pub fn repair_pairing(plan: &mut FaultPlan, space: &FaultSpace) {
    let h_us = space.horizon.as_nanos() / 1_000;
    let mut appended = Vec::new();
    for ev in &plan.events {
        let Some(clear) = ev.fault.cleared() else {
            continue;
        };
        let healed = plan
            .events
            .iter()
            .chain(&appended)
            .any(|later| later.fault == clear && later.at > ev.at);
        if !healed {
            let at_us = ev.at.as_nanos() / 1_000;
            appended.push(FaultEvent {
                at: Nanos((at_us + 25).min(h_us).max(at_us + 1) * 1_000),
                fault: clear,
            });
        }
    }
    if !appended.is_empty() {
        plan.events.extend(appended);
        plan.normalize();
    }
}

/// ddmin a corpus candidate down to the events that still reproduce at
/// least its novel coverage (`novel` = the feature ids this case added).
/// Returns the minimized plan and the runs spent.
fn minimize_for_features(
    case: &CorpusCase,
    judge: Scheme,
    shards: usize,
    novel: &[u64],
) -> (FaultPlan, usize) {
    let (events, runs) = ddmin(&case.plan.events, |events: &[FaultEvent]| {
        let candidate = FaultPlan {
            events: events.to_vec(),
        };
        let (result, violations) = case.run_with(&candidate, judge, shards);
        let mut map = FeatureMap::new();
        map.observe(&result, &violations);
        map.contains_all(novel)
    });
    (FaultPlan { events }, runs)
}

/// Rarity-weighted parent selection: a corpus entry's weight is the sum
/// over the features it introduced of `SCALE / hits(feature)`, where
/// `hits` counts how many cases so far exhibited the feature. Parents
/// holding coverage later cases rarely re-exhibit are drawn more often,
/// so mutation effort compounds the frontier instead of re-mining the
/// well-trodden center. Pure integer arithmetic keeps the draw
/// platform-stable; ties (all features equally common) degrade to the
/// old uniform draw.
fn pick_rare_parent(
    rng: &mut Xoshiro256,
    corpus_novel: &[Vec<u64>],
    feature_hits: &HashMap<u64, u64>,
) -> usize {
    const SCALE: u64 = 1 << 20;
    let weights: Vec<u64> = corpus_novel
        .iter()
        .map(|fs| {
            fs.iter()
                .map(|f| (SCALE / feature_hits.get(f).copied().unwrap_or(1).max(1)).max(1))
                .sum::<u64>()
                .max(1)
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let mut r = rng.next_below(total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

/// The fuzzing loop. Deterministic in `cfg`: same config ⇒ same cases,
/// same coverage, same corpus, same failures.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut features = FeatureMap::new();
    let mut corpus: Vec<CorpusCase> = Vec::new();
    // Per-corpus-entry novel feature ids and the global
    // feature → exhibit-count map feeding rarity-weighted selection.
    let mut corpus_novel: Vec<Vec<u64>> = Vec::new();
    let mut feature_hits: HashMap<u64, u64> = HashMap::new();
    let mut failures = Vec::new();
    let mut distinct = HashSet::new();
    let mut cases = 0u64;
    for k in 0..cfg.budget {
        let mut rng = Xoshiro256::substream(cfg.root_seed, k);
        // Guided mode mutates a corpus parent half the time once a
        // corpus exists; the other half keeps sampling fresh space, so
        // guided explores the blind distribution *and* compounds what it
        // keeps. The parent draw is rarity-weighted; the splice partner
        // stays uniform so common structure still mixes in.
        let case = if cfg.mode == Mode::Guided && !corpus.is_empty() && rng.next_below(2) == 0 {
            let parent = &corpus[pick_rare_parent(&mut rng, &corpus_novel, &feature_hits)];
            let other = &corpus[rng.next_below(corpus.len() as u64) as usize];
            let space = parent.fault_space(cfg.max_episodes);
            let plan = mutate_plan(&mut rng, &parent.plan, &other.plan, &space);
            // The config seed is part of the input too: redrawing it a
            // quarter of the time replays the mutated scenario against
            // fresh fabric randomness (different ECMP hashes, different
            // loss draws) without abandoning the plan's structure.
            let cfg_seed = if rng.next_below(4) == 0 {
                rng.next_u64()
            } else {
                parent.cfg_seed
            };
            // Rarely re-roll the traffic pattern: replaying a proven
            // fault scenario under a different collective is a cheap way
            // to port coverage across workloads (targeted drops naming
            // QPs the new pattern never opens simply never fire).
            let collective = match cfg.collective {
                Some(c) => c,
                None if rng.next_below(8) == 0 => MENU[rng.next_below(MENU.len() as u64) as usize],
                None => parent.collective,
            };
            CorpusCase {
                plan,
                cfg_seed,
                collective,
                ..parent.clone()
            }
        } else {
            derive_case(&mut rng, cfg)
        };
        cases += 1;
        distinct.insert(case.plan.to_text());
        let (result, violations) = case.run_with(&case.plan, cfg.judge, cfg.shards);
        if !violations.is_empty() {
            failures.push(CaseFailure::shrink(
                k,
                &case,
                &violations,
                cfg.judge,
                cfg.shards,
            ));
            if !cfg.keep_going {
                break;
            }
            continue;
        }
        // Everything this case exhibited (novel or not) feeds the
        // rarity statistics; a fresh map sees all of it as novel.
        let mut case_map = FeatureMap::new();
        for f in case_map.observe(&result, &violations) {
            *feature_hits.entry(f).or_insert(0) += 1;
        }
        let novel = features.observe(&result, &violations);
        if !novel.is_empty() {
            let entry = if cfg.minimize_corpus && case.plan.len() > 1 {
                let (plan, _) = minimize_for_features(&case, cfg.judge, cfg.shards, &novel);
                CorpusCase { plan, ..case }
            } else {
                case
            };
            corpus.push(entry);
            corpus_novel.push(novel);
        }
    }
    FuzzReport {
        cases,
        distinct_plans: distinct.len(),
        features,
        corpus,
        failures,
    }
}

/// Shrink a failing case's plan to a 1-minimal still-violating plan.
pub fn shrink_failure(case: &CorpusCase, judge: Scheme, shards: usize) -> (FaultPlan, usize) {
    let (events, runs) = ddmin(&case.plan.events, |events: &[FaultEvent]| {
        let candidate = FaultPlan {
            events: events.to_vec(),
        };
        !case.run_with(&candidate, judge, shards).1.is_empty()
    });
    (FaultPlan { events }, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(7), 3);
        assert_eq!(bucket(8), 4);
        assert_eq!(bucket(u64::MAX), 64);
    }

    #[test]
    fn corpus_text_roundtrips() {
        let mut rng = Xoshiro256::seeded(7);
        let mut cfg = FuzzConfig::new(Scheme::Themis);
        cfg.max_episodes = 4;
        for _ in 0..20 {
            let case = derive_case(&mut rng, &cfg);
            let parsed = CorpusCase::from_text(&case.to_text()).unwrap();
            assert_eq!(case, parsed);
        }
    }

    #[test]
    fn corpus_text_rejects_garbage() {
        assert!(CorpusCase::from_text("").is_err());
        assert!(CorpusCase::from_text("# themis-corpus v2 scheme=themis").is_err());
        assert!(CorpusCase::from_text(
            "# themis-corpus v1 scheme=warp collective=allreduce kb=1 cfg_seed=2\nthemis-faultplan v1\n"
        )
        .is_err());
        assert!(CorpusCase::from_text(
            "# themis-corpus v1 scheme=themis collective=allreduce kb=1\nthemis-faultplan v1\n"
        )
        .is_err());
    }

    #[test]
    fn corpus_roundtrips_for_every_scheme_spelling() {
        for scheme in [
            Scheme::Ecmp,
            Scheme::AdaptiveRouting,
            Scheme::RandomSpray,
            Scheme::Flowlet,
            Scheme::Themis,
            Scheme::ThemisPathMap,
            Scheme::ThemisNoCompensation,
            Scheme::SprayNoFilter,
            Scheme::Oracle,
            Scheme::Reps,
            Scheme::Eunomia,
            Scheme::Sprinklers,
        ] {
            assert_eq!(Scheme::parse(scheme.cli_name()), Some(scheme));
            let case = CorpusCase {
                scheme,
                collective: Collective::RingOnce,
                kb: 128,
                cfg_seed: 42,
                plan: FaultPlan::none(),
            };
            assert_eq!(CorpusCase::from_text(&case.to_text()).unwrap(), case);
        }
    }

    #[test]
    fn mutation_is_deterministic_and_canonical() {
        let mut cfg = FuzzConfig::new(Scheme::Themis);
        cfg.max_episodes = 5;
        let mut rng = Xoshiro256::seeded(11);
        let a = derive_case(&mut rng, &cfg);
        let b = derive_case(&mut rng, &cfg);
        let space = a.fault_space(cfg.max_episodes);
        for s in 0..30 {
            let mut r1 = Xoshiro256::seeded(s);
            let mut r2 = Xoshiro256::seeded(s);
            let m1 = mutate_plan(&mut r1, &a.plan, &b.plan, &space);
            let m2 = mutate_plan(&mut r2, &a.plan, &b.plan, &space);
            assert_eq!(m1, m2);
            let mut renorm = m1.clone();
            renorm.normalize();
            assert_eq!(m1, renorm, "mutation output must be canonical");
        }
    }
}

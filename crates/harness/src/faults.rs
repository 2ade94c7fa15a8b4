//! Deterministic fault-injection scenarios.
//!
//! A [`FaultPlan`] is a time-ordered list of fault events scheduled into a
//! running cluster *through ordinary simulator events*: every fault is a
//! [`ControlMsg`] seeded at a fixed timestamp (or, for targeted drops, a
//! one-shot armed before the run). Nothing here consults a wall clock or
//! an external RNG, so a (seed, plan) pair replays bit-identically — the
//! property the conformance fuzzer's shrinker depends on.
//!
//! Plans come from three places:
//!
//! * hand-written scenarios in tests (`FaultPlan { events: vec![...] }`),
//! * the seeded sampler ([`FaultPlan::sample`]) used by `themis_fuzz`,
//! * the versioned text form ([`FaultPlan::from_text`]) printed by the
//!   shrinker so a minimal repro can be pasted back into a run.
//!
//! The fault vocabulary mirrors what can actually go wrong under a ToR in
//! the paper's deployment model: uplink (cable) failure and flapping,
//! per-uplink delay spikes and random loss, corrupted reverse-path control
//! traffic (ACK/NACK ICRC failures), operator enable/disable of Themis
//! mid-run, and the §6 monitor-driven ECMP fallback cycle. Each is one
//! [`Fault`] variant carrying the value it sets, and its neutral value
//! ([`Fault::cleared`]) is the clear: the variant maps to one
//! [`ControlMsg`], the value to the message's field. The v1 text form
//! keeps separate set and clear kind names (`uplink_down` /
//! `uplink_up`, …), 13 in all.

use crate::cluster::Cluster;
use netsim::event::{ControlMsg, Event};
use netsim::types::QpId;
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;

/// One fault, addressed by leaf index (position in `Cluster::leaves`) and,
/// where relevant, uplink index (0-based within the uplink group, i.e.
/// path index). Every variant but [`Fault::TargetedDrop`] carries the
/// value it sets; its neutral value (`false`, `0`, spraying `on`)
/// clears the fault, and [`Fault::cleared`] names that value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Take a leaf uplink down (`down: true`): blackholes data *and*
    /// control, like a dead cable. Queued packets drain first.
    /// `down: false` restores it.
    UplinkDown {
        /// Leaf index.
        leaf: u16,
        /// Uplink (path) index.
        uplink: u16,
        /// Whether the uplink is down.
        down: bool,
    },
    /// Add a fixed latency penalty to one uplink (congestion elsewhere,
    /// rerouted optics): widens path skew without dropping anything.
    /// `extra_ns: 0` clears it.
    DelaySpike {
        /// Leaf index.
        leaf: u16,
        /// Uplink (path) index.
        uplink: u16,
        /// Extra one-way latency in nanoseconds.
        extra_ns: u64,
    },
    /// Random data-packet loss on one uplink at `rate_ppm` / 1e6;
    /// `rate_ppm: 0` clears it.
    UplinkLoss {
        /// Leaf index.
        leaf: u16,
        /// Uplink (path) index.
        uplink: u16,
        /// Loss probability in packets-per-million.
        rate_ppm: u32,
    },
    /// Corrupt reverse-path control (ACK/NACK/CNP) transiting this leaf
    /// at `rate_ppm` / 1e6 — the lost-ACK regime of §3.4. `rate_ppm: 0`
    /// clears it.
    ReverseCorrupt {
        /// Leaf index.
        leaf: u16,
        /// Drop probability in packets-per-million.
        rate_ppm: u32,
    },
    /// Operator disables (`on: false`) or re-enables Themis spraying on
    /// one ToR mid-run.
    Spray {
        /// Leaf index.
        leaf: u16,
        /// Whether spraying is enabled.
        on: bool,
    },
    /// §6 monitor event: the ToR reverts to ECMP and parks its hook
    /// (`failed: true`), or restores the scheme's LB policy and the hook.
    TorFail {
        /// Leaf index.
        leaf: u16,
        /// Whether the monitor reports the ToR's links failed.
        failed: bool,
    },
    /// Arm a one-shot targeted drop of `(qp, psn)` at this leaf. Armed
    /// before the run regardless of the event's timestamp (the switch
    /// consumes it when the packet first transits).
    TargetedDrop {
        /// Leaf index.
        leaf: u16,
        /// Queue pair whose packet dies.
        qp: u32,
        /// PSN of the doomed packet.
        psn: u32,
    },
}

impl Fault {
    /// The same fault at its neutral value — what ends this injection —
    /// or `None` when it already is neutral or is a [`Fault::TargetedDrop`]
    /// (a one-shot with nothing to clear).
    pub fn cleared(&self) -> Option<Fault> {
        let clear = match *self {
            Fault::UplinkDown { leaf, uplink, .. } => Fault::UplinkDown {
                leaf,
                uplink,
                down: false,
            },
            Fault::DelaySpike { leaf, uplink, .. } => Fault::DelaySpike {
                leaf,
                uplink,
                extra_ns: 0,
            },
            Fault::UplinkLoss { leaf, uplink, .. } => Fault::UplinkLoss {
                leaf,
                uplink,
                rate_ppm: 0,
            },
            Fault::ReverseCorrupt { leaf, .. } => Fault::ReverseCorrupt { leaf, rate_ppm: 0 },
            Fault::Spray { leaf, .. } => Fault::Spray { leaf, on: true },
            Fault::TorFail { leaf, .. } => Fault::TorFail {
                leaf,
                failed: false,
            },
            Fault::TargetedDrop { .. } => return None,
        };
        (clear != *self).then_some(clear)
    }

    /// Stable lowercase tag used in the v1 text form: the variant's
    /// injection name, or its clear name at the neutral value.
    pub fn kind(&self) -> &'static str {
        let (set, clear) = match self {
            Fault::UplinkDown { .. } => ("uplink_down", "uplink_up"),
            Fault::DelaySpike { .. } => ("delay_spike", "delay_clear"),
            Fault::UplinkLoss { .. } => ("uplink_loss", "uplink_loss_clear"),
            Fault::ReverseCorrupt { .. } => ("reverse_corrupt", "reverse_corrupt_clear"),
            Fault::Spray { .. } => ("spray_off", "spray_on"),
            Fault::TorFail { .. } => ("tor_fail", "tor_recover"),
            Fault::TargetedDrop { .. } => return "targeted_drop",
        };
        if self.cleared().is_some() {
            set
        } else {
            clear
        }
    }

    /// Whether this fault can destroy packets nondeterministically (from
    /// the transport's point of view), so an oracle must not insist on
    /// zero RTOs or exact retransmission counts.
    pub fn is_random_loss(&self) -> bool {
        match *self {
            Fault::UplinkLoss { rate_ppm, .. } | Fault::ReverseCorrupt { rate_ppm, .. } => {
                rate_ppm > 0
            }
            Fault::UplinkDown { down, .. } => down,
            _ => false,
        }
    }

    /// Whether this fault can destroy control packets (ACK/NACK/CNP or
    /// handshakes), which excuses `nacks_forwarded_unknown` at Themis-D
    /// and sender RTOs.
    pub fn drops_control(&self) -> bool {
        match *self {
            Fault::UplinkDown { down, .. } => down,
            Fault::ReverseCorrupt { rate_ppm, .. } => rate_ppm > 0,
            _ => false,
        }
    }

    fn leaf(&self) -> u16 {
        match *self {
            Fault::UplinkDown { leaf, .. }
            | Fault::DelaySpike { leaf, .. }
            | Fault::UplinkLoss { leaf, .. }
            | Fault::ReverseCorrupt { leaf, .. }
            | Fault::Spray { leaf, .. }
            | Fault::TorFail { leaf, .. }
            | Fault::TargetedDrop { leaf, .. } => leaf,
        }
    }
}

/// A fault at a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time the fault takes effect.
    pub at: Nanos,
    /// What happens.
    pub fault: Fault,
}

/// A reproducible fault scenario: events sorted by time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled fault events.
    pub events: Vec<FaultEvent>,
}

/// Header line of the v1 text serialization.
pub const FAULTPLAN_HEADER_V1: &str = "themis-faultplan v1";

impl FaultPlan {
    /// The empty plan (a fault-free run).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True if any event injects probabilistic loss (see
    /// [`Fault::is_random_loss`]).
    pub fn has_random_loss(&self) -> bool {
        self.events.iter().any(|e| e.fault.is_random_loss())
    }

    /// True if any event can destroy control packets.
    pub fn drops_control(&self) -> bool {
        self.events.iter().any(|e| e.fault.drops_control())
    }

    /// Sort events by (time, text form) for a canonical order.
    pub fn normalize(&mut self) {
        self.events
            .sort_by_key(|e| (e.at.as_nanos(), event_line(e)));
    }

    /// Schedule every event into the cluster. Uplink indices address
    /// ports `hosts_per_leaf + uplink` at the leaf. Events whose leaf is
    /// out of range for this fabric are skipped, as are `UplinkDown`
    /// events whose uplink is (a shrunk plan must stay installable on
    /// smaller topologies); the other per-uplink faults are still seeded
    /// and the switch ignores a port it does not have.
    pub fn install(&self, cluster: &mut Cluster) {
        let hpl = cluster.hosts.len() / cluster.leaves.len().max(1);
        let n_up = cluster.n_paths;
        for ev in &self.events {
            let Some(&node) = cluster.leaves.get(ev.fault.leaf() as usize) else {
                continue;
            };
            let port = |uplink: u16| (hpl + uplink as usize) as u16;
            let msg = match ev.fault {
                Fault::UplinkDown { uplink, down, .. } => {
                    if uplink as usize >= n_up {
                        continue;
                    }
                    ControlMsg::SetPortDown {
                        port: port(uplink),
                        down,
                    }
                }
                Fault::DelaySpike {
                    uplink, extra_ns, ..
                } => ControlMsg::SetPortExtraDelay {
                    port: port(uplink),
                    extra_ns,
                },
                Fault::UplinkLoss {
                    uplink, rate_ppm, ..
                } => ControlMsg::SetPortLossRate {
                    port: port(uplink),
                    rate_ppm,
                },
                Fault::ReverseCorrupt { rate_ppm, .. } => {
                    ControlMsg::SetReverseCorruptRate { rate_ppm }
                }
                Fault::Spray { on, .. } => ControlMsg::SetSprayEnabled { on },
                Fault::TorFail { failed, .. } => ControlMsg::TorLink { failed },
                Fault::TargetedDrop { qp, psn, .. } => {
                    if let Ok(sw) = cluster.switch_mut(node) {
                        sw.inject_targeted_drop(QpId(qp), psn);
                    }
                    continue;
                }
            };
            cluster.world.seed_event(ev.at, node, Event::Control(msg));
        }
    }

    /// Serialize to the versioned line format (stable across releases;
    /// pinned by `tests/golden/faultplan_v1.txt`).
    pub fn to_text(&self) -> String {
        let mut out = String::from(FAULTPLAN_HEADER_V1);
        out.push('\n');
        for ev in &self.events {
            out.push_str(&event_line(ev));
            out.push('\n');
        }
        out
    }

    /// Parse the v1 text form. Blank lines and `#` comments are ignored.
    pub fn from_text(text: &str) -> Result<FaultPlan, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some(FAULTPLAN_HEADER_V1) => {}
            Some(h) => return Err(format!("unsupported fault-plan header: {h:?}")),
            None => return Err("empty fault plan".into()),
        }
        let mut events = Vec::new();
        for line in lines {
            events.push(parse_event_line(line)?);
        }
        Ok(FaultPlan { events })
    }

    /// Sample a random plan from `space` using only `rng` — the same
    /// (seed, space) always yields the same plan. Faults come in paired
    /// *episodes* (inject at `t0`, clear at `t1`), at most one episode per
    /// resource (kind × leaf × uplink), so every fault is eventually
    /// cleared and windows never interleave on one resource. Timestamps
    /// are quantized to microseconds.
    pub fn sample(rng: &mut Xoshiro256, space: &FaultSpace) -> FaultPlan {
        let mut plan = FaultPlan::default();
        let mut used: Vec<(u8, u16, u16)> = Vec::new();
        let n_episodes = rng.next_range(0, space.max_episodes as u64 + 1) as usize;
        for _ in 0..n_episodes {
            sample_episode(rng, space, &mut used, &mut plan.events);
        }
        plan.normalize();
        plan
    }
}

/// The sampling domain for [`FaultPlan::sample`].
#[derive(Debug, Clone)]
pub struct FaultSpace {
    /// Leaves in the target fabric.
    pub n_leaves: usize,
    /// Uplinks (paths) per leaf.
    pub n_uplinks: usize,
    /// Run horizon; episodes land inside `[5%, 90%]` of it.
    pub horizon: Nanos,
    /// Maximum episodes per plan (actual count is uniform in `0..=max`).
    pub max_episodes: usize,
    /// Connections the traffic will use, as `(qp, n_psn)` — lets the
    /// sampler aim targeted drops at PSNs that will really be sent.
    pub targets: Vec<(u32, u32)>,
}

/// One v1 line. A clear line names no value: its kind says it.
fn event_line(ev: &FaultEvent) -> String {
    let f = ev.fault;
    let mut line = format!(
        "at={} kind={} leaf={}",
        ev.at.as_nanos(),
        f.kind(),
        f.leaf()
    );
    let (uplink, value) = match f {
        Fault::UplinkDown { uplink, .. } => (Some(uplink), None),
        Fault::DelaySpike {
            uplink, extra_ns, ..
        } => (Some(uplink), Some(("extra_ns", extra_ns))),
        Fault::UplinkLoss {
            uplink, rate_ppm, ..
        } => (Some(uplink), Some(("rate_ppm", rate_ppm as u64))),
        Fault::ReverseCorrupt { rate_ppm, .. } => (None, Some(("rate_ppm", rate_ppm as u64))),
        Fault::Spray { .. } | Fault::TorFail { .. } => (None, None),
        Fault::TargetedDrop { qp, psn, .. } => return format!("{line} qp={qp} psn={psn}"),
    };
    if let Some(uplink) = uplink {
        line.push_str(&format!(" uplink={uplink}"));
    }
    if let Some((name, v)) = value.filter(|&(_, v)| v > 0) {
        line.push_str(&format!(" {name}={v}"));
    }
    line
}

fn parse_event_line(line: &str) -> Result<FaultEvent, String> {
    let mut at: Option<u64> = None;
    let mut kind: Option<&str> = None;
    let mut fields: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for tok in line.split_whitespace() {
        let (key, val) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad token {tok:?} in {line:?}"))?;
        match key {
            "kind" => kind = Some(val),
            _ => {
                let n: u64 = val
                    .parse()
                    .map_err(|_| format!("bad value {val:?} for {key} in {line:?}"))?;
                if key == "at" {
                    at = Some(n);
                } else {
                    fields.insert(key, n);
                }
            }
        }
    }
    let at = Nanos(at.ok_or_else(|| format!("missing at= in {line:?}"))?);
    let kind = kind.ok_or_else(|| format!("missing kind= in {line:?}"))?;
    let get = |k: &str| -> Result<u64, String> {
        fields
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing {k}= in {line:?}"))
    };
    let leaf = get("leaf")? as u16;
    let uplink = || get("uplink").map(|u| u as u16);
    // A clear line carries no value: its kind names the neutral one.
    let value = |k: &str| {
        if kind.ends_with("_clear") {
            Ok(0)
        } else {
            get(k)
        }
    };
    let fault = match kind {
        "uplink_down" | "uplink_up" => Fault::UplinkDown {
            leaf,
            uplink: uplink()?,
            down: kind == "uplink_down",
        },
        "delay_spike" | "delay_clear" => Fault::DelaySpike {
            leaf,
            uplink: uplink()?,
            extra_ns: value("extra_ns")?,
        },
        "uplink_loss" | "uplink_loss_clear" => Fault::UplinkLoss {
            leaf,
            uplink: uplink()?,
            rate_ppm: value("rate_ppm")? as u32,
        },
        "reverse_corrupt" | "reverse_corrupt_clear" => Fault::ReverseCorrupt {
            leaf,
            rate_ppm: value("rate_ppm")? as u32,
        },
        "spray_off" | "spray_on" => Fault::Spray {
            leaf,
            on: kind == "spray_on",
        },
        "tor_fail" | "tor_recover" => Fault::TorFail {
            leaf,
            failed: kind == "tor_fail",
        },
        "targeted_drop" => Fault::TargetedDrop {
            leaf,
            qp: get("qp")? as u32,
            psn: get("psn")? as u32,
        },
        other => return Err(format!("unknown fault kind {other:?} in {line:?}")),
    };
    // A set kind at its neutral value would re-serialize as the clear.
    if fault.kind() != kind {
        return Err(format!("{kind} with a neutral value in {line:?}"));
    }
    Ok(FaultEvent { at, fault })
}

/// Episode classes the sampler draws from (weights in `sample_episode`).
const EPISODE_CLASSES: u8 = 7;

fn sample_episode(
    rng: &mut Xoshiro256,
    space: &FaultSpace,
    used: &mut Vec<(u8, u16, u16)>,
    out: &mut Vec<FaultEvent>,
) {
    let class = rng.next_below(EPISODE_CLASSES as u64) as u8;
    let leaf = rng.next_below(space.n_leaves.max(1) as u64) as u16;
    let uplink = rng.next_below(space.n_uplinks.max(1) as u64) as u16;
    let key = (class, leaf, uplink);
    if used.contains(&key) {
        return; // one episode per resource; fewer faults, never overlap
    }
    used.push(key);

    // Window inside [5%, 90%] of the horizon, quantized to µs.
    let h_us = space.horizon.as_nanos() / 1_000;
    let lo = h_us / 20;
    let hi = h_us * 9 / 10;
    if lo + 2 >= hi {
        return;
    }
    let t0 = rng.next_range(lo, hi - 1);
    let t1 = rng.next_range(t0 + 1, hi);
    let (t0, t1) = (Nanos(t0 * 1_000), Nanos(t1 * 1_000));

    let fault = match class {
        0 => {
            // Uplink down/up — possibly flapping (1–3 sub-windows).
            let flaps = rng.next_range(1, 4);
            let span = (t1.as_nanos() - t0.as_nanos()) / flaps;
            let fault = Fault::UplinkDown {
                leaf,
                uplink,
                down: true,
            };
            for i in 0..flaps {
                let s = Nanos(t0.as_nanos() + i * span);
                let e = Nanos(s.as_nanos() + span / 2 + 1_000);
                push_episode(out, fault, s, e);
            }
            return;
        }
        // Delay spike: 1–40 µs of extra one-way latency.
        1 => Fault::DelaySpike {
            leaf,
            uplink,
            extra_ns: rng.next_range(1, 41) * 1_000,
        },
        // Random uplink loss: 100 ppm – 5%.
        2 => Fault::UplinkLoss {
            leaf,
            uplink,
            rate_ppm: rng.next_range(100, 50_001) as u32,
        },
        // Reverse-path control corruption: 100 ppm – 2%.
        3 => Fault::ReverseCorrupt {
            leaf,
            rate_ppm: rng.next_range(100, 20_001) as u32,
        },
        // Operator toggles Themis off/on.
        4 => Fault::Spray { leaf, on: false },
        // §6 failure-monitor fallback cycle.
        5 => Fault::TorFail { leaf, failed: true },
        _ => {
            // Targeted drops: 1–4 distinct (qp, psn) kills. PSNs stay
            // clear of the message tail so a same-path successor exists
            // to prove the loss (Eq. 3 evidence for compensation).
            if space.targets.is_empty() {
                return;
            }
            let kills = rng.next_range(1, 5);
            for _ in 0..kills {
                let (qp, n_psn) =
                    space.targets[rng.next_below(space.targets.len() as u64) as usize];
                let margin = 4 * space.n_uplinks.max(1) as u32;
                if n_psn <= margin + 1 {
                    continue;
                }
                let psn = rng.next_below((n_psn - margin) as u64) as u32;
                out.push(FaultEvent {
                    at: Nanos::ZERO,
                    fault: Fault::TargetedDrop { leaf, qp, psn },
                });
            }
            return;
        }
    };
    push_episode(out, fault, t0, t1);
}

/// Inject `fault` at `from` and clear it at `to`.
fn push_episode(out: &mut Vec<FaultEvent>, fault: Fault, from: Nanos, to: Nanos) {
    out.push(FaultEvent { at: from, fault });
    out.extend(fault.cleared().map(|fault| FaultEvent { at: to, fault }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan(seed: u64) -> FaultPlan {
        let mut rng = Xoshiro256::seeded(seed);
        let space = FaultSpace {
            n_leaves: 4,
            n_uplinks: 2,
            horizon: Nanos::from_millis(10),
            max_episodes: 6,
            targets: vec![(1, 900), (2, 900)],
        };
        FaultPlan::sample(&mut rng, &space)
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        for seed in 0..50 {
            let plan = sample_plan(seed);
            let parsed = FaultPlan::from_text(&plan.to_text()).unwrap();
            assert_eq!(plan, parsed, "seed {seed}");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(sample_plan(42), sample_plan(42));
    }

    #[test]
    fn every_injection_is_paired_with_a_clear() {
        for seed in 0..100 {
            let plan = sample_plan(seed);
            for ev in &plan.events {
                let Some(clear) = ev.fault.cleared() else {
                    continue;
                };
                assert!(
                    plan.events.iter().any(|e| e.at > ev.at && e.fault == clear),
                    "unpaired {:?} (seed {seed})",
                    ev.fault
                );
            }
        }
    }

    #[test]
    fn rejects_bad_header_and_bad_lines() {
        assert!(FaultPlan::from_text("").is_err());
        assert!(FaultPlan::from_text("themis-faultplan v9\n").is_err());
        // The last three are set kinds at their neutral value, which
        // would re-serialize as the clear kind.
        for line in [
            "at=1 kind=warp_core_breach leaf=0",
            "kind=tor_fail leaf=0",
            "at=1 kind=uplink_loss leaf=0 uplink=1 rate_ppm=0",
            "at=1 kind=delay_spike leaf=0 uplink=1 extra_ns=0",
            "at=1 kind=reverse_corrupt leaf=0 rate_ppm=0",
        ] {
            let err =
                FaultPlan::from_text(&format!("{FAULTPLAN_HEADER_V1}\n{line}\n")).expect_err(line);
            assert!(err.contains(line), "error {err:?} does not name {line:?}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("{FAULTPLAN_HEADER_V1}\n\n# a comment\nat=5000 kind=spray_off leaf=1\n");
        let plan = FaultPlan::from_text(&text).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.events[0].fault, Fault::Spray { leaf: 1, on: false });
    }

    /// The v1 text form round-trips every one of the 13 fault kinds —
    /// each of the 7 variants set, and each but `TargetedDrop` cleared —
    /// constructed explicitly rather than trusted to the sampler (which
    /// only emits kinds its episode classes happen to draw). A new enum
    /// variant without text-form support shows up here as a mismatch,
    /// not as a silent corpus-file parse failure months later.
    #[test]
    fn text_roundtrip_covers_every_fault_kind() {
        let set = [
            Fault::UplinkDown {
                leaf: 1,
                uplink: 2,
                down: true,
            },
            Fault::DelaySpike {
                leaf: 3,
                uplink: 0,
                extra_ns: 12_345,
            },
            Fault::UplinkLoss {
                leaf: 0,
                uplink: 7,
                rate_ppm: 40_000,
            },
            Fault::ReverseCorrupt {
                leaf: 5,
                rate_ppm: 9_999,
            },
            Fault::Spray { leaf: 6, on: false },
            Fault::TorFail {
                leaf: 7,
                failed: true,
            },
            Fault::TargetedDrop {
                leaf: 2,
                qp: 0xABCD,
                psn: (1 << 24) - 1,
            },
        ];
        let all: Vec<Fault> = set
            .iter()
            .flat_map(|f| std::iter::once(*f).chain(f.cleared()))
            .collect();
        let kinds: std::collections::BTreeSet<&str> = all.iter().map(|f| f.kind()).collect();
        assert_eq!(kinds.len(), 13, "expected all 13 distinct fault kinds");
        let plan = FaultPlan {
            events: all
                .iter()
                .enumerate()
                .map(|(i, &fault)| FaultEvent {
                    at: Nanos(1_000 * (i as u64 + 1)),
                    fault,
                })
                .collect(),
        };
        let parsed = FaultPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(plan, parsed);
        // And per-kind, so a failure names the broken variant directly.
        for fault in all {
            let one = FaultPlan {
                events: vec![FaultEvent {
                    at: Nanos(5_000),
                    fault,
                }],
            };
            let parsed = FaultPlan::from_text(&one.to_text()).unwrap();
            assert_eq!(one, parsed, "kind {:?} does not round-trip", fault.kind());
        }
    }
}

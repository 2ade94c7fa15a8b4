//! Property test of the conservative-window lookahead-safety invariant.
//!
//! The sharded engine advances all shards through windows `[M, M+λ)` and
//! only exchanges cross-shard events at window boundaries. Soundness
//! rests on one invariant: **no cross-shard event may be scheduled below
//! the receiving shard's window barrier** — equivalently, every
//! cross-shard edge must have delivery latency ≥ the declared lookahead
//! λ. The engine checks this on every inter-shard delivery.
//!
//! Two directions, over seeded random topologies and traffic:
//!
//! * **Honest λ** (≤ the true minimum cross-shard latency): the checker
//!   must stay silent and the run must match the serial engine exactly.
//! * **Lying λ** (> the true minimum): the checker must fire. The
//!   offending seed-event list is then shrunk with the shared `ddmin`
//!   helper to a minimal reproducer, which must still fire the checker.

use std::sync::{Arc, Mutex};

use netsim::event::Event;
use netsim::packet::Packet;
use netsim::types::{HostId, NodeId, PortId, QpId};
use netsim::world::{Ctx, Entity, LookaheadViolation, ShardPlan, World};
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use themis::harness::ddmin;

/// True minimum latency of any send in the random workload (1 µs).
const MIN_LATENCY_NS: u64 = 1_000;
/// Random extra latency on top of the minimum (< 2 µs).
const JITTER_NS: u64 = 2_000;

/// Forwards each received packet to a pseudo-random peer with a
/// pseudo-random latency in `[MIN_LATENCY_NS, MIN_LATENCY_NS + JITTER_NS)`,
/// up to a forwarding budget. Fully deterministic per (seed, index).
struct Relay {
    peers: Vec<NodeId>,
    rng: Xoshiro256,
    forwards_left: u32,
    received: u64,
}

impl Entity for Relay {
    fn handle(&mut self, ev: Event, ctx: &mut Ctx<'_>) {
        if let Event::Packet { pkt, .. } = ev {
            self.received += 1;
            if self.forwards_left > 0 {
                self.forwards_left -= 1;
                let peer = self.peers[self.rng.next_below(self.peers.len() as u64) as usize];
                let lat = MIN_LATENCY_NS + self.rng.next_below(JITTER_NS);
                ctx.send_packet(peer, PortId(0), pkt, TimeDelta::from_nanos(lat));
            }
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A seed event: inject a packet at `at_ns` into entity `target`.
type SeedEvent = (u64, usize);

/// Derive a random scenario from `seed`: entity count, shard count, and
/// a seed-event list.
fn derive_scenario(seed: u64) -> (usize, usize, Vec<SeedEvent>) {
    let mut rng = Xoshiro256::seeded(seed);
    let n_entities = rng.next_range(3, 8) as usize;
    let n_shards = rng.next_range(2, (n_entities as u64).min(4)) as usize;
    let n_events = rng.next_range(1, 7) as usize;
    let events = (0..n_events)
        .map(|_| {
            (
                rng.next_below(10_000),
                rng.next_below(n_entities as u64) as usize,
            )
        })
        .collect();
    (n_entities, n_shards, events)
}

/// Build the scenario world. `shards` = None for a serial build;
/// otherwise the shard count, declared lookahead, and the violation log
/// (recording mode: the run aborts cleanly instead of panicking).
fn build(
    seed: u64,
    n_entities: usize,
    events: &[SeedEvent],
    shards: Option<(usize, u64)>,
) -> (World, Vec<NodeId>, Arc<Mutex<Vec<LookaheadViolation>>>) {
    let mut w = World::new();
    let ids: Vec<NodeId> = (0..n_entities).map(|_| w.reserve()).collect();
    for (i, &id) in ids.iter().enumerate() {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
        w.install(
            id,
            Box::new(Relay {
                peers,
                rng: Xoshiro256::substream(seed, 1_000 + i as u64),
                forwards_left: 20,
                received: 0,
            }),
        );
    }
    for &(at_ns, target) in events {
        let pkt = Packet::cnp(QpId(0), HostId(0), HostId(target as u32), 1);
        w.seed_event(
            Nanos(at_ns),
            ids[target],
            Event::Packet {
                pkt,
                in_port: PortId(0),
            },
        );
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    if let Some((n_shards, lookahead_ns)) = shards {
        let owner: Vec<u16> = (0..n_entities).map(|i| (i % n_shards) as u16).collect();
        let matrix = vec![lookahead_ns; n_shards * n_shards];
        let mut plan = ShardPlan::new(owner, n_shards, matrix);
        plan.violations = Some(log.clone());
        w.set_shard_plan(plan);
    }
    (w, ids, log)
}

fn received_counts(w: &World, ids: &[NodeId]) -> Vec<u64> {
    ids.iter()
        .map(|&id| w.get::<Relay>(id).unwrap().received)
        .collect()
}

/// Honest lookahead: the checker stays silent and every shard count
/// reproduces the serial run exactly, across 24 random scenarios.
#[test]
fn honest_lookahead_is_silent_and_serial_equal() {
    for seed in 0..24u64 {
        let (n, shards, events) = derive_scenario(seed);
        let (mut serial, ids, _) = build(seed, n, &events, None);
        serial.run();

        let (mut sharded, ids_p, log) = build(seed, n, &events, Some((shards, MIN_LATENCY_NS)));
        sharded.run();

        assert!(
            log.lock().unwrap().is_empty(),
            "seed {seed}: honest lookahead must never trip the checker"
        );
        assert_eq!(sharded.now(), serial.now(), "seed {seed}: clocks diverged");
        assert_eq!(
            sharded.engine.dispatched(),
            serial.engine.dispatched(),
            "seed {seed}: dispatch counts diverged"
        );
        assert_eq!(
            received_counts(&sharded, &ids_p),
            received_counts(&serial, &ids),
            "seed {seed}: entity state diverged"
        );
    }
}

/// Lying lookahead: declaring λ above the true minimum cross-shard
/// latency must be caught, and `ddmin` shrinks the seed-event list to a
/// minimal reproducer that still fires the checker.
#[test]
fn lying_lookahead_is_caught_and_shrinks() {
    // λ = 5 µs but true minimum latency is 1 µs: unsound by 4 µs.
    const LYING_NS: u64 = 5_000;
    let mut caught = 0;
    for seed in 0..24u64 {
        let (n, shards, events) = derive_scenario(seed);
        let fails = |candidate: &[SeedEvent]| {
            let (mut w, _, log) = build(seed, n, candidate, Some((shards, LYING_NS)));
            w.run();
            let found = log.lock().unwrap();
            for v in found.iter() {
                assert!(
                    v.at_ns < v.window_end_ns,
                    "seed {seed}: recorded violation is not actually below the barrier"
                );
                assert_ne!(
                    v.from_shard, v.to_shard,
                    "seed {seed}: intra-shard delivery can never violate lookahead"
                );
            }
            !found.is_empty()
        };
        if !fails(&events) {
            // Workload never crossed shards below the lying barrier
            // (e.g. all forwards stayed intra-shard) — not a soundness
            // witness for this seed.
            continue;
        }
        caught += 1;
        let (minimal, runs) = ddmin(&events, fails);
        assert!(
            !minimal.is_empty(),
            "seed {seed}: a violation needs at least one seed event"
        );
        assert!(fails(&minimal), "seed {seed}: shrunk plan must still fail");
        assert!(
            runs >= minimal.len(),
            "seed {seed}: ddmin did less work than 1-minimality requires"
        );
        // 1-minimality: removing any single remaining event loses the
        // violation.
        for i in 0..minimal.len() {
            let mut without = minimal.clone();
            without.remove(i);
            assert!(
                !fails(&without),
                "seed {seed}: shrunk plan is not 1-minimal (event {i} removable)"
            );
        }
    }
    assert!(
        caught >= 12,
        "expected most scenarios to witness the lying lookahead, got {caught}/24"
    );
}

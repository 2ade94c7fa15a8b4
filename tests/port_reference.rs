//! A reference model for switch egress ports and links, independent of
//! how the simulator schedules its events.
//!
//! A FIFO port with PFC off departs packet i at
//! `dᵢ = max(aᵢ, dᵢ₋₁) + ser(lenᵢ)` and its peer sees it at
//! `dᵢ + latency`. The switch's shared buffer holds a packet from its
//! arrival to its departure, so the occupancy at any instant follows from
//! those times; a packet is dropped when it does not fit, and WRED marks
//! a data packet on the depth it joins — the bytes queued on its port
//! behind the packet on the wire.
//!
//! The tests drive a real [`Switch`] through [`Ctx::for_tests`] with
//! seeded packet trains that are tie-free (no arrival shares a nanosecond
//! with another arrival or with any departure, so no tie rule is
//! involved) and check every arrival time, every ECN mark, every drop
//! and the buffer's high-water mark after every event against the
//! recurrence. Occupancy is observed through what it decides: which
//! packets fit, and the peak. A second part checks whole fabrics: one
//! flow alone on an idle leaf-spine and on the k = 4 fat tree completes
//! at its closed-form time, serial and sharded.

use std::collections::{BTreeMap, BTreeSet};

use themis::collectives::schedule::{Schedule, Transfer};
use themis::harness::experiment::driver_of;
use themis::harness::{
    build_fat_tree_cluster_sharded, run_point_to_point, ExperimentConfig, Scheme, Session, Start,
};
use themis::netsim::event::{Event, Routed};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::netsim::packet::{Packet, WIRE_HEADER_BYTES};
use themis::netsim::port::{EcnConfig, EgressPort, LinkSpec};
use themis::netsim::switch::{Routes, Switch, SwitchConfig};
use themis::netsim::topology::LeafSpineConfig;
use themis::netsim::types::{HostId, NodeId, PortId, QpId};
use themis::netsim::world::{Ctx, Entity, CONTROL_PLANE_LATENCY, SEED_LANE};
use themis::rnic::NicConfig;
use themis::simcore::engine::Engine;
use themis::simcore::rng::Xoshiro256;
use themis::simcore::time::{Nanos, TimeDelta};

/// The switch's entity id; its ports lead to entities `0..n_ports`.
const SWITCH: NodeId = NodeId(1_000);
const SWITCH_SEED: u64 = 17;

/// One packet offered to the switch.
#[derive(Debug, Clone, Copy)]
struct Offer {
    at: u64,
    port: usize,
    data: bool,
    payload: u32,
}

impl Offer {
    fn wire_bytes(&self) -> u64 {
        if self.data {
            (self.payload + WIRE_HEADER_BYTES) as u64
        } else {
            64
        }
    }

    /// The packet, identified by `qp = i`.
    fn packet(&self, i: usize) -> Packet {
        let dst = HostId(self.port as u32);
        if self.data {
            Packet::data(
                QpId(i as u32),
                HostId(99),
                dst,
                7,
                0,
                0,
                false,
                self.payload,
                false,
            )
        } else {
            Packet::cnp(QpId(i as u32), HostId(99), dst, 7)
        }
    }
}

/// What the recurrence says happens to one offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Dropped,
    /// Arrives at the peer at this time, ECN-marked or not.
    Arrives {
        at: u64,
        marked: bool,
    },
}

/// The reference: fates in offer order, departure times, and the
/// buffer's high-water mark after each offer.
struct Expected {
    fates: Vec<Fate>,
    departures: Vec<u64>,
    peak_after: Vec<u64>,
}

fn model(links: &[LinkSpec], capacity: u64, ecn: Option<EcnConfig>, offers: &[Offer]) -> Expected {
    // Packets accepted so far, per port: (start, departure, bytes).
    let mut on_port: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); links.len()];
    let mut rng = Xoshiro256::seeded(SWITCH_SEED);
    let mut peak = 0;
    let mut out = Expected {
        fates: Vec::new(),
        departures: Vec::new(),
        peak_after: Vec::new(),
    };
    for o in offers {
        let a = o.at;
        let len = o.wire_bytes();
        // A packet holds buffer from its arrival until its departure.
        let used: u64 = on_port
            .iter()
            .flatten()
            .filter(|p| p.1 > a)
            .map(|p| p.2)
            .sum();
        if used + len > capacity {
            out.fates.push(Fate::Dropped);
            out.peak_after.push(peak);
            continue;
        }
        peak = peak.max(used + len);
        // The depth joined: bytes queued behind the packet on the wire.
        let queue = &mut on_port[o.port];
        let depth: u64 = queue.iter().filter(|p| p.0 > a).map(|p| p.2).sum();
        let marked = o.data && ecn.is_some_and(|e| e.should_mark(depth, &mut rng));
        let prev = queue.last().map_or(0, |p| p.1);
        let start = a.max(prev);
        let depart = start + links[o.port].serialization(len).as_nanos();
        queue.push((start, depart, len));
        out.departures.push(depart);
        let at = depart + links[o.port].latency.as_nanos();
        out.fates.push(Fate::Arrives { at, marked });
        out.peak_after.push(peak);
    }
    out
}

/// A seeded train: gaps of 1 to `2·mean_gap` ns, random ports, sizes
/// and kinds, made tie-free by delaying an offer (and all after it) by
/// 1 ns while it lands on a departure.
fn train(seed: u64, n: usize, links: &[LinkSpec], mean_gap: u64, capacity: u64) -> Vec<Offer> {
    let mut rng = Xoshiro256::seeded(seed);
    let mut t = 1_000;
    let mut offers: Vec<Offer> = (0..n)
        .map(|_| {
            t += 1 + rng.next_below(2 * mean_gap);
            Offer {
                at: t,
                port: rng.next_below(links.len() as u64) as usize,
                data: rng.next_below(8) != 0,
                payload: 1 + rng.next_below(1500) as u32,
            }
        })
        .collect();
    loop {
        // A departure never precedes its own arrival, so an offer can
        // only tie with an earlier offer's departure.
        let departures: BTreeSet<u64> = model(links, capacity, None, &offers)
            .departures
            .into_iter()
            .collect();
        let Some(first) = offers.iter().position(|o| departures.contains(&o.at)) else {
            return offers;
        };
        for o in &mut offers[first..] {
            o.at += 1;
        }
    }
}

struct Observed {
    /// Per offer: the time its packet reached a peer, the peer, the port
    /// it arrived on there and its ECN bit.
    arrivals: BTreeMap<u32, (u64, NodeId, PortId, bool)>,
    peak_after: Vec<u64>,
    buffer_drops: u64,
}

/// Offer the train to a real switch and run its events in time order,
/// recording what reaches the peers.
fn drive(links: &[LinkSpec], capacity: u64, ecn: Option<EcnConfig>, offers: &[Offer]) -> Observed {
    let mut sw = Switch::new(&SwitchConfig {
        buffer_bytes: capacity,
        seed: SWITCH_SEED,
        ..SwitchConfig::default()
    });
    for (p, link) in links.iter().enumerate() {
        sw.add_port(
            EgressPort::new(NodeId(p as u32), PortId(p as u16), *link),
            true,
        );
    }
    sw.set_routes(Routes {
        first: 0,
        span: links.len() as u32,
        per_port: 1,
    });
    sw.set_ecn_all_ports(|_| ecn);

    let mut engine: Engine<Routed> = Engine::new();
    for (i, o) in offers.iter().enumerate() {
        let ev = Event::Packet {
            pkt: o.packet(i),
            in_port: PortId(99),
        };
        engine.schedule_keyed(
            Nanos(o.at),
            i as u64,
            SEED_LANE,
            Routed { node: SWITCH, ev },
        );
    }
    let mut obs = Observed {
        arrivals: BTreeMap::new(),
        peak_after: Vec::new(),
        buffer_drops: 0,
    };
    while let Some(ev) = engine.step() {
        let Routed { node, ev: event } = ev.payload;
        if node == SWITCH {
            let offered = matches!(event, Event::Packet { .. });
            sw.handle(event, &mut Ctx::for_tests(SWITCH, ev.at, &mut engine));
            if offered {
                obs.peak_after.push(sw.buffer().peak_used);
            }
        } else if let Event::Packet { pkt, in_port } = event {
            let seen = (ev.at.as_nanos(), node, in_port, pkt.ecn_ce);
            assert!(
                obs.arrivals.insert(pkt.qp.0, seen).is_none(),
                "delivered twice"
            );
        }
    }
    obs.buffer_drops = sw.stats.drops_buffer;
    obs
}

/// Drive `offers` and check everything against the model.
fn check(links: &[LinkSpec], capacity: u64, ecn: Option<EcnConfig>, offers: &[Offer]) -> Expected {
    let exp = model(links, capacity, ecn, offers);
    let obs = drive(links, capacity, ecn, offers);
    for (i, (o, fate)) in offers.iter().zip(&exp.fates).enumerate() {
        let got = obs.arrivals.get(&(i as u32));
        match (fate, got) {
            (Fate::Dropped, None) => {}
            (&Fate::Arrives { at, marked }, Some(&(t, node, in_port, ce))) => {
                assert_eq!(t, at, "offer {i} ({o:?}) arrives at dᵢ + latency");
                assert_eq!(node, NodeId(o.port as u32), "offer {i} leaves by its port");
                assert_eq!(in_port, PortId(o.port as u16), "offer {i}'s peer port");
                assert_eq!(ce, marked, "offer {i} ({o:?}): WRED on the depth joined");
            }
            (fate, got) => panic!("offer {i} ({o:?}): model says {fate:?}, switch did {got:?}"),
        }
    }
    assert_eq!(
        obs.peak_after, exp.peak_after,
        "buffer high-water mark after each offer"
    );
    let drops = exp.fates.iter().filter(|f| **f == Fate::Dropped).count() as u64;
    assert_eq!(obs.buffer_drops, drops, "drops at the buffer limit");
    exp
}

/// Three ports of different speeds and latencies sharing one pool.
fn mixed_links() -> Vec<LinkSpec> {
    vec![
        LinkSpec::gbps(100, 1),
        LinkSpec::gbps(40, 2),
        LinkSpec {
            bandwidth_bps: 25_000_000_000,
            latency: TimeDelta::from_nanos(700),
        },
    ]
}

#[test]
fn one_port_departs_by_the_recurrence() {
    let links = [LinkSpec::gbps(100, 1)];
    for seed in 0..8 {
        // Mean gap near the mean service time: queues build and drain.
        let offers = train(seed, 400, &links, 60, u64::MAX);
        let exp = check(&links, u64::MAX, None, &offers);
        assert!(
            exp.departures.windows(2).any(|w| w[1] - w[0] < 130),
            "the train must queue packets back to back"
        );
    }
}

#[test]
fn ports_sharing_one_pool_depart_independently() {
    let links = mixed_links();
    for seed in 100..108 {
        let offers = train(seed, 600, &links, 70, u64::MAX);
        check(&links, u64::MAX, None, &offers);
    }
}

#[test]
fn the_shared_pool_drops_exactly_what_does_not_fit() {
    let links = mixed_links();
    let capacity = 12_000;
    let mut dropped = 0;
    for seed in 200..212 {
        let offers = train(seed, 600, &links, 40, capacity);
        let exp = check(&links, capacity, None, &offers);
        dropped += exp.fates.iter().filter(|f| **f == Fate::Dropped).count();
        assert!(
            exp.fates.iter().any(|f| *f != Fate::Dropped),
            "most packets still fit"
        );
    }
    assert!(
        dropped > 100,
        "the trains overrun the pool: {dropped} drops"
    );
}

#[test]
fn wred_marks_on_the_depth_joined() {
    let links = mixed_links();
    // A step at 3 KB: a mark iff at least 3 KB wait behind the wire.
    let step = EcnConfig {
        kmin_bytes: 3_000,
        kmax_bytes: 3_000,
        pmax: 1.0,
    };
    // A ramp: each decision in it draws from the switch's RNG, so the
    // draws line up only if every depth is right.
    let ramp = EcnConfig {
        kmin_bytes: 1_000,
        kmax_bytes: 9_000,
        pmax: 0.5,
    };
    let mut marks = 0;
    for (seed, ecn) in (300..306).zip([step, ramp].iter().cycle()) {
        let offers = train(seed, 600, &links, 45, 40_000);
        let exp = check(&links, 40_000, Some(*ecn), &offers);
        marks += exp
            .fates
            .iter()
            .filter(|f| matches!(f, Fate::Arrives { marked: true, .. }))
            .count();
    }
    assert!(
        marks > 100,
        "the trains reach the marking region: {marks} marks"
    );
}

// ---------------------------------------------------------------------
// Fabric level: one flow alone on an idle fabric.
// ---------------------------------------------------------------------

/// The completion time of one `bytes` message sent alone, on one path of
/// `hops` links of one spec (the NIC's own link first).
///
/// The driver's post reaches the NIC over the control plane. The NIC puts
/// its one-time handshake and then the packets on its link back to back;
/// every later link stores and forwards them. With one service time
/// `sᵢ` per packet on every link, the last packet reaches the receiver
/// after `Σᵢ sᵢ + (hops − 1)·maxᵢ sᵢ + hops·latency`: the critical path
/// through the tandem takes every packet on one link and the largest
/// packet on every other link. The delivery reaches the driver over the
/// control plane again.
fn closed_form(bytes: u64, mtu: u64, link: LinkSpec, hops: u64) -> TimeDelta {
    let header = WIRE_HEADER_BYTES as u64;
    let n = bytes.div_ceil(mtu);
    let last = bytes - (n - 1) * mtu;
    let mut service = vec![64];
    service.extend((1..n).map(|_| mtu + header));
    service.push(last + header);
    let service: Vec<u64> = service
        .iter()
        .map(|&b| link.serialization(b).as_nanos())
        .collect();
    let sum: u64 = service.iter().sum();
    let max = service.iter().copied().max().unwrap_or(0);
    let path = sum + (hops - 1) * max + hops * link.latency.as_nanos();
    CONTROL_PLANE_LATENCY + TimeDelta(path) + CONTROL_PLANE_LATENCY
}

/// Message sizes that end in a full packet, a short one and a tiny one.
const SIZES: [u64; 3] = [1_500, 300_077, 1 << 20];

#[test]
fn one_flow_on_an_idle_leaf_spine_completes_at_the_closed_form() {
    // host -> leaf -> spine -> leaf -> host, every link alike.
    let fabric = LeafSpineConfig::motivation();
    assert_eq!(fabric.host_link, fabric.fabric_link);
    for bytes in SIZES {
        let want = closed_form(bytes, 1500, fabric.host_link, 4);
        for shards in [1, 2] {
            let cfg = ExperimentConfig {
                shards,
                ..ExperimentConfig::motivation_small(Scheme::Ecmp, 5)
            };
            let r = run_point_to_point(&cfg, bytes);
            assert_eq!(r.tail_ct, Some(want), "{bytes} B, {shards} shard(s)");
            assert_eq!(r.nics.bytes_delivered, bytes);
            assert_eq!(r.fabric.drops_buffer + r.fabric.ecn_marked, 0);
        }
    }
}

#[test]
fn one_flow_on_an_idle_fat_tree_completes_at_the_closed_form() {
    // k = 4: host 0 in pod 0 to host 15 in pod 3 crosses edge, agg,
    // core, agg and edge: six links of `FatTreeConfig::LINK`.
    let fabric = FatTreeConfig { k: 4, seed: 9 };
    let nic = NicConfig::nic_sr(FatTreeConfig::LINK.bandwidth_bps);
    for bytes in SIZES {
        let want = closed_form(bytes, 1500, FatTreeConfig::LINK, 6);
        for shards in [1, 2] {
            let cluster = build_fat_tree_cluster_sharded(&fabric, nic, Scheme::Ecmp, shards);
            let ends = [cluster.hosts[0], cluster.hosts[15]];
            let horizon = Nanos::from_millis(10);
            let mut session = Session::new(cluster, 3, TimeDelta(horizon.as_nanos()));
            session.post(&ends, one_message(bytes), Start::WithRun);
            session.kick_off();
            session.run_to(horizon);
            let driver = driver_of(&session.cluster);
            let start = driver.started_at().expect("the driver started");
            let done = driver.tail_completion().map(|t| t.since(start));
            assert_eq!(done, Some(want), "{bytes} B, {shards} shard(s)");
        }
    }
}

fn one_message(bytes: u64) -> Schedule {
    Schedule {
        name: "one message",
        n_ranks: 2,
        transfers: vec![Transfer {
            src: 0,
            dst: 1,
            bytes,
            deps: vec![],
        }],
    }
}

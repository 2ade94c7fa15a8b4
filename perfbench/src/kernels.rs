//! Per-layer kernels: ns/op of a layer's public functions driven
//! directly, outside any simulation. They are independent of the
//! workload and the seed; the traced pass runs them beside each workload
//! so the `est.*` shares multiply counts and costs taken in one process.

use netsim::event::{ControlMsg, Event, Routed};
use netsim::hash::{ecmp_hash, FiveTuple};
use netsim::packet::Packet;
use netsim::port::{EgressPort, LinkSpec};
use netsim::switch::Switch;
use netsim::topology::LeafSpineConfig;
use netsim::types::{HostId, NodeId, PortId, QpId};
use netsim::world::{Ctx, Entity};
use rnic::bitmap::OooBitmap;
use rnic::{CcConfig, Dcqcn, Nic, NicConfig};
use simcore::engine::Engine;
use simcore::event::EventQueue;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use std::hint::black_box;
use std::time::{Duration, Instant};
use themis_core::psn_queue::PsnQueue;
use themis_core::themis_d::ThemisD;
use themis_core::themis_s::{SprayMode, ThemisS};
use themis_harness::json::{self, Json};
use themis_harness::{build_cluster, Scheme, ServiceConfig, SimService};

/// Wall time each kernel measures for, after one warm-up batch.
const BUDGET: Duration = Duration::from_millis(60);
const LINE_400G: u64 = 400_000_000_000;
const PSN_MASK: u32 = (1 << 24) - 1;

/// Run `batch` (which returns how many operations it did, and may time
/// only part of its work by returning its own duration) until [`BUDGET`]
/// is spent, at least three times; the median ns/op of the batches.
fn measure(mut batch: impl FnMut() -> (u64, Duration)) -> f64 {
    batch(); // warm-up: allocations, page faults, branch history
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed() < BUDGET {
        let (ops, took) = batch();
        samples.push(took.as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&samples)
}

/// Time all of `f`, which returns its operation count.
fn timed(f: impl FnOnce() -> u64) -> (u64, Duration) {
    let t0 = Instant::now();
    let ops = f();
    (ops, t0.elapsed())
}

/// `EventQueue` hold operation (pop the earliest event, push it back
/// later) at a resident population of `population`. The delays follow
/// the simulator's two dominant event kinds: half are transmit
/// completions 40–140 ns ahead, half packet arrivals a 1 µs link later.
fn hold_ns(population: usize) -> f64 {
    let timer = || Routed {
        node: NodeId(0),
        ev: Event::Timer { token: 0 },
    };
    let mut rng = Xoshiro256::seeded(population as u64);
    let mut delay = move || {
        let r = rng.next_u64();
        40 + (r >> 32) % 100 + (r & 1) * 1_000
    };
    let mut queue: EventQueue<Routed> = EventQueue::new();
    for _ in 0..population {
        queue.push(Nanos(delay()), timer());
    }
    measure(|| {
        timed(|| {
            for _ in 0..20_000 {
                let ev = queue.pop().expect("the population is constant");
                queue.push(Nanos(ev.at.as_nanos() + delay()), ev.payload);
            }
            20_000
        })
    })
}

/// Events an engine has been handed so far.
fn scheduled(engine: &Engine<Routed>) -> u64 {
    engine.dispatched() + engine.pending() as u64
}

/// Hand `ev` to `entity` at `now`, then every event it scheduled for
/// itself that is due by then (transmit completions, timers). Events for
/// other entities are counted and dropped.
fn deliver<E: Entity>(
    entity: &mut E,
    id: NodeId,
    engine: &mut Engine<Routed>,
    now: Nanos,
    ev: Event,
) -> u64 {
    entity.handle(ev, &mut Ctx::for_tests(id, now, engine));
    let mut left = 0;
    while engine.next_event_time().is_some_and(|t| t <= now) {
        let due = engine.step().expect("an event is due");
        if due.payload.node == id {
            entity.handle(due.payload.ev, &mut Ctx::for_tests(id, due.at, engine));
        } else {
            left += 1;
        }
    }
    left
}

/// `Switch::handle` on a leaf of the 16×16 fabric: one upstream and one
/// downstream data packet per pair, with their transmit completions.
/// `Scheme::Ecmp` measures bare forwarding, `Scheme::Themis` adds the
/// `ThemisMiddleware` hook (spray upstream, PSN-queue push downstream).
/// Returns ns per packet and events scheduled per packet.
fn switch_fwd(scheme: Scheme) -> (f64, f64) {
    let fabric = LeafSpineConfig::paper_eval();
    let hpl = fabric.hosts_per_leaf as u32;
    let mut cluster = build_cluster(&fabric, NicConfig::nic_sr(LINE_400G), scheme);
    let leaf = cluster.leaves[0];
    let mut engine: Engine<Routed> = Engine::new();
    let mut now = Nanos::ZERO;
    let mut sent = 0u32;
    let ns = measure(|| {
        let switch: &mut Switch = cluster.world.get_mut(leaf).expect("the leaf is a switch");
        timed(|| {
            for _ in 0..4_000 {
                let lane = sent % 64;
                let psn = (sent / 64) & PSN_MASK;
                let (local, remote) = (HostId(lane % hpl), HostId(hpl + lane % hpl));
                sent += 1;
                now += TimeDelta::from_nanos(50);
                let up = Packet::data(
                    QpId(lane),
                    local,
                    remote,
                    50_000 + lane as u16,
                    psn,
                    0,
                    false,
                    1500,
                    false,
                );
                let in_port = PortId(local.0 as u16);
                deliver(
                    switch,
                    leaf,
                    &mut engine,
                    now,
                    Event::Packet { pkt: up, in_port },
                );
                now += TimeDelta::from_nanos(50);
                let down = Packet::data(
                    QpId(64 + lane),
                    remote,
                    local,
                    51_000 + lane as u16,
                    psn,
                    0,
                    false,
                    1500,
                    false,
                );
                let in_port = PortId((hpl + lane % hpl) as u16);
                deliver(
                    switch,
                    leaf,
                    &mut engine,
                    now,
                    Event::Packet { pkt: down, in_port },
                );
            }
            8_000
        })
    });
    (ns, scheduled(&engine) as f64 / (2 * sent) as f64)
}

fn hash_ns() -> f64 {
    let mut sport = 0u16;
    measure(|| {
        timed(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                sport = sport.wrapping_add(1);
                acc += ecmp_hash(&FiveTuple::new(HostId(3), HostId(250), sport)) as u64;
            }
            black_box(acc);
            100_000
        })
    })
}

fn data_packet(qp: u32, psn: u32) -> Packet {
    Packet::data(
        QpId(qp),
        HostId(qp % 16),
        HostId(16 + qp % 16),
        50_000 + (qp % 1000) as u16,
        psn & PSN_MASK,
        0,
        false,
        1500,
        false,
    )
}

/// `ThemisS::spray` in direct-egress mode over 16 paths.
fn spray_ns() -> f64 {
    let mut s = ThemisS::new(16, SprayMode::DirectEgress);
    let mut psn = 0u32;
    measure(|| {
        timed(|| {
            let mut acc = 0usize;
            for _ in 0..100_000 {
                psn = psn.wrapping_add(1);
                let mut pkt = data_packet(psn % 64, psn / 64);
                acc += s.spray(&mut pkt).unwrap_or(0);
            }
            black_box(acc);
            100_000
        })
    })
}

/// Flows resident in the Themis-D kernels' flow table.
const TOR_FLOWS: u32 = 256;

/// `ThemisD::on_downstream_data`: in-order data of 256 flows round-robin.
fn d_data_ns() -> f64 {
    let mut d = ThemisD::new(16, 100, true);
    let mut n = 0u32;
    measure(|| {
        timed(|| {
            for _ in 0..100_000 {
                let pkt = data_packet(n % TOR_FLOWS, n / TOR_FLOWS);
                black_box(d.on_downstream_data(&pkt));
                n = n.wrapping_add(1);
            }
            100_000
        })
    })
}

/// `ThemisD::on_reverse_nack` — the per-verdict budget: on each of 256
/// flows PSN p+1 is overtaken by p+2 and p+3, the receiver NACKs p+1,
/// and the scan finds a tPSN on another path (an invalid NACK, blocked
/// with compensation armed). Only the NACK calls are timed; the late
/// p+1 then arrives and cancels the compensation.
fn d_nack_ns() -> f64 {
    let mut d = ThemisD::new(16, 100, true);
    let mut base = 0u32;
    measure(|| {
        let mut took = Duration::ZERO;
        for _ in 0..16 {
            for qp in 0..TOR_FLOWS {
                for psn in [base, base + 2, base + 3] {
                    d.on_downstream_data(&data_packet(qp, psn));
                }
            }
            let t0 = Instant::now();
            for qp in 0..TOR_FLOWS {
                black_box(d.on_reverse_nack(QpId(qp), (base + 1) & PSN_MASK));
            }
            took += t0.elapsed();
            for qp in 0..TOR_FLOWS {
                d.on_downstream_data(&data_packet(qp, base + 1));
            }
            base = (base + 4) & PSN_MASK;
        }
        (16 * TOR_FLOWS as u64, took)
    })
}

/// `PsnQueue::scan_for_tpsn` at depth 25 of a 50-entry queue; refills
/// are not timed.
fn psn_scan_ns() -> f64 {
    let mut queues: Vec<PsnQueue> = (0..256).map(|_| PsnQueue::with_capacity(100)).collect();
    let mut base = 0u32;
    measure(|| {
        let mut took = Duration::ZERO;
        for _ in 0..16 {
            for q in &mut queues {
                q.clear();
                for psn in base..base + 50 {
                    if psn != base + 25 {
                        q.push(psn & PSN_MASK);
                    }
                }
            }
            let t0 = Instant::now();
            for q in &mut queues {
                black_box(q.scan_for_tpsn((base + 25) & PSN_MASK));
            }
            took += t0.elapsed();
            base = (base + 64) & PSN_MASK;
        }
        (16 * 256, took)
    })
}

const NIC_QPS: u32 = 8;

fn kernel_nic(host: u32, peer: u32) -> Nic {
    let cfg = NicConfig {
        // No ACK ever times out inside a kernel.
        rto: TimeDelta::from_millis(10_000),
        ..NicConfig::nic_sr(LINE_400G)
    };
    let port = EgressPort::new(NodeId(peer), PortId(0), LinkSpec::gbps(400, 1));
    let mut nic = Nic::new(HostId(host), cfg, port);
    nic.set_driver(NodeId(2));
    nic
}

/// Sender side of `Nic::handle` per data packet: the transmit completion
/// that pulls the next packet of eight active QPs onto the wire, plus
/// the cumulative ACK that comes back for it. Returns ns per packet and
/// events scheduled per packet.
fn nic_tx() -> (f64, f64) {
    const PER_QP: u64 = 500;
    let me = NodeId(0);
    let mut nic = kernel_nic(0, 1);
    for qp in 0..NIC_QPS {
        nic.create_send_qp(QpId(qp), HostId(1), 50_000 + qp as u16);
    }
    let mut engine: Engine<Routed> = Engine::new();
    let mut acked = [0u32; NIC_QPS as usize];
    let ns = measure(|| {
        timed(|| {
            for qp in 0..NIC_QPS {
                let post = ControlMsg::PostSend {
                    qp: QpId(qp),
                    bytes: PER_QP * 1500,
                    msg_tag: 0,
                };
                let now = engine.now();
                nic.handle(
                    Event::Control(post),
                    &mut Ctx::for_tests(me, now, &mut engine),
                );
            }
            let mut sent = 0;
            while sent < PER_QP * NIC_QPS as u64 {
                let due = engine.step().expect("the NIC still has data to send");
                if due.payload.node == me {
                    nic.handle(due.payload.ev, &mut Ctx::for_tests(me, due.at, &mut engine));
                } else if let Event::Packet { pkt, .. } = due.payload.ev {
                    if pkt.is_data() {
                        sent += 1;
                        let q = pkt.qp.0 as usize;
                        acked[q] = (acked[q] + 1) & PSN_MASK;
                        let ack =
                            Packet::ack(pkt.qp, pkt.dst, pkt.src, 40_000, acked[q], pkt.udp_sport);
                        let ev = Event::Packet {
                            pkt: ack,
                            in_port: PortId(0),
                        };
                        nic.handle(ev, &mut Ctx::for_tests(me, due.at, &mut engine));
                    }
                }
            }
            sent
        })
    });
    let sent: u32 = acked.iter().sum();
    (ns, scheduled(&engine) as f64 / sent as f64)
}

/// Receiver side of `Nic::handle` per data packet: in-order data of
/// eight QPs, each answered by an ACK that is put on the wire. Returns
/// ns per packet and events scheduled per packet.
fn nic_rx_data() -> (f64, f64) {
    let me = NodeId(1);
    let mut nic = kernel_nic(1, 0);
    for qp in 0..NIC_QPS {
        nic.create_recv_qp(QpId(qp), HostId(0), 40_000);
    }
    let mut engine: Engine<Routed> = Engine::new();
    let mut now = Nanos::ZERO;
    let mut n = 0u32;
    let ns = measure(|| {
        timed(|| {
            for _ in 0..8_000 {
                now += TimeDelta::from_nanos(40);
                let (qp, psn) = (n % NIC_QPS, (n / NIC_QPS) & PSN_MASK);
                n = n.wrapping_add(1);
                let pkt = Packet::data(
                    QpId(qp),
                    HostId(0),
                    HostId(1),
                    50_000,
                    psn,
                    0,
                    false,
                    1500,
                    false,
                );
                let ev = Event::Packet {
                    pkt,
                    in_port: PortId(0),
                };
                black_box(deliver(&mut nic, me, &mut engine, now, ev));
            }
            8_000
        })
    });
    (ns, scheduled(&engine) as f64 / n as f64)
}

/// One DCQCN reaction-point call: a cycle of 16 `on_bytes_sent`, one CNP
/// and one firing of each timer.
fn dcqcn_ns() -> f64 {
    let mut cc = Dcqcn::new(CcConfig::recommended(LINE_400G), LINE_400G);
    let mut now = Nanos::ZERO;
    measure(|| {
        timed(|| {
            for _ in 0..5_000 {
                for _ in 0..16 {
                    cc.on_bytes_sent(1564);
                }
                now += TimeDelta::from_micros(60);
                black_box(cc.on_cnp(now));
                cc.on_alpha_timer();
                cc.on_increase_timer();
            }
            black_box(cc.rate_bps());
            5_000 * 19
        })
    })
}

/// One `OooBitmap` call under 16-way spraying: each window of 16 PSNs
/// arrives last-first, so 15 `set`s precede the `advance`.
fn bitmap_ns() -> f64 {
    let mut bitmap = OooBitmap::new();
    measure(|| {
        timed(|| {
            let mut advanced = 0;
            for _ in 0..10_000 {
                for offset in (1..16).rev() {
                    bitmap.set(offset);
                }
                advanced += bitmap.advance();
            }
            black_box(advanced);
            10_000 * 16
        })
    })
}

/// Telemetry hot path: one counter increment plus one histogram
/// observation.
fn inc_observe_ns() -> f64 {
    let sink = telemetry::Sink::new(64);
    let counter = sink.counter("bench.counter");
    let hist = sink.time_hist("bench.hist", 1_000, 64);
    let mut i = 0u64;
    measure(|| {
        timed(|| {
            for _ in 0..100_000 {
                i += 1;
                sink.clock().set(i);
                sink.inc(counter);
                sink.observe(hist, i % 1_000);
            }
            100_000
        })
    })
}

/// `RunReport::merge` of four shard snapshots, per ring event merged.
fn merge_ns_per_event() -> f64 {
    const SHARDS: u64 = 4;
    const EVENTS: u64 = 2_048;
    let snapshots: Vec<telemetry::RunReport> = (0..SHARDS)
        .map(|shard| {
            let sink = telemetry::Sink::new(EVENTS as usize);
            let counter = sink.counter("bench.counter");
            let hist = sink.time_hist("bench.hist", 1_000, 64);
            for i in 0..EVENTS {
                sink.clock().set(i * 64 + shard);
                sink.stamp().set(i, shard as u32);
                sink.inc(counter);
                sink.observe(hist, i % 1_000);
                sink.event(telemetry::EventKind::PacketDrop, i, shard);
            }
            sink.snapshot()
        })
        .collect();
    measure(|| {
        timed(|| {
            let merged = telemetry::RunReport::merge(snapshots.clone());
            black_box(merged.events.total);
            SHARDS * EVENTS
        })
    })
}

/// The JSON documents the service exchanges: a ~1 KB `poll_cq` reply
/// and a reply carrying a ~256 KB telemetry document as one string.
fn json_docs() -> (String, Json) {
    let completions = (0..12)
        .map(|wr| {
            Json::obj(vec![
                ("wr", Json::Int(wr)),
                ("qp", Json::Int(wr % 7)),
                ("start_ns", Json::Int(500_000 * wr)),
                ("fct_ns", Json::Int(6_311 + wr)),
            ])
        })
        .collect();
    let small = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("completions", Json::Arr(completions)),
    ])
    .to_string();
    let service = SimService::new(ServiceConfig::small()).expect("the small config is valid");
    let mut doc = service.telemetry_json(None);
    while doc.len() < 256 << 10 {
        doc.push_str(&service.telemetry_json(None));
    }
    doc.truncate(256 << 10);
    let large = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("telemetry", Json::Str(doc)),
    ]);
    (small, large)
}

/// MB (10⁶ bytes) per second of `f` over `bytes` bytes, `calls` calls
/// to a sample; the median of the samples that fit the budget (at least
/// one: the 256 KB parse takes longer than a whole kernel budget).
fn mb_per_s(bytes: usize, calls: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || started.elapsed() < BUDGET {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(bytes as f64 * calls as f64 / 1e6 / t0.elapsed().as_secs_f64());
    }
    crate::stats::median(&samples)
}

/// Every kernel, under its per-layer metric name.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let (small, large) = json_docs();
    let large_text = large.to_string();
    let (switch_fwd_ns, switch_fwd_events) = switch_fwd(Scheme::Ecmp);
    let (switch_fwd_hook_ns, _) = switch_fwd(Scheme::Themis);
    let (tx_ns, tx_events) = nic_tx();
    let (rx_data_ns, rx_data_events) = nic_rx_data();
    vec![
        ("simcore.hold_ns_p32", hold_ns(32)),
        ("simcore.hold_ns_p1k", hold_ns(1_000)),
        ("simcore.hold_ns_p100k", hold_ns(100_000)),
        ("simcore.hold_ns_p1m", hold_ns(1_000_000)),
        ("netsim.switch_fwd_ns", switch_fwd_ns),
        ("netsim.switch_fwd_events", switch_fwd_events),
        ("netsim.switch_fwd_hook_ns", switch_fwd_hook_ns),
        ("netsim.hash_ns", hash_ns()),
        ("core.spray_ns", spray_ns()),
        ("core.d_data_ns", d_data_ns()),
        ("core.d_nack_ns", d_nack_ns()),
        ("core.psn_scan_ns", psn_scan_ns()),
        ("rnic.tx_ns", tx_ns),
        ("rnic.tx_events", tx_events),
        ("rnic.rx_data_ns", rx_data_ns),
        ("rnic.rx_data_events", rx_data_events),
        ("rnic.dcqcn_ns", dcqcn_ns()),
        ("rnic.bitmap_ns", bitmap_ns()),
        ("telemetry.inc_observe_ns", inc_observe_ns()),
        ("telemetry.merge_ns_per_event", merge_ns_per_event()),
        (
            "harness.json.parse_mb_per_s_1k",
            mb_per_s(small.len(), 200, || {
                black_box(json::parse(&small).is_ok());
            }),
        ),
        (
            "harness.json.parse_mb_per_s_256k",
            mb_per_s(large_text.len(), 1, || {
                black_box(json::parse(&large_text).is_ok());
            }),
        ),
        (
            "harness.json.encode_mb_per_s",
            mb_per_s(large_text.len(), 1, || {
                black_box(large.to_string().len());
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_positive_finite_cost() {
        for (name, value) in run_all() {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
    }
}

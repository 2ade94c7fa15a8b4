//! Micro-benchmarks of the hot paths.
//!
//! These quantify the per-packet costs a Tofino pipeline (or this
//! simulator) pays for Themis: ring-queue push/scan, Eq. 3 validation,
//! PathMap construction, the GF(2)-linear hash, and the raw event-engine
//! throughput that bounds simulation speed.

use netsim::hash::{ecmp_hash, FiveTuple};
use netsim::types::HostId;
use simcore::engine::{Control, Engine};
use simcore::event::EventQueue;
use simcore::rng::Xoshiro256;
use simcore::time::{Nanos, TimeDelta};
use themis_bench::harness::Bench;
use themis_core::pathmap::PathMap;
use themis_core::policy::nack_valid;
use themis_core::psn_queue::PsnQueue;

fn bench_event_engine(b: &mut Bench) {
    b.run("event_engine/schedule_dispatch_100k", "events", || {
        let mut e: Engine<u64> = Engine::new();
        for i in 0..100_000u64 {
            e.schedule_at(Nanos(i), i);
        }
        let mut sum = 0u64;
        e.run_with(|_, ev| {
            sum = sum.wrapping_add(ev.payload);
            Control::Continue
        });
        std::hint::black_box(sum);
        100_000
    });
    b.run(
        "event_engine/self_rescheduling_timer_100k",
        "events",
        || {
            let mut e: Engine<u64> = Engine::new();
            e.schedule_at(Nanos(0), 0);
            e.run_with(|eng, ev| {
                if ev.payload < 100_000 {
                    eng.schedule_in(TimeDelta(5), ev.payload + 1);
                }
                Control::Continue
            });
            e.dispatched()
        },
    );
    // The hold model (pop the earliest event, push it back later) at
    // 100 k resident events, delays as in the simulator: half transmit
    // completions 40–140 ns ahead, half arrivals a 1 µs link later. At
    // this population a 256 ns wheel bucket holds ~22 k events — the
    // 256-host regime the queue's ns-resolution level exists for.
    let mut rng = Xoshiro256::seeded(100_000);
    let mut delay = move || {
        let r = rng.next_u64();
        40 + (r >> 32) % 100 + (r & 1) * 1_000
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..100_000 {
        q.push(Nanos(delay()), i);
    }
    b.run("event_engine/hold_100k_resident_x200k", "holds", || {
        let mut held = 0;
        while held < 200_000 {
            let Some(ev) = q.pop() else { break };
            q.push(Nanos(ev.at.as_nanos() + delay()), ev.payload);
            held += 1;
        }
        held
    });
}

fn bench_psn_queue(b: &mut Bench) {
    b.run("psn_queue/push_100k", "ops", || {
        let mut q = PsnQueue::with_capacity(100);
        let mut psn = 0u32;
        for _ in 0..100_000 {
            q.push(psn);
            psn = psn.wrapping_add(1) & 0xFF_FFFF;
        }
        std::hint::black_box(&q);
        100_000
    });
    b.run("psn_queue/scan_hit_depth_50_x10k", "scans", || {
        let mut hits = 0u64;
        for _ in 0..10_000 {
            let mut q = PsnQueue::with_capacity(100);
            for psn in 0..100u32 {
                q.push(psn);
            }
            if q.scan_for_tpsn(49).tpsn.is_some() {
                hits += 1;
            }
        }
        hits
    });
    b.run("psn_queue/contains_miss_100_x100k", "probes", || {
        let mut q = PsnQueue::with_capacity(100);
        for psn in 0..100u32 {
            q.push(psn);
        }
        let mut found = 0u64;
        for _ in 0..100_000 {
            if std::hint::black_box(&q).contains(200) {
                found += 1;
            }
        }
        100_000 + found
    });
}

fn bench_policy(b: &mut Bench) {
    b.run("policy/eq3_validation_x1m", "checks", || {
        let mut psn = 0u32;
        let mut valid = 0u64;
        for _ in 0..1_000_000 {
            psn = psn.wrapping_add(7) & 0xFF_FFFF;
            if nack_valid(psn, psn.wrapping_add(3) & 0xFF_FFFF, 16) {
                valid += 1;
            }
        }
        std::hint::black_box(valid);
        1_000_000
    });
    b.run("policy/ecmp_hash_x1m", "hashes", || {
        let mut sport = 0u16;
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            sport = sport.wrapping_add(1);
            acc =
                acc.wrapping_add(ecmp_hash(&FiveTuple::new(HostId(3), HostId(250), sport)) as u64);
        }
        std::hint::black_box(acc);
        1_000_000
    });
}

fn bench_pathmap(b: &mut Bench) {
    for n in [16usize, 256] {
        b.run(&format!("pathmap/build_n{n}_x100"), "builds", || {
            for _ in 0..100 {
                std::hint::black_box(PathMap::build(n));
            }
            100
        });
    }
    b.run("pathmap/rewrite_x1m", "rewrites", || {
        let pm = PathMap::build(256);
        let mut d = 0usize;
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            d = (d + 1) % 256;
            acc = acc.wrapping_add(pm.rewrite(4242, d) as u64);
        }
        std::hint::black_box(acc);
        1_000_000
    });
}

fn bench_end_to_end(b: &mut Bench) {
    use themis_harness::{run_point_to_point, ExperimentConfig, Scheme};
    b.run("simulation/p2p_1mb_themis", "events", || {
        let cfg = ExperimentConfig::motivation_small(Scheme::Themis, 3);
        run_point_to_point(&cfg, 1 << 20).events
    });
}

fn main() {
    let mut b = Bench::new(1.0);
    bench_event_engine(&mut b);
    bench_psn_queue(&mut b);
    bench_policy(&mut b);
    bench_pathmap(&mut b);
    bench_end_to_end(&mut b);
}

//! `serve_session`: one closed-loop client driving `serve` over a Unix
//! socket (loopback, in-process server thread), then a restore from the
//! session's own snapshot.

use super::{Facts, Workload};
use crate::spans::Tracer;
use simcore::rng::Xoshiro256;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use themis_harness::json::{self, Json};
use themis_harness::{serve, Client, Endpoint, ServiceConfig, SimService};

/// QPs the session creates.
const QPS: usize = 64;
/// Rounds of `POSTS_PER_ROUND` × `post_send` + `advance` + `poll_cq`.
const ROUNDS: usize = 200;
/// Work requests posted per round.
const POSTS_PER_ROUND: usize = 8;
/// A `telemetry` request follows every this-many rounds.
const TELEMETRY_EVERY: usize = 25;
/// Windows advanced after the last round so every transfer completes.
const DRAIN_WINDOWS: i64 = 8;
/// Message sizes of the `post_send`s, in rotation: the 32 / 64 / 128 KB
/// the repo's own `themis_serve` clients post (`scripts/ci.sh`,
/// EXPERIMENTS.md, `tests/service_roundtrip.rs`). Multi-packet, so the
/// fabric sprays, reorders and NACKs. The sizes do not depend on the
/// seed, so every seed moves the same payload.
const SEND_BYTES: [u64; 3] = [32 << 10, 64 << 10, 128 << 10];

/// One scripted request. QPs and work requests are named by their
/// position in the script; the ids the service assigns are filled in
/// from its replies.
#[derive(Debug, Clone, Copy)]
enum Op {
    CreateQp {
        src: u32,
        dst: u32,
    },
    PostSend {
        qp: usize,
        bytes: u64,
    },
    Advance {
        windows: i64,
    },
    PollCq {
        since_post: usize,
    },
    /// The final `poll_cq` of everything posted.
    PollAll,
    Telemetry,
    Snapshot,
    Shutdown,
}

impl Op {
    /// Span name of this request's `Client::call`.
    fn call_span(&self) -> &'static str {
        match self {
            Op::CreateQp { .. } => "call.create_qp",
            Op::PostSend { .. } => "call.post_send",
            Op::Advance { .. } => "call.advance",
            Op::PollCq { .. } | Op::PollAll => "call.poll_cq",
            Op::Telemetry => "call.telemetry",
            Op::Snapshot => "call.snapshot",
            Op::Shutdown => "call.shutdown",
        }
    }
}

/// The session workload: service config plus the generated script.
pub struct ServeSession {
    cfg: ServiceConfig,
    script: Vec<Op>,
    posted_bytes: u64,
    scratch: PathBuf,
    sessions: Cell<u32>,
}

/// A random automorphism of the `k`-ary fat tree as a host relabeling:
/// pods, the ToRs of each pod and the hosts of each ToR are permuted.
/// The session's traffic matrix is placed on the fabric through it, so
/// every seed gives a different instance of the same shape: the same
/// mix of same-ToR, same-pod and cross-pod flows, the same flows
/// together in a window. With endpoints and the QP of each post drawn
/// freely, the NACK count moved by a third between seeds, and with it
/// the fill of the telemetry document's event ring and, through the
/// client's quadratic string parse, the session's run time (1.35x
/// between the fastest and the slowest of six seeds; 1.14x as generated
/// here, where the seed still sets the placement and the service's own
/// seed).
fn fat_tree_relabeling(k: usize, rng: &mut Xoshiro256) -> Vec<u32> {
    let m = k / 2;
    let mut shuffled = |n: usize| {
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        perm
    };
    let mut relabel = Vec::with_capacity(k * m * m);
    for &pod in &shuffled(k) {
        for &tor in &shuffled(m) {
            for &slot in &shuffled(m) {
                relabel.push(((pod * m + tor) * m + slot) as u32);
            }
        }
    }
    relabel
}

/// The in-process server thread and the flag that ends it.
struct Server {
    thread: std::thread::JoinHandle<Result<(), String>>,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Wait for `serve` to return. The flag is set first, so a session
    /// that never got its `shutdown` through (a failed call, a reply
    /// that was not `ok`) ends here instead of blocking forever; after a
    /// served `shutdown` it is already set.
    fn stop(self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .unwrap_or(Err("server thread panicked".into()))
    }
}

impl ServeSession {
    /// Generate the request script from `seed`; socket files go under
    /// `scratch`.
    pub fn new(seed: u64, scratch: &Path) -> ServeSession {
        let cfg = ServiceConfig {
            seed,
            ..ServiceConfig::small()
        };
        let mut rng = Xoshiro256::seeded(seed ^ 0x5E55_1014);
        let relabel = fat_tree_relabeling(cfg.k, &mut rng);
        let n_hosts = relabel.len();
        // Every host sources one QP to each of four distances: its ToR
        // neighbour, the next ToR, the next pod, the opposite pod.
        let m = cfg.k / 2;
        let offsets = [1, m, m * m, n_hosts / 2];
        let mut script = Vec::new();
        for qp in 0..QPS {
            let src = qp % n_hosts;
            let dst = (src + offsets[qp / n_hosts % offsets.len()]) % n_hosts;
            script.push(Op::CreateQp {
                src: relabel[src],
                dst: relabel[dst],
            });
        }
        // Posts walk the QPs in order, so every QP carries the same
        // number of messages and a round's eight flows leave eight
        // neighbouring hosts for the same distance.
        let mut posted_bytes = 0;
        for round in 0..ROUNDS {
            for post in 0..POSTS_PER_ROUND {
                let nth = round * POSTS_PER_ROUND + post;
                let bytes = SEND_BYTES[nth % SEND_BYTES.len()];
                posted_bytes += bytes;
                script.push(Op::PostSend {
                    qp: nth % QPS,
                    bytes,
                });
            }
            script.push(Op::Advance { windows: 1 });
            // Reap the last two rounds' completions, as a client with a
            // cursor would.
            script.push(Op::PollCq {
                since_post: round.saturating_sub(1) * POSTS_PER_ROUND,
            });
            if (round + 1) % TELEMETRY_EVERY == 0 {
                script.push(Op::Telemetry);
            }
        }
        script.extend([
            Op::Advance {
                windows: DRAIN_WINDOWS,
            },
            Op::PollAll,
            Op::Telemetry,
            Op::Snapshot,
            Op::Shutdown,
        ]);
        ServeSession {
            cfg,
            script,
            posted_bytes,
            scratch: scratch.to_path_buf(),
            sessions: Cell::new(0),
        }
    }

    /// A socket path no other session of this process uses.
    fn endpoint(&self) -> Endpoint {
        let n = self.sessions.get();
        self.sessions.set(n + 1);
        Endpoint::Unix(
            self.scratch
                .join(format!("s{}-{n}.sock", std::process::id())),
        )
    }

    /// Start `serve` on a thread of its own (the service is not `Send`,
    /// so it is built there) and connect one client.
    fn start(&self) -> (Client, Server) {
        let endpoint = self.endpoint();
        let cfg = self.cfg.clone();
        let server_endpoint = endpoint.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let server_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let service = SimService::new(cfg).map_err(|e| e.to_string())?;
            serve(service, &server_endpoint, server_stop).map_err(|e| e.to_string())
        });
        let server = Server { thread, stop };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(&endpoint) {
                Ok(client) => return (client, server),
                Err(e) if Instant::now() > deadline || server.thread.is_finished() => {
                    let served = server.stop();
                    panic!("cannot connect to the in-process server at {endpoint}: {e} (serve: {served:?})")
                }
                Err(_) => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// The JSON request of `op`, given the ids replies have assigned.
    fn request(op: Op, qp_ids: &[i64], wr_ids: &[i64]) -> Json {
        let client = ("client", Json::str("bench"));
        match op {
            Op::CreateQp { src, dst } => Json::obj(vec![
                ("op", Json::str("create_qp")),
                client,
                ("src", Json::Int(src as i64)),
                ("dst", Json::Int(dst as i64)),
            ]),
            Op::PostSend { qp, bytes } => Json::obj(vec![
                ("op", Json::str("post_send")),
                client,
                ("qp", Json::Int(qp_ids[qp])),
                ("bytes", Json::Int(bytes as i64)),
            ]),
            Op::Advance { windows } => Json::obj(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(windows)),
            ]),
            Op::PollCq { since_post } => Json::obj(vec![
                ("op", Json::str("poll_cq")),
                client,
                (
                    "since",
                    Json::Int(wr_ids.get(since_post).copied().unwrap_or(0)),
                ),
            ]),
            Op::PollAll => Json::obj(vec![("op", Json::str("poll_cq")), client]),
            Op::Telemetry => Json::obj(vec![("op", Json::str("telemetry"))]),
            Op::Snapshot => Json::obj(vec![("op", Json::str("snapshot"))]),
            Op::Shutdown => Json::obj(vec![("op", Json::str("shutdown"))]),
        }
    }

    /// One whole session and the restore from its snapshot. With
    /// `replay`, every request is also replayed against an in-process
    /// shadow service and re-encoded / re-parsed, each under a span, so
    /// the client-side latency can be split into handling, JSON and the
    /// rest (socket, framing, channel hop).
    fn session(&self, t: &Tracer, replay: bool) -> (f64, Facts) {
        let mut facts = Facts::default();
        let t0 = Instant::now();
        let (mut client, server) = t.span("harness.service.start", || self.start());
        let mut shadow = replay.then(|| {
            t.span("replay.new", || {
                SimService::new(self.cfg.clone()).expect("the generated config is valid")
            })
        });

        let mut qp_ids: Vec<i64> = Vec::new();
        let mut wr_ids: Vec<i64> = Vec::new();
        let mut wr_bytes: Vec<u64> = Vec::new();
        let mut live_doc = String::new();
        let mut snapshot = String::new();
        let mut reply_bytes = 0u64;
        let mut reaped: Option<Json> = None;
        for &op in &self.script {
            let req = Self::request(op, &qp_ids, &wr_ids);
            let reply = t.span("request", || {
                let reply = t.span(op.call_span(), || client.call(&req));
                if let Some(shadow) = shadow.as_mut() {
                    // What server and client do around the socket: the
                    // client encodes the request and parses the reply,
                    // the server parses the request and encodes the reply.
                    let req_text = t.span("replay.json_encode", || req.to_string());
                    let parsed = t.span("replay.json_parse", || json::parse(&req_text));
                    let shadow_reply = t.span("replay.handle", || {
                        shadow.handle(parsed.as_ref().expect("a request re-parses"))
                    });
                    let reply_text = t.span("replay.json_encode", || shadow_reply.to_string());
                    reply_bytes += reply_text.len() as u64;
                    let reparsed = t.span("replay.json_parse", || json::parse(&reply_text));
                    std::hint::black_box(reparsed.is_ok());
                }
                reply
            });
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    facts.check(false, || format!("{}: {e}", op.call_span()));
                    break;
                }
            };
            facts.check(
                reply.get("ok").and_then(Json::as_bool) == Some(true),
                || format!("{}: {}", op.call_span(), reply.to_string()),
            );
            match op {
                Op::CreateQp { .. } => {
                    qp_ids.push(reply.get("qp").and_then(Json::as_i64).unwrap_or(-1));
                }
                Op::PostSend { bytes, .. } => {
                    wr_ids.push(reply.get("wr").and_then(Json::as_i64).unwrap_or(-1));
                    wr_bytes.push(bytes);
                }
                Op::PollAll => reaped = reply.get("completions").cloned(),
                Op::Telemetry => {
                    live_doc = reply
                        .get("telemetry")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string();
                }
                Op::Snapshot => {
                    snapshot = reply
                        .get("snapshot")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string();
                }
                _ => {}
            }
        }
        t.span("harness.service.stop", || {
            drop(client);
            let served = server.stop();
            facts.check(served.is_ok(), || format!("serve: {served:?}"));
        });

        let restored = t.span("harness.service.restore", || {
            SimService::from_snapshot(&snapshot)
        });
        let secs = t0.elapsed().as_secs_f64();

        t.span("bench.facts", || {
            let done = reaped.as_ref().and_then(Json::as_arr).unwrap_or(&[]);
            for completion in done {
                let wr = completion.get("wr").and_then(Json::as_i64);
                if let Some(i) = wr_ids.iter().position(|&w| Some(w) == wr) {
                    facts.delivered_bytes += wr_bytes[i];
                }
            }
            facts.check(done.len() == wr_ids.len(), || {
                format!("{} of {} work requests completed", done.len(), wr_ids.len())
            });
            match restored {
                Ok(mut restored) => {
                    facts.check(restored.telemetry_json(None) == live_doc, || {
                        "restored service's telemetry differs from the live one".into()
                    });
                    // First transmissions: every sender QP's next
                    // never-sent PSN, read through `query_qp` (PSNs
                    // start at 0).
                    let mut data_pkts = 0;
                    for &qp in &qp_ids {
                        let reply = restored.handle(&Json::obj(vec![
                            ("op", Json::str("query_qp")),
                            ("qp", Json::Int(qp)),
                        ]));
                        let snd_nxt = reply.get("snd_nxt").and_then(Json::as_i64);
                        facts.check(snd_nxt.is_some(), || {
                            format!("query_qp {qp}: {}", reply.to_string())
                        });
                        data_pkts += snd_nxt.unwrap_or(0) as u64;
                    }
                    facts.set("rnic.data_pkts", data_pkts);
                }
                Err(e) => facts.check(false, || format!("restore: {e}")),
            }
            if let Some(shadow) = &shadow {
                facts.check(shadow.telemetry_json(None) == live_doc, || {
                    "replayed service's telemetry differs from the served one".into()
                });
                facts.set("harness.service.reply_bytes", reply_bytes);
            }
            for (metric, counter) in [
                ("netsim.drops_buffer", "fabric.drops.buffer"),
                ("netsim.drops_targeted", "fabric.drops.targeted"),
                ("netsim.ecn_marked", "fabric.ecn_marked"),
                ("core.sprayed", "themis.sprayed"),
                ("core.nacks_blocked", "themis.nacks.blocked"),
                ("core.nacks_valid", "themis.nacks.forwarded_valid"),
                ("core.nacks_compensated", "themis.nacks.compensated"),
                ("core.nacks_unknown", "themis.nacks.forwarded_unknown"),
                ("rnic.nacks_issued", "rnic.nacks_issued"),
                ("rnic.rto_fired", "rnic.rto_fired"),
                ("rnic.rate_cuts", "rnic.rate_cuts"),
                ("collectives.jobs", "service.posted"),
                ("collectives.qps", "service.qps"),
                ("harness.service.journal_ops", "service.journal_ops"),
            ] {
                facts.set(metric, counter_in_doc(&live_doc, counter));
            }
            // Every NACK a ToR sees is blocked, forwarded as valid or
            // forwarded because no tPSN was found.
            let unknown = facts.counts.remove("core.nacks_unknown").unwrap_or(0.0);
            let seen =
                facts.counts["core.nacks_blocked"] + facts.counts["core.nacks_valid"] + unknown;
            facts.counts.insert("core.nacks_seen", seen);
            facts.set("harness.service.snapshot_bytes", snapshot.len() as u64);
            facts.set("telemetry.doc_bytes", live_doc.len() as u64);
        });
        facts.fingerprint = live_doc;
        (secs, facts)
    }
}

/// The value of counter `name` in a `themis-telemetry` document, read by
/// text search (the document is large and the client-side JSON parser is
/// itself under measurement).
fn counter_in_doc(doc: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    doc.find(&key).map_or(0, |at| {
        doc[at + key.len()..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0, |acc, d| acc * 10 + (d - b'0') as u64)
    })
}

impl Workload for ServeSession {
    fn payload_bytes(&self) -> u64 {
        self.posted_bytes
    }

    /// `SimService::new` + bind, until a client has connected. The
    /// first reply is left out: `serve` polls for connections every 5 ms,
    /// and where in that interval the connection lands is a race that
    /// would make this time bimodal (it is part of `run_s` and of
    /// `harness.service.start_s`).
    fn setup_only(&self) -> f64 {
        let t0 = Instant::now();
        let (mut client, server) = self.start();
        let secs = t0.elapsed().as_secs_f64();
        let bye = client.call(&Json::obj(vec![("op", Json::str("shutdown"))]));
        drop(client);
        let served = server.stop();
        assert!(bye.is_ok(), "shutdown reply: {bye:?}");
        assert!(served.is_ok(), "serve: {served:?}");
        secs
    }

    fn run_entry(&self) -> (f64, Facts) {
        self.session(&Tracer::off(), false)
    }

    fn run_composed(&self, t: &Tracer) -> Facts {
        self.session(t, true).1
    }

    fn extra_spans(&self) -> &'static [&'static str] {
        &[
            "replay.new",
            "replay.json_encode",
            "replay.json_parse",
            "replay.handle",
            "bench.facts",
        ]
    }

    /// The service owns the cluster: the benchmark never calls
    /// `run_until`, the build or provisioning itself, and the protocol
    /// shows neither the engine's event count nor retransmissions, switch
    /// receive counts and ToR state size. So nothing that needs the run
    /// span or those counts (`est.*` among them) is measured here; the
    /// requests are.
    fn not_applicable(&self) -> Vec<&'static str> {
        vec![
            "simcore.events",
            "simcore.events_per_pkt",
            "simcore.ns_per_event",
            "netsim.build_s",
            "netsim.run_until_s",
            "netsim.window_p50_ms",
            "netsim.window_max_ms",
            "netsim.switch_rx_pkts",
            "netsim.run_sharded_s",
            "netsim.shard_speedup",
            "netsim.shard_identical",
            "core.tor_state_bytes",
            "core.evict_s",
            "rnic.retx_pkts",
            "collectives.sample_load_s",
            "collectives.provision_s",
            "collectives.provision_us_per_qp",
            "telemetry.snapshot_s",
            "telemetry.snapshot_ms_per_window",
            "telemetry.encode_s",
            "harness.install_s",
            "harness.collect_s",
            "harness.drain_s",
            "harness.audit_s",
            "sim.tail_ct_us",
            "sim.fct_p99_us",
            "sim.retx_share",
            "est.simcore_share",
            "est.netsim_share",
            "est.core_share",
            "est.rnic_share",
            "est.unexplained_share",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_read_from_a_telemetry_document() {
        let doc = "{\n  \"counters\": {\n \"rnic.rto_fired\": 17,\n \"service.qps\": 64\n}}";
        assert_eq!(counter_in_doc(doc, "rnic.rto_fired"), 17);
        assert_eq!(counter_in_doc(doc, "service.qps"), 64);
        assert_eq!(counter_in_doc(doc, "absent"), 0);
    }

    #[test]
    fn the_script_is_a_function_of_the_seed() {
        let dir = std::path::Path::new(".");
        let (a, b) = (ServeSession::new(7, dir), ServeSession::new(7, dir));
        assert_eq!(format!("{:?}", a.script), format!("{:?}", b.script));
        assert_eq!(a.posted_bytes, b.posted_bytes);
        let c = ServeSession::new(8, dir);
        assert_ne!(format!("{:?}", a.script), format!("{:?}", c.script));
        let posts = a
            .script
            .iter()
            .filter(|op| matches!(op, Op::PostSend { .. }))
            .count();
        assert_eq!(posts, ROUNDS * POSTS_PER_ROUND);
        assert_eq!(
            a.posted_bytes, c.posted_bytes,
            "every seed moves the same payload"
        );
    }

    /// A session whose script is cut short must come back with failed
    /// checks, whether the server has already gone (a call fails) or
    /// never got a `shutdown` (only the stop flag ends it).
    #[test]
    fn a_session_that_goes_wrong_fails_its_checks_and_returns() {
        let dir = std::env::temp_dir();
        let mut early_shutdown = ServeSession::new(1, &dir);
        early_shutdown.script = vec![Op::Shutdown, Op::Telemetry, Op::Snapshot];
        let (_, facts) = early_shutdown.session(&Tracer::off(), false);
        assert!(
            facts
                .checks
                .failures
                .iter()
                .any(|f| f.starts_with("call.telemetry")),
            "{:?}",
            facts.checks.failures
        );

        let mut no_shutdown = ServeSession::new(1, &dir);
        no_shutdown.script.truncate(QPS);
        let (_, facts) = no_shutdown.session(&Tracer::off(), false);
        assert!(!facts.checks.failures.is_empty());
        assert!(
            !facts.checks.failures.iter().any(|f| f.starts_with("serve")),
            "the stop flag ends `serve` cleanly: {:?}",
            facts.checks.failures
        );
    }

    #[test]
    fn a_relabeling_keeps_tor_and_pod_mates_together() {
        let (k, m) = (8, 4);
        let relabel = fat_tree_relabeling(k, &mut Xoshiro256::seeded(3));
        let mut sorted = relabel.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..(k * m * m) as u32).collect::<Vec<_>>());
        assert_ne!(relabel, sorted, "seed 3 does not draw the identity");
        for (a, &to_a) in relabel.iter().enumerate() {
            for (b, &to_b) in relabel.iter().enumerate() {
                let (to_a, to_b) = (to_a as usize, to_b as usize);
                assert_eq!(a / m == b / m, to_a / m == to_b / m, "ToR of {a} and {b}");
                assert_eq!(
                    a / (m * m) == b / (m * m),
                    to_a / (m * m) == to_b / (m * m),
                    "pod of {a} and {b}"
                );
            }
        }
    }
}

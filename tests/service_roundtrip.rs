//! Sim-as-a-service round trip (ISSUE 10 acceptance): two concurrent
//! clients drive one warm k=16 fabric over a real Unix socket, and a
//! snapshot/restore cycle continues with telemetry byte-identical to an
//! uninterrupted run. Also pins the panic-path fixes that rode along:
//! zero-completion outcomes, stale switch ids and degenerate knob
//! combinations all surface as values, never panics.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use themis::harness::json::Json;
use themis::harness::load::{run_open_loop, LoadConfig};
use themis::harness::service::{serve, Client, Endpoint, ServiceConfig, SimService};
use themis::harness::{build_fat_tree_cluster_sharded, ClusterError, Scheme};
use themis::netsim::fat_tree::FatTreeConfig;
use themis::netsim::types::NodeId;
use themis::rnic::NicConfig;
use themis::simcore::time::TimeDelta;

fn req(pairs: Vec<(&str, Json)>) -> Json {
    Json::obj(pairs)
}

fn call_ok(client: &mut Client, r: &Json) -> Json {
    let reply = client.call(r).expect("call succeeds");
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "{r:?} -> {reply:?}"
    );
    reply
}

/// The acceptance round trip: one warm k=16 fabric (1024 hosts) serves
/// two clients concurrently; each creates a QP, posts a send, and polls
/// its own completion. A snapshot taken mid-session restores into a
/// service whose continued telemetry is byte-identical to never having
/// stopped.
#[test]
fn two_concurrent_clients_on_one_warm_k16_fabric() {
    let sock = std::env::temp_dir().join(format!("themis-serve-test-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(sock.clone());
    let cfg = ServiceConfig {
        k: 16,
        scheme: Scheme::Themis,
        seed: 11,
        shards: 1,
        window: TimeDelta::from_micros(500),
    };
    let service = SimService::new(cfg).expect("valid config");
    let stop = Arc::new(AtomicBool::new(false));

    // The service (and its cluster) is deliberately not `Send`, so
    // `serve` runs right here on the test thread; all client traffic
    // happens on a coordinator thread.
    let sock_for_clients = sock.clone();
    let client_endpoint = endpoint.clone();
    let coordinator = std::thread::spawn(move || {
        for _ in 0..500 {
            if sock_for_clients.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Two clients connect and provision concurrently; the serve
        // loop serializes their ops into one deterministic journal.
        let spawn_client = |name: &'static str, src: i64, dst: i64, ep: Endpoint| {
            std::thread::spawn(move || {
                let mut c = Client::connect(&ep).expect("connect");
                let reply = call_ok(
                    &mut c,
                    &req(vec![
                        ("op", Json::str("create_qp")),
                        ("client", Json::str(name)),
                        ("src", Json::Int(src)),
                        ("dst", Json::Int(dst)),
                    ]),
                );
                let qp = reply.get("qp").and_then(Json::as_i64).expect("qp id");
                call_ok(
                    &mut c,
                    &req(vec![
                        ("op", Json::str("post_send")),
                        ("client", Json::str(name)),
                        ("qp", Json::Int(qp)),
                        ("bytes", Json::Int(256 << 10)),
                    ]),
                );
                qp
            })
        };
        let a = spawn_client("client-a", 0, 257, client_endpoint.clone());
        let b = spawn_client("client-b", 512, 771, client_endpoint.clone());
        let qp_a = a.join().expect("client a");
        let qp_b = b.join().expect("client b");
        assert_ne!(qp_a, qp_b, "each client got its own QP");

        let mut c = Client::connect(&client_endpoint).expect("connect");
        call_ok(
            &mut c,
            &req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(4)),
            ]),
        );
        for name in ["client-a", "client-b"] {
            let reply = call_ok(
                &mut c,
                &req(vec![
                    ("op", Json::str("poll_cq")),
                    ("client", Json::str(name)),
                ]),
            );
            let completions = reply.get("completions").and_then(Json::as_arr).unwrap();
            assert_eq!(completions.len(), 1, "{name} sees exactly its completion");
            assert!(completions[0].get("fct_ns").and_then(Json::as_i64).unwrap() > 0);
        }

        // Snapshot over the wire, then continue the live service; the
        // main thread replays the same continuation against a restored
        // copy and compares telemetry.
        let reply = call_ok(&mut c, &req(vec![("op", Json::str("snapshot"))]));
        let snap = reply
            .get("snapshot")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let more = vec![
            req(vec![
                ("op", Json::str("post_send")),
                ("client", Json::str("client-a")),
                ("qp", Json::Int(qp_a)),
                ("bytes", Json::Int(64 << 10)),
            ]),
            req(vec![
                ("op", Json::str("advance")),
                ("windows", Json::Int(2)),
            ]),
        ];
        for r in &more {
            call_ok(&mut c, r);
        }
        let reply = call_ok(&mut c, &req(vec![("op", Json::str("telemetry"))]));
        let live_telemetry = reply
            .get("telemetry")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        call_ok(&mut c, &req(vec![("op", Json::str("shutdown"))]));
        (snap, more, live_telemetry)
    });

    serve(service, &endpoint, stop).expect("clean shutdown");
    let (snap, more, live_telemetry) = coordinator.join().expect("coordinator");
    assert!(!sock.exists(), "socket file removed on clean shutdown");

    let mut restored = SimService::from_snapshot(&snap).expect("snapshot restores");
    for r in &more {
        let reply = restored.handle(r);
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(true)),
            "{r:?} -> {reply:?}"
        );
    }
    assert_eq!(
        restored.telemetry_json(None),
        live_telemetry,
        "restored continuation must be byte-identical to the uninterrupted run"
    );
}

/// Hostile frames (ISSUE 15): a document nested 100 000 deep used to
/// overflow the connection thread's stack and abort the whole server,
/// and a high surrogate at end of input used to panic the connection
/// thread (the client saw its connection dropped without a reply). Both
/// are now answered `bad request`, on a server that keeps serving.
#[test]
fn hostile_frames_are_answered_and_the_server_keeps_serving() {
    use themis::harness::service::{read_frame, write_frame};
    let sock =
        std::env::temp_dir().join(format!("themis-serve-hostile-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(sock.clone());
    let service = SimService::new(ServiceConfig::small()).expect("valid config");
    let stop = Arc::new(AtomicBool::new(false));

    let client_endpoint = endpoint.clone();
    let coordinator = std::thread::spawn(move || {
        let mut raw = None;
        for _ in 0..500 {
            if let Ok(s) = std::os::unix::net::UnixStream::connect(&sock) {
                raw = Some(s);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let mut raw = raw.expect("server came up");
        let frames = ["[".repeat(100_000), r#"{"op":"\ud800"#.to_string()];
        let replies: Vec<String> = frames
            .iter()
            .map(|frame| {
                write_frame(&mut raw, frame.as_bytes()).expect("frame written");
                let reply = read_frame(&mut raw)
                    .expect("frame read")
                    .expect("a reply, not EOF");
                String::from_utf8(reply).expect("utf-8 reply")
            })
            .collect();
        let mut second = Client::connect(&client_endpoint).expect("second client connects");
        let fabric = call_ok(&mut second, &req(vec![("op", Json::str("query_fabric"))]));
        call_ok(&mut second, &req(vec![("op", Json::str("shutdown"))]));
        (replies, fabric)
    });

    serve(service, &endpoint, stop).expect("clean shutdown");
    let (replies, fabric) = coordinator.join().expect("coordinator");
    for reply in &replies {
        assert!(
            reply.starts_with(r#"{"ok":false,"error":"bad request: "#),
            "{reply}"
        );
    }
    assert_eq!(fabric.get("hosts").and_then(Json::as_i64), Some(16));
}

/// Regression (ISSUE 10): a driver with zero instances used to make
/// zero-job runs masquerade as instantly-complete; now it reports no
/// tail completion at all.
#[test]
fn zero_job_driver_reports_no_tail_completion() {
    let driver = themis::collectives::driver::Driver::new();
    assert_eq!(driver.tail_completion(), None);
    assert_eq!(driver.num_completed(), 0);
    assert!(
        driver.all_complete(),
        "vacuously true, but not a completion"
    );
}

/// Regression (ISSUE 10): a stale core-switch id after topology edits
/// used to `unwrap()` inside stats collection; `Cluster::switch` now
/// reports the id instead of panicking.
#[test]
fn stale_switch_id_is_an_error_not_a_panic() {
    let cluster = build_fat_tree_cluster_sharded(
        &FatTreeConfig::small(4),
        NicConfig::nic_sr(100_000_000_000),
        Scheme::Themis,
        1,
    );
    let bogus = NodeId(u32::MAX);
    match cluster.switch(bogus) {
        Err(ClusterError::StaleSwitch(id)) => assert_eq!(id, bogus),
        Err(other) => panic!("expected StaleSwitch, got {other:?}"),
        Ok(_) => panic!("expected StaleSwitch, got a live switch"),
    }
    // Live ids still resolve.
    assert!(cluster.switch(cluster.leaves[0]).is_ok());
}

/// Regression (ISSUE 10): degenerate knob combinations are usage
/// errors, not downstream panics or silent empty reports.
#[test]
fn degenerate_load_knobs_are_rejected_up_front() {
    let base = || LoadConfig::small(Scheme::Themis, 1);

    let mut cfg = base();
    cfg.windows = 0;
    assert!(run_open_loop(&cfg).is_err(), "--windows 0");

    let mut cfg = base();
    cfg.window = TimeDelta::from_nanos(0);
    assert!(run_open_loop(&cfg).is_err(), "--window-us 0");

    let mut cfg = base();
    cfg.spec.n_jobs = 0;
    assert!(run_open_loop(&cfg).is_err(), "--jobs 0");

    let mut cfg = base();
    cfg.spec.n_tenants = 0;
    assert!(run_open_loop(&cfg).is_err(), "--tenants 0");

    let mut cfg = base();
    cfg.shards = cfg.fabric.n_hosts() + 1;
    assert!(run_open_loop(&cfg).is_err(), "shards > hosts");

    let mut cfg = base();
    cfg.spec.max_ranks = cfg.fabric.n_hosts() + 1;
    assert!(run_open_loop(&cfg).is_err(), "ranks > hosts");

    assert!(base().validate().is_ok(), "the defaults stay valid");

    let mut svc_cfg = ServiceConfig::small();
    svc_cfg.window = TimeDelta::from_nanos(0);
    assert!(svc_cfg.validate().is_err(), "service --window-us 0");
}

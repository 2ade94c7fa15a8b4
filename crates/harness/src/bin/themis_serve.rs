//! `themis_serve` — the sim-as-a-service front door.
//!
//! Keeps one warm simulated fabric alive behind the verbs-shaped
//! protocol of [`themis_harness::service`]: external clients connect
//! over a Unix or TCP socket and drive `create_qp` / `post_send` /
//! `poll_cq` / `advance` / `telemetry` / `snapshot` requests against
//! it (DESIGN.md "Sim-as-a-service"). With `--connect` it is the
//! scripted client instead: one JSON request per stdin line (blank and
//! `#` lines skipped), one JSON reply per stdout line, exit 1 if any
//! reply carried `"ok": false`. `themis_serve --help` lists the options
//! (table: `themis_harness::cli::THEMIS_SERVE`); the server exits 0 on
//! a client's `shutdown`.
//!
//! ```text
//! themis_serve --socket /tmp/themis.sock --k 4 --seed 7
//! echo '{"op":"query_fabric"}' | themis_serve --connect /tmp/themis.sock
//! ```

use std::io::BufRead;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use themis_harness::cli;
use themis_harness::json::Json;
use themis_harness::service::{serve, Client, Endpoint, ServiceConfig, SimService};

fn parse_endpoint(spec: &str) -> Endpoint {
    match spec.strip_prefix("tcp:") {
        Some(addr) => Endpoint::Tcp(addr.to_string()),
        None => Endpoint::Unix(spec.into()),
    }
}

fn main() {
    let args = cli::THEMIS_SERVE.parse_or_exit(std::env::args());

    if let Some(spec) = args.text("connect") {
        run_client(&parse_endpoint(&spec));
        return;
    }

    let socket = args.text("socket").expect("--socket has a table default");
    let endpoint = match (args.text("tcp"), args.given("socket")) {
        (Some(addr), false) => Endpoint::Tcp(addr),
        (None, _) => Endpoint::Unix(socket.into()),
        (Some(_), true) => args.fail("--tcp and --socket are mutually exclusive"),
    };

    let service = if let Some(path) = args.text("restore") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.fail(&format!("cannot read snapshot {path}: {e}")));
        let svc = SimService::from_snapshot(&text)
            .unwrap_or_else(|e| args.fail(&format!("cannot restore {path}: {e}")));
        println!("restored from {path}");
        svc
    } else {
        let cfg = ServiceConfig {
            k: args.num("k"),
            scheme: args.scheme("scheme"),
            seed: args.num("seed"),
            shards: args.shards(),
            window: simcore::time::TimeDelta::from_micros(args.num("window-us")),
        };
        SimService::new(cfg).unwrap_or_else(|e| args.fail(&e.to_string()))
    };

    println!("listening on {endpoint}");
    let stop = Arc::new(AtomicBool::new(false));
    match serve(service, &endpoint, stop) {
        Ok(()) => println!("clean shutdown"),
        Err(e) => {
            eprintln!("error: serve failed on {endpoint}: {e}");
            std::process::exit(1);
        }
    }
}

/// Scripted client: JSON lines on stdin → framed requests → JSON lines
/// on stdout.
fn run_client(endpoint: &Endpoint) {
    let mut client = Client::connect(endpoint).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {endpoint}: {e}");
        std::process::exit(1);
    });
    let stdin = std::io::stdin();
    let mut any_failed = false;
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: stdin: {e}");
            std::process::exit(1);
        });
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let req = match themis_harness::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: bad request line: {e}");
                any_failed = true;
                continue;
            }
        };
        match client.call(&req) {
            Ok(reply) => {
                if reply.get("ok") != Some(&Json::Bool(true)) {
                    any_failed = true;
                }
                println!("{}", reply.to_string());
            }
            Err(e) => {
                eprintln!("error: call failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if any_failed {
        std::process::exit(1);
    }
}

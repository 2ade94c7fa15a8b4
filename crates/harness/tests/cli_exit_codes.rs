//! The exit-code contract of the six real binaries: 0 ok, 1 the run
//! failed, 2 usage error — and `--help` never starts a run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BINS: [(&str, &str); 6] = [
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("themis_sim", env!("CARGO_BIN_EXE_themis_sim")),
    ("themis_load", env!("CARGO_BIN_EXE_themis_load")),
    ("themis_serve", env!("CARGO_BIN_EXE_themis_serve")),
    ("themis_fuzz", env!("CARGO_BIN_EXE_themis_fuzz")),
];

fn exe(bin: &str) -> &'static str {
    BINS.iter()
        .find(|(b, _)| *b == bin)
        .expect("a harness bin")
        .1
}

/// A fresh scratch directory per test, so binaries that default to a
/// relative path (the `themis_serve.sock` socket) cannot collide.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("themis_cli_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `bin args` in `cwd` with stdin closed; a process still alive
/// after a minute (a server that bound a socket and blocked) is killed
/// and reported as such.
fn run(bin: &str, args: &[&str], cwd: &Path) -> (Output, Duration) {
    let start = Instant::now();
    let mut child = Command::new(exe(bin))
        .args(args)
        .current_dir(cwd)
        .env_remove("THEMIS_SHARDS")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn harness binary");
    while child.try_wait().expect("poll child").is_none() {
        if start.elapsed() > Duration::from_secs(60) {
            child.kill().expect("kill hung child");
            panic!("{bin} {args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = start.elapsed();
    (child.wait_with_output().expect("collect output"), elapsed)
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn help_exits_zero_at_once_and_runs_nothing() {
    let dir = scratch("help");
    for (bin, _) in BINS {
        for flag in ["--help", "-h"] {
            let (out, elapsed) = run(bin, &[flag], &dir);
            let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}: {stderr}");
            assert!(
                elapsed < Duration::from_secs(1),
                "{bin} {flag}: {elapsed:?}"
            );
            assert!(stdout.starts_with(&format!("{bin} - ")), "{bin}: {stdout}");
            assert!(stdout.contains("USAGE: ") && stdout.contains("EXIT STATUS"));
            assert!(stderr.is_empty(), "{bin} {flag}: {stderr}");
            // Nothing ran: none of the binaries' run banners appeared...
            let banners = [
                "motivation experiment",
                "16x16 leaf-spine",
                "open-loop load:",
                "listening on",
                "case(s),",
            ];
            for banner in banners {
                assert!(!stdout.contains(banner), "{bin} {flag} printed '{banner}'");
            }
        }
    }
    // ... and themis_serve did not bind its default socket.
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(left.is_empty(), "--help left files behind: {left:?}");
    let (out, _) = run("themis_sim", &["collective", "--help"], &dir);
    assert_eq!(out.status.code(), Some(0));
    assert!(text(&out.stdout).contains("USAGE: themis_sim collective"));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn malformed_command_lines_exit_two_with_usage_on_stderr() {
    let dir = scratch("usage");
    let cases: [(&str, &[&str], &str); 17] = [
        ("fig1", &["--bogus"], "unknown option '--bogus'"),
        ("fig1", &["--jobs", "2O"], "invalid value '2O'"),
        ("fig5", &["--sheme", "zoo"], "unknown option '--sheme'"),
        ("fig5", &["allreduce", "x"], "unexpected argument 'x'"),
        ("themis_sim", &["p2p", "--sheme", "ar"], "unknown option"),
        ("themis_sim", &["p2p", "--mb", "-1"], "invalid value '-1'"),
        ("themis_sim", &[], "missing command"),
        (
            "themis_sim",
            &["sweep", "--mb", "1"],
            "unknown command 'sweep'",
        ),
        ("themis_load", &["--sheme", "reps"], "unknown option"),
        ("themis_load", &["--jobs", "2O"], "invalid value '2O'"),
        ("themis_load", &["--seed", "--jobs", "5"], "needs a value"),
        ("themis_load", &["--burst", "5"], "takes no value"),
        ("themis_serve", &["--sheme", "reps"], "unknown option"),
        ("themis_serve", &["--k", "four"], "invalid value 'four'"),
        ("themis_fuzz", &["--sheme", "reps"], "unknown option"),
        ("themis_fuzz", &["--min-features", "15O"], "invalid value"),
        ("themis_fuzz", &["--only", "x"], "invalid value 'x'"),
    ];
    for (bin, args, message) in cases {
        let (out, _) = run(bin, args, &dir);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("USAGE: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran something");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn validate_still_rejects_degenerate_knobs_with_two() {
    let dir = scratch("validate");
    let sock = dir.join("s.sock");
    let sock = sock.to_str().expect("utf-8 temp path");
    const K6: &str = "--k must be even with k/2 a power of two (4, 8, 16, 32), got 6";
    let cases: [(&str, &[&str], &str); 12] = [
        ("themis_load", &["--jobs", "0"], "--jobs must be >= 1"),
        (
            "themis_serve",
            &["--socket", sock, "--window-us", "0"],
            "--window-us must be > 0",
        ),
        (
            "themis_serve",
            &["--tcp", "127.0.0.1:0", "--socket", sock],
            "mutually exclusive",
        ),
        // Invalid fabrics: one rule (`harness::cluster`), every front
        // door. Each of these used to panic inside cluster assembly.
        (
            "themis_sim",
            &["p2p", "--leaves", "1", "--hosts", "2", "--spines", "2"],
            "p2p needs a second rack",
        ),
        (
            "themis_sim",
            &["p2p", "--leaves", "0", "--hosts", "2", "--spines", "2"],
            "the fabric has 0 leaves",
        ),
        (
            "themis_sim",
            &[
                "collective",
                "--leaves",
                "2",
                "--hosts",
                "0",
                "--spines",
                "2",
            ],
            "the fabric has 0 hosts per leaf",
        ),
        (
            "themis_sim",
            &[
                "collective",
                "--leaves",
                "2",
                "--hosts",
                "2",
                "--spines",
                "0",
            ],
            "the fabric has 0 spines",
        ),
        (
            "themis_sim",
            &["collective", "--leaves", "2", "--hosts", "2", "--gbps", "0"],
            "link bandwidth must be > 0",
        ),
        (
            "themis_sim",
            &[
                "collective",
                "--leaves",
                "3",
                "--hosts",
                "2",
                "--spines",
                "3",
                "--scheme",
                "themis",
            ],
            "power of two in 1..=256, got 3",
        ),
        (
            "themis_sim",
            &["p2p", "--leaves", "2", "--hosts", "2", "--spines", "200"],
            "power of two in 1..=256, got 200",
        ),
        (
            "themis_load",
            &["--k", "6", "--jobs", "4", "--windows", "2"],
            K6,
        ),
        ("themis_serve", &["--socket", sock, "--k", "6"], K6),
    ];
    for (bin, args, message) in cases {
        let (out, _) = run(bin, args, &dir);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(message) && stderr.contains("USAGE: "),
            "{bin} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran something");
    }
    // A run that completes nothing is a failed run, not a usage error.
    let tiny = "--jobs 2 --windows 1 --window-us 1 --no-require-complete";
    let args: Vec<&str> = tiny.split(' ').collect();
    let (out, _) = run("themis_load", &args, &dir);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("no completions"));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn one_tiny_well_formed_run_per_binary_exits_zero() {
    let dir = scratch("runs");
    let runs: [(&str, &[&str], &str); 6] = [
        ("fig1", &["1", "--jobs", "2"], "Fig 1d"),
        (
            "fig5",
            &["--fat-tree", "--scheme", "themis", "1", "-s", "auto"],
            "Themis",
        ),
        (
            "themis_sim",
            &[
                "p2p",
                "--fabric",
                "motivation",
                "--mb",
                "1",
                "--shards",
                "auto",
            ],
            "goodput",
        ),
        ("themis_sim", &["memory", "--paths", "256"], "M_total"),
        (
            "themis_load",
            &["--jobs", "20", "--telemetry", "load.json"],
            "oracle            : CLEAN",
        ),
        ("themis_fuzz", &["--budget", "2", "--blind"], "2 case(s)"),
    ];
    for (bin, args, expect) in runs {
        let (out, _) = run(bin, args, &dir);
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(stdout.contains(expect), "{bin} {args:?}: {stdout}");
    }
    assert!(dir.join("load.json").is_file(), "--telemetry wrote nothing");

    // themis_serve: the server exits 0 on a client's `shutdown`.
    let sock = dir.join("serve.sock");
    let sock = sock.to_str().expect("utf-8 temp path");
    let server = Command::new(exe("themis_serve"))
        .args(["--socket", sock, "--k", "4", "--seed", "7"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn themis_serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !Path::new(sock).exists() {
        assert!(Instant::now() < deadline, "themis_serve did not come up");
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut client = Command::new(exe("themis_serve"))
        .args(["--connect", sock])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn scripted client");
    {
        use std::io::Write;
        let mut stdin = client.stdin.take().expect("client stdin");
        writeln!(
            stdin,
            "{{\"op\":\"query_fabric\"}}\n{{\"op\":\"shutdown\"}}"
        )
        .expect("script");
    }
    let client = client.wait_with_output().expect("client exit");
    assert_eq!(client.status.code(), Some(0), "{}", text(&client.stdout));
    let server = server.wait_with_output().expect("server exit");
    assert_eq!(server.status.code(), Some(0));
    assert!(text(&server.stdout).contains("clean shutdown"));
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

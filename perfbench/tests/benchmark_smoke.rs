//! Smoke test of the `themis_benchmark` binary: one short traced pass of
//! every workload plus one end-to-end run, each as its own process, one
//! at a time. Every metric `BENCHMARK.json` declares must be present and
//! finite, no operation may fail, and named spans must cover at least
//! 95 % of each traced rep.

use std::collections::BTreeMap;
use std::process::Command;
use themis_harness::json::{self, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(manifest: &Json, list: &str) -> Vec<String> {
    manifest
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Run the binary for about a second; the metrics of its result line.
fn run(workload: &str, trace: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_themis_benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"));
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} --trace {trace}:\n{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_i64) >= Some(1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics in {last}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let value = value.unwrap_or_else(|| panic!("{workload}: {name} has no number"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn every_workload_reports_every_declared_metric_and_fails_nothing() {
    let manifest = manifest();
    let per_layer = names(&manifest, "per_layer");
    let end_to_end = names(&manifest, "end_to_end");
    for workload in names(&manifest, "workloads") {
        let metrics = run(&workload, "1");
        let reported: Vec<&String> = metrics.keys().collect();
        let mut declared: Vec<&String> = per_layer.iter().collect();
        declared.sort();
        assert_eq!(
            reported, declared,
            "{workload}: per-layer names differ from BENCHMARK.json"
        );
        assert_eq!(metrics["fail_share"], 0.0, "{workload}");
        assert!(
            metrics["trace.covered_share"] >= 0.95,
            "{workload}: named spans cover {} of the traced rep",
            metrics["trace.covered_share"]
        );
    }
    // The end-to-end side on the cheapest workload: never-zero metrics.
    let metrics = run("ring8_spray", "0");
    let reported: Vec<&String> = metrics.keys().collect();
    let mut declared: Vec<&String> = end_to_end.iter().collect();
    declared.sort();
    assert_eq!(reported, declared);
    assert!(metrics.values().all(|v| *v > 0.0), "{metrics:?}");
}

/// Exit codes: 0 only with every check passed (asserted by `run`), 2 for
/// a usage error, which prints no result line.
#[test]
fn a_usage_error_exits_with_2_and_prints_no_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "ring8_spray", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_themis_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

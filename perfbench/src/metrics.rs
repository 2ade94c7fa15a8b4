//! The metric names the benchmark emits, with unit and direction.
//! `BENCHMARK.json` declares the same set (a test parses the file and
//! compares); `perfbench/README.md` says which end-to-end metric each
//! per-layer metric should move, and on which workload.
//!
//! Every time is host time — what the simulator costs its user — unless
//! the name starts with `sim.`, which is simulated time: an unvalidated
//! model output (EXPERIMENTS.md holds the only comparison with the
//! paper), deterministic per seed.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("payload_mb_per_s", "MB/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; an
/// explicit 0 for those on the workload's `not_applicable` list.
pub const PER_LAYER: [MetricDef; 96] = [
    // simcore
    ("simcore.events", "count", "lower"),
    ("simcore.events_per_pkt", "1/pkt", "lower"),
    ("simcore.ns_per_event", "ns", "lower"),
    ("simcore.hold_ns_p32", "ns", "lower"),
    ("simcore.hold_ns_p1k", "ns", "lower"),
    ("simcore.hold_ns_p100k", "ns", "lower"),
    ("simcore.hold_ns_p1m", "ns", "lower"),
    // netsim
    ("netsim.build_s", "s", "lower"),
    ("netsim.run_until_s", "s", "lower"),
    ("netsim.window_p50_ms", "ms", "lower"),
    ("netsim.window_max_ms", "ms", "lower"),
    ("netsim.switch_rx_pkts", "count", "lower"),
    ("netsim.drops_buffer", "count", "lower"),
    ("netsim.drops_targeted", "count", "lower"),
    ("netsim.ecn_marked", "count", "lower"),
    ("netsim.switch_fwd_ns", "ns", "lower"),
    ("netsim.switch_fwd_events", "1/pkt", "lower"),
    ("netsim.switch_fwd_hook_ns", "ns", "lower"),
    ("netsim.hash_ns", "ns", "lower"),
    ("netsim.run_sharded_s", "s", "lower"),
    ("netsim.shard_speedup", "x", "higher"),
    ("netsim.shard_identical", "count", "higher"),
    // core (Themis-S / Themis-D)
    ("core.sprayed", "count", "lower"),
    ("core.nacks_seen", "count", "lower"),
    ("core.nacks_blocked", "count", "higher"),
    ("core.nacks_valid", "count", "lower"),
    ("core.nacks_compensated", "count", "lower"),
    ("core.block_share", "share", "higher"),
    ("core.tor_state_bytes", "B", "lower"),
    ("core.evict_s", "s", "lower"),
    ("core.spray_ns", "ns", "lower"),
    ("core.d_data_ns", "ns", "lower"),
    ("core.d_nack_ns", "ns", "lower"),
    ("core.psn_scan_ns", "ns", "lower"),
    // rnic
    ("rnic.data_pkts", "count", "lower"),
    ("rnic.retx_pkts", "count", "lower"),
    ("rnic.nacks_issued", "count", "lower"),
    ("rnic.rto_fired", "count", "lower"),
    ("rnic.rate_cuts", "count", "lower"),
    ("rnic.rx_data_ns", "ns", "lower"),
    ("rnic.rx_data_events", "1/pkt", "lower"),
    ("rnic.tx_ns", "ns", "lower"),
    ("rnic.tx_events", "1/pkt", "lower"),
    ("rnic.dcqcn_ns", "ns", "lower"),
    ("rnic.bitmap_ns", "ns", "lower"),
    // collectives
    ("collectives.jobs", "count", "higher"),
    ("collectives.qps", "count", "higher"),
    ("collectives.sample_load_s", "s", "lower"),
    ("collectives.provision_s", "s", "lower"),
    ("collectives.provision_us_per_qp", "us", "lower"),
    // telemetry
    ("telemetry.snapshot_s", "s", "lower"),
    ("telemetry.snapshot_ms_per_window", "ms", "lower"),
    ("telemetry.encode_s", "s", "lower"),
    ("telemetry.doc_bytes", "B", "lower"),
    ("telemetry.inc_observe_ns", "ns", "lower"),
    ("telemetry.merge_ns_per_event", "ns", "lower"),
    // harness
    ("harness.install_s", "s", "lower"),
    ("harness.collect_s", "s", "lower"),
    ("harness.drain_s", "s", "lower"),
    ("harness.audit_s", "s", "lower"),
    ("harness.service.start_s", "s", "lower"),
    ("harness.service.ops_per_s", "1/s", "higher"),
    ("harness.service.op_p50_ms", "ms", "lower"),
    ("harness.service.op_p99_ms", "ms", "lower"),
    ("harness.service.op_samples", "count", "higher"),
    ("harness.service.restore_s", "s", "lower"),
    ("harness.service.restore_us_per_op", "us", "lower"),
    ("harness.service.handle_s", "s", "lower"),
    ("harness.service.wire_s", "s", "lower"),
    ("harness.service.create_qp_p50_us", "us", "lower"),
    ("harness.service.post_send_p50_us", "us", "lower"),
    ("harness.service.advance_p50_us", "us", "lower"),
    ("harness.service.poll_cq_p50_us", "us", "lower"),
    ("harness.service.telemetry_p50_us", "us", "lower"),
    ("harness.service.snapshot_p50_us", "us", "lower"),
    ("harness.service.journal_ops", "count", "lower"),
    ("harness.service.snapshot_bytes", "B", "lower"),
    ("harness.service.reply_bytes", "B", "lower"),
    ("harness.json.parse_s", "s", "lower"),
    ("harness.json.encode_s", "s", "lower"),
    ("harness.json.parse_mb_per_s_1k", "MB/s", "higher"),
    ("harness.json.parse_mb_per_s_256k", "MB/s", "higher"),
    ("harness.json.encode_mb_per_s", "MB/s", "higher"),
    // simulated-time outputs (unvalidated model, exact per seed)
    ("sim.tail_ct_us", "us", "lower"),
    ("sim.fct_p99_us", "us", "lower"),
    ("sim.retx_share", "share", "lower"),
    // estimates: exact count × kernel ns ÷ run span
    ("est.simcore_share", "share", "lower"),
    ("est.netsim_share", "share", "lower"),
    ("est.core_share", "share", "lower"),
    ("est.rnic_share", "share", "lower"),
    ("est.unexplained_share", "share", "lower"),
    // the traced pass itself
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.covered_share", "share", "higher"),
    // failed / attempted operations of the traced process
    ("fail_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::collections::BTreeSet;
    use themis_harness::json::{self, Json};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} of {name}"
            );
            assert!(matches!(*better, "lower" | "higher"), "{name}: {better}");
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
    }

    /// `(name, unit, better)` of every entry of `list` in the manifest.
    fn declared(manifest: &Json, list: &str) -> Vec<(String, String, String)> {
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{list} entry without {key}"))
                .to_string()
        };
        manifest
            .get(list)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");

        let owned = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
                .collect()
        };
        assert_eq!(declared(&manifest, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&manifest, "per_layer"), owned(&PER_LAYER));

        let workloads: Vec<(String, String)> = manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                let get = |k| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .expect("name/why")
                        .to_string()
                };
                (get("name"), get("why"))
            })
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for m in manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
        {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }
}

#!/usr/bin/env bash
# Tier-1 gate + benchmark floors.
#
# Usage: scripts/ci.sh
#
# Steps:
#   1. cargo fmt --check
#   2. cargo build --release
#   3. cargo test -q            (tier-1 suite)
#   3b. cargo test --workspace -q: every crate's unit tests, the
#      harness's real-binary CLI tests (crates/harness/tests/) and all
#      doctests — none of which the root-package tier-1 run reaches.
#   3c. cargo check on perfbench/ (the repo benchmark is a package of
#      its own, not a workspace member, so nothing above compiles it: a
#      rename in crates/harness would break it silently until the
#      benchmark gate runs).
#   3d. perfbench's own smoke test (~50 s): its traced pass re-composes
#      every entry point (batch, open-loop, serve) from public pieces
#      and fails when one stops being event- and byte-equal to that
#      composition — what a run-loop refactor breaks and nothing else
#      here sees before the benchmark gate.
#   4. THEMIS_SHARDS=2 matrix leg: the model checker, the oracle e2e
#      suites, PFC/failure runs, and the scheme-zoo matrix repeated on
#      the sharded engine — every assertion must hold bit-identically
#      on both engines.
#   5. cargo doc --no-deps      (rustdoc warnings denied)
#   6. fixed-seed conformance-fuzz smoke: themis_fuzz runs a bounded
#      budget of coverage-guided fault scenarios under the
#      protocol-invariant oracle (with a --min-features coverage floor),
#      then a second bounded budget on the sharded engine, a zoo leg
#      (reps/eunomia/sprinklers/oracle), and replays the checked-in
#      tests/corpus regression corpus serially and with --shards 2.
#   7. open-loop load smoke: a seconds-scale soak of the production
#      traffic engine (multi-tenant churn + eviction cycling, oracle-
#      audited via the sliding window), then a fixed-seed themis_load
#      determinism leg — two identical invocations must emit
#      byte-identical windowed telemetry, and a --shards 2 run must
#      match them too.
#   8. sim-as-a-service smoke: themis_serve round trip — a scripted
#      client session checkpoints mid-run; a server restored from the
#      checkpoint must continue with byte-identical telemetry, both
#      servers must shut down cleanly, and degenerate knob combinations
#      must exit with usage errors (never a panic).
#   9. figure-door smoke (~25 s): each paper artefact's one Regenerate
#      command from EXPERIMENTS.md runs at a small size — fig1; fig5
#      serial vs --jobs 2 --shards 2 (equal but for the worker-count
#      line); themis_sim memory at the Table 1 reference; the ablations
#      example.
#  10. perfbench floors (~45 s): BENCHMARK.json's command, 2 s per
#      workload, against the last line of perfbench/BENCH_history.jsonl.
#      All five workloads must report `correct:true`; the four engine
#      workloads must keep payload_mb_per_s >= 0.70 x that line's value
#      and openloop1024 peak_rss_mb <= 1.5 x; a 1 s traced ring8_spray
#      pass holds two kernels (shard merge, event queue at 100 k
#      resident) to <= baseline / 0.70, the JSON parse of a 256 KB
#      reply to >= 0.5 x the MB/s of a 1 KB one, and an event-queue hold
#      at 100 k resident to <= 2.5 x one at 1 k (two scaling tripwires
#      needing no history line). serve_session has no throughput floor:
#      the history line predates the linear JSON string parse.
#
# The floors are a coarse tripwire against a line taken on this host; the
# per-PR gate is the parent-vs-change run at BENCHMARK.json's 0.25 bounds.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every temp file lives under CI_TMP and SERVE_PID is non-empty exactly
# while a themis_serve runs: a failure anywhere leaves neither behind.
CI_TMP=$(mktemp -d /tmp/themis_ci.XXXXXX)
SERVE_PID=
cleanup() {
    [ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$CI_TMP"
}
trap cleanup EXIT

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
# --workspace so member binaries (themis_fuzz, themis_sim, fig1, fig5)
# are built too — the root facade package alone does not pull them in.
cargo build --release --workspace

echo "== tests (tier 1) =="
cargo test -q

echo "== tests (workspace: crate unit tests, harness CLI tests, doctests) =="
cargo test --workspace -q

echo "== perfbench compiles against this tree (check only) =="
cargo check --offline --manifest-path perfbench/Cargo.toml --all-targets

echo "== perfbench smoke (entry point == composition from public pieces) =="
# Reads perfbench/, writes only the ignored perfbench/target.
cargo test --offline --manifest-path perfbench/Cargo.toml --test benchmark_smoke

echo "== tests (sharded engine matrix leg, THEMIS_SHARDS=2) =="
# The harness threads THEMIS_SHARDS into every ExperimentConfig, so this
# reruns the model checker, the oracle e2e suites, and the PFC/failure
# scenarios on the partitioned engine. Sharding is proven bit-identical
# (tests/parallel_equivalence.rs), so identical assertions must pass.
THEMIS_SHARDS=2 cargo test -q \
    --test model_check --test collectives_e2e --test pfc --test dynamic_failure \
    --test scheme_zoo

echo "== docs (rustdoc, warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== conformance fuzz smoke (fixed seed, coverage floor) =="
# Deterministic: the default seed + a fixed budget always explores the
# same fault plans, finds the same coverage features, and grows the same
# corpus — so a failure here is a real protocol regression and the
# printed repro command reproduces it exactly. The --min-features floor
# pins the guided loop's reach: 150 distinct protocol-reaction features
# at budget 200 (the fixed-seed run reaches 162 with rarity-weighted
# parent selection; see tests/fuzz_coverage.rs for the multi-seed
# guided-vs-blind dominance assertion).
./target/release/themis_fuzz --budget 200 --min-features 150

echo "== conformance fuzz smoke (fixed seed, sharded engine) =="
# Same determinism argument, with every case partitioned over 2 shards:
# exercises cross-shard channels, window barriers, and telemetry merge
# under the full fault model.
./target/release/themis_fuzz --budget 25 --shards 2

echo "== conformance fuzz smoke (scheme zoo) =="
# Every pluggable scheme is fuzzable through the same CLI; a bounded
# budget each keeps the zoo honest under faults, not just under the
# clean-run matrix.
for scheme in reps eunomia sprinklers oracle; do
    ./target/release/themis_fuzz --scheme "$scheme" --budget 30
done

echo "== corpus replay (regression suite, serial + sharded) =="
# The checked-in minimized corpus must replay conformant on both
# engines. tests/corpus_replay.rs asserts byte-identical telemetry
# between the two; these legs additionally pin the CLI path end to end.
./target/release/themis_fuzz --replay-corpus tests/corpus
./target/release/themis_fuzz --replay-corpus tests/corpus --shards 2

echo "== open-loop load smoke (churn + eviction cycling, oracle-audited) =="
# A seconds-scale soak of the production traffic engine: heavy-tailed
# multi-tenant jobs with periodic incasts, guarded evict_flow cycling at
# every window boundary, audited by the sliding-window oracle. Exits
# nonzero on any violation. (tests/open_loop_soak.rs carries the
# long-horizon #[ignore] variant at k=16.)
./target/release/themis_load --seed 5 --jobs 200 --tenants 24 \
    --evict-per-window 16 --windows 14

echo "== themis_load determinism (fixed seed, serial + sharded) =="
# Two identical invocations must write byte-identical windowed telemetry,
# and a 2-shard run of the same seed must match them too (the windowed
# slices exclude the run.shards echo by construction).
LOAD_A="$CI_TMP/load_a.json"
LOAD_B="$CI_TMP/load_b.json"
LOAD_C="$CI_TMP/load_c.json"
./target/release/themis_load --seed 11 --windowed-telemetry "$LOAD_A" > /dev/null
./target/release/themis_load --seed 11 --windowed-telemetry "$LOAD_B" > /dev/null
./target/release/themis_load --seed 11 --shards 2 --windowed-telemetry "$LOAD_C" > /dev/null
cmp "$LOAD_A" "$LOAD_B" || { echo "FAIL: themis_load is not run-to-run deterministic"; exit 1; }
cmp "$LOAD_A" "$LOAD_C" || { echo "FAIL: themis_load serial vs --shards 2 diverged"; exit 1; }
echo "OK: windowed telemetry byte-identical across reruns and shard counts"

echo "== sim-as-a-service smoke (themis_serve round trip + restore diff) =="
# Starts the verbs front door, drives a scripted client session that
# checkpoints mid-run, then boots a second server from the checkpoint
# and continues with the same ops: the restored run's telemetry must be
# byte-identical to the uninterrupted one. Both servers must shut down
# cleanly (exit 0) on the client's `shutdown` op.
SRV_DIR="$CI_TMP/serve"
mkdir "$SRV_DIR"
SOCK="$SRV_DIR/serve.sock"
./target/release/themis_serve --socket "$SOCK" --k 4 --seed 7 > "$SRV_DIR/server_a.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: themis_serve did not come up"; exit 1; }
./target/release/themis_serve --connect "$SOCK" > "$SRV_DIR/session_a.out" <<EOF
{"op":"query_fabric"}
{"op":"create_qp","client":"ci-a","src":0,"dst":5}
{"op":"create_qp","client":"ci-b","src":8,"dst":13}
{"op":"post_send","client":"ci-a","qp":0,"bytes":131072}
{"op":"post_send","client":"ci-b","qp":1,"bytes":65536}
{"op":"advance","windows":3}
{"op":"poll_cq","client":"ci-a"}
{"op":"snapshot","path":"$SRV_DIR/checkpoint.json"}
{"op":"post_send","client":"ci-a","qp":0,"bytes":32768}
{"op":"advance","windows":2}
{"op":"telemetry","path":"$SRV_DIR/tel_continuous.json"}
{"op":"shutdown"}
EOF
SRV_RC=0; wait "$SERVE_PID" || SRV_RC=$?
SERVE_PID=
[ "$SRV_RC" -eq 0 ] || { echo "FAIL: server A did not shut down cleanly (rc=$SRV_RC)"; exit 1; }
./target/release/themis_serve --socket "$SOCK" --restore "$SRV_DIR/checkpoint.json" \
    > "$SRV_DIR/server_b.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: restored themis_serve did not come up"; exit 1; }
./target/release/themis_serve --connect "$SOCK" > "$SRV_DIR/session_b.out" <<EOF
{"op":"post_send","client":"ci-a","qp":0,"bytes":32768}
{"op":"advance","windows":2}
{"op":"telemetry","path":"$SRV_DIR/tel_restored.json"}
{"op":"shutdown"}
EOF
SRV_RC=0; wait "$SERVE_PID" || SRV_RC=$?
SERVE_PID=
[ "$SRV_RC" -eq 0 ] || { echo "FAIL: server B did not shut down cleanly (rc=$SRV_RC)"; exit 1; }
cmp "$SRV_DIR/tel_continuous.json" "$SRV_DIR/tel_restored.json" \
    || { echo "FAIL: restored-vs-continuous telemetry diverged"; exit 1; }
echo "OK: restored continuation is byte-identical to the uninterrupted run"

echo "== degenerate-knob usage errors (no panics) =="
# The ISSUE-10 panic sweep: bad knob combinations must exit 2 with a
# usage message, and a run that completes zero jobs must exit 1 with an
# explanation — never a panic/backtrace.
set +e
./target/release/themis_load --jobs 0 > /dev/null 2> "$SRV_DIR/jobs0.err"; RC_JOBS=$?
./target/release/themis_serve --socket "$SOCK" --window-us 0 > /dev/null 2> "$SRV_DIR/win0.err"; RC_WIN=$?
./target/release/themis_load --jobs 2 --windows 1 --window-us 1 --no-require-complete \
    > /dev/null 2> "$SRV_DIR/nocomp.err"; RC_NOCOMP=$?
set -e
[ "$RC_JOBS" -eq 2 ] || { echo "FAIL: themis_load --jobs 0 exited $RC_JOBS, want 2"; exit 1; }
grep -q "jobs" "$SRV_DIR/jobs0.err" || { echo "FAIL: --jobs 0 error message missing"; exit 1; }
[ "$RC_WIN" -eq 2 ] || { echo "FAIL: themis_serve --window-us 0 exited $RC_WIN, want 2"; exit 1; }
[ "$RC_NOCOMP" -eq 1 ] || { echo "FAIL: zero-completion run exited $RC_NOCOMP, want 1"; exit 1; }
grep -q "no completions" "$SRV_DIR/nocomp.err" \
    || { echo "FAIL: zero-completion run must explain itself"; exit 1; }
echo "OK: usage errors and zero-completion runs exit with messages, not panics"

echo "== figure doors (one Regenerate command per paper artefact) =="
FIG_DIR="$CI_TMP/fig"
mkdir "$FIG_DIR"
./target/release/fig1 2 --jobs 2 > /dev/null
./target/release/fig5 allreduce 1 --seed 7 --jobs 1 | grep -v 'worker(s)' > "$FIG_DIR/fig5_serial.out"
./target/release/fig5 allreduce 1 --seed 7 --jobs 2 --shards 2 | grep -v 'worker(s)' > "$FIG_DIR/fig5_par.out"
grep -q 'Themis vs AR improvement range' "$FIG_DIR/fig5_serial.out" \
    || { echo "FAIL: fig5 printed no improvement range"; exit 1; }
cmp "$FIG_DIR/fig5_serial.out" "$FIG_DIR/fig5_par.out" \
    || { echo "FAIL: fig5 --jobs 2 --shards 2 differs from the serial run"; exit 1; }
./target/release/themis_sim memory > "$FIG_DIR/table1.out"
grep -q '^M_total   = 192512 B' "$FIG_DIR/table1.out" \
    || { echo "FAIL: themis_sim memory is off the Table 1 reference (192512 B)"; exit 1; }
cargo run --release --quiet --example ablations -- 1 > /dev/null
echo "OK: fig1, fig5 (serial == --jobs 2 --shards 2), Table 1 and the ablations regenerate"

echo "== perfbench floors (vs the last line of perfbench/BENCH_history.jsonl) =="
# check_floor NAME CURRENT BASELINE lower|upper FACTOR (bound = FACTOR x BASELINE)
check_floor() {
    if [ -z "$2" ] || [ -z "$3" ]; then
        echo "FAIL: could not read $1 (baseline='$3', current='$2')"
        exit 1
    fi
    awk -v n="$1" -v c="$2" -v b="$3" -v side="$4" -v f="$5" 'BEGIN {
        lim = f * b
        bad = (side == "lower") ? c < lim : c > lim
        printf "%s: %s = %g, %s bound %g (%g x baseline %g)\n", bad ? "FAIL" : "OK", n, c, side, lim, f, b
        exit bad
    }'
}
# A gate that cannot fail is no gate: each side must reject a bad pair.
( check_floor selfcheck 69 100 lower 0.70 ) > /dev/null && { echo "FAIL: check_floor passed 69 < 0.70 x 100"; exit 1; }
( check_floor selfcheck 151 100 upper 1.5 ) > /dev/null && { echo "FAIL: check_floor passed 151 > 1.5 x 100"; exit 1; }

hist() { # hist KEY...: that path into the last line of the history file
    tail -n 1 perfbench/BENCH_history.jsonl | python3 -c 'import functools, json, sys
print(functools.reduce(lambda v, k: v[k], sys.argv[1:], json.load(sys.stdin)))' "$@" || true
}
metric() { # metric NAME: its value in the `NAME = value unit` lines of $BENCH_OUT
    awk -v m="$1" '$1 == m && $2 == "=" {print $3}' "$BENCH_OUT"
}
mapfile -t BENCH_CMD < <(python3 -c 'import json
print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
BENCH_SEED=$(hist seed)
BENCH_OUT="$CI_TMP/perfbench.out"
run_workload() { # run_workload NAME SECONDS TRACE: exit 1 covers correct:false
    "${BENCH_CMD[@]}" --workload "$1" --seed "$BENCH_SEED" --seconds "$2" --trace "$3" > "$BENCH_OUT" \
        && tail -n 1 "$BENCH_OUT" | grep -q '^{"correct":true' \
        || { grep '^# FAILED' "$BENCH_OUT" || true; echo "FAIL: perfbench $1 --trace $3 (non-zero exit or correct:false)"; exit 1; }
}

for w in ring8_spray alltoall256_themis allreduce256_lossy openloop1024; do
    base=$(hist workloads "$w" end_to_end payload_mb_per_s)
    run_workload "$w" 2 0
    # A 2 s run is the faster of 1-2 reps and the host has slow stretches
    # (ring8_spray: 522 once, 650-700 usually), so a miss is re-run once.
    ( check_floor "$w" "$(metric payload_mb_per_s)" "$base" lower 0.70 ) > /dev/null \
        || { echo "note: $w payload_mb_per_s below its floor once, re-running"; run_workload "$w" 2 0; }
    check_floor "$w payload_mb_per_s" "$(metric payload_mb_per_s)" "$base" lower 0.70
done
# Still openloop1024's output: the 1024-host run must not get hungrier.
check_floor "openloop1024 peak_rss_mb" "$(metric peak_rss_mb)" \
    "$(hist workloads openloop1024 end_to_end peak_rss_mb)" upper 1.5
run_workload serve_session 2 0
echo "OK: serve_session correct (no throughput floor, see header)"

# Two kernels no end-to-end number isolates: the per-window merge the
# sharded engine adds and the event queue at 100 k resident. 1.43 = 1 / 0.70.
run_workload ring8_spray 1 1
for k in telemetry.merge_ns_per_event simcore.hold_ns_p100k; do
    check_floor "$k" "$(metric "$k")" "$(hist workloads ring8_spray per_layer "$k")" upper 1.43
done
# The JSON parse must stay linear: a 256 KB reply parses at no less than
# half the MB/s of a 1 KB one (a per-character re-validation read 0.31
# against 85).
check_floor "json parse 256k vs 1k" "$(metric harness.json.parse_mb_per_s_256k)" \
    "$(metric harness.json.parse_mb_per_s_1k)" lower 0.5
# The event queue must stay population-insensitive: a hold at 100 k
# resident costs at most 2.5 x one at 1 k (5 x before the ns slots, 1.5 x
# after them, under 1 x since windows are sorted once). A miss is re-run
# once, as the workload floors are.
( check_floor "queue hold 100k vs 1k" "$(metric simcore.hold_ns_p100k)" \
    "$(metric simcore.hold_ns_p1k)" upper 2.5 ) > /dev/null \
    || { echo "note: queue hold 100k vs 1k above its bound once, re-running"; run_workload ring8_spray 1 1; }
check_floor "queue hold 100k vs 1k" "$(metric simcore.hold_ns_p100k)" \
    "$(metric simcore.hold_ns_p1k)" upper 2.5

echo "== ci.sh passed =="

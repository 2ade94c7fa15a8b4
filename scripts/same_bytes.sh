#!/usr/bin/env bash
# Byte-identity check of this working tree against a base revision.
#
#   scripts/same_bytes.sh REV
#
# Exports REV (`git archive`, so .git gains no worktree entry) into a
# temporary directory and builds its harness binaries there, offline,
# with their own target dir; builds this working tree's binaries in the
# usual ./target. Runs one fixed command list with each set of
# binaries, each set in its own output directory, then `cmp`s every
# written document pairwise: telemetry / windowed-telemetry JSON, the
# serve checkpoint, and each command's stdout with the wall-clock field
# (`N.NNs wall (… events/s)`) masked. Exits 0 when every file matches,
# 1 naming the first file that differs.
#
# The command list covers every door and both engines:
#   fig1 2                                  (leaf-spine, spray vs ideal)
#   fig5 alltoall 1, serial and --jobs 2 --shards 2
#   themis_sim collective on the motivation fabric, one run per scheme
#     that changes the NIC or the ToR (themis, reps, eunomia, sprinklers,
#     oracle)
#   themis_load --seed 11, serial and --shards 2 (k=4 fat-tree)
#   the scripted themis_serve session of scripts/ci.sh
#
# A full cold build of REV takes a few minutes. The temporary directory
# lives under $TMPDIR (default /tmp) and is removed on exit, as is a
# still-running themis_serve.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
REV=$1
cd "$(dirname "$0")/.."
ROOT=$PWD
git rev-parse --verify --quiet "$REV^{commit}" > /dev/null \
    || { echo "error: $REV is not a commit" >&2; exit 2; }

TMP=$(mktemp -d -t themis_same_bytes.XXXXXX)
SERVE_PID=
cleanup() {
    [ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== build $REV (exported to $TMP/base) =="
mkdir "$TMP/base"
git archive "$REV" | tar -x -C "$TMP/base"
CARGO_TARGET_DIR="$TMP/base-target" cargo build --release --offline -q \
    --manifest-path "$TMP/base/Cargo.toml" -p themis-harness --bins
echo "== build working tree =="
cargo build --release --offline -q -p themis-harness --bins

# Stdout minus the one wall-clock field, into file $1.
mask() { sed -E 's/[0-9.]+s wall \([^)]*\)/<wall>/' > "$1"; }

# run_all BIN_DIR OUT_DIR: the fixed command list, every document
# written under OUT_DIR with the same relative names on both sides.
run_all() {
    local bin=$1 out=$2
    mkdir -p "$out"
    cd "$out"
    "$bin/fig1" 2 --telemetry fig1.json | mask fig1.out
    "$bin/fig5" alltoall 1 --telemetry fig5.json | mask fig5.out
    "$bin/fig5" alltoall 1 --jobs 2 --shards 2 --telemetry fig5_par.json \
        | mask fig5_par.out
    for scheme in themis reps eunomia sprinklers oracle; do
        "$bin/themis_sim" collective --fabric motivation --collective alltoall \
            --mb 2 --scheme "$scheme" --telemetry "sim_$scheme.json" \
            | mask "sim_$scheme.out"
    done
    "$bin/themis_load" --seed 11 --windowed-telemetry load_win.json \
        --telemetry load.json | mask load.out
    "$bin/themis_load" --seed 11 --shards 2 --windowed-telemetry load2_win.json \
        --telemetry load2.json | mask load2.out

    "$bin/themis_serve" --socket serve.sock --k 4 --seed 7 > serve_server.out &
    SERVE_PID=$!
    for _ in $(seq 1 100); do [ -S serve.sock ] && break; sleep 0.1; done
    [ -S serve.sock ] || { echo "error: themis_serve did not come up" >&2; exit 1; }
    "$bin/themis_serve" --connect serve.sock > serve_session.out <<'EOF'
{"op":"query_fabric"}
{"op":"create_qp","client":"ci-a","src":0,"dst":5}
{"op":"create_qp","client":"ci-b","src":8,"dst":13}
{"op":"post_send","client":"ci-a","qp":0,"bytes":131072}
{"op":"post_send","client":"ci-b","qp":1,"bytes":65536}
{"op":"advance","windows":3}
{"op":"poll_cq","client":"ci-a"}
{"op":"snapshot","path":"serve_checkpoint.json"}
{"op":"post_send","client":"ci-a","qp":0,"bytes":32768}
{"op":"advance","windows":2}
{"op":"telemetry","path":"serve_telemetry.json"}
{"op":"shutdown"}
EOF
    wait "$SERVE_PID"
    SERVE_PID=
    cd "$ROOT"
}

echo "== run $REV =="
run_all "$TMP/base-target/release" "$TMP/out_base"
echo "== run working tree =="
run_all "$ROOT/target/release" "$TMP/out_tree"

n=0
for f in $(cd "$TMP/out_base" && ls | sort); do
    [ -f "$TMP/out_tree/$f" ] || { echo "DIFFERS: $f (missing in working tree)"; exit 1; }
    cmp -s "$TMP/out_base/$f" "$TMP/out_tree/$f" || { echo "DIFFERS: $f"; exit 1; }
    n=$((n + 1))
done
echo "OK: $n documents byte-identical to $REV"

#!/usr/bin/env bash
# Same-host paired timing of this working tree against a base revision.
#
#   scripts/same_speed.sh [--pairs N] [--seconds S] [--seed N]
#                         [--workloads A,B,...] [--metric NAME]... REV
#
# Absolute benchmark numbers taken on different days or hosts do not
# compare; pairs taken back to back on one host do. The script exports
# REV (`git archive`, so .git gains no worktree entry) into
# target/same_speed/<sha> and builds its perfbench there, in the
# export's own perfbench/target; an export is written once, so a second
# call against the same REV reuses its build. It builds this working
# tree's perfbench in the usual perfbench/target. Each side is built
# once, before any run, and every sample runs that side's built
# perfbench/target/release/themis_benchmark directly (with the
# arguments that follow `--` in BENCHMARK.json's command), so a source
# edit made while the script runs cannot rebuild a side between pairs.
# Each side runs from its own root, so perfbench's socket paths stay
# short and relative. Then, per workload (default: all of
# BENCHMARK.json's), it runs N pairs (default 5) with `--seed`
# (default 1) and `--seconds` (default 2), one run of REV and one of
# the tree per pair, swapping which side goes first on every pair.
#
# Output: one line per workload and metric,
#   WORKLOAD METRIC  base MEDIAN [Q1 Q3]  tree MEDIAN [Q1 Q3]  ratio R  wins K/N
# where the ratio is tree median / base median and a win is a pair in
# which the tree's value is better (BENCHMARK.json says which direction
# is better). The end-to-end metrics come from `--trace 0` pairs; each
# `--metric NAME` (repeatable) adds `--trace 1` pairs and a line for
# that per-layer metric.
#
# Exit 1 when a run fails (non-zero exit or `correct:false`), or when a
# workload's median `run_s` ratio exceeds 1 + BENCHMARK.json's run_s
# bound (0.25) and the tree lost at least 4/5 of the pairs: a slowdown
# that is both large and consistent. Exit 2 on a usage error.
set -euo pipefail
usage() {
    sed -n '4,5p' "$0" | sed 's/^# *//' >&2
    exit 2
}
PAIRS=5 SECONDS_PER_RUN=2 SEED=1 WORKLOADS= METRICS=()
while [ $# -gt 1 ]; do
    case $1 in
        --pairs) PAIRS=$2 ;;
        --seconds) SECONDS_PER_RUN=$2 ;;
        --seed) SEED=$2 ;;
        --workloads) WORKLOADS=$2 ;;
        --metric) METRICS+=("$2") ;;
        *) usage ;;
    esac
    shift 2
done
[ $# -eq 1 ] && [ "${1#-}" = "$1" ] || usage
[[ $PAIRS =~ ^[1-9][0-9]*$ ]] || usage
REV=$1
cd "$(dirname "$0")/.."
ROOT=$PWD
SHA=$(git rev-parse --verify --quiet "$REV^{commit}") \
    || { echo "error: $REV is not a commit" >&2; exit 2; }

# The benchmark's own arguments: what follows `--` in BENCHMARK.json's
# command (the part before it is the cargo invocation build() replaces).
mapfile -t BENCH_ARGS < <(python3 -c 'import json
cmd = json.load(open("BENCHMARK.json"))["command"]
for arg in cmd[cmd.index("--") + 1:]:
    print(arg)')
[ -n "$WORKLOADS" ] || WORKLOADS=$(python3 -c 'import json
print(",".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

BASE=$ROOT/target/same_speed/$SHA
if [ ! -d "$BASE" ]; then
    rm -rf "$BASE.part" && mkdir -p "$BASE.part"
    git archive "$SHA" | tar -x -C "$BASE.part"
    mv "$BASE.part" "$BASE"
fi
# build DIR: that checkout's perfbench, into DIR/perfbench/target.
build() {
    ( cd "$1" && CARGO_TARGET_DIR=perfbench/target cargo build --release --quiet --offline \
        --manifest-path perfbench/Cargo.toml --bin themis_benchmark )
}
echo "== build $REV ($SHA) =="
build "$BASE"
echo "== build working tree =="
build "$ROOT"

OUT=$(mktemp -d -t themis_same_speed.XXXXXX)
trap 'rm -rf "$OUT"' EXIT

# run SIDE WORKLOAD TRACE PAIR: one run of SIDE's (base|tree) built
# benchmark, its stdout kept as $OUT/SIDE.WORKLOAD.tTRACE.PAIR (stderr
# beside it, .err).
run() {
    local side=$1 w=$2 trace=$3 pair=$4 dir=$ROOT
    [ "$side" = tree ] || dir=$BASE
    local out="$OUT/$side.$w.t$trace.$pair"
    ( cd "$dir" && perfbench/target/release/themis_benchmark "${BENCH_ARGS[@]}" \
        --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$trace" ) \
        > "$out" 2> "$out.err" && tail -n 1 "$out" | grep -q '^{"correct":true' \
        || { echo "FAIL: $side $w --trace $trace pair $pair:"; tail -n 5 "$out" "$out.err"; touch "$OUT/failed"; }
}

# pairs WORKLOAD TRACE: N pairs, the first side alternating.
pairs() {
    for ((p = 0; p < PAIRS; p++)); do
        if ((p % 2 == 0)); then
            run base "$1" "$2" "$p"; run tree "$1" "$2" "$p"
        else
            run tree "$1" "$2" "$p"; run base "$1" "$2" "$p"
        fi
    done
}

echo "== $PAIRS pairs per workload, --seed $SEED --seconds $SECONDS_PER_RUN =="
IFS=, read -ra WLIST <<< "$WORKLOADS"
for w in "${WLIST[@]}"; do
    pairs "$w" 0
    [ ${#METRICS[@]} -eq 0 ] || pairs "$w" 1
done

RC=0
python3 - "$OUT" "$PAIRS" "$WORKLOADS" "${METRICS[@]}" <<'EOF' || RC=$?
import json, statistics, sys
out, n, workloads, extra = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(","), sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}["run_s"]

def value(side, w, trace, pair, metric):
    try:
        for line in open(f"{out}/{side}.{w}.t{trace}.{pair}"):
            f = line.split()
            if len(f) >= 3 and f[0] == metric and f[1] == "=":
                return float(f[2])
    except OSError:
        pass
    return None

def spread(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return f"{statistics.median(xs):10.4g} [{q[0]:.4g} {q[2]:.4g}]"

slow = []
for w in workloads:
    rows = [(m, 0) for m in ("setup_s", "run_s", "payload_mb_per_s", "peak_rss_mb")]
    rows += [(m, 1) for m in extra]
    for metric, trace in rows:
        got = [(value("base", w, trace, p, metric), value("tree", w, trace, p, metric)) for p in range(n)]
        got = [(b, t) for b, t in got if b is not None and t is not None]
        if not got:
            print(f"{w:20} {metric:28} no values")
            continue
        base, tree = [b for b, _ in got], [t for _, t in got]
        up = better.get(metric, "lower") == "higher"
        wins = sum((t > b) if up else (t < b) for b, t in got)
        ratio = statistics.median(tree) / statistics.median(base) if statistics.median(base) else float("nan")
        print(f"{w:20} {metric:28} base {spread(base)}  tree {spread(tree)}  "
              f"ratio {ratio:.3f}  wins {wins}/{len(got)}")
        lost = len(got) - wins
        if metric == "run_s" and ratio > 1 + bound and 5 * lost >= 4 * len(got):
            slow.append(f"{w}: run_s ratio {ratio:.3f} > {1 + bound}, lost {lost}/{len(got)} pairs")
for s in slow:
    print(f"SLOWER: {s}")
sys.exit(1 if slow else 0)
EOF
[ ! -e "$OUT/failed" ] || { echo "FAIL: some runs failed (see above)"; exit 1; }
exit $RC

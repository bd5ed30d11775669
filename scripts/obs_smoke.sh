#!/usr/bin/env bash
# Observability smoke: the obs plane's three exits, end to end against
# the release binaries.
#
#   1. Daemon introspection: run the load generator against a fresh
#      daemon (with --metrics-interval on) and fetch the `stats` op via
#      --stats-json. The response must carry the documented keys and
#      nonzero drain counters.
#   2. Self-profiler: run a small fig8 with --observe DIR. The trace and
#      metrics files must be non-empty, and so must the folded profile;
#      every frame name must be in the scripts/obs_allowlist.txt span
#      registry, and each phase's inclusive time must fit inside the
#      total job time.
#   3. Overhead: re-run the microbench suite and require the
#      span-instrumented malc workload within 5% of the uninstrumented
#      one (the disabled-plane cost contract). The suite times the two
#      interleaved in one process (`timing::bench_pair`: batches A, B,
#      then B, A, ...) and records the median of the per-round B/A
#      ratios as `pair_ratio`, so a host-speed swing hits both sides
#      alike and neither side always runs first.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVED=./target/release/liteworp-served
LOAD=./target/release/liteworp-load
FIG8=./target/release/fig8
TMP=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "==> obs smoke 1: live daemon stats via the JSONL protocol"
"$SERVED" --addr 127.0.0.1:0 --state-dir "$TMP/state" --metrics-interval 0.2 \
    >"$TMP/daemon.out" 2>"$TMP/daemon.err" &
DAEMON_PID=$!
ADDR=""
for _ in $(seq 1 200); do
    ADDR=$(sed -n 's/^listening on //p' "$TMP/daemon.out" | head -n 1)
    [ -n "$ADDR" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "daemon died on startup:" >&2
        cat "$TMP/daemon.out" "$TMP/daemon.err" >&2
        exit 1
    }
    sleep 0.05
done
[ -n "$ADDR" ] || { echo "daemon never announced its address" >&2; exit 1; }

"$LOAD" --addr "$ADDR" --requests 40 --connections 4 --seed 42 \
    --digests "$TMP/digests.txt" --stats-json "$TMP/stats.json" --shutdown || {
    echo "load generator failed" >&2
    exit 1
}
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

[ -s "$TMP/stats.json" ] || { echo "stats op wrote nothing" >&2; exit 1; }
for key in uptime_ms queue_depth drainers active_drains requests jobs \
    wal_bytes phase_latency_us metrics; do
    grep -q "\"$key\"" "$TMP/stats.json" || {
        echo "stats response missing \"$key\":" >&2
        cat "$TMP/stats.json" >&2
        exit 1
    }
done
# The drain counters must reflect the traffic just served: every distinct
# spec reached done, jobs actually executed, and the request/sweep spans
# fed the per-phase latency histograms.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$TMP/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
assert stats["requests"]["done"] >= 24, stats["requests"]
assert stats["jobs"]["total"] >= 24, stats["jobs"]
assert stats["phase_latency_us"]["sweep"]["count"] >= 1, stats["phase_latency_us"]
EOF
else
    # No python3: at least require a nonzero done counter in the text.
    if grep -q '"done":0[,}]' "$TMP/stats.json"; then
        echo "stats reports zero drained requests:" >&2
        cat "$TMP/stats.json" >&2
        exit 1
    fi
fi
echo "    stats OK: $(head -c 200 "$TMP/stats.json")..."

echo "==> obs smoke 2: --observe files and folded self-profile from a small fig8 run"
"$FIG8" --nodes 40 --seeds 2 --duration 200 --sample 100 --no-cache \
    --observe "$TMP/obs" >/dev/null 2>"$TMP/fig8.err" || {
    echo "fig8 run failed:" >&2
    cat "$TMP/fig8.err" >&2
    exit 1
}
for f in trace.jsonl metrics.json profile.folded; do
    [ -s "$TMP/obs/$f" ] || { echo "--observe wrote no $f" >&2; exit 1; }
done

# Every frame name in the profile must be a registered span name.
awk '{sub(/ [0-9]+$/, ""); gsub(/;/, "\n"); print}' "$TMP/obs/profile.folded" \
    | sort -u > "$TMP/frames.txt"
if comm -23 "$TMP/frames.txt" scripts/obs_allowlist.txt | grep -q .; then
    echo "unregistered frame name(s) in the folded profile:" >&2
    comm -23 "$TMP/frames.txt" scripts/obs_allowlist.txt >&2
    exit 1
fi
echo "    frame names OK: $(paste -sd, "$TMP/frames.txt")"

# Per-phase inclusive time (prefix sums of self time) must fit inside
# the total time spent under job stacks.
awk '
    {
        count = $NF
        stack = $0
        sub(/ [0-9]+$/, "", stack)
        n = split(stack, frames, ";")
        if (frames[1] == "job") total += count
        for (i = 1; i <= n; i++) {
            prefix = frames[1]
            for (j = 2; j <= i; j++) prefix = prefix ";" frames[j]
            inclusive[prefix] += count
        }
    }
    END {
        if (total <= 0) { print "no job stacks in profile" > "/dev/stderr"; exit 1 }
        for (p in inclusive) {
            if (index(p, "job;") == 1 && inclusive[p] > total) {
                printf "phase %s inclusive %d us exceeds job total %d us\n", \
                    p, inclusive[p], total > "/dev/stderr"
                exit 1
            }
        }
        printf "    phase totals OK: job=%d us across %d stacks\n", total, NR
    }
' "$TMP/obs/profile.folded"

echo "==> obs smoke 3: disabled-plane overhead within 5% (interleaved pair)"
LITEWORP_BENCH_DIR="$TMP/bench" cargo bench -p liteworp-bench --bench microbench \
    --offline >/dev/null 2>&1
plain=$(sed -n 's/.*"value":\([0-9.eE+-]*\).*/\1/p' "$TMP/bench/BENCH_malc_update_windowed.json")
spanned=$(sed -n 's/.*"value":\([0-9.eE+-]*\).*/\1/p' "$TMP/bench/BENCH_malc_update_windowed_spanned.json")
ratio=$(sed -n 's/.*"pair_ratio":\([0-9.eE+-]*\).*/\1/p' "$TMP/bench/BENCH_malc_update_windowed_spanned.json")
[ -n "$ratio" ] || { echo "spanned malc record carries no pair_ratio" >&2; exit 1; }
awk -v plain="$plain" -v spanned="$spanned" -v ratio="$ratio" 'BEGIN {
    printf "    malc/update/windowed %.1f ns, spanned %.1f ns, median pair ratio %.3f\n", plain, spanned, ratio
    if (ratio > 1.05) {
        print "disabled-plane span overhead exceeds 5%" > "/dev/stderr"
        exit 1
    }
}'

echo "obs smoke OK"

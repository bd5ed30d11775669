#!/usr/bin/env bash
# Scale smoke: one 10 000-node wormhole run (scale_sweep --smoke) under a
# wall-clock budget, digest-checked.
#
# Five failure modes are gated here:
#
#   * Correctness at scale — scale_sweep itself exits nonzero when the
#     simulated detection rate or the measured guard coverage violates
#     the closed-form CI bounds.
#   * Determinism at scale — the runner's order-sensitive results digest
#     over the seed outcomes must equal the pinned value below; any
#     divergence in the spatially indexed simulator (grid query order, a
#     lost (time, seq) tie-break) changes it.
#   * Asymptotics — the run must finish within SCALE_SMOKE_BUDGET_SECS
#     (default 30 s; ~1 s on a 2-vCPU Xeon VM). An accidentally
#     quadratic hot path or a lost spatial index turns a 10⁴-node run
#     from about a second into minutes, which this budget catches long
#     before the 10⁵ acceptance run would.
#   * Memory — the smoke process's peak resident set (the
#     "scale smoke: VmHWM N kB" line scale_sweep prints where
#     /proc/self/status exists) must stay within 1.3x PINNED_VMHWM_KB.
#     The smoke is a fresh process that drops no earlier build, so its
#     peak moves with what a deployment stores, not with allocator
#     history. Skipped where no VmHWM line is printed.
#   * Lazy nodes — the number of nodes the run built (the
#     "scale smoke: nodes built N" line) must equal PINNED_NODES_BUILT.
#     Idle relays are built only at their first event; a new reader
#     that builds every node (a sweep of `Simulator::logic`) raises the
#     count and fails here instead of silently building all 10 000.
#
# When a simulator behavior change is intentional, re-pin: run
# `./target/release/scale_sweep --smoke --no-cache`, copy the digest from
# the "runner:" line into PINNED_DIGEST, the kB figure from the
# "scale smoke: VmHWM" line into PINNED_VMHWM_KB, and the count from the
# "scale smoke: nodes built" line into PINNED_NODES_BUILT.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${SCALE_SMOKE_BUDGET_SECS:-30}"
PINNED_DIGEST="31bb22e637c95e38"
PINNED_VMHWM_KB="25568"
PINNED_NODES_BUILT="8318"

cargo build --release --offline -q -p liteworp-bench --bin scale_sweep

SECONDS=0
out="$(./target/release/scale_sweep --smoke --no-cache 2>&1)" || {
    printf '%s\n' "$out"
    echo "scale smoke: FAIL — scale_sweep exited nonzero (closed-form bound violation or crash)"
    exit 1
}
elapsed="$SECONDS"
printf '%s\n' "$out"

digest="$(printf '%s\n' "$out" | sed -n 's/.*digest=\([0-9a-f]\{16\}\).*/\1/p' | head -n 1)"
if [ -z "$digest" ]; then
    echo "scale smoke: FAIL — no results digest in output"
    exit 1
fi
if [ "$digest" != "$PINNED_DIGEST" ]; then
    echo "scale smoke: FAIL — results digest $digest != pinned $PINNED_DIGEST"
    echo "  (simulator behavior changed at scale; if intentional, re-pin per the header comment)"
    exit 1
fi

built="$(printf '%s\n' "$out" | sed -n 's/^scale smoke: nodes built \([0-9]*\)$/\1/p' | head -n 1)"
if [ "$built" != "$PINNED_NODES_BUILT" ]; then
    echo "scale smoke: FAIL — ${built:-no} nodes built != pinned $PINNED_NODES_BUILT"
    echo "  (lazy relays were built by a reader, or the run changed; if intentional, re-pin per the header comment)"
    exit 1
fi

vmhwm_kb="$(printf '%s\n' "$out" | sed -n 's/^scale smoke: VmHWM \([0-9]*\) kB$/\1/p' | head -n 1)"
if [ -n "$vmhwm_kb" ]; then
    limit_kb=$(( PINNED_VMHWM_KB * 13 / 10 ))
    if [ "$vmhwm_kb" -gt "$limit_kb" ]; then
        echo "scale smoke: FAIL — peak RSS ${vmhwm_kb} kB exceeds 1.3x pinned ${PINNED_VMHWM_KB} kB (${limit_kb} kB)"
        echo "  (a deployment's memory grew; if intentional, re-pin per the header comment)"
        exit 1
    fi
fi

if [ "$elapsed" -gt "$BUDGET" ]; then
    echo "scale smoke: FAIL — ${elapsed}s exceeds the ${BUDGET}s budget"
    exit 1
fi

echo "scale smoke: OK (digest $digest, $built nodes built, ${elapsed}s within ${BUDGET}s budget, peak RSS ${vmhwm_kb:-unmeasured} kB)"

#!/usr/bin/env bash
# Repo CI entry point: everything must pass offline (the workspace has no
# external dependencies, so --offline is a guarantee, not an optimization).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline, whole workspace)"
# --workspace matters here too: a bare build covers only the root
# package, leaving member binaries (lint, chaos_fuzz, the figure CLIs,
# liteworp-served, liteworp-load) unbuilt for the gates below.
cargo build --release --workspace --offline

echo "==> cargo test (offline, whole workspace)"
# --workspace matters: the root manifest is both the workspace and the
# liteworp-repro package, so a bare `cargo test` would cover only the
# root package's integration tests and skip every member crate's suites
# (including the lint engine's fixture corpus).
cargo test --workspace --offline -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> lint (determinism / panic-hygiene / lock-discipline / structure gate)"
# The thread-chunked scan keeps the whole-workspace pass cheap even with
# the call-graph families; hold it to a wall-clock budget so an
# accidentally quadratic rule (or a lost parallel phase) fails CI
# instead of silently eating minutes. Override with LINT_BUDGET_SECS.
LINT_BUDGET_SECS="${LINT_BUDGET_SECS:-30}"
lint_start_ns=$(date +%s%N)
./target/release/lint --root .
lint_elapsed_ms=$(( ($(date +%s%N) - lint_start_ns) / 1000000 ))
echo "lint: whole-workspace scan in ${lint_elapsed_ms} ms (budget ${LINT_BUDGET_SECS}s)"
if [ "$lint_elapsed_ms" -gt $(( LINT_BUDGET_SECS * 1000 )) ]; then
    echo "lint: scan blew the ${LINT_BUDGET_SECS}s wall-clock budget" >&2
    exit 1
fi

echo "==> cargo clippy (whole workspace, all targets, warnings are errors)"
# --workspace for the same reason as build and test: without it only
# the root package is linted and documented.
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (whole workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "==> bench regression gate (runs the release benches, compares baselines)"
./scripts/bench_gate.sh

echo "==> scale smoke (10k-node wormhole run: bounds, digest, wall budget)"
./scripts/scale_smoke.sh

echo "==> chaos_fuzz smoke (fixed-seed fault-injection gate)"
./target/release/chaos_fuzz --smoke --no-cache

echo "==> resilience smoke (resume / deterministic retries / cache self-heal)"
./scripts/resilience_smoke.sh

echo "==> served smoke (daemon + load generator drain determinism)"
./scripts/served_smoke.sh

echo "==> shard smoke (front + workers, kill -9 mid-sweep, digest identity)"
./scripts/shard_smoke.sh

echo "==> obs smoke (daemon stats op, folded self-profile, span overhead)"
./scripts/obs_smoke.sh

echo "CI OK"

#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest      # the benchmark's own tests

Run it from the repository root. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`); caches, journals and daemon state go to
`.bench_tmp` and are removed as the run goes.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
ENV = dict(os.environ, CARGO_TARGET_DIR=TARGET)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def cargo(*args):
    """Runs cargo from the repository root; exits with its code on failure."""
    code = subprocess.run(["cargo", *args], cwd=ROOT, env=ENV, stdout=sys.stderr).returncode
    if code != 0:
        sys.exit(code)


def main():
    cargo("build", "--release", "--offline", "-q", "--manifest-path", MANIFEST)
    # The front probe of the traced served_mix spawns the repository's own
    # daemon binary as its workers.
    cargo("build", "--release", "--offline", "-q", "-p", "liteworp-served", "--bin", "liteworp-served")
    served = os.path.join(TARGET, "release", "liteworp-served")
    if sys.argv[1:] == ["--selftest"]:
        ENV["PERFBENCH_SERVED_BIN"] = served
        cargo("test", "--release", "--offline", "--manifest-path", MANIFEST)
        return
    exe = os.path.join(TARGET, "release", "perfbench")
    tmp = os.path.join(ROOT, ".bench_tmp")
    args = [exe, *sys.argv[1:], "--served-bin", served, "--tmp", tmp]
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload detect --seed 1 --seconds 20 --trace 0

Builds perfbench/bench.exe from the checkout's sources with dune, runs it
and forwards its report. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.

With --trace 0 set-up is measured in seven processes: three that only
set up, the measuring one, then three more that only set up. setup_s is
the median of the seven. Spreading them over the run keeps a brief slow
stretch of the host from setting it; a stretch as long as the run still
does. Exits with 1, printing no result, when the checkout or the build
is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "bench.exe"
SETUPS_EACH_SIDE = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not (ROOT / need).exists():
            fail(f"{need} is missing; run from a checkout of the whole repository")
    # DUNE_CACHE=disabled keeps every build artifact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", str(ROOT), "--profile", "release",
           "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if r.returncode != 0 or not EXE.exists():
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def run_exe(args):
    """Runs bench.exe; returns its stdout lines and its last line as JSON."""
    t0 = time.time()
    try:
        r = subprocess.run([str(EXE), *args, "--t0", repr(t0)], cwd=ROOT,
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench.exe {' '.join(args)} timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"bench.exe {' '.join(args)} exited with {r.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"bench.exe printed no result: {lines[-1]!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["detect", "migrate", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    side = SETUPS_EACH_SIDE if a.trace == 0 else 0

    def setup_only():
        return [run_exe([*common, "--setup-only"])[1] for _ in range(side)]

    before = setup_only()
    lines, result = run_exe([*common, "--trace", str(a.trace)])
    for line in lines:
        print(line)
    samples = before + setup_only()
    if a.trace == 0:
        setups = [s["setup_s"] for s in samples] + [result["metrics"]["setup_s"]["value"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["correct"] = result["correct"] and all(s["correct"] for s in samples)
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

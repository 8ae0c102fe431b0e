#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 perfbench/steady.py

Runs two sets of RUNS runs of each workload in BENCHMARK.json, at seeds
1, 1001, 2001, ... and alternating the sets run by run, so a slow
stretch of the host falls on both. For every
end-to-end metric it prints each set's median and the distance between
its first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json, and how far the second median lies
from the first. Then it runs each workload once at a held-out seed.

Exits with 1 if a unit check fails, if a spread exceeds its bound, or
if the two medians differ by more than the bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEEDS = [1 + 1000 * i for i in range(RUNS)]
HELD_OUT_SEED = 7919


def run(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit(f"{' '.join(cmd)} exited with {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def passed(r):
    return r["correct"] and r["failed"] == 0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    for w in names:
        sets = ([], [])
        for i, seed in enumerate(SEEDS):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[k].append(run(spec, w, seed))
        for m in spec["end_to_end"]:
            line = f"{w:8} {m['name']:17}"
            medians = []
            for results in sets:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                s, med = spread(values)
                medians.append(med)
                ok = ok and s <= m["bound"]
                line += (f" | median {med:11.4f} spread {100 * s:5.1f}%"
                         f" {'ok' if s <= m['bound'] / 3 else 'near' if s <= m['bound'] else 'NOISY'}")
            moved = abs(medians[1] - medians[0]) / medians[0]
            ok = ok and moved <= m["bound"]
            print(f"{line} | moved {100 * moved:5.1f}% bound {100 * m['bound']:.0f}%", flush=True)
        attempted = sum(r["attempted"] for s in sets for r in s)
        failed = sum(r["failed"] for s in sets for r in s)
        ok = ok and all(passed(r) for s in sets for r in s)
        print(f"{w:8} fail_ratio {failed}/{attempted}", flush=True)
    for w in names:
        r = run(spec, w, HELD_OUT_SEED)
        ok = ok and passed(r)
        print(f"{w:8} held-out seed {HELD_OUT_SEED}: fail_ratio {r['failed']}/{r['attempted']} "
              f"{'ok' if passed(r) else 'FAILED'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

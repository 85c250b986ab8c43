#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Checks that the seed is a command argument, that the same seed gives the
same schedule digest and a different seed a different one, and that two
traced runs with the same seed report identical per-layer counts. Run it
from the root of the repository:

    python3 flexbench/selftest.py [workload ...]

It builds the benchmark with cargo, runs each workload's traced replay
three times (seed 7, seed 7, seed 8) and exits non-zero on any mismatch.
"""

import json
import re
import subprocess
import sys

WORKLOADS = ["serve_hot", "serve_cold", "ingest"]

# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNTS = [
    "serve.plan_miss_ratio",
    "serve.result_hit_ratio",
    "ir.rows_out.point",
    "ir.rows_out.hop",
    "ir.rows_out.fraud",
    "gart.wal_writes_per_commit",
    "gart.wal_bytes_per_commit",
    "grape.bfs_push_steps",
    "grape.bfs_pull_steps",
]

CMD = ["cargo", "run", "--release", "--quiet", "--offline",
       "--manifest-path", "flexbench/Cargo.toml", "--"]


def traced(workload, seed):
    p = subprocess.run(
        CMD + ["--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    digest = re.search(r"schedule_digest=(0x[0-9a-f]+)", p.stderr).group(1)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    return digest, result


def main():
    failures = 0
    for w in sys.argv[1:] or WORKLOADS:
        d1, r1 = traced(w, 7)
        d2, r2 = traced(w, 7)
        d3, _ = traced(w, 8)
        problems = []
        if d1 != d2:
            problems.append(f"same seed, different digests {d1} {d2}")
        if d1 == d3:
            problems.append(f"seeds 7 and 8 share digest {d1}")
        for r in (r1, r2):
            if not r["correct"] or r["failed"]:
                problems.append(f"failed {r['failed']} of {r['attempted']}")
        for name in COUNTS:
            a = r1["metrics"][name]["value"]
            b = r2["metrics"][name]["value"]
            if a != b:
                problems.append(f"{name}: {a} != {b}")
        counts = ", ".join(f"{n}={r1['metrics'][n]['value']:g}" for n in COUNTS)
        print(f"{w}: digest {d1}; {counts}")
        for p in problems:
            print(f"  FAIL {p}")
        failures += len(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

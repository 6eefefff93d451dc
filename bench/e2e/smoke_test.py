#!/usr/bin/env python3
"""Smoke test for tsce_bench: short runs of two workloads, untraced and traced.

Usage: smoke_test.py <tsce_bench binary> <BENCHMARK.json>

Each run must exit 0, report no failed check, and print every metric that
BENCHMARK.json declares for its mode (end_to_end untraced, per_layer traced).
"""

import json
import subprocess
import sys

RUNS = [("s3_slack", "2"), ("par_search", "1")]


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {"0": [m["name"] for m in spec["end_to_end"]],
                "1": [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload, instances in RUNS:
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            proc = subprocess.run([binary, "--workload", workload, "--seed", "2005",
                                   "--seconds", "1", "--instances", instances,
                                   "--trace", trace], capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append("%s: exit code %d\n%s" % (label, proc.returncode, proc.stderr))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: %d of %d checks failed" %
                                (label, result["failed"], result["attempted"]))
            missing = [n for n in expected[trace] if n not in result["metrics"]]
            if missing:
                problems.append("%s: metrics missing: %s" % (label, ", ".join(missing)))
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

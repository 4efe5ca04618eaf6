#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (n = 2^10, 80 steps per episode).

    python3 benchmark/selftest.py [--workload NAME ...]

For every workload it checks that:
  * a timed run prints every end-to-end metric of BENCHMARK.json with its
    unit, and a traced run every per-layer metric;
  * max_load, msgs_per_task and sojourn_p99_steps are identical across two
    runs, and across 1 and 4 workers (shard processes for uds-burst), which is
    the runtime's worker-count invariance;
  * a deliberately wrong reference fingerprint (--corrupt-reference) makes the
    run exit non-zero and report correct = false.
Exits 0 when every check passes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("max_load", "msgs_per_task", "sojourn_p99_steps")
# Every workload clb_bench defines. BENCHMARK.json gates only the first two
# (see README.md); the self-test covers the other two as well.
WORKLOADS = ("threshold-burst", "steal-scale", "uds-burst", "latency-lossy")


def run(workload, extra=(), trace=0, seed=7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace),
                             "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p.returncode, result


def check_metrics(result, specs):
    """Names of the spec'd metrics missing or carrying the wrong unit."""
    got = result["metrics"]
    return ["%s [%s]" % (m["name"], m["unit"]) for m in specs
            if got.get(m["name"], {}).get("unit") != m["unit"]]


def selftest(workload):
    problems = []
    runs = {}
    for label, extra in (("a", ()), ("b", ()), ("workers=1", ("--workers", "1")),
                         ("workers=4", ("--workers", "4"))):
        rc, res = run(workload, extra)
        if rc != 0 or res is None or not res["correct"]:
            problems.append("%s run failed (exit %d)" % (label, rc))
            continue
        runs[label] = res
        bad = check_metrics(res, SPEC["end_to_end"])
        if bad:
            problems.append("%s run lacks %s" % (label, ", ".join(bad)))
    for name in DETERMINISTIC:
        values = {label: r["metrics"][name]["value"] for label, r in runs.items()
                  if name in r["metrics"]}
        if len(set(values.values())) > 1:
            problems.append("%s differs across runs: %s" % (name, values))

    rc, res = run(workload, trace=1)
    if rc != 0 or res is None or not res["correct"]:
        problems.append("traced run failed (exit %d)" % rc)
    else:
        bad = check_metrics(res, SPEC["per_layer"])
        if bad:
            problems.append("traced run lacks %s" % ", ".join(bad))

    rc, res = run(workload, ("--corrupt-reference",))
    if rc == 0 or res is None or res["correct"] or res["failed"] == 0:
        problems.append("a corrupted reference was not convicted (exit %d)" % rc)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to test (default: all four)")
    args = ap.parse_args()
    names = args.workload or WORKLOADS
    failed = False
    for name in names:
        problems = selftest(name)
        print("%-16s %s" % (name, "ok" if not problems else "FAILED"))
        for p in problems:
            print("    " + p)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

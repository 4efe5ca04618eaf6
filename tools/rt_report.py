#!/usr/bin/env python3
"""rt_report: per-worker performance report from rt telemetry.

Consumes the snapshot timeline written by `bench_rt --telemetry
--telemetry-jsonl=...` (one rt_telemetry JSON object per worker per
interval, cumulative counters) and/or a metrics registry export carrying
`<run>.telemetry.*` gauges, and prints the runtime's health report:
per-worker utilization, queue imbalance, barrier-stall breakdown, and
(from the `<run>.telemetry.stage.*_ns` counters) where the step's time
went, stage by stage, split into busy time and barrier stall (the
`stage.*.stall_ns` counters), and (from the per-worker `w<k>.stage.*_ns`
and `w<k>.stall_ns` counters) each worker's busy time, its stall, and
max/mean busy.

    tools/rt_report.py --snapshots build/rt_telemetry/snapshots.jsonl
    tools/rt_report.py --metrics bench_rt.metrics.json
    tools/rt_report.py --snapshots s.jsonl --metrics m.json

A timeline may concatenate several runs; each run is distinguished by its
'tag' field and reported separately. Within a run the report uses the
*last* snapshot per worker (counters are cumulative), and the interval
count tells how much timeline resolution is behind it.

Exit status: 0 = report printed, 1 = malformed or empty input.
"""
from __future__ import annotations

import argparse
import json
import sys

COUNTER_FIELDS = (
    "steps", "step_ns", "stall_ns", "work_ns", "barrier_waits",
    "enq_self", "enq_remote", "deq", "drains", "generated", "consumed",
    "phases",
)

# obs::kStageNames, in the step's schedule order.
STAGES = (
    "gen_consume", "steal", "classify", "collision_rounds", "tree_children",
    "tree_ids", "tree_transfers", "end_step", "other",
)


def fail(msg: str) -> "sys.NoReturn":
    print(f"rt_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def load_snapshots(path: str) -> dict:
    """Returns {tag: {"last": {worker: rec}, "intervals": int}}."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    tags: dict = {}
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: {e}")
        if not isinstance(rec, dict) or rec.get("kind") != "rt_telemetry":
            fail(f"{path}:{i}: expected kind 'rt_telemetry'")
        for field in ("step", "worker", "workers", "shard_load",
                      *COUNTER_FIELDS):
            if not isinstance(rec.get(field), int):
                fail(f"{path}:{i}: missing integer field {field!r}")
        tag = rec.get("tag", "")
        entry = tags.setdefault(tag, {"last": {}, "steps_seen": set()})
        entry["last"][rec["worker"]] = rec
        entry["steps_seen"].add(rec["step"])
    if not tags:
        fail(f"{path}: no snapshot records")
    for entry in tags.values():
        entry["intervals"] = len(entry.pop("steps_seen"))
    return tags


def fmt_row(cells: list, widths: list) -> str:
    return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))


def print_table(header: list, rows: list) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(header)]
    print(fmt_row(header, widths))
    print(fmt_row(["-" * w for w in widths], widths))
    for r in rows:
        print(fmt_row(r, widths))


def report_tag(tag: str, entry: dict) -> None:
    last = entry["last"]
    workers = sorted(last)
    declared = last[workers[0]]["workers"]
    if len(workers) != declared:
        fail(f"tag {tag!r}: timeline covers {len(workers)} workers but "
             f"declares {declared}")
    title = tag if tag else "(untagged run)"
    print(f"\n== rt report: {title} — {declared} workers, "
          f"{entry['intervals']} snapshot interval(s), "
          f"through step {max(r['step'] for r in last.values())} ==")

    rows = []
    for w in workers:
        r = last[w]
        rows.append([
            w,
            r["steps"],
            f"{100.0 * ratio(r['work_ns'], r['step_ns']):.1f}%",
            f"{100.0 * ratio(r['stall_ns'], r['step_ns']):.1f}%",
            r["consumed"],
            r["shard_load"],
            f"{ratio(r['deq'], r['drains']):.2f}",
            f"{ratio(r['stall_ns'], r['barrier_waits']) / 1e3:.1f}",
            f"{ratio(r['barrier_waits'], r['steps']):.2f}",
        ])
    print_table(["worker", "steps", "util", "stall", "consumed", "load",
                 "drain mean", "wait us/barrier", "exchanges/step"], rows)

    consumed = [last[w]["consumed"] for w in workers]
    step_ns = sum(last[w]["step_ns"] for w in workers)
    stall_ns = sum(last[w]["stall_ns"] for w in workers)
    utils = [ratio(last[w]["work_ns"], last[w]["step_ns"]) for w in workers]
    mean_consumed = sum(consumed) / len(consumed)
    imbalance = ratio(max(consumed), mean_consumed) if mean_consumed else 1.0
    enq = sum(last[w]["enq_self"] + last[w]["enq_remote"] for w in workers)
    deq = sum(last[w]["deq"] for w in workers)
    remote = sum(last[w]["enq_remote"] for w in workers)
    print(f"  utilization      mean {100.0 * sum(utils) / len(utils):.1f}%  "
          f"min {100.0 * min(utils):.1f}%  max {100.0 * max(utils):.1f}%")
    print(f"  barrier stall    {100.0 * ratio(stall_ns, step_ns):.1f}% of "
          f"worker time "
          f"({sum(last[w]['barrier_waits'] for w in workers)} waits)")
    print(f"  queue imbalance  {imbalance:.3f} "
          f"(max/mean consumed; 1.000 = perfectly even)")
    print(f"  mailbox          {enq} enq / {deq} deq "
          f"({100.0 * ratio(remote, enq):.1f}% remote, "
          f"backlog {enq - deq})")
    # Snapshots land at step boundaries, so a same-step send may still be
    # undrained (enq > deq); draining more than was enqueued is impossible.
    if deq > enq:
        fail(f"tag {tag!r}: mailbox conservation violated "
             f"(enq={enq}, deq={deq})")


def report_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        fail(f"{path}: no gauges section")
    marker = ".telemetry."
    prefixes = sorted({name[:name.index(marker) + len(marker)]
                       for name in gauges if marker in name})
    if not prefixes:
        fail(f"{path}: no *.telemetry.* gauges (was the bench run with "
             f"--telemetry?)")
    print(f"\n== rt report: derived gauges from {path} ==")
    rows = []
    for p in prefixes:
        def g(name: str, default: float = 0.0) -> float:
            v = gauges.get(p + name, default)
            return v if isinstance(v, (int, float)) else default
        rows.append([
            p[:-len(marker)],
            f"{100.0 * g('utilization_mean'):.1f}%",
            f"{100.0 * g('barrier_stall_fraction'):.1f}%",
            f"{g('queue_imbalance'):.3f}",
            f"{g('drain_batch_mean'):.2f}",
            f"{g('barrier_wait_p50_ns') / 1e3:.1f}",
            f"{g('barrier_wait_p99_ns') / 1e3:.1f}",
        ])
    print_table(["run", "util mean", "stall", "imbalance", "drain mean",
                 "barrier p50 us", "barrier p99 us"], rows)
    report_stages(doc.get("counters", {}), prefixes)
    report_workers(doc.get("counters", {}), prefixes)


def stage_counters(counters: dict, prefix: str) -> tuple:
    """Splits `<prefix>stage.<name>_ns` (a stage's wall time) from
    `<prefix>stage.<name>.stall_ns` (the barrier wait inside it)."""
    wall, stall = {}, {}
    for name, v in counters.items():
        if not name.startswith(prefix + "stage.") or \
                not isinstance(v, (int, float)):
            continue
        rest = name[len(prefix) + len("stage."):]
        if rest.endswith(".stall_ns"):
            stall[rest[:-len(".stall_ns")]] = v
        elif rest.endswith("_ns"):
            wall[rest[:-len("_ns")]] = v
    return wall, stall


def report_stages(counters: dict, prefixes: list) -> None:
    """Where each run's step time went: the <run>.telemetry.stage.*_ns
    counters (summed over workers) per step and as a share of step time,
    split into busy (stage time minus its barrier wait) and stall (the
    stage.*.stall_ns counters)."""
    marker = ".telemetry."
    for p in prefixes:
        stages, stalls = stage_counters(counters, p)
        steps = counters.get(p + "steps", 0)
        step_ns = counters.get(p + "step_ns", 0)
        if not stages or not steps:
            continue
        missing = sorted(set(stages) - set(stalls))
        if missing:
            fail(f"{p}: no stage.<name>.stall_ns counter for {missing}")
        print(f"\n== rt report: stages of {p[:-len(marker)]} "
              f"({steps} worker-steps) ==")
        order = [n for n in STAGES if n in stages]
        order += sorted(n for n in stages if n not in STAGES)

        def row(name: str, wall: float, stall: float) -> list:
            return [name, f"{ratio(wall, steps) / 1e3:.1f}",
                    f"{ratio(wall - stall, steps) / 1e3:.1f}",
                    f"{ratio(stall, steps) / 1e3:.1f}",
                    f"{100.0 * ratio(wall, step_ns):.1f}%"]
        rows = [row(name, stages[name], stalls[name]) for name in order]
        rows.append(row("(sum)", sum(stages.values()),
                        sum(stalls[name] for name in order)))
        print_table(["stage", "us/step", "busy us/step", "stall us/step",
                     "of step"], rows)


def report_workers(counters: dict, prefixes: list) -> None:
    """Per-worker busy time and barrier stall. A stage lap includes the
    exchanges inside it, so busy = the worker's stage time minus its stall;
    max/mean busy is the balance figure (1.00 = every worker equally busy;
    the busiest worker sets the step time the others stall on)."""
    marker = ".telemetry."
    for p in prefixes:
        rows, busy = [], []
        k = 0
        while isinstance(counters.get(f"{p}w{k}.stall_ns"), (int, float)):
            w = f"{p}w{k}."
            staged = sum(stage_counters(counters, w)[0].values())
            stall = counters[w + "stall_ns"]
            busy.append(staged - stall)
            rows.append([k, f"{(staged - stall) / 1e6:.1f}",
                         f"{stall / 1e6:.1f}",
                         f"{100.0 * ratio(stall, staged):.1f}%"])
            k += 1
        if not rows:
            continue
        mean = sum(busy) / len(busy)
        print(f"\n== rt report: workers of {p[:-len(marker)]} "
              f"(busy = stage time - stall) ==")
        print_table(["worker", "busy ms", "stall ms", "stall share"], rows)
        print(f"  max/mean busy    {ratio(max(busy), mean):.2f} "
              f"({len(busy)} workers; 1.00 = evenly busy)")


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Per-worker performance report from rt telemetry")
    ap.add_argument("--snapshots",
                    help="snapshot JSONL from bench_rt --telemetry-jsonl")
    ap.add_argument("--metrics",
                    help="metrics JSON with <run>.telemetry.* gauges")
    args = ap.parse_args()
    if not args.snapshots and not args.metrics:
        ap.error("pass --snapshots and/or --metrics")
    if args.snapshots:
        for tag, entry in sorted(load_snapshots(args.snapshots).items()):
            report_tag(tag, entry)
    if args.metrics:
        report_metrics(args.metrics)
    print("\nrt_report: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validates a run's observability outputs end to end.

Run by ctest (obs_trace_check) against files produced by a real bench
invocation, and usable by hand against any run:

    tools/check_trace.py --chrome t.trace.json --jsonl t.trace.jsonl \
                         --metrics m.json --manifest run.json

Checks, per file:
  * chrome  - parses; has displayTimeUnit + traceEvents; every event carries
              name/ph/pid/tid/ts as Perfetto requires for its type; "X"
              slices have dur >= 1; "i" instants have scope "t"; phase
              slices do not overlap per thread.
  * jsonl   - every line parses to an object with a "kind" and integer
              "step"; steps are non-decreasing; "worker" (when present) is a
              non-negative integer, and is required for the worker-lane
              kinds (barrier_wait, mailbox_drain, worker_step).
  * snapshots - rt telemetry snapshot timeline (bench_rt --telemetry-jsonl):
              every line is an rt_telemetry object with the full counter
              schema; per tag steps are non-decreasing, and per (tag,
              worker) the cumulative counters never go backwards.
  * metrics - parses; counters/gauges/histograms maps with numeric leaves;
              histogram records carry count/mean/p50/p90/p99/p999/max.
  * manifest- parses; schema clb.run.v1; has tool/command/build; every
              listed output file exists on disk (next to the manifest or
              absolute).

Exit status 0 = all good, 1 = any check failed (details on stderr).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

FAILURES: list[str] = []

# Event kinds rendered on per-worker lanes; their worker attribution is
# load-bearing (rt telemetry), so the field is required, not optional.
WORKER_LANE_KINDS = {"barrier_wait", "mailbox_drain", "worker_step"}

# Cumulative per-worker counters in an rt_telemetry snapshot line.
SNAPSHOT_COUNTERS = (
    "steps", "step_ns", "stall_ns", "work_ns", "barrier_waits",
    "enq_self", "enq_remote", "deq", "drains", "generated", "consumed",
    "phases",
)


# A stage's wall-time counter (obs::kStageNames), e.g.
# `rt.x.telemetry.w0.stage.gen_consume_ns`: group 1 is the prefix.
STAGE_WALL = re.compile(r"^(.*)stage\.([a-z_]+)_ns$")


def fail(msg: str) -> None:
    FAILURES.append(msg)
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
        return None


def check_chrome(path: str) -> None:
    doc = load_json(path)
    if doc is None:
        return
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        fail(f"{path}: displayTimeUnit missing or invalid")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
        return
    slices_by_tid: dict[tuple, list[tuple]] = {}
    counts = {"X": 0, "i": 0, "C": 0, "M": 0}
    for i, e in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in counts:
            fail(f"{where}: unexpected ph {ph!r}")
            continue
        counts[ph] += 1
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{where}: missing name")
        for k in ("pid", "tid"):
            if not isinstance(e.get(k), int):
                fail(f"{where}: missing integer {k}")
        if ph == "M":
            continue
        if not isinstance(e.get("ts"), (int, float)):
            fail(f"{where}: missing ts")
            continue
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 1:
                fail(f"{where}: X slice needs dur >= 1, got {dur!r}")
            else:
                key = (e.get("pid"), e.get("tid"))
                slices_by_tid.setdefault(key, []).append((e["ts"], dur))
        elif ph == "i" and e.get("s") != "t":
            fail(f"{where}: instant must carry scope s='t'")
        elif ph == "C" and not isinstance(e.get("args"), dict):
            fail(f"{where}: counter event needs args")
    for key, slices in slices_by_tid.items():
        slices.sort()
        for (ts_a, dur_a), (ts_b, _) in zip(slices, slices[1:]):
            if ts_a + dur_a > ts_b:
                fail(f"{path}: overlapping slices on pid/tid {key} "
                     f"at ts={ts_a} (dur={dur_a}) and ts={ts_b}")
                break
    print(f"check_trace: {path}: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))


def check_jsonl(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
        return
    last_step = -1
    kinds: dict[str, int] = {}
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: {e}")
            return
        if not isinstance(rec, dict) or not isinstance(rec.get("kind"), str):
            fail(f"{path}:{i}: record needs a string 'kind'")
            return
        step = rec.get("step")
        if not isinstance(step, int) or step < 0:
            fail(f"{path}:{i}: record needs a non-negative integer 'step'")
            return
        if step < last_step:
            fail(f"{path}:{i}: steps went backwards ({last_step} -> {step})")
            return
        last_step = step
        worker = rec.get("worker")
        if worker is not None and (not isinstance(worker, int) or worker < 0):
            fail(f"{path}:{i}: 'worker' must be a non-negative integer")
            return
        if rec["kind"] in WORKER_LANE_KINDS and worker is None:
            fail(f"{path}:{i}: worker-lane kind {rec['kind']!r} "
                 f"needs a 'worker' field")
            return
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    print(f"check_trace: {path}: {sum(kinds.values())} records, "
          f"kinds: {dict(sorted(kinds.items()))}")


def check_snapshots(path: str) -> None:
    """rt telemetry snapshot timeline: schema + per-(tag, worker) monotony.

    Timelines may concatenate several runs (distinguished by 'tag'), so the
    global non-decreasing-step rule of check_jsonl does not apply; instead
    steps must be non-decreasing per tag and cumulative counters must never
    go backwards per (tag, worker).
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
        return
    records = 0
    last_step: dict[str, int] = {}
    last_counters: dict[tuple, dict[str, int]] = {}
    workers_seen: dict[str, set] = {}
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: {e}")
            return
        if not isinstance(rec, dict) or rec.get("kind") != "rt_telemetry":
            fail(f"{path}:{i}: snapshot line must have kind 'rt_telemetry'")
            return
        for field in ("step", "worker", "workers", "shard_load",
                      *SNAPSHOT_COUNTERS):
            v = rec.get(field)
            if not isinstance(v, int) or v < 0:
                fail(f"{path}:{i}: field {field!r} must be a non-negative "
                     f"integer, got {v!r}")
                return
        tag = rec.get("tag", "")
        if not isinstance(tag, str):
            fail(f"{path}:{i}: 'tag' must be a string")
            return
        step, worker = rec["step"], rec["worker"]
        if rec["worker"] >= rec["workers"]:
            fail(f"{path}:{i}: worker {worker} out of range "
                 f"(workers={rec['workers']})")
            return
        if step < last_step.get(tag, -1):
            fail(f"{path}:{i}: steps went backwards within tag {tag!r} "
                 f"({last_step[tag]} -> {step})")
            return
        last_step[tag] = step
        key = (tag, worker)
        prev = last_counters.get(key)
        if prev is not None:
            for field in SNAPSHOT_COUNTERS:
                if rec[field] < prev[field]:
                    fail(f"{path}:{i}: cumulative counter {field!r} went "
                         f"backwards for {key} ({prev[field]} -> "
                         f"{rec[field]})")
                    return
        last_counters[key] = {f: rec[f] for f in SNAPSHOT_COUNTERS}
        workers_seen.setdefault(tag, set()).add(worker)
        records += 1
    if records == 0:
        fail(f"{path}: no snapshot records")
        return
    print(f"check_trace: {path}: {records} snapshots, "
          f"{len(workers_seen)} tag(s), "
          f"workers per tag: "
          f"{ {t: len(w) for t, w in sorted(workers_seen.items())} }")


def check_metrics(path: str) -> None:
    doc = load_json(path)
    if doc is None:
        return
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing object section '{section}'")
            return
    for name, v in doc["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: counter {name} not a non-negative integer: {v!r}")
    # rt telemetry: every stage's wall time `<p>stage.<name>_ns` comes with
    # the barrier wait inside it, `<p>stage.<name>.stall_ns`, never longer.
    stages = 0
    for name, v in doc["counters"].items():
        m = STAGE_WALL.match(name)
        if not m:
            continue
        stages += 1
        stall = f"{m.group(1)}stage.{m.group(2)}.stall_ns"
        if stall not in doc["counters"]:
            fail(f"{path}: counter {name} has no {stall}")
        elif isinstance(v, int) and doc["counters"][stall] > v:
            fail(f"{path}: {stall} = {doc['counters'][stall]} exceeds "
                 f"{name} = {v}")
    if stages:
        print(f"check_trace: {path}: {stages} stage counters checked for "
              f"their stall")
    for name, v in doc["gauges"].items():
        if not isinstance(v, (int, float)) and v is not None:
            fail(f"{path}: gauge {name} not numeric/null: {v!r}")
    required = {"count", "mean", "p50", "p90", "p99", "p999", "max"}
    for name, h in doc["histograms"].items():
        if not isinstance(h, dict) or not required.issubset(h):
            fail(f"{path}: histogram {name} missing {required - set(h)}")
    print(f"check_trace: {path}: {len(doc['counters'])} counters, "
          f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms")


def check_manifest(path: str) -> None:
    doc = load_json(path)
    if doc is None:
        return
    if doc.get("schema") != "clb.run.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'clb.run.v1'")
    if not isinstance(doc.get("tool"), str) or not doc["tool"]:
        fail(f"{path}: missing tool")
    cmd = doc.get("command")
    if not isinstance(cmd, list) or not all(isinstance(c, str) for c in cmd):
        fail(f"{path}: command must be a list of strings")
    build = doc.get("build")
    if not isinstance(build, dict) or not isinstance(build.get("git_sha"), str):
        fail(f"{path}: missing build provenance")
    base = os.path.dirname(os.path.abspath(path))
    for out in doc.get("outputs", []):
        p = out.get("path", "")
        resolved = p if os.path.isabs(p) else os.path.join(base, p)
        if not os.path.exists(resolved):
            fail(f"{path}: listed output does not exist: {p}")
    print(f"check_trace: {path}: tool={doc.get('tool')} "
          f"outputs={len(doc.get('outputs', []))}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chrome", help="Chrome trace_event JSON file")
    ap.add_argument("--jsonl", help="JSONL event trace file")
    ap.add_argument("--snapshots",
                    help="rt telemetry snapshot JSONL (bench_rt "
                         "--telemetry-jsonl)")
    ap.add_argument("--metrics", help="metrics registry JSON file")
    ap.add_argument("--manifest", help="run manifest JSON file")
    args = ap.parse_args()
    if not any(vars(args).values()):
        ap.error("nothing to check; pass at least one file")
    if args.chrome:
        check_chrome(args.chrome)
    if args.jsonl:
        check_jsonl(args.jsonl)
    if args.snapshots:
        check_snapshots(args.snapshots)
    if args.metrics:
        check_metrics(args.metrics)
    if args.manifest:
        check_manifest(args.manifest)
    if FAILURES:
        print(f"check_trace: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("check_trace: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

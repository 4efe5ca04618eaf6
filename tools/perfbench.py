#!/usr/bin/env python3
"""perfbench: drives bench_rt (EXP-21) and distils the runtime's scaling
profile into BENCH_rt.json.

One bench_rt invocation sweeps worker counts for each (model, policy)
configuration and exports per-run gauges via --metrics-json; this tool runs
it, reshapes the gauges into a stable, diff-friendly document, derives the
scaling ratios, and (optionally) gates on them:

    tools/perfbench.py --bench build/bench/bench_rt --out BENCH_rt.json
    tools/perfbench.py --smoke          # reduced matrix, schema gate only

Document schema (clb.bench_rt.v1):

  {
    "schema": "clb.bench_rt.v1",
    "host": {"hardware_concurrency": <int>},
    "config": {"n": .., "steps": .., "spin": .., "seed": ..,
               "workers": [..], "models": [..], "policies": [..],
               "smoke": <bool>},
    "runs": [{"model": .., "policy": .., "workers": .., <fields>}, ...],
    "derived": {"<model>.<policy>.speedup_at_max_workers": .., ...},
    # one list per further grid named in --grids:
    "exp24": [...], "exp25": [...], "exp26": [...], "exp27": [...]
  }

Every section is one row of SECTIONS below: its points are the gauge
groups its regex finds, keyed by the regex's named groups, and carry the
row's fields plus each optional field whose row condition holds (crash
rows re-home, arena_steal rows steal, socket rows pay a wire bill).
"runs" is exp21, bench_rt's scaling grid; exp26 comes from
bench_transport. The further sections are optional (schema stays
clb.bench_rt.v1), and --compare only reads "runs".

The >1.5x speedup gate (threshold policy, max vs 1 worker) only arms when
the host has at least --min-cores-for-gate real cores: worker threads on a
single-core CI box are concurrency, not parallelism, and a throughput
assertion there measures the scheduler, not the runtime.

--compare OLD.json turns the run into a perf-trajectory gate: each fresh
run's tasks_per_sec is checked against the matching (model, policy,
workers) run in the committed baseline, and a drop beyond the tolerance
fails the build. The tolerance is 0.35 (fresh >= 0.65x baseline) because
CI hosts are shared and noisy. The comparison disarms itself — with a
warning, not a failure — when the baseline was recorded on a host with a
different hardware_concurrency or when the current host is below
--min-cores-for-gate: comparing throughput across machine shapes gates the
hardware, not the code.

Exit status: 0 = document written (and every armed gate passed);
1 = bench failed, schema invalid, or an armed gate tripped.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple

SCHEMA = "clb.bench_rt.v1"

# Allowed fractional tasks_per_sec drop against the --compare baseline.
TOLERANCE = 0.35


class Section(NamedTuple):
    grid: str      # --grids name: a bench_rt grid, or exp26 (bench_transport)
    key: str       # document key
    pattern: str   # a point's gauge prefix; named groups become key fields
    fields: list   # gauge suffixes every point carries
    # (suffixes, condition): optional fields, required on the points where
    # the condition holds (never, when it is None)
    optional: list[tuple[list, Callable | None]] = []


SECTIONS = [
    Section("exp21", "runs",
            r"rt\.(?P<model>[a-z-]+)\.(?P<policy>[a-z-]+)"
            r"\.w(?P<workers>\d+)\.",
            ["tasks_per_sec", "wall_seconds", "sojourn_p50_us",
             "sojourn_p95_us", "sojourn_p99_us", "remote_push_fraction",
             "msgs_per_task", "consumed"],
            # --telemetry
            [(["telemetry.utilization_mean",
               "telemetry.barrier_stall_fraction",
               "telemetry.queue_imbalance"], None)]),
    Section("exp24", "exp24", r"exp24\.loss(?P<loss>\d+)\.bw(?P<bw>\d+)\.",
            ["phase_duration_mean", "phases", "match_pct", "forced",
             "retransmits", "dup_suppressed", "queued_delay"]),
    Section("exp25", "exp25",
            r"exp25\.(?P<model>[a-z-]+)\.(?P<policy>[a-z-]+)\.",
            ["max_load", "final_mean_load", "tasks_moved", "msgs_per_task",
             "consumed"],
            [(["rehomed_tasks", "rehomed_events"],
              lambda p: p["model"] == "crash")]),
    Section("exp26", "exp26",
            r"exp26\.(?P<substrate>[a-z]+)\.w(?P<workers>\d+)\.",
            ["tasks_per_sec", "wall_seconds", "vs_inproc", "sojourn_p50_us",
             "sojourn_p95_us", "sojourn_p99_us", "consumed",
             "running_max_load"],
            [(["wire.bytes_sent", "wire.frames_sent", "wire.barriers",
               "wire.barrier_rtt_mean_us", "wire.barrier_rtt_p99_us",
               "wire.kb_per_step"], lambda p: p["substrate"] != "inproc")]),
    Section("exp27", "exp27",
            r"exp27\.n(?P<n>\d+)\.w(?P<workers>\d+)"
            r"\.(?P<layout>arena|arena_steal)\.",
            ["tasks_per_sec", "wall_seconds", "consumed", "max_load",
             "arena_bytes"],
            [(["steal_events", "stolen_tasks"],
              lambda p: p["layout"] == "arena_steal")]),
]


def doc_field(suffix: str) -> str:
    """A gauge suffix's document name: no telemetry. prefix, no dots."""
    return suffix.removeprefix("telemetry.").replace(".", "_")


def fail(msg: str) -> "sys.NoReturn":
    print(f"perfbench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_tool(name: str, cmd: list, metrics_path: str) -> dict:
    proc = subprocess.run(cmd + [f"--metrics-json={metrics_path}"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        fail(f"{name} exited {proc.returncode}")
    try:
        with open(metrics_path, encoding="utf-8") as f:
            return json.load(f).get("gauges", {})
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {name} metrics: {e}")


def bench_rt_cmd(args: argparse.Namespace) -> list:
    grids = [g for g in args.grid_list if g != "exp26"]
    cmd = [
        args.bench,
        f"--grids={','.join(grids)}",
        f"--n={args.n}",
        f"--steps={args.steps}",
        f"--spin={args.spin}",
        f"--seed={args.seed}",
        f"--workers={','.join(str(w) for w in args.worker_list)}",
        f"--models={','.join(args.model_list)}",
        f"--policies={','.join(args.policy_list)}",
    ]
    if args.smoke and "exp27" in grids:
        # Mirror bench_rt's own --smoke shrink of the grid.
        cmd += ["--grid-n=16384", "--grid-workers=1,2", "--grid-steps=32"]
    if args.telemetry:
        cmd.append("--telemetry")
    return cmd


def bench_transport_cmd(args: argparse.Namespace) -> list:
    cmd = [args.bench_transport, f"--seed={args.seed}",
           f"--workers={args.exp26_workers}"]
    return cmd + ["--smoke"] if args.smoke else cmd


def assemble_section(sec: Section, gauges: dict) -> list:
    rx = re.compile("^" + sec.pattern + re.escape(sec.fields[0]) + "$")
    points = []
    for name in gauges:
        m = rx.match(name)
        if not m:
            continue
        prefix = name[:-len(sec.fields[0])]
        point = {k: int(v) if v.isdigit() else v
                 for k, v in m.groupdict().items()}
        for field in sec.fields:
            if prefix + field not in gauges:
                fail(f"{sec.grid}: no {prefix}{field} gauge")
            point[field] = gauges[prefix + field]
        for fields, _ in sec.optional:
            for field in fields:
                if prefix + field in gauges:
                    point[doc_field(field)] = gauges[prefix + field]
        points.append(point)
    if not points:
        fail(f"--grids {sec.grid} requested but no {sec.pattern} gauges "
             "were emitted")
    return sorted(points, key=lambda p: [p[k] for k in rx.groupindex])


def assemble(gauges: dict, args: argparse.Namespace) -> dict:
    doc = {
        "schema": SCHEMA,
        "host": {"hardware_concurrency":
                 int(gauges.get("rt.hardware_concurrency", 0))},
        "config": {
            "n": args.n,
            "steps": args.steps,
            "spin": args.spin,
            "seed": args.seed,
            "workers": args.worker_list,
            "models": args.model_list,
            "policies": args.policy_list,
            "smoke": bool(args.smoke),
        },
    }
    for sec in SECTIONS:
        if sec.grid in args.grid_list:
            doc[sec.key] = assemble_section(sec, gauges)
    runs = doc["runs"]
    have = {(r["model"], r["policy"], r["workers"]) for r in runs}
    for model in args.model_list:
        for policy in args.policy_list:
            for w in args.worker_list:
                if (model, policy, w) not in have:
                    fail(f"bench_rt emitted no gauges for "
                         f"rt.{model}.{policy}.w{w}.*")
    if args.telemetry and "utilization_mean" not in runs[0]:
        fail("--telemetry requested but bench_rt exported no telemetry "
             "gauges")

    derived = {}
    for model in args.model_list:
        for policy in args.policy_list:
            rates = {
                r["workers"]: r["tasks_per_sec"]
                for r in runs
                if r["model"] == model and r["policy"] == policy
            }
            base = rates.get(min(rates))
            peak = rates.get(max(rates))
            if base and base > 0:
                derived[f"{model}.{policy}.speedup_at_max_workers"] = (
                    peak / base)
    doc["derived"] = derived
    return doc


def validate(doc: dict) -> None:
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    hw = doc.get("host", {}).get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 0:
        fail("host.hardware_concurrency missing or not an int")
    if not isinstance(doc.get("runs"), list):
        fail("runs missing")
    if not isinstance(doc.get("derived"), dict):
        fail("derived missing")
    for sec in SECTIONS:
        if sec.key not in doc:
            continue
        points = doc[sec.key]
        if not isinstance(points, list) or not points:
            fail(f"{sec.key} present but not a non-empty list")
        keys = re.compile(sec.pattern).groupindex
        for i, point in enumerate(points):
            for key in keys:
                if not isinstance(point.get(key), (str, int)):
                    fail(f"{sec.key}[{i}].{key} missing")
            need = list(sec.fields)
            for fields, when in sec.optional:
                if when is not None and when(point):
                    need += [doc_field(f) for f in fields]
            for key in need:
                if not isinstance(point.get(key), (int, float)):
                    fail(f"{sec.key}[{i}].{key} missing or not numeric")
            if "wall_seconds" in point and (point["tasks_per_sec"] < 0 or
                                            point["wall_seconds"] <= 0):
                fail(f"{sec.key}[{i}] has nonsensical throughput/wall time")


def gate(doc: dict, args: argparse.Namespace) -> None:
    hw = doc["host"]["hardware_concurrency"]
    if hw < args.min_cores_for_gate:
        print(f"perfbench: speedup gate disarmed "
              f"({hw} cores < {args.min_cores_for_gate} required)")
        return
    for model in args.model_list:
        key = f"{model}.threshold.speedup_at_max_workers"
        speedup = doc["derived"].get(key)
        if speedup is None:
            continue
        if speedup < args.min_speedup:
            fail(f"{key} = {speedup:.2f} < required {args.min_speedup}")
        print(f"perfbench: {key} = {speedup:.2f} (>= {args.min_speedup}) ok")


def compare(doc: dict, args: argparse.Namespace) -> None:
    try:
        with open(args.compare, encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read baseline {args.compare!r}: {e}")
    if base.get("schema") != SCHEMA:
        fail(f"baseline schema is {base.get('schema')!r}, want {SCHEMA!r}")

    hw_now = doc["host"]["hardware_concurrency"]
    hw_base = base.get("host", {}).get("hardware_concurrency")
    refresh = (f"python3 tools/perfbench.py --bench {args.bench} "
               f"--out {args.compare}")
    if hw_now != hw_base:
        print(f"perfbench: compare disarmed — baseline {args.compare!r} was "
              f"recorded on a {hw_base}-core host, this host has {hw_now} "
              f"cores; comparing throughput across machine shapes gates the "
              f"hardware, not the code. Refresh the baseline on a "
              f">= {args.min_cores_for_gate}-core runner with: {refresh}")
        return
    if hw_now < args.min_cores_for_gate:
        print(f"perfbench: compare disarmed — this host has {hw_now} cores, "
              f"below the {args.min_cores_for_gate}-core floor (worker "
              f"threads there are concurrency, not parallelism). Record and "
              f"compare baselines on a >= {args.min_cores_for_gate}-core "
              f"runner with: {refresh}")
        return

    baseline = {
        (r["model"], r["policy"], r["workers"]): r["tasks_per_sec"]
        for r in base.get("runs", [])
    }
    compared = 0
    worst = None
    for run in doc["runs"]:
        key = (run["model"], run["policy"], run["workers"])
        old = baseline.get(key)
        if old is None or old <= 0:
            continue
        compared += 1
        ratio = run["tasks_per_sec"] / old
        label = f"{key[0]}.{key[1]}.w{key[2]}"
        if worst is None or ratio < worst[1]:
            worst = (label, ratio)
        if ratio < 1.0 - TOLERANCE:
            fail(f"throughput regression: {label} tasks_per_sec "
                 f"{run['tasks_per_sec']:.0f} is {ratio:.2f}x baseline "
                 f"{old:.0f} (floor {1.0 - TOLERANCE:.2f}x: the tolerance is "
                 f"{TOLERANCE})")
    if compared == 0:
        fail(f"baseline {args.compare!r} shares no (model, policy, workers) "
             f"runs with this configuration — nothing compared")
    print(f"perfbench: compare ok — {compared} runs within {TOLERANCE:.2f} "
          f"of baseline (worst {worst[0]} at {worst[1]:.2f}x)")


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Run bench_rt and write BENCH_rt.json")
    ap.add_argument("--bench", default="build/bench/bench_rt",
                    help="path to the bench_rt binary")
    ap.add_argument("--out", default="BENCH_rt.json",
                    help="output document path")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced matrix; schema validation only")
    ap.add_argument("--telemetry", action="store_true",
                    help="run bench_rt with --telemetry and record "
                         "utilization/stall/imbalance per run")
    ap.add_argument("--grids", default="exp21",
                    help="sections to record: exp21 (the gated 'runs', "
                         "always recorded), exp24, exp25, exp27 (bench_rt "
                         "grids), exp26 (bench_transport's in-proc vs "
                         "UDS sweep, shadow-checked)")
    ap.add_argument("--bench-transport", default="build/bench/bench_transport",
                    help="path to the bench_transport binary (exp26)")
    ap.add_argument("--exp26-workers", default="2,4",
                    help="shard counts for the EXP-26 sweep")
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--spin", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", default="",
                    help="comma-separated worker counts "
                         "(default: 1,2,4,..,hardware_concurrency)")
    ap.add_argument("--models", default="single,burst")
    ap.add_argument("--policies", default="threshold,none,all-in-air")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="required threshold-policy speedup, max vs 1 worker")
    ap.add_argument("--min-cores-for-gate", type=int, default=8,
                    help="arm the speedup gate only at this many real cores")
    ap.add_argument("--compare", default="",
                    help="baseline BENCH_rt.json; fail if any matching run's "
                         f"tasks_per_sec drops by more than {TOLERANCE}")
    args = ap.parse_args()

    if args.smoke:
        args.n = 512
        args.steps = 96
        args.models = "single"
        if not args.workers:
            args.workers = "1,2"

    if args.workers:
        args.worker_list = [int(w) for w in args.workers.split(",") if w]
    else:
        hw = os.cpu_count() or 1
        ws = []
        k = 1
        while k <= hw:
            ws.append(k)
            k *= 2
        if ws[-1] != hw:
            ws.append(hw)
        if len(ws) < 2:
            ws.append(2)
        args.worker_list = ws
    args.model_list = [m for m in args.models.split(",") if m]
    args.policy_list = [p for p in args.policies.split(",") if p]
    args.grid_list = ["exp21"] + [g for g in args.grids.split(",")
                                  if g and g != "exp21"]
    unknown = set(args.grid_list) - {sec.grid for sec in SECTIONS}
    if unknown:
        ap.error(f"unknown grid(s) in --grids: {', '.join(sorted(unknown))}")

    with tempfile.TemporaryDirectory() as tmp:
        gauges = run_tool("bench_rt", bench_rt_cmd(args),
                          os.path.join(tmp, "bench_rt.metrics.json"))
        if "exp26" in args.grid_list:
            transport = run_tool(
                "bench_transport", bench_transport_cmd(args),
                os.path.join(tmp, "bench_transport.metrics.json"))
            if transport.get("exp26.shadow_ok") != 1.0:
                fail("bench_transport's shadow cross-check gauge is missing "
                     "or not 1.0 — the transport run was not proven "
                     "bit-identical")
            gauges.update(transport)

    doc = assemble(gauges, args)
    validate(doc)
    if not args.smoke:
        gate(doc, args)
    if args.compare:
        compare(doc, args)

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"perfbench: wrote {args.out} "
          f"({len(doc['runs'])} runs, schema {SCHEMA})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
    "runs": [{"model": .., "policy": .., "workers": ..,
              "tasks_per_sec": .., "wall_seconds": ..,
              "sojourn_p50_us": .., "sojourn_p95_us": ..,
              "sojourn_p99_us": .., "remote_push_fraction": ..,
              "msgs_per_task": .., "consumed": ..,
              # with --telemetry (and a CLB_TELEMETRY=ON build):
              "utilization_mean": .., "barrier_stall_fraction": ..,
              "queue_imbalance": ..}, ...],
    "derived": {"<model>.<policy>.speedup_at_max_workers": .., ...},
    # with --exp24: the EXP-24 link-model sweep (loss x bandwidth grid)
    "exp24": [{"loss": .., "bw": .., "phase_duration_mean": ..,
               "phases": .., "match_pct": .., "forced": ..,
               "retransmits": .., "dup_suppressed": ..,
               "queued_delay": ..}, ...],
    # with --exp25: the EXP-25 workload-zoo grid (model x policy, plus the
    # crash/recovery pass under model "crash"; crash rows also carry the
    # rehomed_tasks / rehomed_events gauges)
    "exp25": [{"model": .., "policy": .., "max_load": ..,
               "final_mean_load": .., "tasks_moved": ..,
               "msgs_per_task": .., "consumed": ..}, ...],
    # with --exp26: the cross-process transport sweep (bench_transport:
    # in-proc vs UDS/TCP at each shard count). Only recorded when the
    # bench's shadow cross-check proved the socket run bit-identical to
    # the in-memory runtime (exp26.shadow_ok); wire_* fields appear on
    # socket substrates only.
    "exp26": [{"substrate": "inproc"|"uds"|"tcp", "workers": ..,
               "tasks_per_sec": .., "wall_seconds": .., "vs_inproc": ..,
               "sojourn_p50_us": .., "sojourn_p95_us": ..,
               "sojourn_p99_us": .., "consumed": ..,
               "running_max_load": ..,
               # socket substrates only:
               "wire_bytes_sent": .., "wire_frames_sent": ..,
               "wire_barriers": .., "wire_barrier_rtt_mean_us": ..,
               "wire_barrier_rtt_p99_us": .., "wire_kb_per_step": ..},
              ...],
    # with --exp27: the EXP-27 million-processor scaling grid (bench_rt
    # --scaling-grid: n x workers x {arena, arena_steal}, deterministic).
    # Every row carries arena_bytes; arena_steal rows add steal_events /
    # stolen_tasks.
    "exp27": [{"n": .., "workers": .., "layout": "arena"|"arena_steal",
               "tasks_per_sec": .., "wall_seconds": ..,
               "consumed": .., "max_load": .., "arena_bytes": ..}, ...]
  }

The exp24/exp25/exp26/exp27 sections are optional (schema stays
clb.bench_rt.v1); baselines recorded without them keep comparing cleanly —
--compare only reads "runs".

The >1.5x speedup gate (threshold policy, max vs 1 worker) only arms when
the host has at least --min-cores-for-gate real cores: worker threads on a
single-core CI box are concurrency, not parallelism, and a throughput
assertion there measures the scheduler, not the runtime.

--compare OLD.json turns the run into a perf-trajectory gate: each fresh
run's tasks_per_sec is checked against the matching (model, policy,
workers) run in the committed baseline, and a drop beyond the tolerance
fails the build. The tolerance defaults to 0.35 (fresh >= 0.65x baseline)
because CI hosts are shared and noisy; tune it per-host with
--compare-tolerance or the CLB_PERF_TOLERANCE environment variable (the
flag wins). The comparison disarms itself — with a warning, not a failure —
when the baseline was recorded on a host with a different
hardware_concurrency or when the current host is below
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

SCHEMA = "clb.bench_rt.v1"

RUN_FIELDS = [
    "tasks_per_sec",
    "wall_seconds",
    "sojourn_p50_us",
    "sojourn_p95_us",
    "sojourn_p99_us",
    "remote_push_fraction",
    "msgs_per_task",
    "consumed",
]

# Optional per-run telemetry gauges (--telemetry): present in the document
# only when bench_rt ran with telemetry compiled in and enabled.
TELEMETRY_FIELDS = [
    "utilization_mean",
    "barrier_stall_fraction",
    "queue_imbalance",
]

# Per-grid-point gauges of the EXP-24 link-model sweep (--exp24).
EXP24_FIELDS = [
    "phase_duration_mean",
    "phases",
    "match_pct",
    "forced",
    "retransmits",
    "dup_suppressed",
    "queued_delay",
]

# Per-grid-point gauges of the EXP-25 workload-zoo grid (--exp25).
EXP25_FIELDS = [
    "max_load",
    "final_mean_load",
    "tasks_moved",
    "msgs_per_task",
    "consumed",
]

# Per-run gauges of the EXP-26 cross-process transport sweep (--exp26,
# driven by bench_transport rather than bench_rt).
EXP26_FIELDS = [
    "tasks_per_sec",
    "wall_seconds",
    "vs_inproc",
    "sojourn_p50_us",
    "sojourn_p95_us",
    "sojourn_p99_us",
    "consumed",
    "running_max_load",
]

# Per-grid-point gauges of the EXP-27 scaling grid (--exp27). Every row
# carries these; arena_steal rows add steal_events / stolen_tasks.
EXP27_FIELDS = [
    "tasks_per_sec",
    "wall_seconds",
    "consumed",
    "max_load",
    "arena_bytes",
]

# Wire accounting, present only on socket-backed substrates (uds/tcp).
EXP26_WIRE_FIELDS = [
    "wire.bytes_sent",
    "wire.frames_sent",
    "wire.barriers",
    "wire.barrier_rtt_mean_us",
    "wire.barrier_rtt_p99_us",
    "wire.kb_per_step",
]


def fail(msg: str) -> "sys.NoReturn":
    print(f"perfbench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bench(bench: str, args: argparse.Namespace, metrics_path: str) -> None:
    cmd = [
        bench,
        f"--n={args.n}",
        f"--steps={args.steps}",
        f"--spin={args.spin}",
        f"--seed={args.seed}",
        f"--workers={','.join(str(w) for w in args.worker_list)}",
        f"--models={','.join(args.model_list)}",
        f"--policies={','.join(args.policy_list)}",
        "--latencies=",  # EXP-22 sweep is statcheck's domain, skip it here
        f"--metrics-json={metrics_path}",
    ]
    if args.exp24:
        # Let bench_rt's default loss x bandwidth grid run (EXP-24).
        pass
    else:
        cmd.append("--link-loss-grid=")  # skip the EXP-24 sweep
    if args.exp25:
        cmd.append("--workload-grid")
    if args.exp27:
        cmd.append("--scaling-grid")
        if args.smoke:
            # Mirror bench_rt's own --smoke shrink of the grid.
            cmd += ["--grid-n=16384", "--grid-workers=1,2", "--grid-steps=32"]
    if args.telemetry:
        cmd.append("--telemetry")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        fail(f"bench_rt exited {proc.returncode}")


def run_bench_transport(args: argparse.Namespace, metrics_path: str) -> dict:
    cmd = [
        args.bench_transport,
        f"--seed={args.seed}",
        f"--workers={args.exp26_workers}",
        f"--metrics-json={metrics_path}",
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        fail(f"bench_transport exited {proc.returncode}")
    try:
        with open(metrics_path, encoding="utf-8") as f:
            return json.load(f).get("gauges", {})
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read bench_transport metrics: {e}")


def assemble_exp26(gauges: dict) -> list:
    if gauges.get("exp26.shadow_ok") != 1.0:
        fail("bench_transport's shadow cross-check gauge is missing or not "
             "1.0 — the transport run was not proven bit-identical")
    rx = re.compile(r"^exp26\.([a-z]+)\.w(\d+)\.tasks_per_sec$")
    points = sorted((m.group(1), int(m.group(2)))
                    for name in gauges if (m := rx.match(name)))
    if not points:
        fail("--exp26 requested but bench_transport emitted no exp26.* "
             "run gauges")
    exp26 = []
    for substrate, w in points:
        prefix = f"exp26.{substrate}.w{w}."
        point = {"substrate": substrate, "workers": w}
        for field in EXP26_FIELDS:
            point[field] = gauges[prefix + field]
        for field in EXP26_WIRE_FIELDS:
            if prefix + field in gauges:
                point[field.replace(".", "_")] = gauges[prefix + field]
        exp26.append(point)
    return exp26


def assemble(gauges: dict, args: argparse.Namespace) -> dict:
    hw = int(gauges.get("rt.hardware_concurrency", 0))
    runs = []
    for model in args.model_list:
        for policy in args.policy_list:
            for w in args.worker_list:
                prefix = f"rt.{model}.{policy}.w{w}."
                if prefix + "tasks_per_sec" not in gauges:
                    fail(f"bench_rt emitted no gauges for {prefix}*")
                run = {"model": model, "policy": policy, "workers": w}
                for field in RUN_FIELDS:
                    run[field] = gauges[prefix + field]
                if args.telemetry:
                    for field in TELEMETRY_FIELDS:
                        key = prefix + "telemetry." + field
                        if key in gauges:
                            run[field] = gauges[key]
                runs.append(run)
    if args.telemetry and runs and TELEMETRY_FIELDS[0] not in runs[0]:
        print("perfbench: warning: --telemetry requested but bench_rt "
              "exported no telemetry gauges (CLB_TELEMETRY=OFF build?)",
              file=sys.stderr)

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

    doc = {
        "schema": SCHEMA,
        "host": {"hardware_concurrency": hw},
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
        "runs": runs,
        "derived": derived,
    }
    if args.exp24:
        rx = re.compile(r"^exp24\.loss(\d+)\.bw(\d+)\.phase_duration_mean$")
        points = sorted((int(m.group(1)), int(m.group(2)))
                        for name in gauges if (m := rx.match(name)))
        if not points:
            fail("--exp24 requested but bench_rt emitted no exp24.* gauges")
        exp24 = []
        for loss, bw in points:
            prefix = f"exp24.loss{loss}.bw{bw}."
            point = {"loss": loss, "bw": bw}
            for field in EXP24_FIELDS:
                point[field] = gauges[prefix + field]
            exp24.append(point)
        doc["exp24"] = exp24
    if args.exp25:
        rx = re.compile(r"^exp25\.([a-z-]+)\.([a-z-]+)\.max_load$")
        points = sorted((m.group(1), m.group(2))
                        for name in gauges if (m := rx.match(name)))
        if not points:
            fail("--exp25 requested but bench_rt emitted no exp25.* gauges")
        exp25 = []
        for model, policy in points:
            prefix = f"exp25.{model}.{policy}."
            point = {"model": model, "policy": policy}
            for field in EXP25_FIELDS:
                point[field] = gauges[prefix + field]
            for field in ("rehomed_tasks", "rehomed_events"):
                if prefix + field in gauges:
                    point[field] = gauges[prefix + field]
            exp25.append(point)
        doc["exp25"] = exp25
    if args.exp27:
        rx = re.compile(
            r"^exp27\.n(\d+)\.w(\d+)\.(arena|arena_steal)"
            r"\.tasks_per_sec$")
        points = sorted((int(m.group(1)), int(m.group(2)), m.group(3))
                        for name in gauges if (m := rx.match(name)))
        if not points:
            fail("--exp27 requested but bench_rt emitted no exp27.* gauges")
        exp27 = []
        for gn, w, layout in points:
            prefix = f"exp27.n{gn}.w{w}.{layout}."
            point = {"n": gn, "workers": w, "layout": layout}
            for field in EXP27_FIELDS:
                point[field] = gauges[prefix + field]
            for field in ("steal_events", "stolen_tasks"):
                if prefix + field in gauges:
                    point[field] = gauges[prefix + field]
            exp27.append(point)
        doc["exp27"] = exp27
    return doc


def validate(doc: dict) -> None:
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    hw = doc.get("host", {}).get("hardware_concurrency")
    if not isinstance(hw, int) or hw < 0:
        fail("host.hardware_concurrency missing or not an int")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail("runs missing or empty")
    for i, run in enumerate(runs):
        for key in ("model", "policy", "workers", *RUN_FIELDS):
            if key not in run:
                fail(f"runs[{i}] missing {key!r}")
        for field in RUN_FIELDS:
            if not isinstance(run[field], (int, float)):
                fail(f"runs[{i}].{field} is not numeric")
        if run["tasks_per_sec"] < 0 or run["wall_seconds"] <= 0:
            fail(f"runs[{i}] has nonsensical throughput/wall time")
    if not isinstance(doc.get("derived"), dict):
        fail("derived missing")
    if "exp24" in doc:
        points = doc["exp24"]
        if not isinstance(points, list) or not points:
            fail("exp24 present but not a non-empty list")
        for i, point in enumerate(points):
            for key in ("loss", "bw", *EXP24_FIELDS):
                if not isinstance(point.get(key), (int, float)):
                    fail(f"exp24[{i}].{key} missing or not numeric")
    if "exp25" in doc:
        points = doc["exp25"]
        if not isinstance(points, list) or not points:
            fail("exp25 present but not a non-empty list")
        for i, point in enumerate(points):
            for key in ("model", "policy"):
                if not isinstance(point.get(key), str):
                    fail(f"exp25[{i}].{key} missing or not a string")
            for key in EXP25_FIELDS:
                if not isinstance(point.get(key), (int, float)):
                    fail(f"exp25[{i}].{key} missing or not numeric")
            if point["model"] == "crash":
                for key in ("rehomed_tasks", "rehomed_events"):
                    if not isinstance(point.get(key), (int, float)):
                        fail(f"exp25[{i}].{key} missing on a crash row")
    if "exp27" in doc:
        points = doc["exp27"]
        if not isinstance(points, list) or not points:
            fail("exp27 present but not a non-empty list")
        for i, point in enumerate(points):
            if point.get("layout") not in ("arena", "arena_steal"):
                fail(f"exp27[{i}].layout missing or unknown")
            for key in ("n", "workers", *EXP27_FIELDS):
                if not isinstance(point.get(key), (int, float)):
                    fail(f"exp27[{i}].{key} missing or not numeric")
            if point["layout"] == "arena_steal":
                for key in ("steal_events", "stolen_tasks"):
                    if not isinstance(point.get(key), (int, float)):
                        fail(f"exp27[{i}].{key} missing on a steal row")
    if "exp26" in doc:
        points = doc["exp26"]
        if not isinstance(points, list) or not points:
            fail("exp26 present but not a non-empty list")
        for i, point in enumerate(points):
            if not isinstance(point.get("substrate"), str):
                fail(f"exp26[{i}].substrate missing or not a string")
            for key in ("workers", *EXP26_FIELDS):
                if not isinstance(point.get(key), (int, float)):
                    fail(f"exp26[{i}].{key} missing or not numeric")
            if point["substrate"] != "inproc":
                for key in EXP26_WIRE_FIELDS:
                    flat = key.replace(".", "_")
                    if not isinstance(point.get(flat), (int, float)):
                        fail(f"exp26[{i}].{flat} missing on a socket row")


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

    tol = args.compare_tolerance
    if tol is None:
        env = os.environ.get("CLB_PERF_TOLERANCE", "")
        try:
            tol = float(env) if env else 0.35
        except ValueError:
            fail(f"CLB_PERF_TOLERANCE={env!r} is not a number")
    if not 0.0 <= tol < 1.0:
        fail(f"compare tolerance {tol} outside [0, 1)")

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
        if ratio < 1.0 - tol:
            fail(f"throughput regression: {label} tasks_per_sec "
                 f"{run['tasks_per_sec']:.0f} is {ratio:.2f}x baseline "
                 f"{old:.0f} (floor {1.0 - tol:.2f}x; raise the tolerance "
                 f"via --compare-tolerance or CLB_PERF_TOLERANCE if this "
                 f"host is known-noisy)")
    if compared == 0:
        fail(f"baseline {args.compare!r} shares no (model, policy, workers) "
             f"runs with this configuration — nothing compared")
    print(f"perfbench: compare ok — {compared} runs within {tol:.2f} of "
          f"baseline (worst {worst[0]} at {worst[1]:.2f}x)")


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
    ap.add_argument("--exp24", action="store_true",
                    help="also run the EXP-24 link-model sweep (loss x "
                         "bandwidth grid) and record it under 'exp24'")
    ap.add_argument("--exp25", action="store_true",
                    help="also run the EXP-25 workload-zoo grid (zoo model "
                         "x policy + crash pass) and record it under "
                         "'exp25'")
    ap.add_argument("--exp26", action="store_true",
                    help="also run the EXP-26 cross-process transport sweep "
                         "(bench_transport: in-proc vs UDS, shadow-checked) "
                         "and record it under 'exp26'")
    ap.add_argument("--exp27", action="store_true",
                    help="also run the EXP-27 million-processor scaling grid "
                         "(bench_rt --scaling-grid: n x workers x "
                         "{arena, arena_steal}) and record it under "
                         "'exp27'")
    ap.add_argument("--bench-transport", default="build/bench/bench_transport",
                    help="path to the bench_transport binary (--exp26)")
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
                         "tasks_per_sec drops by more than the tolerance")
    ap.add_argument("--compare-tolerance", type=float, default=None,
                    help="allowed fractional throughput drop vs baseline "
                         "(default 0.35; CLB_PERF_TOLERANCE overrides the "
                         "default, the flag overrides both)")
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

    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "bench_rt.metrics.json")
        run_bench(args.bench, args, metrics_path)
        try:
            with open(metrics_path, encoding="utf-8") as f:
                gauges = json.load(f).get("gauges", {})
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read bench metrics: {e}")
        transport_gauges = None
        if args.exp26:
            transport_gauges = run_bench_transport(
                args, os.path.join(tmp, "bench_transport.metrics.json"))

    doc = assemble(gauges, args)
    if transport_gauges is not None:
        doc["exp26"] = assemble_exp26(transport_gauges)
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

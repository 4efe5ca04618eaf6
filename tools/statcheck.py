#!/usr/bin/env python3
"""statcheck: machine-checked tolerance bands over bench --metrics-json output.

Each band distils one claim from EXPERIMENTS.md into a numeric tolerance
evaluated against the gauges a bench harness exported:

  EXP-03 (Theorem 1)   balanced worst-case max load <= T at every swept n,
                       and flat in n (max/min ratio across sizes).
  EXP-07 (Lemma 7)     mean collision-game requests per heavy root is a
                       small constant (~1.5 measured), flat in n.
  EXP-13 (Section 1.2) the threshold algorithm beats all-in-air
                       redistribution on messages per task and locality,
                       at bounded max load.
  EXP-22 (extension)   rt::Runtime's latency fabric: mean phase duration
                       grows linearly with the message latency on real
                       worker threads (the EXP-19 dist/ result), at a held
                       match rate and no forced phase ends.
  EXP-24 (extension)   the link model on the same fabric: lossy links pay
                       retransmit RTOs and bandwidth caps pay per-link
                       queueing — both stretch phase durations while the
                       match rate holds; lossless uncapped rows pay neither.
  EXP-25 (extension)   the production workload zoo: on every zoo model the
                       load-oblivious threshold protocol and local search
                       beat the unbalanced control on max load, the
                       stale-information shortest-queue baseline herds onto
                       stale minima (max load blows up past the control),
                       and crashed processors re-home every queued task.
  EXP-27 (extension)   the million-processor scaling grid: every row's
                       counters are worker-count invariant (deterministic),
                       arena rows report their footprint, and steal rows
                       actually steal.
  EXP-20b (recovery)   worst-case recovery after a crash burst: local
                       search re-enters its band fast, the control does not.

Every band is one row of BANDS: a per-point comparison of a gauge against
its limit (optionally scaled by a point key or another gauge) on the points
its predicate selects, or a cross-point check over the whole sweep.

Usage (ctest runs this against fixture-generated metrics):

  statcheck.py --exp03 exp03.metrics.json --exp07 exp07.metrics.json \\
               --exp13 exp13.metrics.json --exp22 exp22.metrics.json \\
               --exp24 exp24.metrics.json --exp25 exp25.metrics.json \\
               --exp27 exp27.metrics.json --recovery recovery.metrics.json

Every band's limit can be perturbed with --override BAND=VALUE. --selftest
proves every limited band fires: with the given files it sets each limit in
turn to a value the band's comparison must reject and requires that band to
fail (and to pass unperturbed).

Exit status: 0 iff every evaluated band passed and at least one file was
checked (with --selftest: iff every limited band fired).
"""

import argparse
import json
import math
import operator
import re
import sys
from typing import Callable, NamedTuple

# Each section's points are the gauge groups whose name matches the regex
# and carries the marker gauge; the named groups become the point's keys.
SECTIONS = {
    "exp03": (r"exp03\.n(?P<n>\d+)\.", "T",
              "bench_maxload_single metrics JSON"),
    "exp07": (r"exp07\.n(?P<n>\d+)\.", "req_per_root_mean",
              "bench_expected_requests metrics JSON"),
    "exp13": (r"exp13\.", "threshold.msgs_per_task",
              "bench_baselines metrics JSON"),
    "exp22": (r"exp22\.lat(?P<lat>\d+)\.", "phase_duration_mean",
              "bench_rt --grids=exp22 metrics JSON"),
    "exp24": (r"exp24\.loss(?P<loss>\d+)\.bw(?P<bw>\d+)\.",
              "phase_duration_mean", "bench_rt --grids=exp24 metrics JSON"),
    "exp25": (r"exp25\.(?P<model>[a-z-]+)\.(?P<policy>[a-z-]+)\.",
              "max_load", "bench_rt --grids=exp25 metrics JSON"),
    "exp27": (r"exp27\.n(?P<n>\d+)\.w(?P<w>\d+)"
              r"\.(?P<layout>arena|arena_steal)\.", "tasks_per_sec",
              "bench_rt --grids=exp27 metrics JSON"),
    "recovery": (r"recovery\.(?P<policy>[a-z-]+)\.", "steps",
                 "bench_recovery --recovery-time metrics JSON"),
}

OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}
# A limit each comparison rejects whatever was measured (gauges are
# non-negative; inf times a zero scale is nan, which compares false).
REJECT = {"<=": -math.inf, ">=": math.inf, "==": -1.0}


class Band(NamedTuple):
    name: str                # <section>.<band>
    limit: float | None      # None: a cross-point check without a limit
    op: str = ""             # value OP limit [* other]
    field: str | tuple = ""  # point gauge suffix(es); every one must hold
    other: str = ""          # the limit's scale: a point key, or a gauge
                             # name formatted with the point ({p} = its own
                             # prefix)
    when: Callable | None = None   # the points the band applies to
    cross: Callable | None = None  # cross(band, limit, gauges, points)


RESULTS = []  # (band, ok) of the current evaluation
ECHO = True


def check(band, ok, detail):
    RESULTS.append((band, ok))
    if ECHO:
        print(f"  [{'PASS' if ok else 'FAIL'}] {band}: {detail}")


def holds(band, lim, value, scale=1.0):
    return OPS[band.op](value, lim * scale)


def tag(point):
    keys = [f"{k}={v}" for k, v in point.items() if k != "p"]
    return "/".join(keys) if keys else point["p"].rstrip(".")


def flat(field, floor):
    """A per-point gauge is flat across the sweep: max/min within limit."""
    def cross(band, lim, g, points):
        vals = [g[p["p"] + field] for p in points]
        ratio = max(vals) / max(min(vals), floor)
        check(band.name, holds(band, lim, ratio),
              f"{field} across n [{', '.join(f'{v:g}' for v in vals)}]: "
              f"max/min {ratio:.3f} {band.op} {lim:g}")
    return cross


def exp13_beats(band, lim, g, points):
    thr = g.get("exp13.threshold.msgs_per_task", math.inf)
    air = g.get("exp13.all_in_air.msgs_per_task", 0.0)
    check(band.name, thr < air,
          f"threshold {thr:.4f} < all-in-air {air:.4f} msgs/task")


def exp22_slope(band, lim, g, points):
    dur = {p["lat"]: g[p["p"] + "phase_duration_mean"] for p in points}
    if len(dur) < 2:
        check("exp22.present", False, "need gauges for at least two "
              f"latencies, found {sorted(dur) or 'none'}")
        return
    lo, hi = min(dur), max(dur)
    ratio = dur[hi] / max(dur[lo], 1e-9)
    check(band.name, holds(band, lim, ratio, hi / lo),
          f"duration(lat {hi})/duration(lat {lo}) = {ratio:.2f} {band.op} "
          f"{lim:g} * latency ratio {hi / lo:g} (duration ∝ latency)")


def exp24_stretch(axis, why):
    """Duration at the top of one axis (loss or bw) over its 0 row, at
    every value of the other axis."""
    def cross(band, lim, g, points):
        dur = {(p["loss"], p["bw"]): g[p["p"] + "phase_duration_mean"]
               for p in points}
        losses = sorted({k[0] for k in dur})
        bws = sorted({k[1] for k in dur})
        if len(losses) < 2 or len(bws) < 2 or 0 not in losses or 0 not in bws:
            check("exp24.present", False,
                  "need a loss x bandwidth grid including lossless/uncapped "
                  f"rows, found losses={losses or 'none'} bws={bws or 'none'}")
            return
        if axis == "loss":
            top = losses[-1]
            rows = [(f"bw={bw}", (top, bw), (0, bw)) for bw in bws]
        else:
            top = bws[-1]
            rows = [(f"loss={lo}", (lo, top), (lo, 0)) for lo in losses]
        for label, at_top, at_zero in rows:
            ratio = dur[at_top] / max(dur[at_zero], 1e-9)
            check(band.name, holds(band, lim, ratio),
                  f"{label}: duration({axis} {top})/duration({axis} 0) = "
                  f"{ratio:.2f} {band.op} {lim:g} ({why})")
    return cross


def exp25_crash_present(band, lim, g, points):
    if not any(p["model"] == "crash" for p in points):
        check(band.name, False, "no exp25.crash.* gauges")


def exp27_invariant(band, lim, g, points):
    # Deterministic worker-count invariance: every layout's counters are
    # identical at each worker count of the same n.
    for gn in sorted({p["n"] for p in points}):
        for layout in ("arena", "arena_steal"):
            vals = sorted({g[p["p"] + "consumed"] for p in points
                           if p["n"] == gn and p["layout"] == layout})
            if vals:
                check(band.name, len(vals) == 1,
                      f"n={gn}/{layout}: consumed {vals} across worker "
                      "counts")


def recovery_ls_vs_none(band, lim, g, points):
    steps = {p["policy"]: g[p["p"] + "steps"] for p in points}
    if "local-search" in steps and "none" in steps:
        ls, none = steps["local-search"], steps["none"]
        check(band.name, holds(band, lim, ls, none),
              f"local-search {ls:g} {band.op} {lim:g} * control {none:g} "
              "steps")


def zoo(policy=None, negate=False):
    """exp25 points off the crash pass, of (or not of) one policy."""
    def when(p):
        if p["model"] == "crash":
            return False
        return policy is None or (p["policy"] == policy) != negate
    return when


# Band limits distilled from EXPERIMENTS.md (measured at the reduced ctest
# fixture sizes: EXP-03/07 sweep n=1024,4096 at 1500 steps; EXP-13 runs
# n=2048). Margins are ~2-3x the observed values so seed-to-seed noise
# cannot flake the build, while regressions of the *shape* still trip.
BANDS = [
    # balanced_max_worst <= limit * T, per size  (measured 7 vs T=16)
    Band("exp03.balanced_max_le_T", 1.0, "<=", "balanced_max_worst", "{p}T"),
    # unbalanced control must exceed balanced max (measured 26-30 vs 7)
    Band("exp03.unbalanced_above", 1.5, ">=", "unbalanced_max",
         "{p}balanced_max_worst"),
    # max/min of balanced_max_worst across sizes (measured 1.0)
    Band("exp03.balanced_flat", 1.6, "<=",
         cross=flat("balanced_max_worst", 1.0)),
    # mean requests per heavy root, per size     (measured ~1.52-1.54)
    Band("exp07.req_per_root_lo", 1.0, ">=", "req_per_root_mean"),
    Band("exp07.req_per_root_hi", 2.5, "<=", "req_per_root_mean"),
    # max/min across sizes (Lemma 7 constant)    (measured ~1.02)
    Band("exp07.req_per_root_flat", 1.3, "<=",
         cross=flat("req_per_root_mean", 1e-9)),
    # threshold protocol messages per task       (measured ~0.095)
    Band("exp13.threshold_msgs_hi", 0.3, "<=", "threshold.msgs_per_task"),
    # all-in-air pays >= 1 message per task by construction (measured ~1.02)
    Band("exp13.allinair_msgs_lo", 0.5, ">=", "all_in_air.msgs_per_task"),
    Band("exp13.threshold_beats_allinair", None, cross=exp13_beats),
    # threshold locality                         (measured ~0.979)
    Band("exp13.threshold_locality_lo", 0.9, ">=", "threshold.locality"),
    # all-in-air scatters tasks                  (measured ~0.33)
    Band("exp13.allinair_locality_hi", 0.6, "<=", "all_in_air.locality"),
    # threshold max load stays within T          (measured 7 vs T=16)
    Band("exp13.threshold_max_load_hi", 16.0, "<=", "threshold.max_load"),
    # phases doing heavy work per sweep point    (measured 19-26)
    Band("exp22.phases_min", 8.0, ">=", "phases"),
    # per-latency normalised duration, steps/lat (measured ~3.0-3.2)
    Band("exp22.duration_per_latency_lo", 1.5, ">=", "phase_duration_mean",
         "lat"),
    Band("exp22.duration_per_latency_hi", 8.0, "<=", "phase_duration_mean",
         "lat"),
    # heavy-processor match rate, percent        (measured 100)
    Band("exp22.match_pct_lo", 60.0, ">=", "match_pct"),
    # failsafe-forced phase ends                 (measured 0)
    Band("exp22.forced_hi", 0.0, "<=", "forced"),
    # duration(max lat) / duration(min lat) must reach this fraction of the
    # latency ratio itself                       (measured 0.94 of ideal)
    Band("exp22.duration_ratio_lo", 0.5, ">=", cross=exp22_slope),
    # EXP-24 (fixture: n=128, lat-steps=512, latency 2, jitter 1,
    # loss grid 0,4096,16384 /64k, bandwidth grid 0,1):
    # phases doing heavy work per grid point     (measured 22-25)
    Band("exp24.phases_min", 8.0, ">=", "phases"),
    # heavy-processor match rate, percent        (measured 100)
    Band("exp24.match_pct_lo", 60.0, ">=", "match_pct"),
    # failsafe-forced phase ends                 (measured 0)
    Band("exp24.forced_hi", 0.0, "<=", "forced"),
    # lossless rows must not retransmit or schedule duplicates (measured 0)
    Band("exp24.lossless_retransmits_hi", 0.0, "<=",
         ("retransmits", "dup_suppressed"), when=lambda p: p["loss"] == 0),
    # every lossy row must actually retransmit   (measured 24-119)
    Band("exp24.lossy_retransmits_min", 1.0, ">=", "retransmits",
         when=lambda p: p["loss"] != 0),
    # uncapped rows must not queue behind links  (measured 0)
    Band("exp24.uncapped_queued_hi", 0.0, "<=", "queued_delay",
         when=lambda p: p["bw"] == 0),
    # every capped row must actually queue       (measured 93-101)
    Band("exp24.capped_queued_min", 1.0, ">=", "queued_delay",
         when=lambda p: p["bw"] != 0),
    # duration(max loss) / duration(lossless), same cap (measured 2.5-2.9)
    Band("exp24.loss_duration_ratio_lo", 1.3, ">=",
         cross=exp24_stretch("loss", "retransmit RTOs stretch phases")),
    # duration(capped) / duration(uncapped), same loss  (measured 1.05-1.24)
    Band("exp24.bw_duration_ratio_lo", 1.0, ">=",
         cross=exp24_stretch("bw", "link queueing stretches phases")),
    # EXP-25 (fixture: n=256, zoo-steps=192, staleness 8; deterministic, so
    # the measured values are exact constants, not noisy samples):
    # every zoo run consumes work                  (measured 5249-17936)
    Band("exp25.consumed_min", 1.0, ">=", "consumed", when=zoo()),
    # the unbalanced control moves none            (measured 0)
    Band("exp25.none_moved_hi", 0.0, "<=", "tasks_moved", when=zoo("none")),
    # every balancing policy actually moves tasks  (measured 1340-113261)
    Band("exp25.balancer_moved_min", 1.0, ">=", "tasks_moved",
         when=zoo("none", negate=True)),
    # local-search max load / unbalanced max load  (measured 0.01-0.56)
    Band("exp25.ls_improves_max_load", 0.8, "<=", "max_load",
         "exp25.{model}.none.max_load", zoo("local-search")),
    # threshold max load / unbalanced max load     (measured 0.12-0.80)
    Band("exp25.threshold_improves_max_load", 0.95, "<=", "max_load",
         "exp25.{model}.none.max_load", zoo("threshold")),
    # stale-SQ max load / unbalanced max load: herding onto the stale
    # minimum must blow the max load UP            (measured 3.5-233)
    Band("exp25.stale_herds_min", 2.0, ">=", "max_load",
         "exp25.{model}.none.max_load", zoo("stale-sq")),
    # threshold protocol messages per task         (measured 0.46-2.94)
    Band("exp25.threshold_msgs_hi", 6.0, "<=", "msgs_per_task",
         when=zoo("threshold")),
    Band("exp25.crash_present", None, cross=exp25_crash_present),
    # crash pass: both scheduled crash events re-home (measured 2 exactly)
    Band("exp25.crash_rehomed_events", 2.0, "==", "rehomed_events",
         when=lambda p: p["model"] == "crash"),
    # crash pass: re-homed queues carry tasks      (measured 2-9)
    Band("exp25.crash_rehomed_tasks_min", 1.0, ">=", "rehomed_tasks",
         when=lambda p: p["model"] == "crash"),
    # EXP-27 (fixture: bench_rt --grids=exp27 --grid-n=16384
    # --grid-workers=1,2 --grid-steps=32; deterministic, so every counter
    # is an exact constant):
    # every grid run consumes work                 (measured 107500-108279)
    Band("exp27.consumed_min", 1.0, ">=", "consumed"),
    # every row reports a non-zero arena footprint (measured ~5.2 MB)
    Band("exp27.arena_bytes_min", 1.0, ">=", "arena_bytes"),
    # steal rows actually steal                    (measured 256 events)
    Band("exp27.steal_events_min", 1.0, ">=", "steal_events",
         when=lambda p: p["layout"] == "arena_steal"),
    # each steal event carries at least this many tasks (measured 4.0)
    Band("exp27.stolen_per_event_min", 1.0, ">=", "stolen_tasks",
         "{p}steal_events", lambda p: p["layout"] == "arena_steal"),
    Band("exp27.worker_invariant", None, cross=exp27_invariant),
    # EXP-20b --recovery-time (fixture: n=1024, crash-step 64, crash-down
    # 128, 8 crashed procs x 48 pre-loaded tasks; deterministic):
    # every crashed processor re-homes exactly once (measured 8)
    Band("recovery.rehomed_events", 8.0, "==", "rehomed_events"),
    # re-homed queues carry at least the pre-loaded tasks (measured 390-5396)
    Band("recovery.rehomed_tasks_min", 384.0, ">=", "rehomed_tasks"),
    # the burst actually spikes: peak >= this multiple of the pre-crash band
    # for the non-herding policies (herding inflates the stale-SQ band)
    #                                           (measured 197/4 and 397/16)
    Band("recovery.peak_over_band_min", 2.0, ">=", "peak", "{p}band",
         lambda p: p["policy"] != "stale-sq"),
    # local-search re-enters its band fast         (measured 9 steps)
    Band("recovery.ls_steps_hi", 64.0, "<=", "steps",
         when=lambda p: p["policy"] == "local-search"),
    # the unbalanced control drains only at eps/step (measured 3734 steps)
    Band("recovery.none_steps_min", 500.0, ">=", "steps",
         when=lambda p: p["policy"] == "none"),
    # local-search beats the control by an order of magnitude
    # (measured 9/3734 ~= 0.0024)
    Band("recovery.ls_vs_none_hi", 0.1, "<=", cross=recovery_ls_vs_none),
]


def points_of(g, section):
    pattern, marker, _ = SECTIONS[section]
    rx = re.compile("^" + pattern + re.escape(marker) + "$")
    points = []
    for name in g:
        if m := rx.match(name):
            point = {k: int(v) if v.isdigit() else v
                     for k, v in m.groupdict().items()}
            point["p"] = name[:-len(marker)]
            points.append(point)
    return sorted(points, key=lambda p: [p[k] for k in rx.groupindex])


def check_point(band, lim, g, point):
    fields = band.field if isinstance(band.field, tuple) else (band.field,)
    names = [point["p"] + f for f in fields]
    scale, scale_name = 1.0, ""
    if band.other in point:
        scale, scale_name = float(point[band.other]), band.other
    elif band.other:
        scale_name = band.other.format(**point)
        names.append(scale_name)
    missing = [n for n in names if n not in g]
    if missing:
        check(band.name, False, f"{tag(point)}: missing gauges {missing}")
        return
    if band.other and band.other not in point:
        scale = g[scale_name]
    vals = [g[n] for n in names[:len(fields)]]
    detail = " / ".join(f"{f} {v:g}" for f, v in zip(fields, vals))
    detail += f" {band.op} {lim:g}"
    if band.other:
        detail += f" * {scale_name} {scale:g}"
    check(band.name, all(holds(band, lim, v, scale) for v in vals),
          f"{tag(point)}: {detail}")


def evaluate(files, limits):
    """Runs every band of every section in `files` ({section: path});
    returns the [(band, ok)] results."""
    RESULTS.clear()
    for section, path in files.items():
        if ECHO:
            print(f"{section} bands ({path}):")
        with open(path) as f:
            g = json.load(f).get("gauges", {})
        points = points_of(g, section)
        if not points:
            check(f"{section}.present", False,
                  f"no {section}.* gauges found")
            continue
        bands = [b for b in BANDS if b.name.split(".")[0] == section]
        for point in points:
            for band in bands:
                if band.cross is None and (band.when is None or
                                           band.when(point)):
                    check_point(band, limits.get(band.name), g, point)
        for band in bands:
            if band.cross is not None:
                band.cross(band, limits.get(band.name), g, points)
    return list(RESULTS)


def selftest(files, limits):
    """Every limited band passes as measured and fails at a limit its
    comparison must reject."""
    global ECHO
    ECHO = False
    base = evaluate(files, limits)
    fired = 0
    limited = [b for b in BANDS if b.limit is not None]
    for band in limited:
        ours = [ok for name, ok in base if name == band.name]
        rejected = evaluate(files, {**limits, band.name: REJECT[band.op]})
        fires = [ok for name, ok in rejected if name == band.name]
        if not ours or not all(ours):
            print(f"  [FAIL] {band.name}: not passing as measured "
                  f"({len(ours)} checks)")
        elif all(fires):
            print(f"  [FAIL] {band.name}: still passes at limit "
                  f"{REJECT[band.op]:g}")
        else:
            fired += 1
            print(f"  [PASS] {band.name}: fires at limit "
                  f"{REJECT[band.op]:g}")
    print(f"statcheck --selftest: {fired} of {len(limited)} limited bands "
          "fire")
    return 0 if fired == len(limited) else 1


def main():
    ap = argparse.ArgumentParser(
        description="Evaluate EXPERIMENTS.md tolerance bands against bench "
                    "--metrics-json output.")
    for section, (_, _, what) in SECTIONS.items():
        ap.add_argument(f"--{section}", help=what)
    ap.add_argument("--override", action="append", default=[],
                    metavar="BAND=VALUE",
                    help="perturb a band limit (self-test hook)")
    ap.add_argument("--selftest", action="store_true",
                    help="prove every limited band fires on these files")
    args = ap.parse_args()

    limits = {b.name: b.limit for b in BANDS if b.limit is not None}
    for ov in args.override:
        band, _, value = ov.partition("=")
        if band not in limits:
            print(f"unknown band in --override: {band}", file=sys.stderr)
            print(f"known bands: {', '.join(sorted(limits))}", file=sys.stderr)
            return 2
        limits[band] = float(value)

    files = {s: getattr(args, s) for s in SECTIONS if getattr(args, s)}
    if not files:
        ap.error("at least one of "
                 f"{'/'.join('--' + s for s in SECTIONS)} is required")
    if args.selftest:
        return selftest(files, limits)

    results = evaluate(files, limits)
    passed = sum(ok for _, ok in results)
    failed = len(results) - passed
    print(f"statcheck: {passed} bands passed, {failed} failed")
    return 0 if failed == 0 and results else 1


if __name__ == "__main__":
    sys.exit(main())

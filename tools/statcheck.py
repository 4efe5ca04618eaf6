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

Usage (ctest runs this against fixture-generated metrics):

  statcheck.py --exp03 exp03.metrics.json --exp07 exp07.metrics.json \\
               --exp13 exp13.metrics.json --exp22 exp22.metrics.json \\
               --exp24 exp24.metrics.json --exp25 exp25.metrics.json \\
               --exp27 exp27.metrics.json

Every band's limit can be perturbed with --override BAND=VALUE; the
statcheck_selftest ctest entry uses an absurd override to prove a violated
band actually fails the build.

Exit status: 0 iff every evaluated band passed and at least one file was
checked.
"""

import argparse
import json
import re
import sys

# Band limits distilled from EXPERIMENTS.md (measured at the reduced ctest
# fixture sizes: EXP-03/07 sweep n=1024,4096 at 1500 steps; EXP-13 runs
# n=2048). Margins are ~2-3x the observed values so seed-to-seed noise
# cannot flake the build, while regressions of the *shape* still trip.
DEFAULT_LIMITS = {
    # balanced_max_worst <= limit * T, per size  (measured 7 vs T=16)
    "exp03.balanced_max_le_T": 1.0,
    # max/min of balanced_max_worst across sizes (measured 1.0)
    "exp03.balanced_flat": 1.6,
    # unbalanced control must exceed balanced max (measured 26-30 vs 7)
    "exp03.unbalanced_above": 1.5,
    # mean requests per heavy root, per size     (measured ~1.52-1.54)
    "exp07.req_per_root_lo": 1.0,
    "exp07.req_per_root_hi": 2.5,
    # max/min across sizes                       (measured ~1.02)
    "exp07.req_per_root_flat": 1.3,
    # threshold protocol messages per task       (measured ~0.095)
    "exp13.threshold_msgs_hi": 0.3,
    # all-in-air pays >= 1 message per task by construction (measured ~1.02)
    "exp13.allinair_msgs_lo": 0.5,
    # threshold locality                         (measured ~0.979)
    "exp13.threshold_locality_lo": 0.9,
    # all-in-air scatters tasks                  (measured ~0.33)
    "exp13.allinair_locality_hi": 0.6,
    # threshold max load stays within T          (measured 7 vs T=16)
    "exp13.threshold_max_load_hi": 16.0,
    # EXP-22 slope: duration(max lat) / duration(min lat) must reach this
    # fraction of the latency ratio itself       (measured 0.94 of ideal)
    "exp22.duration_ratio_lo": 0.5,
    # per-latency normalised duration, steps/lat (measured ~3.0-3.2)
    "exp22.duration_per_latency_lo": 1.5,
    "exp22.duration_per_latency_hi": 8.0,
    # phases doing heavy work per sweep point    (measured 19-26)
    "exp22.phases_min": 8.0,
    # heavy-processor match rate, percent        (measured 100)
    "exp22.match_pct_lo": 60.0,
    # failsafe-forced phase ends                 (measured 0)
    "exp22.forced_hi": 0.0,
    # EXP-24 (fixture: n=128, lat-steps=512, latency 2, jitter 1,
    # loss grid 0,4096,16384 /64k, bandwidth grid 0,1):
    # phases doing heavy work per grid point     (measured 22-25)
    "exp24.phases_min": 8.0,
    # heavy-processor match rate, percent        (measured 100)
    "exp24.match_pct_lo": 60.0,
    # failsafe-forced phase ends                 (measured 0)
    "exp24.forced_hi": 0.0,
    # lossless rows must not retransmit or schedule duplicates (measured 0)
    "exp24.lossless_retransmits_hi": 0.0,
    # every lossy row must actually retransmit   (measured 24-119)
    "exp24.lossy_retransmits_min": 1.0,
    # uncapped rows must not queue behind links  (measured 0)
    "exp24.uncapped_queued_hi": 0.0,
    # every capped row must actually queue       (measured 93-101)
    "exp24.capped_queued_min": 1.0,
    # duration(max loss) / duration(lossless), same cap (measured 2.5-2.9)
    "exp24.loss_duration_ratio_lo": 1.3,
    # duration(capped) / duration(uncapped), same loss  (measured 1.05-1.24)
    "exp24.bw_duration_ratio_lo": 1.0,
    # EXP-25 (fixture: n=256, zoo-steps=192, staleness 8; deterministic, so
    # the measured values are exact constants, not noisy samples):
    # local-search max load / unbalanced max load  (measured 0.01-0.56)
    "exp25.ls_improves_max_load": 0.8,
    # threshold max load / unbalanced max load     (measured 0.12-0.80)
    "exp25.threshold_improves_max_load": 0.95,
    # stale-SQ max load / unbalanced max load: herding onto the stale
    # minimum must blow the max load UP            (measured 3.5-233)
    "exp25.stale_herds_min": 2.0,
    # every balancing policy actually moves tasks  (measured 1340-113261)
    "exp25.balancer_moved_min": 1.0,
    # the unbalanced control moves none            (measured 0)
    "exp25.none_moved_hi": 0.0,
    # threshold protocol messages per task         (measured 0.46-2.94)
    "exp25.threshold_msgs_hi": 6.0,
    # crash pass: both scheduled crash events re-home (measured 2 exactly)
    "exp25.crash_rehomed_events": 2.0,
    # crash pass: re-homed queues carry tasks      (measured 2-9)
    "exp25.crash_rehomed_tasks_min": 1.0,
    # every zoo run consumes work                  (measured 5249-17936)
    "exp25.consumed_min": 1.0,
    # EXP-27 (fixture: bench_rt --scaling-grid --smoke, so the grid runs
    # n=16384 at workers 1,2 for 32 steps; deterministic, so every counter
    # is an exact constant):
    # every grid run consumes work                 (measured 107500-108279)
    "exp27.consumed_min": 1.0,
    # steal rows actually steal                    (measured 256 events)
    "exp27.steal_events_min": 1.0,
    # each steal event carries at least this many tasks (measured 4.0)
    "exp27.stolen_per_event_min": 1.0,
    # every row reports a non-zero arena footprint (measured ~5.2 MB)
    "exp27.arena_bytes_min": 1.0,
    # EXP-20b --recovery-time (fixture: n=1024, crash-step 64, crash-down
    # 128, 8 crashed procs x 48 pre-loaded tasks; deterministic):
    # every crashed processor re-homes exactly once (measured 8)
    "recovery.rehomed_events": 8.0,
    # re-homed queues carry at least the pre-loaded tasks (measured 390-5396)
    "recovery.rehomed_tasks_min": 384.0,
    # the burst actually spikes: peak >= this multiple of the pre-crash band
    # for the non-herding policies              (measured 197/4 and 397/16)
    "recovery.peak_over_band_min": 2.0,
    # local-search re-enters its band fast         (measured 9 steps)
    "recovery.ls_steps_hi": 64.0,
    # the unbalanced control drains only at eps/step (measured 3734 steps)
    "recovery.none_steps_min": 500.0,
    # local-search beats the control by an order of magnitude
    # (measured 9/3734 ~= 0.0024)
    "recovery.ls_vs_none_hi": 0.1,
}

RESULTS = []


def check(band, ok, detail):
    RESULTS.append(ok)
    print(f"  [{'PASS' if ok else 'FAIL'}] {band}: {detail}")


def gauges(path):
    with open(path) as f:
        return json.load(f).get("gauges", {})


def sweep_sizes(g, pattern):
    """Sizes n for which a gauge matching pattern % n exists, ascending."""
    sizes = []
    rx = re.compile("^" + pattern.replace("%d", r"(\d+)") + "$")
    for name in g:
        m = rx.match(name)
        if m:
            sizes.append(int(m.group(1)))
    return sorted(sizes)


def check_exp03(g, limit):
    sizes = sweep_sizes(g, r"exp03\.n%d\.T")
    if not sizes:
        check("exp03.present", False, "no exp03.* gauges found")
        return
    worst = []
    for n in sizes:
        bal = g[f"exp03.n{n}.balanced_max_worst"]
        t = g[f"exp03.n{n}.T"]
        unbal = g[f"exp03.n{n}.unbalanced_max"]
        lim = limit("exp03.balanced_max_le_T")
        check("exp03.balanced_max_le_T", bal <= lim * t,
              f"n={n}: balanced max {bal:g} <= {lim:g} * T({t:g})")
        lim = limit("exp03.unbalanced_above")
        check("exp03.unbalanced_above", unbal >= lim * bal,
              f"n={n}: unbalanced max {unbal:g} >= {lim:g} * balanced {bal:g}")
        worst.append(bal)
    lim = limit("exp03.balanced_flat")
    ratio = max(worst) / max(min(worst), 1.0)
    check("exp03.balanced_flat", ratio <= lim,
          f"balanced max across n {worst}: max/min {ratio:.3f} <= {lim:g}")


def check_exp07(g, limit):
    sizes = sweep_sizes(g, r"exp07\.n%d\.req_per_root_mean")
    if not sizes:
        check("exp07.present", False, "no exp07.* gauges found")
        return
    means = []
    for n in sizes:
        mean = g[f"exp07.n{n}.req_per_root_mean"]
        lo = limit("exp07.req_per_root_lo")
        hi = limit("exp07.req_per_root_hi")
        check("exp07.req_per_root_lo", mean >= lo,
              f"n={n}: mean req/root {mean:.3f} >= {lo:g}")
        check("exp07.req_per_root_hi", mean <= hi,
              f"n={n}: mean req/root {mean:.3f} <= {hi:g}")
        means.append(mean)
    lim = limit("exp07.req_per_root_flat")
    ratio = max(means) / min(means)
    check("exp07.req_per_root_flat", ratio <= lim,
          f"req/root across n: max/min {ratio:.3f} <= {lim:g} (Lemma 7 "
          "constant)")


def check_exp13(g, limit):
    need = ["exp13.threshold.msgs_per_task", "exp13.all_in_air.msgs_per_task",
            "exp13.threshold.locality", "exp13.all_in_air.locality",
            "exp13.threshold.max_load"]
    missing = [k for k in need if k not in g]
    if missing:
        check("exp13.present", False, f"missing gauges: {missing}")
        return
    thr_msgs = g["exp13.threshold.msgs_per_task"]
    air_msgs = g["exp13.all_in_air.msgs_per_task"]
    lim = limit("exp13.threshold_msgs_hi")
    check("exp13.threshold_msgs_hi", thr_msgs <= lim,
          f"threshold {thr_msgs:.4f} msgs/task <= {lim:g}")
    lim = limit("exp13.allinair_msgs_lo")
    check("exp13.allinair_msgs_lo", air_msgs >= lim,
          f"all-in-air {air_msgs:.4f} msgs/task >= {lim:g}")
    check("exp13.threshold_beats_allinair", thr_msgs < air_msgs,
          f"threshold {thr_msgs:.4f} < all-in-air {air_msgs:.4f} msgs/task")
    lim = limit("exp13.threshold_locality_lo")
    loc = g["exp13.threshold.locality"]
    check("exp13.threshold_locality_lo", loc >= lim,
          f"threshold locality {loc:.3f} >= {lim:g}")
    lim = limit("exp13.allinair_locality_hi")
    loc = g["exp13.all_in_air.locality"]
    check("exp13.allinair_locality_hi", loc <= lim,
          f"all-in-air locality {loc:.3f} <= {lim:g}")
    lim = limit("exp13.threshold_max_load_hi")
    ml = g["exp13.threshold.max_load"]
    check("exp13.threshold_max_load_hi", ml <= lim,
          f"threshold max load {ml:g} <= {lim:g}")


def check_exp22(g, limit):
    lats = sweep_sizes(g, r"exp22\.lat%d\.phase_duration_mean")
    if len(lats) < 2:
        check("exp22.present", False,
              "need gauges for at least two latencies, found "
              f"{lats or 'none'}")
        return
    durs = {}
    for lat in lats:
        dur = g[f"exp22.lat{lat}.phase_duration_mean"]
        durs[lat] = dur
        phases = g[f"exp22.lat{lat}.phases"]
        lim = limit("exp22.phases_min")
        check("exp22.phases_min", phases >= lim,
              f"lat={lat}: {phases:g} heavy phases >= {lim:g}")
        per = dur / lat
        lo = limit("exp22.duration_per_latency_lo")
        hi = limit("exp22.duration_per_latency_hi")
        check("exp22.duration_per_latency_lo", per >= lo,
              f"lat={lat}: duration/latency {per:.2f} >= {lo:g}")
        check("exp22.duration_per_latency_hi", per <= hi,
              f"lat={lat}: duration/latency {per:.2f} <= {hi:g}")
        lim = limit("exp22.match_pct_lo")
        match = g[f"exp22.lat{lat}.match_pct"]
        check("exp22.match_pct_lo", match >= lim,
              f"lat={lat}: match rate {match:.1f}% >= {lim:g}%")
        lim = limit("exp22.forced_hi")
        forced = g[f"exp22.lat{lat}.forced"]
        check("exp22.forced_hi", forced <= lim,
              f"lat={lat}: {forced:g} forced phase ends <= {lim:g}")
    lo_lat, hi_lat = min(lats), max(lats)
    ratio = durs[hi_lat] / max(durs[lo_lat], 1e-9)
    lat_ratio = hi_lat / lo_lat
    lim = limit("exp22.duration_ratio_lo")
    check("exp22.duration_ratio_lo", ratio >= lim * lat_ratio,
          f"duration(lat {hi_lat})/duration(lat {lo_lat}) = {ratio:.2f} >= "
          f"{lim:g} * latency ratio {lat_ratio:g} (duration ∝ latency)")


def check_exp24(g, limit):
    rx = re.compile(r"^exp24\.loss(\d+)\.bw(\d+)\.phase_duration_mean$")
    points = sorted((int(m.group(1)), int(m.group(2)))
                    for name in g if (m := rx.match(name)))
    losses = sorted({p[0] for p in points})
    bws = sorted({p[1] for p in points})
    if len(losses) < 2 or len(bws) < 2 or 0 not in losses or 0 not in bws:
        check("exp24.present", False,
              "need a loss x bandwidth grid including lossless/uncapped "
              f"rows, found losses={losses or 'none'} bws={bws or 'none'}")
        return
    for loss, bw in points:
        p = f"exp24.loss{loss}.bw{bw}."
        tag = f"loss={loss}/bw={bw}"
        lim = limit("exp24.phases_min")
        phases = g[p + "phases"]
        check("exp24.phases_min", phases >= lim,
              f"{tag}: {phases:g} heavy phases >= {lim:g}")
        lim = limit("exp24.match_pct_lo")
        match = g[p + "match_pct"]
        check("exp24.match_pct_lo", match >= lim,
              f"{tag}: match rate {match:.1f}% >= {lim:g}%")
        lim = limit("exp24.forced_hi")
        forced = g[p + "forced"]
        check("exp24.forced_hi", forced <= lim,
              f"{tag}: {forced:g} forced phase ends <= {lim:g}")
        retrans = g[p + "retransmits"]
        dups = g[p + "dup_suppressed"]
        queued = g[p + "queued_delay"]
        if loss == 0:
            lim = limit("exp24.lossless_retransmits_hi")
            check("exp24.lossless_retransmits_hi",
                  retrans <= lim and dups <= lim,
                  f"{tag}: lossless retransmits {retrans:g} / dups "
                  f"{dups:g} <= {lim:g}")
        else:
            lim = limit("exp24.lossy_retransmits_min")
            check("exp24.lossy_retransmits_min", retrans >= lim,
                  f"{tag}: lossy retransmits {retrans:g} >= {lim:g}")
        if bw == 0:
            lim = limit("exp24.uncapped_queued_hi")
            check("exp24.uncapped_queued_hi", queued <= lim,
                  f"{tag}: uncapped queued delay {queued:g} <= {lim:g}")
        else:
            lim = limit("exp24.capped_queued_min")
            check("exp24.capped_queued_min", queued >= lim,
                  f"{tag}: capped queued delay {queued:g} >= {lim:g}")
    hi_loss, hi_bw = max(losses), max(bws)
    for bw in bws:
        base = g[f"exp24.loss0.bw{bw}.phase_duration_mean"]
        dur = g[f"exp24.loss{hi_loss}.bw{bw}.phase_duration_mean"]
        ratio = dur / max(base, 1e-9)
        lim = limit("exp24.loss_duration_ratio_lo")
        check("exp24.loss_duration_ratio_lo", ratio >= lim,
              f"bw={bw}: duration(loss {hi_loss})/duration(lossless) = "
              f"{ratio:.2f} >= {lim:g} (retransmit RTOs stretch phases)")
    for loss in losses:
        base = g[f"exp24.loss{loss}.bw0.phase_duration_mean"]
        dur = g[f"exp24.loss{loss}.bw{hi_bw}.phase_duration_mean"]
        ratio = dur / max(base, 1e-9)
        lim = limit("exp24.bw_duration_ratio_lo")
        check("exp24.bw_duration_ratio_lo", ratio >= lim,
              f"loss={loss}: duration(bw {hi_bw})/duration(uncapped) = "
              f"{ratio:.2f} >= {lim:g} (link queueing stretches phases)")


def check_exp25(g, limit):
    rx = re.compile(r"^exp25\.([a-z-]+)\.([a-z-]+)\.max_load$")
    models = sorted({m.group(1) for name in g
                     if (m := rx.match(name)) and m.group(1) != "crash"})
    crash_policies = sorted({m.group(2) for name in g
                             if (m := rx.match(name))
                             and m.group(1) == "crash"})
    if not models:
        check("exp25.present", False, "no exp25.<model>.<policy>.* gauges")
        return
    for model in models:
        p = f"exp25.{model}."
        none_max = g[p + "none.max_load"]
        for policy in ("none", "stale-sq", "local-search", "threshold"):
            lim = limit("exp25.consumed_min")
            consumed = g[p + policy + ".consumed"]
            check("exp25.consumed_min", consumed >= lim,
                  f"{model}/{policy}: consumed {consumed:g} >= {lim:g}")
            moved = g[p + policy + ".tasks_moved"]
            if policy == "none":
                lim = limit("exp25.none_moved_hi")
                check("exp25.none_moved_hi", moved <= lim,
                      f"{model}/none: moved {moved:g} <= {lim:g}")
            else:
                lim = limit("exp25.balancer_moved_min")
                check("exp25.balancer_moved_min", moved >= lim,
                      f"{model}/{policy}: moved {moved:g} >= {lim:g}")
        lim = limit("exp25.ls_improves_max_load")
        ls = g[p + "local-search.max_load"]
        check("exp25.ls_improves_max_load", ls <= lim * none_max,
              f"{model}: local-search max {ls:g} <= {lim:g} * "
              f"unbalanced {none_max:g}")
        lim = limit("exp25.threshold_improves_max_load")
        thr = g[p + "threshold.max_load"]
        check("exp25.threshold_improves_max_load", thr <= lim * none_max,
              f"{model}: threshold max {thr:g} <= {lim:g} * "
              f"unbalanced {none_max:g}")
        lim = limit("exp25.stale_herds_min")
        stale = g[p + "stale-sq.max_load"]
        check("exp25.stale_herds_min", stale >= lim * none_max,
              f"{model}: stale-SQ max {stale:g} >= {lim:g} * unbalanced "
              f"{none_max:g} (herding onto the stale minimum)")
        lim = limit("exp25.threshold_msgs_hi")
        msgs = g[p + "threshold.msgs_per_task"]
        check("exp25.threshold_msgs_hi", msgs <= lim,
              f"{model}: threshold {msgs:.4f} msgs/task <= {lim:g}")
    if not crash_policies:
        check("exp25.crash_present", False, "no exp25.crash.* gauges")
        return
    for policy in crash_policies:
        p = f"exp25.crash.{policy}."
        lim = limit("exp25.crash_rehomed_events")
        events = g[p + "rehomed_events"]
        check("exp25.crash_rehomed_events", events == lim,
              f"crash/{policy}: {events:g} re-home events == {lim:g}")
        lim = limit("exp25.crash_rehomed_tasks_min")
        tasks = g[p + "rehomed_tasks"]
        check("exp25.crash_rehomed_tasks_min", tasks >= lim,
              f"crash/{policy}: {tasks:g} re-homed tasks >= {lim:g}")


def check_exp27(g, limit):
    rx = re.compile(
        r"^exp27\.n(\d+)\.w(\d+)\.(arena|arena_steal)\.tasks_per_sec$")
    points = sorted((int(m.group(1)), int(m.group(2)), m.group(3))
                    for name in g if (m := rx.match(name)))
    if not points:
        check("exp27.present", False, "no exp27.* gauges found")
        return
    for gn, w, layout in points:
        p = f"exp27.n{gn}.w{w}.{layout}."
        tag = f"n={gn}/w={w}/{layout}"
        lim = limit("exp27.consumed_min")
        consumed = g[p + "consumed"]
        check("exp27.consumed_min", consumed >= lim,
              f"{tag}: consumed {consumed:g} >= {lim:g}")
        lim = limit("exp27.arena_bytes_min")
        ab = g[p + "arena_bytes"]
        check("exp27.arena_bytes_min", ab >= lim,
              f"{tag}: arena bytes {ab:g} >= {lim:g}")
        if layout == "arena_steal":
            lim = limit("exp27.steal_events_min")
            events = g[p + "steal_events"]
            check("exp27.steal_events_min", events >= lim,
                  f"{tag}: {events:g} steal events >= {lim:g}")
            lim = limit("exp27.stolen_per_event_min")
            stolen = g[p + "stolen_tasks"]
            check("exp27.stolen_per_event_min", stolen >= lim * events,
                  f"{tag}: {stolen:g} stolen tasks >= {lim:g} * "
                  f"{events:g} events")
    # Deterministic worker-count invariance: every layout's counters are
    # identical at each worker count of the same n.
    for gn in sorted({p[0] for p in points}):
        for layout in ("arena", "arena_steal"):
            vals = sorted({g[f"exp27.n{gn}.w{w}.{layout}.consumed"]
                           for pn, w, pl in points
                           if pn == gn and pl == layout})
            if len(vals) > 1:
                check("exp27.worker_invariant", False,
                      f"n={gn}/{layout}: consumed varies with workers "
                      f"{vals}")
            elif vals:
                check("exp27.worker_invariant", True,
                      f"n={gn}/{layout}: consumed {vals[0]:g} at every "
                      "worker count")


def check_recovery(g, limit):
    policies = sorted({m.group(1) for name in g
                       if (m := re.match(r"^recovery\.([a-z-]+)\.steps$",
                                         name))})
    if not policies:
        check("recovery.present", False, "no recovery.<policy>.* gauges")
        return
    for policy in policies:
        p = f"recovery.{policy}."
        lim = limit("recovery.rehomed_events")
        events = g[p + "rehomed_events"]
        check("recovery.rehomed_events", events == lim,
              f"{policy}: {events:g} re-home events == {lim:g}")
        lim = limit("recovery.rehomed_tasks_min")
        tasks = g[p + "rehomed_tasks"]
        check("recovery.rehomed_tasks_min", tasks >= lim,
              f"{policy}: {tasks:g} re-homed tasks >= {lim:g}")
        if policy != "stale-sq":  # herding inflates the pre-crash band
            lim = limit("recovery.peak_over_band_min")
            peak, band = g[p + "peak"], g[p + "band"]
            check("recovery.peak_over_band_min", peak >= lim * band,
                  f"{policy}: peak {peak:g} >= {lim:g} * band {band:g}")
    if "local-search" in policies:
        lim = limit("recovery.ls_steps_hi")
        ls = g["recovery.local-search.steps"]
        check("recovery.ls_steps_hi", ls <= lim,
              f"local-search recovers in {ls:g} steps <= {lim:g}")
    if "none" in policies:
        lim = limit("recovery.none_steps_min")
        none = g["recovery.none.steps"]
        check("recovery.none_steps_min", none >= lim,
              f"unbalanced control needs {none:g} steps >= {lim:g}")
        if "local-search" in policies:
            lim = limit("recovery.ls_vs_none_hi")
            ls = g["recovery.local-search.steps"]
            check("recovery.ls_vs_none_hi", ls <= lim * none,
                  f"local-search {ls:g} <= {lim:g} * control {none:g} steps")


def main():
    ap = argparse.ArgumentParser(
        description="Evaluate EXPERIMENTS.md tolerance bands against bench "
                    "--metrics-json output.")
    ap.add_argument("--exp03", help="bench_maxload_single metrics JSON")
    ap.add_argument("--exp07", help="bench_expected_requests metrics JSON")
    ap.add_argument("--exp13", help="bench_baselines metrics JSON")
    ap.add_argument("--exp22", help="bench_rt latency-sweep metrics JSON")
    ap.add_argument("--exp24", help="bench_rt link-model-sweep metrics JSON")
    ap.add_argument("--exp25", help="bench_rt workload-grid metrics JSON")
    ap.add_argument("--exp27", help="bench_rt scaling-grid metrics JSON")
    ap.add_argument("--recovery",
                    help="bench_recovery --recovery-time metrics JSON")
    ap.add_argument("--override", action="append", default=[],
                    metavar="BAND=VALUE",
                    help="perturb a band limit (self-test hook)")
    args = ap.parse_args()

    limits = dict(DEFAULT_LIMITS)
    for ov in args.override:
        band, _, value = ov.partition("=")
        if band not in limits:
            print(f"unknown band in --override: {band}", file=sys.stderr)
            print(f"known bands: {', '.join(sorted(limits))}", file=sys.stderr)
            return 2
        limits[band] = float(value)

    def limit(band):
        return limits[band]

    if not (args.exp03 or args.exp07 or args.exp13 or args.exp22 or
            args.exp24 or args.exp25 or args.exp27 or args.recovery):
        ap.error("at least one of --exp03/--exp07/--exp13/--exp22/--exp24/"
                 "--exp25/--exp27/--recovery is required")

    if args.exp03:
        print(f"exp03 bands ({args.exp03}):")
        check_exp03(gauges(args.exp03), limit)
    if args.exp07:
        print(f"exp07 bands ({args.exp07}):")
        check_exp07(gauges(args.exp07), limit)
    if args.exp13:
        print(f"exp13 bands ({args.exp13}):")
        check_exp13(gauges(args.exp13), limit)
    if args.exp22:
        print(f"exp22 bands ({args.exp22}):")
        check_exp22(gauges(args.exp22), limit)
    if args.exp24:
        print(f"exp24 bands ({args.exp24}):")
        check_exp24(gauges(args.exp24), limit)
    if args.exp25:
        print(f"exp25 bands ({args.exp25}):")
        check_exp25(gauges(args.exp25), limit)
    if args.exp27:
        print(f"exp27 bands ({args.exp27}):")
        check_exp27(gauges(args.exp27), limit)
    if args.recovery:
        print(f"recovery bands ({args.recovery}):")
        check_recovery(gauges(args.recovery), limit)

    passed = sum(RESULTS)
    failed = len(RESULTS) - passed
    print(f"statcheck: {passed} bands passed, {failed} failed")
    return 0 if failed == 0 and RESULTS else 1


if __name__ == "__main__":
    sys.exit(main())

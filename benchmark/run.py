#!/usr/bin/env python3
"""Build clb_bench from this checkout's sources and run one benchmark workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Extra flags (--smoke, --workers K, --corrupt-reference) go to clb_bench
unchanged; selftest.py uses them. The build lives under $CARGO_TARGET_DIR
(default .bench_build) inside the checkout. clb_bench's last stdout line is
the JSON result; its exit code is passed through (non-zero when a
correctness check failed).
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "clb_bench"


def build() -> Path:
    """Configures once, then builds incrementally; returns the program path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("benchmark: no library sources under %s/src" % ROOT)
    bd = build_dir()
    bd.mkdir(parents=True, exist_ok=True)
    # Concurrent runs in one checkout share the build tree; build one at a time.
    with open(bd / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        return _build_locked(bd)


def _build_locked(bd: Path) -> Path:
    if not (bd / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bd),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(bd), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return bd / "clb_bench"


def source_id() -> str:
    """The git commit when the checkout is a repository, plus a digest of
    the library and benchmark sources (the checkout may not be one)."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                            "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", BENCH_DIR.name):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "git=%s,tree=%s" % (sha, h.hexdigest()[:12])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("benchmark: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()] + extra
    if args.trace:
        spans = build_dir().parent / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / ("%s-seed%d.json" % (args.workload, args.seed)))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark: clb_bench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks that gcc inlined the generate/consume sweep's per-processor calls.

rt::ShardKernel::generate_consume (src/rt/kernel.cpp) sits at gcc's
inlining budget: when StealCandidates::offer stopped being inlined into it,
the steal-scale benchmark lost 23% of its tasks/s, and ShardKernel::classify
is [[gnu::always_inline]] because gcc otherwise inlined only one of the two.
This script disassembles the object that holds the sweep and fails when the
sweep still calls any of them.

    check_sweep_inlining.py --compiler GNU --config RelWithDebInfo OBJECT...

OBJECT is every object file of the clb_rt library; the one named
kernel.cpp.o is read. In an unlinked object a call names its target only in
its relocation, so the targets are the relocations inside the sweep's
disassembly (`objdump -dr -C`). Exits 77 (ctest's skip code) when the
compiler is not gcc, the build is neither Release nor RelWithDebInfo (the
configurations the budget was measured in; -Os or -O0 do not inline the
sweep), or objdump is missing.
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77
CHECKED_CONFIGS = ("Release", "RelWithDebInfo")
SWEEP = "clb::rt::ShardKernel::generate_consume("
# Calls the sweep must not make: each is per processor.
FORBIDDEN = (
    "StealCandidates::offer",
    "ShardKernel::classify",
    "ShardKernel::load_class",
)

SYMBOL = re.compile(r"^[0-9a-f]+ <(.*)>:$")
RELOC = re.compile(r"\sR_\w+\s+(.*?)(?:[-+]0x[0-9a-f]+)?$")


def sweep_targets(disassembly):
    """Relocation targets inside the sweep and its compiler clones, or None
    when the object holds no sweep."""
    targets = None
    inside = False
    for line in disassembly.splitlines():
        symbol = SYMBOL.match(line)
        if symbol:
            inside = symbol.group(1).startswith(SWEEP)
            if inside and targets is None:
                targets = set()
            continue
        if inside:
            reloc = RELOC.search(line)
            if reloc:
                targets.add(reloc.group(1))
    return targets


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compiler", required=True, help="CMAKE_CXX_COMPILER_ID")
    ap.add_argument("--config", required=True, help="the build configuration")
    ap.add_argument("objects", nargs="+", help="clb_rt's object files")
    args = ap.parse_args()

    if args.compiler != "GNU" or args.config not in CHECKED_CONFIGS:
        print(f"skip: needs a gcc Release or RelWithDebInfo build "
              f"({args.compiler}, {args.config or 'no config'})")
        return SKIP
    objdump = shutil.which("objdump")
    if objdump is None:
        print("skip: objdump not found")
        return SKIP
    # CMake hands the object list over as one ;-separated argument.
    objects = [o for arg in args.objects for o in arg.split(";")]
    kernel = [o for o in objects if o.endswith("kernel.cpp.o")]
    if len(kernel) != 1:
        print(f"error: expected one kernel.cpp.o among {objects}")
        return 1

    out = subprocess.run([objdump, "-dr", "-C", "--no-show-raw-insn",
                          kernel[0]], check=True, capture_output=True,
                         text=True).stdout
    targets = sweep_targets(out)
    if targets is None:
        print(f"error: {kernel[0]} holds no {SWEEP}...)")
        return 1
    print(f"{SWEEP}...) calls out to:")
    for t in sorted(targets):
        print(f"  {t}")
    bad = sorted(t for t in targets if any(f in t for f in FORBIDDEN))
    if bad:
        print("FAIL: the sweep calls per-processor helpers out of line:")
        for t in bad:
            print(f"  {t}")
        return 1
    print("ok: offer, classify and load_class are inlined into the sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Wall time of `miop verify` at depth, alternating between source trees.

For each preset and depth, and for two sets of that depth, runs

    python -m miop verify --preset P --D SET --format json

as a subprocess with PYTHONPATH set to one tree, `--runs` times per tree,
the trees in turn (A B A B ...).  Prints one JSON object: per case the
times and their median per tree, whether stdout was identical across
every run and tree, its sha256 and its last line.  Exits nonzero if a run
fails or stdout differs.

The two sets are SETS[depth] and the pure type-I set I1..I<depth>, whose
Casoratians one type fills.  SETS[depth] is mixed (types I and II) from
depth 2 on; at depth 1 it is II1, the type-II set.  Depths 1-3 are the
default `miop verify` sweep's six sets, so

    python3 scripts/depth_bench.py --presets l-default,j-default,w-default,aw-default --depths 1,2,3

times exactly that sweep's 24 (preset, set) runs, one subprocess each.

Usage:
    python3 scripts/depth_bench.py [--src TREE ...] [--presets P,...]
                                   [--depths 4,6,7] [--runs 3]
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETS = {  # the set of each depth next to pure(depth)
    1: "II1",
    2: "I1,II1",
    3: "I1,I2,II1",
    4: "I1,I2,I3,II1",
    5: "I1,I2,I3,II1,II2",
    6: "I1,I2,I3,I4,II1,II2",
    7: "I1,I2,I3,I4,I5,II1,II2",
}


def pure(depth: int) -> str:
    """The pure type-I set I1..I<depth>."""
    return ",".join(f"I{v}" for v in range(1, depth + 1))


PRESETS = "l-default,j-default,w-default,aw-default,aw-q13"


def run_once(src: str, preset: str, D: str) -> tuple:
    """(seconds, returncode, stdout) of one verify subprocess on tree src."""
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "miop", "verify", "--preset", preset, "--D", D, "--format", "json"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", nargs="+", default=[str(ROOT / "src")],
                    help="source trees holding the miop package, run in turn")
    ap.add_argument("--presets", default=PRESETS, help="comma-separated presets")
    ap.add_argument("--depths", default="4,6,7", help=f"comma-separated depths among {sorted(SETS)}")
    ap.add_argument("--runs", type=int, default=3, help="runs per tree and case")
    args = ap.parse_args()

    trees = [str(pathlib.Path(s).resolve()) for s in args.src]
    cases, ok = [], True
    for preset in args.presets.split(","):
        for depth, D in ((d, D) for d in map(int, args.depths.split(",")) for D in (SETS[d], pure(d))):
            times = {t: [] for t in trees}
            outputs, codes = set(), set()
            for _ in range(args.runs):
                for tree in trees:
                    dt, code, out = run_once(tree, preset, D)
                    times[tree].append(dt)
                    outputs.add(out)
                    codes.add(code)
            identical = len(outputs) == 1
            ok = ok and identical and codes == {0}
            out = outputs.pop()
            cases.append({
                "preset": preset, "depth": depth, "D": D,
                "times_s": times,
                "median_s": {t: statistics.median(ts) for t, ts in times.items()},
                "returncodes": sorted(codes),
                "identical_stdout": identical,
                "sha256": hashlib.sha256(out).hexdigest() if identical else None,
                "last_line": out.decode().rstrip("\n").rsplit("\n", 1)[-1] if identical else None,
            })
    json.dump({"python": platform.python_version(), "trees": trees, "runs": args.runs,
               "cases": cases}, sys.stdout, indent=1)
    print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
